"""The numpy-less platform: every workload on the dict reference view.

The dict backend is the pure-Python reference behind the same kernel
interface as the CSR snapshot, and the only path on an install without
numpy.  These tests pin both facts:

* in a subprocess with ``numpy`` and ``scipy`` blocked (so ``backend="auto"``
  degrades to the reference view), every workload returns exactly what the
  same call returns in-process with ``backend="dict"``;
* both equal literals captured before the dict and CSR shard workers were
  folded into one worker per workload, so the fold is bit-identical on the
  reference backend.

The module imports neither numpy nor hypothesis, so it also runs as-is on a
real numpy-less install.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.graphs import barabasi_albert_graph

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TESTS = os.path.dirname(os.path.abspath(__file__))

#: Values of :func:`reference_workloads` on the dict backend, captured
#: before the shard-worker fold (BA(80, 2), seed 5).
EXPECTED = {
    "exact_sum": 1.9462025316455698,
    "exact_0": 0.2880831475135272,
    "exact_7": 0.014291357376800411,
    "single_mh": 0.3329484429245792,
    "single_mh-unbiased": 0.2579239187871684,
    "single_uniform-source": 0.30389672036823945,
    "single_distance": 0.26305676206704687,
    "single_rk": 0.16666666666666666,
    "single_kadabra": 0.16666666666666666,
    "relative_0_1": 0.6334600940184054,
    "relative_1_0": 0.372689476440534,
    "group_0_1": 0.4174574353213586,
    "kadabra_adaptive": 0.29936305732484075,
    "kadabra_adaptive_samples": 314.0,
    "rk_all_sum": 2.033333333333333,
    "rk_all_0": 0.16666666666666666,
    "edge_mh": 0.04123314609718734,
}


def reference_workloads(backend: str) -> dict:
    """Run every estimator family once on *backend*; return ``{name: float}``."""
    from repro import betweenness_exact, betweenness_single, relative_betweenness
    from repro.exact.group import group_betweenness_centrality
    from repro.mcmc.edge import EdgeMHSampler
    from repro.samplers.kadabra import KadabraSampler
    from repro.samplers.riondato_kornaropoulos import RiondatoKornaropoulosSampler

    graph = barabasi_albert_graph(80, 2, seed=5)
    values = {}
    exact = betweenness_exact(graph, backend=backend)
    values["exact_sum"] = sum(exact.values())
    values["exact_0"] = exact[0]
    values["exact_7"] = exact[7]
    for method in ("mh", "mh-unbiased", "uniform-source", "distance", "rk", "kadabra"):
        estimate = betweenness_single(
            graph, 0, method=method, samples=60, seed=5, backend=backend
        )
        values[f"single_{method}"] = estimate.estimate
    relative = relative_betweenness(graph, [0, 1, 2], samples=120, seed=5, backend=backend)
    values["relative_0_1"] = relative.relative[0][1]
    values["relative_1_0"] = relative.relative[1][0]
    values["group_0_1"] = group_betweenness_centrality(graph, [0, 1], backend=backend)
    adaptive = KadabraSampler(adaptive=True, epsilon=0.1, backend=backend).estimate(
        graph, 0, 400, seed=5
    )
    values["kadabra_adaptive"] = adaptive.estimate
    values["kadabra_adaptive_samples"] = float(adaptive.samples)
    rk_all = RiondatoKornaropoulosSampler(backend=backend).estimate_all(graph, 60, seed=5)
    values["rk_all_sum"] = sum(rk_all.estimates.values())
    values["rk_all_0"] = rk_all.estimates[0]
    edge = tuple(next(iter(graph.edges()))[:2])
    values["edge_mh"] = EdgeMHSampler(backend=backend).estimate(graph, edge, 80, seed=5).estimate
    return values


_BLOCKED_RUN = """
import json, sys
sys.modules["numpy"] = None
sys.modules["scipy"] = None
from repro.graphs.csr import resolve_backend
assert resolve_backend("auto") == "dict"
import test_reference_backend as module
print(json.dumps(module.reference_workloads("auto")))
"""


@pytest.fixture(scope="module")
def blocked_values():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS])
    env.pop("REPRO_BACKEND", None)
    completed = subprocess.run(
        [sys.executable, "-c", _BLOCKED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def dict_values():
    return reference_workloads("dict")


def test_in_process_dict_backend_matches_the_captured_literals(dict_values):
    assert dict_values == EXPECTED


def test_numpy_blocked_run_matches_the_in_process_dict_backend(blocked_values, dict_values):
    assert blocked_values == dict_values


def test_numpy_blocked_run_matches_the_captured_literals(blocked_values):
    assert blocked_values == EXPECTED
