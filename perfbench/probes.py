"""Process-tree memory sampling, the environment block and the machine-phase loop.

Nothing here feeds back into a metric value: the environment block and the
reference-loop timings are recorded beside the metrics so two runs can be
compared for machine phase, never used to scale them.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, List, Optional


def _children_of(pid: int) -> List[int]:
    """Every descendant of *pid* (one ``/proc`` scan, walked transitively)."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        fields = stat[stat.rfind(b")") + 2 :].split()
        parent_of[int(entry)] = int(fields[1])
    descendants: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parent_of.items():
            if parent == current:
                descendants.append(child)
                frontier.append(child)
    return descendants


def _pss_kb(pid: int) -> int:
    """Proportional set size of *pid* in kB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
            for line in handle:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mb() -> float:
    """PSS of this process plus all its descendants, in MB.

    PSS charges each shared page to the processes mapping it in equal
    shares, so summing it over the tree counts a shared-memory segment
    (the dependency arena, a shared graph) exactly once.
    """
    me = os.getpid()
    return sum(_pss_kb(pid) for pid in [me, *_children_of(me)]) / 1024.0


class PeakMemory:
    """Peak of :func:`tree_pss_mb` over samples taken between operations.

    A sampling thread would compete with the timed operations for the
    interpreter lock; sampling between them (at most every *interval*
    seconds, outside every timed region) keeps the timings clean, at the
    cost of missing a transient that lives and dies inside one operation.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self.samples = 0
        self._last = float("-inf")

    def sample(self) -> None:
        self.peak_mb = max(self.peak_mb, tree_pss_mb())
        self.samples += 1
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.sample()


def reference_loop_ms() -> float:
    """Wall time of a fixed interpreter + numpy loop (machine-phase probe).

    The numpy half mirrors the traversal kernels (gathers, ``bincount``
    over a 3000-vertex index space) and avoids BLAS, whose thread start-up
    would read as a slow machine.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    rng = np.random.default_rng(0)
    index = rng.integers(0, 3000, size=18_000)
    weights = rng.random(18_000)
    delta = np.zeros(3000)
    for _ in range(60):
        delta += np.bincount(index, weights=weights[index % 3000] * (1.0 + delta[index]), minlength=3000)
        delta /= delta.max()
    return (time.perf_counter() - start) * 1000.0


def environment(graph_csr, seed: int) -> Dict[str, object]:
    """Versions, resolved execution routes and input shape of this run."""
    import numpy

    from repro.graphs.csr import resolve_backend, resolve_kernel
    from repro.shortest_paths import batch as batch_module

    def version(name: str) -> Optional[str]:
        try:
            module = __import__(name)
        except ImportError:
            return None
        return getattr(module, "__version__", "unknown")

    if batch_module._scipy_sparse is not None and batch_module._spmm_suitable(graph_csr):
        route = "scipy-spmm"
    elif resolve_kernel("auto") == "compiled":
        route = "compiled-wave"
    else:
        route = "numpy-wave"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba": version("numba"),
        "backend": resolve_backend("auto"),
        "kernel": resolve_kernel("auto"),
        "batch_route": route,
        "graph_n": graph_csr.number_of_vertices(),
        "graph_m": graph_csr.number_of_edges(),
        "seed": seed,
    }
