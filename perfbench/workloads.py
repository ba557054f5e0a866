"""Inputs, the per-operation recorder and the three workloads.

Every workload is one closed-loop client with no think time, driven from
this process, on one fixed graph: a Barabási–Albert graph BA(3000, 3)
generated here from a fixed seed (the program under test receives only the
edge list).  The workload seed picks the query targets, the edited edges
and the per-query rng seeds — nothing else — and targets are drawn within
fixed degree-rank strata in a fixed order, so the cost mix of a round does
not depend on the seed.

Every workload reports every end-to-end metric, so every workload issues
all five operation kinds (estimate, relative, ranking, exact, mutate), in
fixed counts per round; what differs between workloads is how they reach
the graph:

* ``cold-oneshot`` — one public-API call at a time with default knobs: no
  shared work, every MH proposal misses the oracle, so the traversal
  kernels and exact Brandes do nearly all the work.  A mutate is an
  in-place edit of the library ``Graph`` plus the fresh CSR snapshot the
  next cold call needs.
* ``warm-serve`` — the daemon core (``ServingApp.dispatch``) with a default
  ``ServingConfig`` after set-up warmed every oracle kind the reads touch:
  fully shared work.  The read loop must make zero Brandes passes, so its
  mutates are idempotent upserts (receipt mode ``noop``) and its exact —
  which always runs n passes by design — is served after the read loop.
* ``live-mutate`` — the daemon on an explicit ``ExecutionPlan(batch_size=32,
  n_jobs=2)`` under edits: every edit inserts a triangle-closing edge or
  removes it again (receipt mode ``delta``), so shared work keeps being
  destroyed and re-warmed.

``warm-serve`` runs by name (``--workload warm-serve``) but is not listed in
``BENCHMARK.json``: its three set-ups of about 8 s each (on 2 vCPUs) would
not leave room within the benchmark's total time limit for the 40-second
runs that the other two workloads need to be steady.  Every layer it drives
is also driven by ``live-mutate``.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

GRAPH_N = 3000
GRAPH_M = 3
GRAPH_SEED = 2019
#: Upper bounds (fractions of the degree ranking) of the target strata.
STRATA = (0.01, 0.05, 0.2, 0.5, 1.0)
#: Chain lengths: the cold analyst's defaults and the daemon's.
COLD_SAMPLES = 200
SERVED_SAMPLES = 1000
RELATIVE_SAMPLES = 1000
#: Samples of the fixed warm-up chains that fill the served oracles.
WARM_SAMPLES = 20000
GRAPH_NAME = "g"


def ba_edges(n: int, m: int, seed: int) -> List[Tuple[int, int]]:
    """Edge list of a BA(n, m) graph: a star on m + 1 vertices, then attachment."""
    rng = random.Random(seed)
    edges = [(0, i) for i in range(1, m + 1)]
    endpoints = [x for edge in edges for x in edge]
    for new in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(endpoints))
        for target in sorted(targets):
            edges.append((new, target))
            endpoints.extend((new, target))
    return edges


class Inputs:
    """The fixed graph plus the seeded draws of one run."""

    def __init__(self, seed: int) -> None:
        self.edges = ba_edges(GRAPH_N, GRAPH_M, GRAPH_SEED)
        adj: Dict[int, set] = defaultdict(set)
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = {v: sorted(nbrs) for v, nbrs in adj.items()}
        order = sorted(self.adj, key=lambda v: (-len(self.adj[v]), v))
        bounds = [0] + [round(f * len(order)) for f in STRATA]
        self.strata = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        self.rng = random.Random(seed)

    def target(self, stratum: int) -> int:
        return self.rng.choice(self.strata[stratum % len(self.strata)])

    def query_seed(self) -> int:
        return self.rng.getrandbits(31)

    def reference_set(self, per_stratum: int) -> List[int]:
        """*per_stratum* distinct vertices from each of the four top strata."""
        members: List[int] = []
        for stratum in self.strata[:4]:
            members.extend(self.rng.sample(stratum, per_stratum))
        return members

    def triangle_edge(self, stratum: int) -> Tuple[int, int]:
        """A non-edge ``(u, w)`` closing a triangle ``u - a - w``, u in *stratum*."""
        while True:
            u = self.target(stratum)
            a = self.rng.choice(self.adj[u])
            w = self.rng.choice(self.adj[a])
            if w != u and w not in self.adj[u]:
                return u, w

    def existing_edge(self, stratum: int) -> Tuple[int, int]:
        u = self.target(stratum)
        return u, self.rng.choice(self.adj[u])


class Recorder:
    """Latencies, execution stamps and failures of one phase, per operation kind.

    An operation fails when it raises or when its check (run outside the
    timed region) reports a problem; it counts once either way.
    """

    def __init__(self, tracer=None, memory=None) -> None:
        self.tracer = tracer
        self.memory = memory
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.stamps: Dict[str, set] = defaultdict(set)
        self.errors: List[str] = []
        #: ``(kind, request, answer, inserted edge or None)`` of served reads.
        self.samples: List[Tuple[str, dict, object, Optional[Tuple[int, int]]]] = []
        #: ``(target, estimate)`` of estimates made at the base graph.
        self.estimates: List[Tuple[int, float]] = []
        self.acceptance: List[float] = []
        self.receipts: List[dict] = []

    def run(self, kind: str, fn: Callable[[], object], inspect: Callable[[object], Tuple[dict, Optional[str]]]):
        """Time ``fn()``; ``inspect(result)`` returns ``(stamp, error or None)``."""
        self.attempted[kind] += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            result = None
        else:
            self.latency[kind].append(time.perf_counter() - start)
            try:
                stamp, error = inspect(result)
            except Exception as exc:  # noqa: BLE001 - a malformed answer is a failed op
                stamp, error = {}, f"unreadable answer: {type(exc).__name__}: {exc}"
            self.stamps[kind].add(json.dumps(stamp, sort_keys=True))
            if error is not None:
                self.fail(kind, error)
                result = None
        if self.tracer is not None:
            self.tracer.op_done()
        if self.memory is not None:
            self.memory.maybe_sample()
        return result

    def fail(self, kind: str, message: str) -> None:
        self.failed[kind] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")

    def ops(self) -> int:
        return sum(len(values) for values in self.latency.values())


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def _estimate_error(value) -> Optional[str]:
    if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0):
        return f"estimate {value!r} is not a betweenness score in [0, 1]"
    return None


def _ranking_error(ranking, members) -> Optional[str]:
    if sorted(str(v) for v in ranking) != sorted(str(v) for v in members):
        return f"ranking {ranking!r} is not a permutation of {members!r}"
    return None


def _close(a: float, b: float) -> bool:
    """Equal within 1e-9 (the batched and point kernels may differ in the last ulp); NaN never is."""
    return abs(a - b) <= 1e-9


def _exact_error(scores: Dict[object, float], reference: Dict[int, float], top: Optional[int]) -> Optional[str]:
    """Compare exact scores (all, or the top *top*) with the reference."""
    if top is None and len(scores) != len(reference):
        return f"exact returned {len(scores)} scores for {len(reference)} vertices"
    wrong = [v for v, value in scores.items() if not _close(float(value), reference[int(v)])]
    if wrong:
        return f"exact scores of {len(wrong)} vertices differ from the reference (first: {wrong[0]})"
    if top is not None:
        expected = sorted(reference.values(), reverse=True)[:top]
        got = sorted((float(x) for x in scores.values()), reverse=True)
        if len(got) != top or not all(_close(a, b) for a, b in zip(got, expected)):
            return "served top scores are not the reference top scores"
    return None


def reference_error(edges: List[Tuple[int, int]], reference: Dict[int, float]) -> Optional[str]:
    """Check the exact reference against an invariant computed without the program.

    Summed over all vertices, betweenness counts the interior vertices of
    every shortest path: ``sum_v BC(v) = sum_{s != t} (d(s, t) - 1)``,
    divided by ``n (n - 1)`` in the paper's normalization.  The distances
    come from scipy's all-pairs BFS, so a scaling or accumulation error in
    the program's Brandes cannot cancel out against itself.
    """
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    n = len(reference)
    ends = np.asarray(edges, dtype=np.int64).T
    adjacency = coo_matrix((np.ones(ends.shape[1]), (ends[0], ends[1])), shape=(n, n)).tocsr()
    distances = shortest_path(adjacency, directed=False, unweighted=True)
    expected = float(distances.sum() - n * (n - 1)) / (n * (n - 1))
    total = math.fsum(reference.values())
    if not abs(total - expected) <= 1e-9 * expected:
        return f"exact reference sums to {total!r}, shortest-path lengths give {expected!r}"
    return None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One way of driving the program; subclasses define set-up and a round."""

    name = ""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.reference: Dict[int, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def phase(self, rec: Recorder, seconds: float) -> int:
        """Run whole rounds for about *seconds*; return the round count.

        A round is started only while the phase would end closer to
        *seconds* with it than without it (judged by the last round's
        length), so a phase overruns by at most half a round.
        """
        start = time.perf_counter()
        rounds, last = 0, 0.0
        while rounds == 0 or time.perf_counter() - start + last / 2 < seconds:
            gc.collect()
            began = time.perf_counter()
            self.round(rec)
            last = time.perf_counter() - began
            rounds += 1
        return rounds

    def verify(self, rec: Recorder) -> None:
        """Checks that need the phases' answers (none by default)."""

    def gauges(self) -> Dict[str, float]:
        """End-of-phase state the per-layer metrics read (none by default)."""
        return {}


class ColdOneshot(Workload):
    name = "cold-oneshot"

    def setup(self) -> None:
        from repro import Graph

        self.graph = Graph.from_edges(self.inputs.edges)
        #: Stratum of the next edit and estimate; it cycles across rounds.
        self.stratum = 0

    def teardown(self) -> None:
        self.graph = None

    def round(self, rec: Recorder) -> None:
        from repro import betweenness_exact, betweenness_single, relative_betweenness
        from repro.centrality.api import betweenness_ranking
        from repro.execution import resolve_kernel_threads
        from repro.execution.stamp import execution_stamp, resolve_kernel_quiet
        from repro.graphs.csr import resolve_backend

        graph, inputs = self.graph, self.inputs
        m = len(inputs.edges)
        kernel, threads = resolve_kernel_quiet("auto"), resolve_kernel_threads(None)

        def stamp_of(diagnostics) -> dict:
            return execution_stamp(diagnostics, kernel, threads)

        def edit_check(expected_edges: int):
            def inspect(csr):
                error = None
                if csr.number_of_edges() != expected_edges:
                    error = f"snapshot has {csr.number_of_edges()} edges, expected {expected_edges}"
                return {"path": "graph-edit+csr", "backend": resolve_backend("auto")}, error

            return inspect

        def estimate(stratum: int, at_base: bool) -> None:
            target, seed = inputs.target(stratum), inputs.query_seed()
            result = rec.run(
                "estimate",
                lambda: betweenness_single(graph, target, method="mh", samples=COLD_SAMPLES, seed=seed),
                lambda r: (stamp_of(r.diagnostics), _estimate_error(r.estimate)),
            )
            if result is not None:
                rec.acceptance.append(result.diagnostics["acceptance_rate"])
                if at_base:
                    rec.estimates.append((target, result.estimate))

        # Kinds are interleaved so each samples the whole round, not one
        # burst of it.  A round is short (about 8 s of work) so that a run
        # holds several exacts.
        for i in range(2):
            stratum = self.stratum
            self.stratum += 1
            u, w = inputs.triangle_edge(stratum)
            rec.run("mutate", lambda: (graph.add_edge(u, w), graph.csr())[1], edit_check(m + 1))
            estimate(stratum, at_base=False)
            rec.run("mutate", lambda: (graph.remove_edge(u, w), graph.csr())[1], edit_check(m))
            estimate(stratum + 2, at_base=True)
            if i == 0:
                members, seed = inputs.reference_set(1), inputs.query_seed()
                result = rec.run(
                    "relative",
                    lambda: relative_betweenness(graph, members, samples=RELATIVE_SAMPLES, seed=seed),
                    lambda r: (stamp_of(r.diagnostics), _ranking_error(r.ranking(), members)),
                )
                if result is not None:
                    rec.acceptance.append(result.acceptance_rate)
            else:
                members, seed = inputs.reference_set(2), inputs.query_seed()
                rec.run(
                    "ranking",
                    lambda: betweenness_ranking(graph, members, samples=RELATIVE_SAMPLES, seed=seed),
                    lambda r: (stamp_of(r["estimate"].diagnostics), _ranking_error(r["ranking"], members)),
                )
        rec.run(
            "exact",
            lambda: betweenness_exact(graph),
            lambda scores: (
                {"backend": resolve_backend("auto"), "kernel": kernel},
                _exact_error(scores, self.reference, None),
            ),
        )


class Served(Workload):
    """Shared plumbing of the two daemon workloads (driven through ``dispatch``)."""

    #: Execution knobs of the cold calls that served answers must equal.
    cold_knobs: Dict[str, object] = {}

    def make_app(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.app = self.make_app()
        #: The edge an edit added on top of the base graph (``None`` at base).
        self.inserted: Optional[Tuple[int, int]] = None
        self.call("PUT", f"/graphs/{GRAPH_NAME}", {"edges": self.inputs.edges})
        self.warm_up()

    def teardown(self) -> None:
        self.app.close()
        self.app = None

    def call(self, method: str, path: str, body: Optional[dict] = None):
        """One untimed request; raises on a non-200 answer."""
        raw = json.dumps(body).encode("utf-8") if body is not None else b""
        response = self.app.dispatch(method, path, raw)
        if response.status != 200:
            raise RuntimeError(f"{method} {path} answered {response.status}: {response.body[:200]!r}")
        if response.content_type.startswith("application/json"):
            return json.loads(response.body)
        return response.body.decode("utf-8")

    def brandes_passes(self) -> int:
        """The daemon's own pass counter, scraped from ``GET /metrics``."""
        prefix = f'repro_brandes_passes_total{{graph="{GRAPH_NAME}"}}'
        for line in self.call("GET", "/metrics").splitlines():
            if line.startswith(prefix):
                return int(float(line.split()[-1]))
        return 0

    def warm_up(self) -> None:
        """Fill the single-vertex and joint oracles with fixed-seed chains."""
        n = len(self.inputs.adj)
        members = [stratum[0] for stratum in self.inputs.strata[:4]]
        seed = 0
        # A chain never evaluates its own target as a source, so the
        # warm-up chains alternate between two targets.
        while self.brandes_passes() < n and seed < 20:
            self.call("POST", f"/graphs/{GRAPH_NAME}/estimate",
                      {"vertex": members[seed % 2], "samples": WARM_SAMPLES, "seed": seed})
            seed += 1
        for seed in range(3):
            self.call("POST", f"/graphs/{GRAPH_NAME}/relative",
                      {"vertices": members, "samples": WARM_SAMPLES, "seed": seed})

    def served(self, rec: Recorder, kind: str, body: dict, check: Callable[[dict], Optional[str]] = None):
        """One timed request; returns the parsed answer (``None`` on failure)."""
        path = f"/graphs/{GRAPH_NAME}/{kind}"
        raw = json.dumps(body).encode("utf-8")

        answer = {}

        def inspect(response):
            if response.status != 200:
                return {}, f"HTTP {response.status}: {response.body[:200]!r}"
            payload = answer["payload"] = json.loads(response.body)
            if kind == "mutate":
                receipt = payload["mutated"]["invalidation"]
                rec.receipts.append(receipt)
                stamp = {"mode": receipt["mode"]}
            else:
                stamp = {key: value for key, value in payload["receipt"].items()
                         if key not in ("graph", "graph_version", "op", "server_seconds")}
            return stamp, check(payload) if check is not None else None

        response = rec.run(kind, lambda: self.app.dispatch("POST", path, raw), inspect)
        return answer["payload"] if response is not None else None

    def estimate(self, rec: Recorder, stratum: int) -> None:
        target, seed = self.inputs.target(stratum), self.inputs.query_seed()
        body = {"vertex": target, "samples": SERVED_SAMPLES, "seed": seed}
        payload = self.served(rec, "estimate", body, lambda p: _estimate_error(p["estimate"]))
        if payload is not None:
            rec.acceptance.append(payload["acceptance_rate"])
            rec.samples.append(("estimate", body, payload["estimate"], self.inserted))
            if self.inserted is None:
                rec.estimates.append((target, payload["estimate"]))

    def relative(self, rec: Recorder) -> None:
        members = self.inputs.reference_set(1)
        body = {"vertices": members, "samples": RELATIVE_SAMPLES, "seed": self.inputs.query_seed()}
        payload = self.served(rec, "relative", body, lambda p: _ranking_error(p["ranking"], members))
        if payload is not None:
            rec.acceptance.append(payload["acceptance_rate"])
            rec.samples.append(("relative", body, payload["relative"], self.inserted))

    def ranking(self, rec: Recorder) -> None:
        members = self.inputs.reference_set(2)
        body = {"vertices": members, "k": 3, "samples": RELATIVE_SAMPLES, "seed": self.inputs.query_seed()}

        def check(payload) -> Optional[str]:
            ranked = payload["ranking"]
            if len(ranked) != 3 or not set(ranked) <= {str(v) for v in members}:
                return f"ranking {ranked!r} is not 3 members of {members!r}"
            return None

        payload = self.served(rec, "ranking", body, check)
        if payload is not None:
            rec.samples.append(("ranking", body, payload["ranking"], self.inserted))

    def exact(self, rec: Recorder) -> None:
        self.served(rec, "exact", {"top": 10}, lambda p: _exact_error(p["scores"], self.reference, 10))

    def mutate(self, rec: Recorder, body: dict, mode: str) -> None:
        def check(payload) -> Optional[str]:
            receipt = payload["mutated"]["invalidation"]
            if receipt["mode"] != mode:
                return f"mutate receipt mode {receipt['mode']!r} (reason {receipt.get('reason')!r}), expected {mode!r}"
            return None

        self.served(rec, "mutate", body, check)

    def gauges(self) -> Dict[str, float]:
        context = self.app.registry.get(GRAPH_NAME).stats()["context"]
        return {"arena_occupancy": float(context.get("arena_occupancy") or 0.0)}

    def verify(self, rec: Recorder) -> None:
        """Served answers must equal a cold API call on the same edge list.

        The first served read of each kind at each graph state (base, and
        base plus an inserted edge) is replayed cold.  The served graph is
        ``Graph.from_edges`` of this edge list, with an inserted edge
        appended last to both endpoints' adjacency, so a cold call on
        ``Graph.from_edges`` of the same list sees the same vertex and
        adjacency order — the generator's own insertion order would
        differ, and with it the rng-to-vertex mapping.
        """
        from repro import Graph, betweenness_single, relative_betweenness

        seen = set()
        for kind, body, answer, inserted in rec.samples:
            if (kind, inserted is None) in seen:
                continue
            seen.add((kind, inserted is None))
            rec.attempted["verify"] += 1
            edges = self.inputs.edges if inserted is None else [*self.inputs.edges, inserted]
            graph = Graph.from_edges(edges)
            knobs = dict(self.cold_knobs)
            if kind == "estimate":
                cold = betweenness_single(graph, body["vertex"], samples=body["samples"],
                                          seed=body["seed"], **knobs).estimate
            else:
                estimate = relative_betweenness(graph, body["vertices"], samples=body["samples"],
                                                seed=body["seed"], **knobs)
                if kind == "relative":
                    cold = {str(a): {str(b): v for b, v in row.items()}
                            for a, row in estimate.relative.items()}
                else:
                    cold = [str(v) for v in estimate.ranking()[: body["k"]]]
            # Compared as JSON text: bit-equal floats print identically, and
            # a pair the chain never sampled is NaN on both sides.
            if json.dumps(cold, sort_keys=True) != json.dumps(answer, sort_keys=True):
                rec.fail("verify", f"served {kind} differs from the cold call: {answer!r} vs {cold!r}")


class WarmServe(Served):
    name = "warm-serve"

    def make_app(self):
        from repro.serving import ServingApp, ServingConfig

        return ServingApp(config=ServingConfig())

    def round(self, rec: Recorder) -> None:
        for block in range(4):
            for i in range(5):
                self.estimate(rec, i)
            self.relative(rec)
            self.ranking(rec)
            u, a = self.inputs.existing_edge(block)
            self.mutate(rec, {"add_edges": [[u, a]]}, "noop")

    def phase(self, rec: Recorder, seconds: float) -> int:
        """The read loop must make zero Brandes passes; then one served exact."""
        passes, evaluations = self.brandes_passes(), _oracle_evaluations()
        rounds = super().phase(rec, seconds)
        gc.collect()
        rec.attempted["stationary"] += 1
        extra = (self.brandes_passes() - passes, _oracle_evaluations() - evaluations)
        if extra != (0, 0):
            rec.fail("stationary", f"read loop made Brandes passes (counter, oracles) = {extra}")
        self.exact(rec)
        return rounds


class LiveMutate(Served):
    name = "live-mutate"

    cold_knobs = {"backend": "csr", "batch_size": 32, "n_jobs": 2, "kernel": "csr", "kernel_threads": 1}

    def make_app(self):
        from repro.execution import resolve_plan
        from repro.serving import ServingApp, ServingConfig

        plan = resolve_plan(None, backend="csr", batch_size=32, n_jobs=2, kernel="csr", kernel_threads=1)
        config = ServingConfig(backend="csr", kernel="csr", kernel_threads=1, invalidation="delta")
        return ServingApp(plan=plan, config=config)

    def warm_up(self) -> None:
        super().warm_up()
        # The first exact starts the persistent pool and installs the graph.
        self.call("POST", f"/graphs/{GRAPH_NAME}/exact", {"top": 10})

    def round(self, rec: Recorder) -> None:
        for sub in range(5):
            u, w = self.inputs.triangle_edge(sub)
            self.inserted = (u, w)
            self.mutate(rec, {"add_edges": [[u, w]]}, "delta")
            self.estimate(rec, sub)
            self.mutate(rec, {"remove_edges": [[u, w]]}, "delta")
            self.inserted = None
            self.estimate(rec, sub + 2)
        self.relative(rec)
        self.ranking(rec)
        self.exact(rec)


def _oracle_evaluations() -> int:
    """Brandes passes recorded by every live dependency oracle.

    Read beside the daemon's counter because the joint-space sampler
    reports no ``evaluations`` diagnostic, so ``relative`` / ``ranking``
    passes never reach that counter.
    """
    from repro.mcmc.estimates import DependencyOracle

    return sum(obj.evaluations for obj in gc.get_objects() if isinstance(obj, DependencyOracle))


WORKLOADS = {cls.name: cls for cls in (ColdOneshot, WarmServe, LiveMutate)}
