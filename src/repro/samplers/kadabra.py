"""Simplified KADABRA-style path sampler (Borassi & Natale 2016).

KADABRA improves on uniform shortest-path sampling in two ways: it samples
the path with a *balanced bidirectional* BFS (touching far fewer edges per
sample on small-diameter graphs), and it decides the number of samples
*adaptively* from empirical Bernstein bounds.  The reproduction implements
the first ingredient faithfully on top of
:mod:`repro.shortest_paths.bidirectional`, and a simplified, optional
adaptive stopping rule based on the empirical Bernstein inequality — enough
to place the baseline correctly in the E1/E2 comparisons without porting the
full engineering of the original C++ code.
"""

from __future__ import annotations

import math
from typing import Optional

from repro._rng import RandomState, ensure_rng
from repro.errors import ConfigurationError
from repro.execution import plan_view
from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import graph_view
from repro.samplers.base import (
    AllVerticesEstimator,
    ExecutionPlanMixin,
    MapEstimate,
    SingleEstimate,
    SingleVertexEstimator,
    timed,
)
from repro.samplers.riondato_kornaropoulos import sharded_path_counts, sharded_path_hits
from repro.shortest_paths.bidirectional import sample_pair_interior

__all__ = ["KadabraSampler"]


class KadabraSampler(ExecutionPlanMixin, SingleVertexEstimator, AllVerticesEstimator):
    """Bidirectional-BFS shortest-path sampler with optional adaptive stopping.

    Parameters
    ----------
    adaptive:
        When ``True``, :meth:`estimate` keeps sampling until the empirical
        Bernstein radius drops below ``epsilon`` (or ``num_samples`` is
        reached, whichever comes first).  When ``False`` exactly
        ``num_samples`` samples are drawn.
    epsilon, delta:
        Accuracy / confidence targets for the adaptive stopping rule.
    backend:
        ``"auto"`` / ``"dict"`` / ``"csr"``.  Every sample goes through the
        path-sampling kernel entry
        :func:`~repro.shortest_paths.bidirectional.sample_pair_interior`
        with ``balanced=True``: the CSR backend runs the balanced
        bidirectional growth and the path SPD on the vectorised kernels,
        drawing pairs by dense index with the same rng stream as the dict
        reference view (identical samples for a fixed seed).
    """

    name = "kadabra"

    def __init__(
        self,
        *,
        adaptive: bool = False,
        epsilon: float = 0.01,
        delta: float = 0.1,
        backend: str = "auto",
        batch_size: Optional[int] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        if epsilon <= 0.0:
            raise ConfigurationError("epsilon must be positive")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError("delta must be in (0, 1)")
        self.adaptive = bool(adaptive)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.backend = backend
        #: Execution-engine knobs, with the same semantics as the RK
        #: sampler: ``n_jobs`` shards the sample loop with per-shard child
        #: rng streams (results identical for any ``n_jobs``); ``batch_size``
        #: is accepted for uniformity and unused (per-sample rng
        #: interleaving).  The adaptive stopping rule is a sequential
        #: decision over the global sample stream, so :meth:`estimate` runs
        #: one inline loop when ``adaptive=True``.
        self.batch_size = batch_size
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------
    def estimate_all(
        self,
        graph: Graph,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> MapEstimate:
        """Estimate the betweenness of all vertices from *num_samples* bb-BFS path samples."""
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        if graph.number_of_vertices() < 2:
            raise ConfigurationError("the graph must have at least two vertices")
        rng = ensure_rng(seed)
        plan = self._plan()
        with timed() as clock:
            view = plan_view(graph, plan)
            counts, touched_total = sharded_path_counts(
                view, num_samples, rng, plan, balanced=True
            )
            estimates = {
                v: c / num_samples for v, c in view.array_to_vertex_map(counts).items()
            }
        return MapEstimate(
            estimates=estimates,
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics={
                "backend": view.backend,
                "n_jobs": plan.n_jobs,
                "batch_size": plan.batch_size,
                "touched_edges": touched_total,
            },
        )

    # ------------------------------------------------------------------
    def estimate(
        self,
        graph: Graph,
        r: Vertex,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> SingleEstimate:
        """Estimate ``BC(r)``; with ``adaptive=True`` sampling may stop early."""
        graph.validate_vertex(r)
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        rng = ensure_rng(seed)
        plan = self._plan()
        if not self.adaptive:
            with timed() as clock:
                view = plan_view(graph, plan)
                hits, touched_total = sharded_path_hits(
                    view, view.index_of(r), num_samples, rng, plan, balanced=True
                )
            return SingleEstimate(
                vertex=r,
                estimate=hits / num_samples,
                samples=num_samples,
                elapsed_seconds=clock.elapsed,
                method=self.name,
                diagnostics={
                    "hits": hits,
                    "touched_edges": touched_total,
                    "adaptive": self.adaptive,
                    "backend": view.backend,
                    "n_jobs": plan.n_jobs,
                    "batch_size": plan.batch_size,
                },
            )
        # Adaptive stopping is a sequential decision over the global stream.
        hits = 0.0
        drawn = 0
        touched_total = 0
        with timed() as clock:
            view = graph_view(graph, plan.backend)
            r_index = view.index_of(r)
            for i in range(1, num_samples + 1):
                interior, touched = sample_pair_interior(view, rng, balanced=True)
                touched_total += touched
                if r_index in interior:
                    hits += 1.0
                drawn = i
                if i >= 30 and self._bernstein_radius(hits, i) <= self.epsilon:
                    break
        return SingleEstimate(
            vertex=r,
            estimate=hits / drawn,
            samples=drawn,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics={
                "hits": hits,
                "touched_edges": touched_total,
                "adaptive": self.adaptive,
                "backend": view.backend,
            },
        )

    # ------------------------------------------------------------------
    def _bernstein_radius(self, hits: float, n: int) -> float:
        """Empirical Bernstein confidence radius for a Bernoulli mean after *n* samples."""
        mean = hits / n
        variance = mean * (1.0 - mean)
        log_term = math.log(3.0 / self.delta)
        return math.sqrt(2.0 * variance * log_term / n) + 3.0 * log_term / n
