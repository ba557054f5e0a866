"""Span tracer wrapped around the public entry points of each ``repro`` layer.

The tracer lives entirely in the benchmark: it rebinds functions and
methods of the program for the duration of a traced phase and restores
them afterwards, so the untraced phases run the program untouched.

A function bound elsewhere with ``from module import name`` keeps its own
reference, which a wrapper installed only on the defining module would
miss.  :meth:`Tracer.install` therefore rebinds *every* ``repro`` module
attribute that holds the original object, and records how many bindings it
replaced; :meth:`Tracer.coverage` reports per entry point how often the
wrapper fired, so a caller the wrappers cannot reach still shows up as a
zero instead of silently disappearing.

Spans carry a name, start, end and parent span id and stay in memory until
the phase ends.  A span opened on a thread with no open span of its own
(the serving layer runs each query on a compute thread) takes the
innermost open span of the thread that installed the tracer as its parent.
"""

from __future__ import annotations

import gc
import importlib
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, "module:attribute path")`` for every wrapped entry point.
#: Several entry points may share a span name (one name per layer boundary).
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("serving.dispatch", "repro.serving.server:ServingApp.dispatch"),
    ("centrality.query", "repro.centrality.api:betweenness_single"),
    ("centrality.query", "repro.centrality.api:relative_betweenness"),
    ("centrality.query", "repro.centrality.api:betweenness_ranking"),
    ("centrality.query", "repro.centrality.api:betweenness_exact"),
    ("centrality.query", "repro.centrality.session:BetweennessSession.estimate"),
    ("centrality.query", "repro.centrality.session:BetweennessSession.relative"),
    ("centrality.query", "repro.centrality.session:BetweennessSession.ranking"),
    ("centrality.query", "repro.centrality.session:BetweennessSession.exact"),
    ("centrality.mutate", "repro.centrality.session:ThreadSafeSession.mutate"),
    ("centrality.sync", "repro.centrality.session:BetweennessSession._sync_graph"),
    ("graphs.ensure_connected", "repro.graphs.utils:ensure_connected"),
    ("mcmc.chain", "repro.mcmc.single:SingleSpaceMHSampler.run_chain"),
    ("mcmc.chain", "repro.mcmc.joint:JointSpaceMHSampler.run_chain"),
    ("mcmc.prefetch", "repro.mcmc.estimates:DependencyOracle.prefetch"),
    ("mcmc.oracle_init", "repro.mcmc.estimates:DependencyOracle.__init__"),
    ("shortest_paths.source", "repro.shortest_paths.dependencies:csr_source_dependencies"),
    ("shortest_paths.batch", "repro.shortest_paths.batch:batch_source_dependencies"),
    ("shortest_paths.spd", "repro.shortest_paths.bfs:bfs_spd_csr"),
    ("shortest_paths.spd", "repro.shortest_paths.batch:bfs_spd_batch_csr"),
    ("shortest_paths.accumulate", "repro.shortest_paths.dependencies:accumulate_dependencies_csr"),
    ("shortest_paths.accumulate", "repro.shortest_paths.batch:accumulate_dependencies_batch_csr"),
    ("shortest_paths.sweep", "repro.shortest_paths.batch:_batch_dependencies_spmm"),
    ("exact.brandes", "repro.exact.brandes:betweenness_centrality"),
    ("execution.run_sharded", "repro.execution.scheduler:run_sharded"),
    ("execution.pool_run", "repro.execution.runtime:PersistentWorkerPool.run"),
    ("execution.install", "repro.execution.runtime:PersistentWorkerPool.ensure_payload"),
    ("execution.pickle", "repro.execution.runtime:_dumps_payload"),
    ("execution.refresh", "repro.execution.runtime:ExecutionContext.refresh"),
    ("incremental.affected", "repro.incremental.affected:affected_sources"),
    ("graphs.csr_build", "repro.graphs.csr:CSRGraph.from_graph"),
    ("graphs.csr_build", "repro.graphs.csr:CSRGraph.patched"),
    ("graphs.mutation", "repro.graphs.core:Graph.add_edge"),
    ("graphs.mutation", "repro.graphs.core:Graph.remove_edge"),
)

#: Oracle work counters read around every operation (attribute names).
_ORACLE_COUNTERS = ("lookups", "evaluations", "prefetch_evaluations")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "info")

    def __init__(self, span_id: int, name: str, start: float, parent: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None


def _resolve(target: str):
    """Return ``(owner, attribute name, original)`` for ``"module:a.b"``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.fires: Dict[str, int] = defaultdict(int)
        self.bindings: Dict[str, int] = {}
        self.missing: List[str] = []
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._main_thread = threading.get_ident()
        #: ``id(wrapper) -> (wrapper, original)`` of module-level wrappers.
        self._originals: Dict[int, Tuple[Callable, object]] = {}
        self._class_patches: List[Tuple[type, str, object]] = []
        self._oracle_last: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._oracles_born: List[object] = []
        self.oracle_totals = {key: 0 for key in _ORACLE_COUNTERS}

    # ------------------------------------------------------------------
    # Span stack
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Tuple[Span, List[Span]]:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        self._next_id += 1
        span = Span(self._next_id, name, time.perf_counter(), parent)
        stack.append(span)
        return span, stack

    def _wrap(self, span_name: str, target: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            tracer.fires[target] += 1
            span, stack = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            tracer._annotate(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    def _annotate(self, span: Span, args, kwargs, result) -> None:
        """Attach the per-call count a layer metric needs to *span*."""
        name = span.name
        if name == "shortest_paths.batch":
            sources = args[1] if len(args) > 1 else kwargs.get("sources", ())
            span.info = len(sources)
        elif name == "exact.brandes":
            span.info = args[0].number_of_vertices()
        elif name == "execution.run_sharded":
            shards = args[1] if len(args) > 1 else kwargs.get("shards", ())
            span.info = len(shards)
        elif name == "execution.pickle":
            span.info = len(result)
        elif name == "mcmc.prefetch":
            span.info = int(result or 0)
        elif name == "mcmc.oracle_init":
            self._oracles_born.append(args[0])
        elif name == "incremental.affected":
            n = args[0].number_of_vertices()
            count = result.count()
            span.info = (
                None if count is None else (count / n if n else 0.0),
                len(result.endpoints),
            )

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`."""
        from repro.mcmc.estimates import DependencyOracle

        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for span_name, target in ENTRY_POINTS:
            try:
                owner, name, raw = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                self.bindings[target] = 0
                continue
            self.fires[target] += 0
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, target, raw.__func__))
                else:
                    wrapped = self._wrap(span_name, target, raw)
                setattr(owner, name, wrapped)
                self._class_patches.append((owner, name, raw))
                self.bindings[target] = 1
                continue
            wrapped = self._wrap(span_name, target, raw)
            self._originals[id(wrapped)] = (wrapped, raw)
            count = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, attr, wrapped)
                        count += 1
            self.bindings[target] = count
        # Warm oracles built before the traced phase (session warm-up) are
        # tracked from their current counters on.
        for obj in gc.get_objects():
            if isinstance(obj, DependencyOracle):
                self._oracle_last[obj] = _counters(obj)

    def uninstall(self) -> None:
        """Restore every original, including bindings made while installed."""
        for owner, name, raw in self._class_patches:
            setattr(owner, name, raw)
        self._class_patches.clear()
        # A module imported during the traced phase may have bound a
        # wrapper with ``from … import``; scan again rather than replaying
        # the install-time list.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._originals.clear()

    # ------------------------------------------------------------------
    # Oracle work counters
    # ------------------------------------------------------------------
    def op_done(self) -> None:
        """Fold the oracle counter deltas of the operation that just ended."""
        for oracle in self._oracles_born:
            self._oracle_last.setdefault(oracle, (0, 0, 0))
        self._oracles_born.clear()
        for oracle, last in list(self._oracle_last.items()):
            now = _counters(oracle)
            for key, before, after in zip(_ORACLE_COUNTERS, last, now):
                self.oracle_totals[key] += max(after - before, 0)
            self._oracle_last[oracle] = now

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost-call count, total and self time (seconds)."""
        by_id = {span.id: span for span in self.spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = out[span.name]
            duration = span.end - span.start
            row["self_s"] += max(duration - child_time.get(span.id, 0.0), 0.0)
            if not _nested_in_same(span, by_id):
                row["calls"] += 1
                row["total_s"] += duration
        return dict(out)

    def coverage(self) -> Dict[str, Dict[str, int]]:
        """Per entry point: wrapper fire count and module bindings replaced."""
        return {
            target: {"fires": self.fires.get(target, 0), "bindings": self.bindings.get(target, 0)}
            for _, target in ENTRY_POINTS
        }


def _counters(oracle) -> Tuple[int, int, int]:
    return tuple(int(getattr(oracle, key, 0) or 0) for key in _ORACLE_COUNTERS)


def _nested_in_same(span: Span, by_id: Dict[int, Span]) -> bool:
    """Whether an ancestor of *span* carries the same name (counted once)."""
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False
