"""The :class:`ExecutionPlan` — the library's execution knobs in one value.

A plan answers independent questions for a per-source workload:

* ``backend`` — which view the workload runs on, and so which kernels run
  each pass (``"auto"`` / ``"dict"`` / ``"csr"``, resolved through
  :func:`~repro.graphs.csr.resolve_backend` at the point of use): the CSR
  snapshot's numpy kernels, or the pure-Python reference kernels behind
  the dict :class:`~repro.graphs.csr.ReferenceView`;
* ``kernel`` — which rung of the CSR kernels runs each pass (``"auto"`` /
  ``"csr"`` / ``"compiled"``, resolved through
  :func:`~repro.graphs.csr.resolve_kernel` at the point of use; the
  compiled rung is bit-identical to the numpy rung, so this knob never
  changes a result);
* ``batch_size`` — how many sources each call into the batched CSR kernels
  (:mod:`repro.shortest_paths.batch`) traverses at once;
* ``n_jobs`` — how many worker processes the shard scheduler spreads the
  source shards over;
* ``shared_cache`` — whether parallel multi-chain MCMC runs publish their
  per-source dependency vectors into a cross-process shared-memory arena
  (:mod:`repro.execution.shared_cache`) instead of each worker keeping a
  private cache.  Consumed by the multi-chain drivers only; per-source
  workloads have nothing to share across processes beyond their inputs;
* ``shared_graph``, ``mp_context``, ``runtime`` and ``kernel_threads`` —
  how snapshots ship to workers, how pools start, which persistent
  context runs them and how many threads each compiled batch kernel uses
  (see the :class:`ExecutionPlan` attributes).

Resolution mirrors the backend knob: explicit arguments always win, and the
``REPRO_JOBS`` / ``REPRO_BATCH`` / ``REPRO_SHARED_CACHE`` /
``REPRO_SHARED_GRAPH`` / ``REPRO_MP_CONTEXT`` / ``REPRO_KERNEL_THREADS``
environment variables fill in anything left unspecified (one env knob
steers every call site, which is how the benchmark harness runs a whole
suite under a given parallelism setting).  With nothing set,
:func:`resolve_plan` returns the default plan — one job and
:data:`DEFAULT_BATCH_SIZE` sources per batch — so every estimator runs on
the one engine path whether or not a knob was given.

Determinism contract
--------------------
The engine fixes the floating-point accumulation order once and for all:
per-source results are accumulated sequentially in source order inside
each fixed-size shard (shard boundaries depend only on
:data:`DEFAULT_SHARD_SIZE`, never on ``n_jobs`` or ``batch_size``), and
shard buffers are merged in shard order.  Together with the bit-identical
per-row contract of the batch kernels this makes every estimate
**bit-identical across any** ``n_jobs`` **and** ``batch_size`` for a fixed
seed — the default call included, since it is just the default plan.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.graphs.csr import BACKENDS, KERNELS

__all__ = [
    "ExecutionPlan",
    "resolve_plan",
    "resolve_shared_cache",
    "resolve_shared_graph",
    "resolve_mp_context",
    "resolve_kernel_threads",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_BATCH_SIZE",
]

#: Number of sources per shard.  A constant (not a knob) on purpose: shard
#: boundaries are part of the determinism contract, so they must not vary
#: with ``n_jobs`` or ``batch_size``.  256 divides evenly by every power-of-
#: two batch size up to 256 and keeps per-shard pickling traffic small.
DEFAULT_SHARD_SIZE = 256

#: Sources per batched-kernel call when no ``batch_size`` is given.  Like
#: the shard size a constant, not a knob: the best point of the
#: {1, 4, 8, 16, 32, 64} curve on the cold estimate / relative / exact
#: operations on BA(3000, 3), with and without scipy (fastest for estimate
#: and relative, within 14% of the fastest exact).  It divides
#: :data:`DEFAULT_SHARD_SIZE`, so default shards hold whole batches.
DEFAULT_BATCH_SIZE = 16


@dataclass(frozen=True)
class ExecutionPlan:
    """How a per-source workload is executed (see the module docstring).

    Attributes
    ----------
    backend:
        Backend name (``"auto"`` / ``"dict"`` / ``"csr"``); kept unresolved
        so each call site resolves it exactly once, next to its graph, into
        the view its workers compute on
        (:func:`~repro.execution.runtime.plan_view`): the CSR snapshot,
        or the dict :class:`~repro.graphs.csr.ReferenceView` — the
        pure-Python reference behind the same index-space interface, where
        only the kernel entries differ.
    batch_size:
        Sources per kernel call (>= 1; defaults to
        :data:`DEFAULT_BATCH_SIZE`, as in :func:`resolve_plan`).  The dict
        reference kernels run the sources of a call one by one.
    n_jobs:
        Worker processes for the shard scheduler (>= 1; 1 means inline).
    shared_cache:
        Whether the multi-chain MCMC drivers share one cross-process
        dependency-vector arena across their workers (CSR-only; ignored by
        every other workload).  Never changes a result — only which process
        pays each Brandes pass.
    shared_graph:
        Whether CSR snapshots travel to workers as zero-copy shared-memory
        handles (:class:`~repro.graphs.shared.SharedCSRGraph`) instead of
        being pickled — O(1) per-worker ship cost and memory instead of
        O(m).  CSR-only (the dict backend has no flat arrays to share) and
        warn-and-fallback where shared memory is unsupported.  Never changes
        a result: the attached arrays are byte-equal to the pickled ones.
    mp_context:
        Multiprocessing start method for the scheduler's pools (``"fork"`` /
        ``"spawn"`` / ``"forkserver"``; ``None`` keeps the interpreter
        default).  :mod:`repro.execution.shared_cache` already accepted a
        context knob, so exposing the same knob here lets spawn deployments
        configure the pool and the shared arena consistently.  Never changes
        a result — the scheduler's determinism contract is start-method
        independent.
    runtime:
        Optional :class:`~repro.execution.runtime.ExecutionContext` the
        scheduler routes its pool work through — a *persistent* worker pool
        plus warm payload/arena state reused across calls instead of a
        per-call pool.  Never changes a result; like ``shared_cache`` it
        only moves where (and how often) work is paid for.  The context
        deliberately pickles to ``None`` so a plan or sampler captured
        inside a worker payload can never smuggle pool handles across
        process boundaries.
    kernel:
        CSR kernel rung (``"auto"`` / ``"csr"`` / ``"compiled"``); kept
        unresolved so each call site resolves it exactly once
        (:func:`~repro.graphs.csr.resolve_kernel` — ``"auto"`` honours the
        ``REPRO_KERNEL`` env override, then picks the compiled rung when
        numba imports).  The compiled twins replay the numpy rung's exact
        float summation order, so the knob never changes a result — only
        how fast each pass runs.  Ignored by the dict backend.
    kernel_threads:
        Threads for the ``prange`` variants of the compiled batch kernels
        (>= 1; 1 keeps the sequential kernels).  Consumed only where a
        compiled batched wave actually runs — every other path ignores it
        — and result-neutral by construction: threads stride independent
        per-source rows, so no row's float summation order can change.
        Composes with ``n_jobs``: each worker process runs its kernels on
        this many threads, so keep ``n_jobs × kernel_threads`` within the
        machine (``"auto"`` calibration in :mod:`repro.execution.autotune`
        enforces exactly that).
    """

    backend: str = "auto"
    batch_size: int = DEFAULT_BATCH_SIZE
    n_jobs: int = 1
    shared_cache: bool = False
    shared_graph: bool = False
    mp_context: Optional[str] = None
    runtime: Optional[object] = None
    kernel: str = "auto"
    kernel_threads: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; expected one of {KERNELS}"
            )
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be a positive integer, got {self.batch_size!r}"
            )
        if not isinstance(self.n_jobs, int) or self.n_jobs < 1:
            raise ConfigurationError(
                f"n_jobs must be a positive integer, got {self.n_jobs!r}"
            )
        if not isinstance(self.kernel_threads, int) or self.kernel_threads < 1:
            raise ConfigurationError(
                f"kernel_threads must be a positive integer, got {self.kernel_threads!r}"
            )
        if not isinstance(self.shared_cache, bool):
            raise ConfigurationError(
                f"shared_cache must be a boolean, got {self.shared_cache!r}"
            )
        if not isinstance(self.shared_graph, bool):
            raise ConfigurationError(
                f"shared_graph must be a boolean, got {self.shared_graph!r}"
            )
        if self.mp_context is not None:
            _validate_mp_context(self.mp_context)


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be a positive integer, got {raw!r}")
    if value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {raw!r}")
    return value


def _env_flag(name: str) -> Optional[bool]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"{name} must be a boolean flag (0/1), got {raw!r}")


def _validate_mp_context(value: str) -> str:
    methods = multiprocessing.get_all_start_methods()
    if value not in methods:
        raise ConfigurationError(
            f"unknown multiprocessing start method {value!r}; expected one of "
            f"{methods}"
        )
    return value


def resolve_plan(
    plan: Optional[ExecutionPlan] = None,
    *,
    backend: str = "auto",
    batch_size: Optional[int] = None,
    n_jobs: Optional[int] = None,
    shared_cache: Optional[bool] = None,
    shared_graph: Optional[bool] = None,
    mp_context: Optional[str] = None,
    runtime: Optional[object] = None,
    kernel: str = "auto",
    kernel_threads: Optional[int] = None,
) -> ExecutionPlan:
    """Resolve the execution knobs of one estimator call.

    Parameters
    ----------
    plan:
        A ready-made :class:`ExecutionPlan`; returned as-is when provided
        (it always wins, like an explicit backend argument).
    backend, kernel:
        Carried into the plan unresolved; each call site resolves them
        next to its graph (``REPRO_BACKEND`` / ``REPRO_KERNEL`` are honoured
        there).
    batch_size, n_jobs, shared_cache, shared_graph, mp_context, kernel_threads:
        ``None`` means "not requested": the ``REPRO_BATCH`` /
        ``REPRO_JOBS`` / ``REPRO_SHARED_CACHE`` / ``REPRO_SHARED_GRAPH`` /
        ``REPRO_MP_CONTEXT`` / ``REPRO_KERNEL_THREADS`` environment
        variable fills the field, else its default
        (:data:`DEFAULT_BATCH_SIZE`, one job, off, off, the interpreter's
        start method, one thread).
    runtime:
        Optional persistent :class:`~repro.execution.runtime.ExecutionContext`.

    Returns
    -------
    ExecutionPlan
        Always a plan: with nothing set it is the default plan, so the
        default call runs on the same engine path — and under the same
        determinism contract — as any explicit one.
    """
    if isinstance(plan, ExecutionPlan):
        return plan
    if batch_size is None:
        batch_size = _env_int("REPRO_BATCH") or DEFAULT_BATCH_SIZE
    if n_jobs is None:
        n_jobs = _env_int("REPRO_JOBS") or 1
    return ExecutionPlan(
        backend=backend,
        batch_size=batch_size,
        n_jobs=n_jobs,
        shared_cache=resolve_shared_cache(shared_cache),
        shared_graph=resolve_shared_graph(shared_graph),
        mp_context=resolve_mp_context(mp_context),
        runtime=runtime,
        kernel=kernel,
        kernel_threads=resolve_kernel_threads(kernel_threads),
    )


def resolve_shared_cache(shared_cache: Optional[bool] = None) -> bool:
    """Resolve the ``shared_cache`` knob on its own.

    Explicit ``True`` / ``False`` wins; ``None`` consults the
    ``REPRO_SHARED_CACHE`` environment override (unset means off).
    """
    if shared_cache is not None:
        return shared_cache
    return bool(_env_flag("REPRO_SHARED_CACHE"))


def resolve_shared_graph(shared_graph: Optional[bool] = None) -> bool:
    """Resolve the ``shared_graph`` knob on its own.

    Explicit ``True`` / ``False`` wins; ``None`` consults the
    ``REPRO_SHARED_GRAPH`` environment override (unset means off).
    """
    if shared_graph is not None:
        return shared_graph
    return bool(_env_flag("REPRO_SHARED_GRAPH"))


def resolve_kernel_threads(kernel_threads: Optional[int] = None) -> int:
    """Resolve the compiled-kernel thread-count knob on its own.

    An explicit positive integer wins; ``None`` consults the
    ``REPRO_KERNEL_THREADS`` environment override (unset means 1 — the
    sequential kernels).  The knob is result-neutral: threads stride
    independent per-source rows of the compiled batch kernels.  ``"auto"``
    calibration lives at the API/CLI boundary
    (:func:`repro.execution.autotune.calibrate_kernel_threads`), not here —
    resolution must stay cheap and deterministic.
    """
    if kernel_threads is None:
        resolved = _env_int("REPRO_KERNEL_THREADS")
        return 1 if resolved is None else resolved
    if not isinstance(kernel_threads, int) or kernel_threads < 1:
        raise ConfigurationError(
            f"kernel_threads must be a positive integer, got {kernel_threads!r}"
        )
    return kernel_threads


def resolve_mp_context(mp_context: Optional[str] = None) -> Optional[str]:
    """Resolve the multiprocessing start-method knob on its own.

    An explicit name wins; ``None`` consults the ``REPRO_MP_CONTEXT``
    environment override (unset means the interpreter default).  The
    scheduler and :func:`~repro.execution.shared_cache.create_shared_store`
    both accept the resolved value (spawn deployments must configure the
    two consistently: a fork-context lock cannot enter a spawn-context
    process).
    """
    if mp_context is None:
        mp_context = os.environ.get("REPRO_MP_CONTEXT") or None
    if mp_context is None:
        return None
    return _validate_mp_context(mp_context)
