#!/usr/bin/env python3
"""Benchmark of the betweenness library: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-oneshot --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout the script sits in;
without it the script exits with status 2 and prints no result.

``--trace 0`` runs the timed loop untraced for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs it untraced for half the time, then
with every layer entry point wrapped (:mod:`tracer`) for the other half,
and reports the per-layer metrics of the traced half plus the tracing
overhead (traced against untraced, per end-to-end metric).  Per-layer
times and counts are per operation of the traced loop.

``setup_s`` is the median import time over five fresh interpreters plus
the median of three in-process set-ups (graph, daemon, pool, warm-up);
``ops_per_s`` is operations completed per second spent inside them (the
benchmark's own checks between operations do not count); latencies are
per operation kind, never pooled across kinds.

The typical latency of a kind is its mean, not its median.  On a shared
host the speed of identical work switches between levels for seconds at a
time (the same CSR rebuild takes 7.5 or 14.5 ms), so a median lands in
whichever level held a little over half of the run and jumps between them
from run to run; the mean moves only in proportion to the time spent at
each level.  The per-kind median is still printed in the report.

A human-readable JSON report (environment, machine-phase probes, set-up
samples, per-phase and per-kind counts and percentiles, execution stamps,
trace coverage) is printed first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Per-checkout cache of verified exact references (listed in .gitignore).
CACHE = os.path.join(ROOT, "perfbench", ".cache")
#: Set-ups per run and fresh-interpreter imports per run; ``setup_s`` adds their medians.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
#: End-to-end latency metrics: ``name -> (operation kind, "mean" or percentile)``.
LATENCIES = {
    "estimate_mean_ms": ("estimate", "mean"),
    "estimate_p90_ms": ("estimate", 90),
    "relative_mean_ms": ("relative", "mean"),
    "ranking_mean_ms": ("ranking", "mean"),
    "exact_mean_ms": ("exact", "mean"),
    "mutate_mean_ms": ("mutate", "mean"),
    "mutate_p90_ms": ("mutate", 90),
}
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", **{k: "ms" for k in LATENCIES}}


def percentile(values, q) -> float:
    """Mean for q="mean", median for q=50, nearest-rank percentile otherwise (seconds in, ms out)."""
    if not values:
        return float("nan")
    if q == "mean":
        return statistics.fmean(values) * 1000.0
    if q == 50:
        return statistics.median(values) * 1000.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)] * 1000.0


def import_seconds(modules):
    """Median (and all samples) of the import time of *modules* in fresh interpreters."""
    code = (
        "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter()\n"
        "for name in sys.argv[2:]: importlib.import_module(name)\n"
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, SRC, *modules],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def kind_table(rec) -> dict:
    table = {}
    for kind in sorted(set(rec.attempted) | set(rec.latency)):
        values = rec.latency.get(kind, [])
        row = {"attempted": rec.attempted[kind], "failed": rec.failed[kind],
               "succeeded": rec.attempted[kind] - rec.failed[kind], "timed": len(values)}
        if values:
            row.update(mean_ms=percentile(values, "mean"), p50_ms=percentile(values, 50),
                       p90_ms=percentile(values, 90), max_ms=max(values) * 1000.0)
            if len(values) >= 1000:
                row["p99_ms"] = percentile(values, 99)
        table[kind] = row
    return table


def end_to_end(rec, setup_s: float, peak_mb: float) -> dict:
    busy = sum(sum(values) for values in rec.latency.values())
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_mb, "ops_per_s": rec.ops() / busy if busy else 0.0}
    for name, (kind, q) in LATENCIES.items():
        metrics[name] = percentile(rec.latency.get(kind, []), q)
    return metrics


def per_layer(tracer, rec, gauges: dict, reference: dict) -> dict:
    """The per-layer metrics of one traced phase (see BENCHMARK.json)."""
    ops = max(rec.ops(), 1)
    summary = tracer.summary()

    def ms(name, key="total_s"):
        return summary.get(name, {}).get(key, 0.0) * 1000.0 / ops

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def infos(name):
        return [span.info for span in tracer.spans if span.name == name and span.info is not None]

    totals = tracer.oracle_totals
    lookups = totals["lookups"]
    misses = totals["evaluations"] - totals["prefetch_evaluations"]
    rows = infos("shortest_paths.batch")
    affected = infos("incremental.affected")
    fractions = [fraction for fraction, _ in affected if fraction is not None]
    errors = [abs(value - reference[target]) for target, value in rec.estimates]
    receipts = rec.receipts
    return {
        "serving.dispatch_ms": ms("serving.dispatch"),
        "serving.self_ms": ms("serving.dispatch", "self_s"),
        "centrality.query_ms": ms("centrality.query"),
        "centrality.sync_ms": ms("centrality.sync"),
        "graphs.ensure_connected_ms": ms("graphs.ensure_connected"),
        "mcmc.chain_self_ms": ms("mcmc.chain", "self_s"),
        "mcmc.oracle_lookups": lookups / ops,
        "mcmc.oracle_hit_ratio": min(max(1.0 - misses / lookups, 0.0), 1.0) if lookups else 0.0,
        "mcmc.oracle_evaluations": totals["evaluations"] / ops,
        "mcmc.prefetch_batches": sum(1 for count in infos("mcmc.prefetch") if count > 0) / ops,
        "mcmc.acceptance_rate": statistics.fmean(rec.acceptance) if rec.acceptance else 0.0,
        "mcmc.estimate_abs_err": statistics.fmean(errors) if errors else 0.0,
        "shortest_paths.spd_ms": ms("shortest_paths.spd"),
        "shortest_paths.accumulate_ms": ms("shortest_paths.accumulate"),
        "shortest_paths.sweep_ms": ms("shortest_paths.sweep"),
        "shortest_paths.passes": (calls("shortest_paths.source") + sum(rows)) / ops,
        "shortest_paths.batch_rows": statistics.fmean(rows) if rows else 0.0,
        "exact.brandes_ms": ms("exact.brandes"),
        "exact.sources": sum(infos("exact.brandes")) / ops,
        "execution.pool_run_ms": ms("execution.pool_run"),
        "execution.pool_wait_ms": ms("execution.pool_run", "self_s"),
        "execution.payload_installs": calls("execution.pickle") / ops,
        "execution.payload_bytes": sum(infos("execution.pickle")) / ops,
        "execution.shards": sum(infos("execution.run_sharded")) / ops,
        "execution.refresh_ms": ms("execution.refresh"),
        "execution.arena_occupancy": gauges.get("arena_occupancy", 0.0),
        "execution.arena_rows_evicted": sum(int(r.get("arena_rows_evicted") or 0) for r in receipts) / ops,
        "execution.arena_rows_compacted": sum(int(r.get("arena_rows_compacted") or 0) for r in receipts) / ops,
        "incremental.affected_ms": ms("incremental.affected"),
        "incremental.affected_fraction": statistics.fmean(fractions) if fractions else 0.0,
        "incremental.full_fallbacks": sum(1 for r in receipts if r.get("mode") == "full"),
        "incremental.touched_endpoints": statistics.fmean(e for _, e in affected) if affected else 0.0,
        "graphs.csr_build_ms": ms("graphs.csr_build"),
        "graphs.csr_builds": calls("graphs.csr_build") / ops,
        "graphs.mutation_ms": ms("graphs.mutation"),
    }


def run_phase(workload, seconds: float, tracer=None):
    from probes import PeakMemory
    from workloads import Recorder

    memory = PeakMemory()
    rec = Recorder(tracer, memory)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        memory.sample()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        rounds = workload.phase(rec, seconds)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        memory.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    info = {"seconds": wall, "rounds": rounds, "cpu_wall_ratio": cpu / wall if wall else 0.0,
            "peak_rss_mb": memory.peak_mb, "rss_samples": memory.samples, "ops": kind_table(rec)}
    return {"rec": rec, "tracer": tracer, "peak_mb": memory.peak_mb, "gauges": workload.gauges(), "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.relpath(SRC)}/repro", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Inputs, Recorder

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Only explicit knobs: no REPRO_* override may pick a path or a probe.
    cleared = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import repro

    in_process_import_s = time.perf_counter() - started
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import multiprocessing

    from probes import environment, reference_loop_ms
    from repro import Graph
    from tracer import Tracer

    reference_start_ms = reference_loop_ms()
    workload = WORKLOADS[args.workload](Inputs(args.seed))
    modules = ["repro"] if args.workload == "cold-oneshot" else ["repro", "repro.serving"]
    import_s, import_samples = import_seconds(modules)
    setup_samples = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
            _release_freed_memory()
        started = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(setup_samples)

    graph = Graph.from_edges(workload.inputs.edges)
    env = environment(graph.csr(), args.seed)
    verify = Recorder()
    verify.attempted["reference"] += 1
    workload.reference, error = exact_reference(graph, workload.inputs.edges)
    del graph
    if error is not None:
        verify.fail("reference", error)

    results = {}
    try:
        if args.trace:
            results["untraced"] = run_phase(workload, args.seconds / 2)
            results["traced"] = run_phase(workload, args.seconds / 2, Tracer())
        else:
            results["untraced"] = run_phase(workload, args.seconds)
        verify.samples = results["untraced"]["rec"].samples
        workload.verify(verify)
    finally:
        workload.teardown()
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
        child.join()
    reference_end_ms = reference_loop_ms()

    stamps = {}
    for result in results.values():
        for kind, seen in result["rec"].stamps.items():
            stamps.setdefault(kind, set()).update(seen)
    verify.attempted["stamps"] += 1
    varying = sorted(kind for kind, seen in stamps.items() if len(seen) != 1)
    if varying:
        verify.fail("stamps", f"execution stamp varies within {varying}")
    verify.attempted["workers"] += 1
    if leftover:
        verify.fail("workers", f"{len(leftover)} worker processes outlived the workload")
    recorders = [result["rec"] for result in results.values()] + [verify]
    attempted = sum(sum(rec.attempted.values()) for rec in recorders)
    failed = sum(sum(rec.failed.values()) for rec in recorders)
    errors = [error for rec in recorders for error in rec.errors]

    untraced = end_to_end(results["untraced"]["rec"], setup_s, results["untraced"]["peak_mb"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "cleared_env": cleared,
        "machine_phase": {"reference_loop_start_ms": reference_start_ms, "reference_loop_end_ms": reference_end_ms,
                          "cpu_wall_ratio": {name: r["info"]["cpu_wall_ratio"] for name, r in results.items()}},
        "setup": {"import_s": import_samples, "setup_s": setup_samples, "in_process_import_s": in_process_import_s},
        "phases": {name: r["info"] for name, r in results.items()},
        "verify": kind_table(verify),
        "error_rate": failed / attempted,
        "errors": errors,
        "stamps": {kind: [json.loads(s) for s in sorted(seen)] for kind, seen in stamps.items()},
    }
    if args.trace:
        traced_phase = results["traced"]
        tracer, rec = traced_phase["tracer"], traced_phase["rec"]
        traced = end_to_end(rec, setup_s, traced_phase["peak_mb"])
        overhead = {key: (traced[key] - untraced[key]) / untraced[key] if untraced[key] else 0.0
                    for key in untraced if key != "setup_s"}
        metrics = per_layer(tracer, rec, traced_phase["gauges"], workload.reference)
        metrics["trace.overhead_pct"] = overhead["ops_per_s"] * -100.0
        units = _layer_units()
        if set(units) != set(metrics):
            raise RuntimeError(f"per-layer metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
        report["trace"] = {"overhead": overhead, "coverage": tracer.coverage(), "missing": tracer.missing,
                           "spans": len(tracer.spans), "layers": tracer.summary()}
        values = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    else:
        values = {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in untraced.items()}
    _stop_resource_tracker()
    print(json.dumps(report, indent=1, sort_keys=True, default=str))
    # A metric without a sample (every operation of its kind failed) cannot
    # be reported as a number; the run is then incorrect.
    correct = failed == 0 and all(math.isfinite(v["value"]) for v in values.values())
    for entry in values.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = 0.0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


def exact_reference(graph, edges):
    """The exact scores every exact operation is checked against, and the check's error.

    Computed outside every timed region with the program's default path and
    checked against an invariant the program plays no part in
    (:func:`workloads.reference_error`).  A reference that passes is cached
    in the checkout under a hash of the program source, so later runs of the
    same code skip the recomputation.
    """
    import hashlib

    from repro import betweenness_exact
    from workloads import reference_error

    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    digest.update(json.dumps(edges).encode())
    cache = os.path.join(CACHE, f"reference-{digest.hexdigest()[:20]}.json")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8") as handle:
            return {int(v): score for v, score in json.load(handle).items()}, None
    reference = betweenness_exact(graph)
    error = reference_error(edges, reference)
    if error is None:
        os.makedirs(CACHE, exist_ok=True)
        with open(cache + ".tmp", "w", encoding="utf-8") as handle:
            json.dump({str(v): score for v, score in reference.items()}, handle)
        os.replace(cache + ".tmp", cache)
    return reference, error


def _release_freed_memory() -> None:
    """Return the heap an earlier set-up freed to the OS.

    glibc keeps freed small blocks mapped, and pool workers forked later
    inherit (and partly copy) them, so without this the extra set-ups of a
    run would inflate the memory the measured set-up starts from.
    """
    gc.collect()
    try:
        import ctypes

        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
