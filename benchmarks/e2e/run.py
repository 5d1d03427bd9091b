"""The end-to-end benchmark's one command.

The driver's contract::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and sample count, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` holding
exactly the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or
exactly its ``per_layer`` metrics (``--trace 1``).  For people::

    PYTHONPATH=src python -m benchmarks.e2e.run --all [--repeats N] [--trace 1]

runs every workload and writes ``benchmarks/e2e/out/results.json`` for
``python -m benchmarks.e2e.compare``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

_ROOT = Path(__file__).resolve().parents[2]
# Run as a script the package is not importable yet; ``src`` is the program.
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import probes  # noqa: E402
from benchmarks.e2e.churn_durable import ChurnDurable  # noqa: E402
from benchmarks.e2e.measure import (  # noqa: E402
    DEFAULT_SEED,
    EXPECTED_DIR,
    OUT_DIR,
    Metric,
    load_spec,
)
from benchmarks.e2e.serve_point import ServePoint  # noqa: E402
from benchmarks.e2e.spans import LAYERS, Tracer  # noqa: E402
from benchmarks.e2e.timetravel_mix import TimetravelMix  # noqa: E402
from benchmarks.e2e.traverse_current import TraverseCurrent  # noqa: E402
from benchmarks.e2e.workload import Workload  # noqa: E402

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServePoint, TraverseCurrent, TimetravelMix, ChurnDurable)
}
#: ``setup_s`` is the median of this many complete set-ups in one run.
SETUP_REPEATS = 3


def _peak_rss_mb(workload: Workload) -> float:
    """Peak resident set of the process holding the database, in MiB."""
    return resource.getrusage(workload.database_process).ru_maxrss / 1024.0


def _set_up(cls: type[Workload], seed: int, workdir: Path, traced: bool = False) -> Workload:
    """One complete set-up in an emptied *workdir*.

    It ends the way a long-running embedding application would: the loaded
    graph is moved out of the collector's reach.  Unfrozen, every full
    collection walks the ~650k objects of the legacy graph for 250 ms, about
    once in 90 ops — which puts p99 on the knee between stalled and
    unstalled ops (68 ms or 262 ms from run to run) and makes it a measure of
    heap size that no query-path change could move.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = cls(seed, workdir, traced)
    gc.collect()
    gc.freeze()
    return workload


def _tear_down(workload: Workload) -> None:
    workload.close()
    gc.unfreeze()


def run_untraced(cls: type[Workload], seed: int, seconds: float, workdir: Path) -> dict[str, Any]:
    """The end-to-end run: set up ``SETUP_REPEATS`` times, measure on the last."""
    setups: list[float] = []
    workload: Workload | None = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                _tear_down(workload)
                workload = None
            started = time.perf_counter()
            workload = _set_up(cls, seed, workdir)
            setups.append(time.perf_counter() - started)
        measurement = workload.measure(seconds)
        wrong, same, extras = workload.verify()
    finally:
        if workload is not None:
            _tear_down(workload)
    metrics = {
        "setup_s": Metric(statistics.median(setups), "s", len(setups)),
        **measurement.end_to_end(),
        "peak_rss_mb": Metric(_peak_rss_mb(workload), "MiB"),
        **measurement.extras,
        **extras,
    }
    return _result(
        workload, seed, seconds, 0, measurement.attempted, measurement.failed + wrong, same, metrics
    )


def run_traced(cls: type[Workload], seed: int, seconds: float, workdir: Path) -> dict[str, Any]:
    """The per-layer run: half the seconds untraced, half under spans.

    The store decorators are in place for both halves, so the difference
    between them is the cost of recording spans, not of the extra call.
    """
    tracer = Tracer()
    workload = _set_up(cls, seed, workdir, traced=True)
    try:
        before = workload.stats()
        plain = workload.measure(seconds / 2)
        started = time.perf_counter()
        traced = workload.measure(seconds / 2, tracer)
        wall = time.perf_counter() - started
        after = workload.stats()
        wrong, same, extras = workload.verify()
        metrics = {
            **traced.extras,
            **plain.extras,  # latencies come from the untraced half
            **extras,
            **_stat_metrics(before, after),
            **_span_metrics(workload, tracer, wall),
            "stats.tracing_overhead_ratio": Metric(
                workload.tracing_overhead(plain, traced), "ratio", tracer.ops
            ),
            **probes.text_probes(workload.probe_items()),
            **probes.core_probes(workload.database()),
            **workload.probes(),
        }
        metrics.update(probes.write_probes(workload.database()))  # last: they dirty the stores
    finally:
        _tear_down(workload)
    tracer.write(OUT_DIR / f"{workload.name}.trace.jsonl")
    return _result(
        workload, seed, seconds, 1, plain.attempted + traced.attempted,
        plain.failed + traced.failed + wrong, same, metrics,
    )


def _stat_metrics(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Metric]:
    """Cache ratios and event counts over the measured phases."""
    def cache(name: str, key: str) -> int:
        return after[name][key] - before[name][key]

    def hit_ratio(name: str) -> Metric:
        hits, misses = cache(name, "hits"), cache(name, "misses")
        return Metric(hits / max(1, hits + misses), "ratio", hits + misses)

    def event(name: str) -> Metric:
        return Metric(after["events"].get(name, 0) - before["events"].get(name, 0), "count")

    return {
        "query.parse_cache_hit_ratio": hit_ratio("parse"),
        "query.typecheck_cache_hit_ratio": hit_ratio("typecheck"),
        "rpe.nfa_cache_hit_ratio": hit_ratio("nfa"),
        "plan.cache_hit_ratio": hit_ratio("plan"),
        "plan.cache_evictions": Metric(cache("plan", "evictions"), "count"),
        "plan.cache_invalidations": Metric(cache("plan", "invalidations"), "count"),
        "storage.memgraph.csr_builds": event("executor.batch.csr_build"),
        "storage.memgraph.csr_reuses": event("executor.batch.csr_reuse"),
        "storage.memgraph.temporal_index_candidates": event("index.temporal.candidates"),
        "storage.memgraph.temporal_scan_fallbacks": event("index.temporal.scan"),
        "storage.wal.appends": event("wal.append"),
        "storage.wal.syncs": event("wal.sync"),
        "core.commits": event("concurrency.commits"),
        "server.rejected_503": event("server.rejected"),
        "server.deadline_504": event("server.deadline_exceeded"),
    }


def _span_metrics(workload: Workload, tracer: Tracer, wall: float) -> dict[str, Metric]:
    """Self time per layer from the spans of the traced half."""
    queries = tracer.queries
    memgraph = "storage.memgraph."

    def per_query(*names: str) -> Metric:
        return Metric(tracer.self_ms_per_query(*names), "ms", queries)

    layers, unattributed = workload.layer_seconds(tracer, wall)
    total = sum(layers.values()) + unattributed
    examined = sum(
        tracer.counters[name]
        for name in ("executor.batch.scan_rows", "executor.batch.point_reads",
                     "traverse.expanded_nodes")
    )
    metrics = {
        "plan.evaluate_self_ms": per_query("evaluate", "anchor_scan"),
        "plan.join_self_ms": per_query("join"),
        "plan.project_self_ms": per_query("project"),
        memgraph + "scan_atom_ms": per_query(memgraph + "scan_atom"),
        memgraph + "expand_ms": per_query(
            *(memgraph + name for name in
              ("out_edges_many", "in_edges_many", "out_edges", "in_edges"))
        ),
        memgraph + "get_many_ms": per_query(
            *(memgraph + name for name in ("get_many", "get_element", "versions"))
        ),
        "core.query_overhead_us": Metric(
            tracer.self_seconds["core"] * 1e6 / max(1, tracer.root_count["core"]),
            "us", tracer.root_count["core"],
        ),
        "plan.rows_examined_per_result": Metric(
            examined / max(1, tracer.counters["rows_out"]), "ratio", queries
        ),
        "plan.batch_share": Metric(tracer.batch_queries / max(1, queries), "ratio", queries),
        "stats.span_count_per_query": Metric(len(tracer.rows) / max(1, tracer.ops), "count", tracer.ops),
        "unattributed_ms": Metric(unattributed * 1000.0 / max(1, tracer.ops), "ms", tracer.ops),
        "share.unattributed": Metric(unattributed / total, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = Metric(layers.get(layer, 0.0) / total, "ratio")
    return metrics


def _result(
    workload: Workload, seed: int, seconds: float, trace: int, attempted: int,
    failed: int, same: bool, metrics: dict[str, Metric],
) -> dict[str, Any]:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": bool(same and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def contract_line(result: dict[str, Any], spec: dict[str, Any]) -> str:
    """The JSON object the driver reads: exactly the declared metrics.

    A declared per-layer metric the workload never produced is a layer it
    does not exercise, and reads 0; every end-to-end metric must be there.
    """
    declared = spec["per_layer" if result["trace"] else "end_to_end"]
    metrics = {}
    for entry in declared:
        metric = result["metrics"].get(entry["name"])
        if metric is None:
            if not result["trace"]:
                raise KeyError(f"{result['workload']} produced no {entry['name']}")
            metric = Metric(0, entry["unit"], 0)
        metrics[entry["name"]] = {"value": metric.value, "unit": entry["unit"]}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_table(result: dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']:g}  "
          f"trace={result['trace']}  attempted={result['attempted']}  failed={result['failed']}  "
          f"correct={result['correct']}")
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        print(f"{name:<{width}}  {metric.value:>16.6g} {metric.unit:<6} n={metric.samples}")


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # Scratch lives inside the checkout: the benchmark writes nowhere else.
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        run = run_traced if trace else run_untraced
        return run(WORKLOADS[name], seed, seconds, workdir / "w")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_expected(seconds: float) -> None:
    """Write ``expected/<workload>.json`` for the default seed from the
    row-path oracle (batch off, temporal indexes off)."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, cls in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
        try:
            (EXPECTED_DIR / f"{name}.json").unlink(missing_ok=True)
            workload = _set_up(cls, DEFAULT_SEED, workdir / "w")
            try:
                expected = workload.expected_record(seconds)
            finally:
                _tear_down(workload)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(expected)} digests)")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload; writes out/results.json")
    target.add_argument("--record-expected", action="store_true",
                        help="rewrite expected/*.json for the default seed")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="seconds measured per run; results at different values do not compare")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the per-layer run (spans, probes, tracing overhead)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --all: runs per workload, seeds SEED, SEED+1, ...")
    args = parser.parse_args(argv)

    if args.record_expected:
        record_expected(args.seconds)
        return 0
    if args.workload:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print_table(result)
        print(contract_line(result, spec))
        return 0
    runs = []
    # A process per run, as the driver does it: peak memory is per process.
    with ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("spawn"), max_tasks_per_child=1
    ) as pool:
        for name in WORKLOADS:
            for repeat in range(args.repeats):
                result = pool.submit(
                    run_one, name, args.seed + repeat, args.seconds, args.trace
                ).result()
                print_table(result)
                runs.append(result)
    path = OUT_DIR / "results.json"
    for run in runs:
        run["metrics"] = {name: metric._asdict() for name, metric in run["metrics"].items()}
    path.write_text(json.dumps({"seconds": args.seconds, "runs": runs}, indent=1), encoding="utf-8")
    print(f"wrote {path}")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
