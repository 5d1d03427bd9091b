"""What every workload hands back to the runner."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Any

from repro import NepalDB

from benchmarks.e2e.measure import P99_SEGMENTS, Metric, OpLog, latency_metrics


@dataclass
class ProbeItem:
    """One distinct query text, with what the layer probes need to replay it."""

    text: str
    rpe: str
    db: NepalDB
    store: str = "default"


@dataclass
class Measurement:
    """One measured phase of one workload."""

    attempted: int
    failed: int
    throughput: Metric
    latencies: list[float]
    #: Workload-specific numbers; printed and saved, not part of the contract
    #: unless ``BENCHMARK.json`` lists the name.
    extras: dict[str, Metric] = field(default_factory=dict)

    def end_to_end(self) -> dict[str, Metric]:
        return {"throughput_ops_s": self.throughput, **latency_metrics(self.latencies)}


def closed_loop_measurement(log: OpLog) -> Measurement:
    """Single-thread closed loop: every op counts.

    Throughput is ops per second of time spent inside ops (result checking
    is the harness's), taken per consecutive segment and then the median of
    the segments, so a stall of the machine moves one segment, not the run.
    Rounds are stratified, so every segment has the same mix.
    """
    size = max(1, len(log) // P99_SEGMENTS)
    segments = [log.seconds[i:i + size] for i in range(0, size * P99_SEGMENTS, size)]
    return Measurement(
        attempted=len(log),
        failed=log.failed,
        throughput=Metric(
            statistics.median(len(part) / sum(part) for part in segments if part),
            "1/s", len(log),
        ),
        latencies=log.seconds,
    )


def kind_p50s(log: OpLog) -> dict[str, Metric]:
    by_kind: dict[str, list[float]] = {}
    for label, seconds in zip(log.labels, log.seconds):
        by_kind.setdefault(label, []).append(seconds)
    return {
        f"kind.{kind}.p50_ms": Metric(statistics.median(v) * 1000.0, "ms", len(v))
        for kind, v in sorted(by_kind.items())
    }


class Workload:
    """Constructing one is the set-up; ``close`` tears it down."""

    name = ""
    #: Whose ``ru_maxrss`` is the database's.
    database_process = resource.RUSAGE_SELF

    def measure(self, seconds: float, tracer: Any = None) -> Measurement:
        raise NotImplementedError

    def verify(self) -> tuple[int, bool, dict[str, Metric]]:
        """Checks that need the whole run: (more failed ops, still correct, extras)."""
        return 0, True, {}

    def database(self) -> NepalDB:
        """The in-process database (on ``serve_point``, the server's local twin)."""
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """``cache_stats()`` of the database that answers the measured ops."""
        return self.database().cache_stats()

    def probe_items(self) -> list[ProbeItem]:
        raise NotImplementedError

    def probes(self) -> dict[str, Metric]:
        """Layer probes only this workload can run (traced run)."""
        return {}

    def expected_record(self, seconds: float) -> Any:
        """What ``--record-expected`` commits for the default seed."""
        return self.oracle

    def layer_seconds(self, tracer: Any, wall: float) -> tuple[dict[str, float], float]:
        """(self seconds per layer, seconds of the traced phase no span covers)."""
        return dict(tracer.self_seconds), wall - tracer.op_seconds

    def tracing_overhead(self, plain: Measurement, traced: Measurement) -> float:
        """Traced over untraced time per op."""
        return plain.throughput.value / traced.throughput.value

    def close(self) -> None:
        pass
