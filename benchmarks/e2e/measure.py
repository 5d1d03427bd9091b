"""Statistics, result digests and the closed-loop driver the workloads share."""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from repro.model.pathway import Pathway
from repro.query.results import QueryResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
EXPECTED_DIR = HERE / "expected"

DEFAULT_SEED = 20180610
#: The graphs, the churn history and the query instances come from this seed
#: whatever ``--seed`` says; ``--seed`` deals the order of ops, the request
#: and write streams and the time windows.  A traversal costs what its
#: graph's structure makes it cost, so seeding the structure made two seeds
#: two different workloads: throughput differed 17-23 % between seeds and
#: under 1.5 % between repeats of one seed, which no 10 % bound survives.
STRUCTURE_SEED = DEFAULT_SEED
#: Origin of every pinned transaction clock, so generated histories (and the
#: bytes the WAL writes for them) depend on the seed alone.
T0 = 1_600_000_000.0
DAY = 86_400.0

#: p99 is the median of the p99s of this many consecutive segments, so one
#: scheduler hiccup does not decide it.
P99_SEGMENTS = 5


class Metric(NamedTuple):
    value: float
    unit: str
    samples: int = 1


class Op(NamedTuple):
    """One benchmark operation: ``check(call())`` says whether it was right."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


class OpLog:
    """Latencies of one measured phase, in issue order."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.seconds: list[float] = []
        self.failed = 0

    def record(self, label: str, seconds: float, ok: bool) -> None:
        self.labels.append(label)
        self.seconds.append(seconds)
        if not ok:
            self.failed += 1

    def __len__(self) -> int:
        return len(self.seconds)

    def where(self, predicate: Callable[[str], bool]) -> list[float]:
        return [s for label, s in zip(self.labels, self.seconds) if predicate(label)]


def load_spec() -> dict[str, Any]:
    """The committed ``BENCHMARK.json`` (metric names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def derive_seed(seed: int, label: str) -> int:
    """An independent generator seed per purpose, all from ``--seed``."""
    return random.Random(f"{seed}:{label}").getrandbits(32)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def segment_p99(latencies: list[float]) -> float:
    size = len(latencies) // P99_SEGMENTS
    if size == 0:
        return percentile(latencies, 99)
    return statistics.median(
        percentile(latencies[i * size:(i + 1) * size], 99)
        for i in range(P99_SEGMENTS)
    )


def ms(seconds: float) -> float:
    return seconds * 1000.0


def latency_metrics(latencies: list[float]) -> dict[str, Metric]:
    return {
        "latency_p50_ms": Metric(ms(statistics.median(latencies)), "ms", len(latencies)),
        "latency_p99_ms": Metric(ms(segment_p99(latencies)), "ms", len(latencies)),
    }


# -- result digests -----------------------------------------------------------


def digest(rows: Iterable[str]) -> str:
    """Order-insensitive fingerprint of a result's rows."""
    hasher = hashlib.blake2b(digest_size=8)
    for row in sorted(rows):
        hasher.update(row.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def result_digest(result: QueryResult, rendered: bool = False) -> str:
    """Digest of an in-process result: pathways by uid key, plus validity.

    ``rendered`` digests pathways by their text rendering instead, which is
    what the HTTP front end returns (see :func:`payload_digest`).
    """
    rows = []
    for row in result.rows:
        cells = []
        for value in row.values:
            if isinstance(value, Pathway):
                cells.append(value.render() if rendered else repr(value.key()))
            else:
                cells.append(repr(value))
        if row.validity is not None:
            cells.append(repr([(i.start, i.end) for i in row.validity]))
        rows.append("|".join(cells))
    return digest(rows)


def payload_digest(payload: dict[str, Any]) -> str:
    """Digest of a ``POST /query`` response body (pathways arrive rendered)."""
    return digest("|".join(map(str, row["values"])) for row in payload["rows"])


# -- operation sequences ------------------------------------------------------


def stratified_blocks(
    groups: dict[str, list[Op]], count: int, rng: random.Random
) -> list[Op]:
    """One round of every op, each kind spread evenly over *count* blocks.

    A plain shuffle lets the few expensive kinds cluster, so a run that ends
    mid-round would see a different mix from the next; with every block
    holding its proportional share, any prefix of the round has the round's
    mix and a time-bounded run measures the same thing whichever op it
    stops at.  Order inside a block is shuffled by the seed.
    """
    blocks: list[list[Op]] = [[] for _ in range(count)]
    for ops in groups.values():
        for index, op in enumerate(ops):
            blocks[index * count // len(ops)].append(op)
    for block in blocks:
        rng.shuffle(block)
    return [op for block in blocks for op in block]


def closed_loop(ops: Iterable[Op], seconds: float, tracer=None) -> OpLog:
    """Issue *ops* back to back from this thread for *seconds*.

    An op that raises or returns a wrong result is a failed op, not a
    crash; checking happens outside the timed interval.
    """
    log = OpLog()
    clock = time.perf_counter
    deadline = clock() + seconds
    for op in ops:
        if clock() >= deadline:
            break
        started = clock()
        try:
            if tracer is None:
                result = op.call()
                elapsed = clock() - started
            else:
                with tracer.op(op.label):
                    result = op.call()
                    elapsed = clock() - started
            ok = op.check(result)
        except Exception:
            elapsed = clock() - started
            ok = False
            if log.failed < 3:
                print(f"op {op.label} failed:", file=sys.stderr)
                traceback.print_exc()
        log.record(op.label, elapsed, ok)
    return log
