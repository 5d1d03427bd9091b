"""``timetravel_mix`` — Table 1 over a 60-day history, mostly in the past.

In-process, one thread, closed loop, on the service graph after a 60-day
``ChurnSimulator`` run at ``growth_ratio=0.16``.  Each Table-1 instance is
issued under one scope — ``AT <mid-history>`` (50 % of each kind),
``AT <t> : <t + 10 days>`` (30 %) or current (20 %) — plus ``WHEN EXISTS``
over the whole history for the placement of 40 VMs per round, plus ten
``VM(status=...)->OnServer()->Host()`` lookups ``AT`` random instants: every
Table-1 kind anchors on an id, and without a class-anchored kind the
temporal index would never be read.  The storage layer is the one
``traverse_current`` uses, used differently: version-chain bisects, the
temporal index, interval coalescing.  40 instances per sampled kind and 40
VMs (the issue said 50 and 50) keep the 252 distinct texts inside the
256-entry plan cache, so planning stays out of the picture here.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from pathlib import Path

from repro import NepalDB
from repro.inventory.churn import ChurnParams, ChurnSimulator
from repro.inventory.workload import table1_workload

from benchmarks.e2e.graphs import (
    expected_digests,
    oracle_digests,
    placement,
    query_op,
    retrieve,
    service_db,
    slug,
)
from benchmarks.e2e.measure import (
    DAY,
    STRUCTURE_SEED,
    Metric,
    Op,
    closed_loop,
    derive_seed,
    stratified_blocks,
)
from benchmarks.e2e.workload import (
    Measurement,
    ProbeItem,
    Workload,
    closed_loop_measurement,
    kind_p50s,
)

BLOCKS = 25
RANGE_DAYS = 10
SCOPE_SHARES = (("at", 0.5), ("range", 0.3))  # the rest is current
WHEN_EXISTS_VMS = 40
STATUS_LOOKUPS = 10
STATUSES = ("Green", "Yellow", "Red", "Maintenance", "up", "down")
#: How many instances the range-vs-point probe replays under both scopes.
RATIO_PROBE = 40


class TimetravelMix(Workload):
    name = "timetravel_mix"

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.db, handles = service_db(traced)
        report = ChurnSimulator(
            self.db.store,
            ChurnParams(days=60, growth_ratio=0.16, seed=derive_seed(STRUCTURE_SEED, "churn")),
        ).run(
            handles.all_nodes(), handles.all_edges(),
            migratable={vm: handles.hosts for vm in handles.vms},
        )
        start, end = int(report.start_time), int(report.end_time)
        self.point = f"AT {(start + end) // 2} "
        rng = random.Random(derive_seed(seed, "windows"))
        dealer = random.Random(derive_seed(STRUCTURE_SEED, "scopes"))

        def prefix(scope: str) -> str:
            if scope == "at":
                return self.point
            if scope == "range":
                at = rng.randrange(start, end - int(RANGE_DAYS * DAY))
                return f"AT {at} : {at + int(RANGE_DAYS * DAY)} "
            return ""

        table1 = table1_workload(handles, 40, derive_seed(STRUCTURE_SEED, "table1"))
        instances = []
        for kind, group in table1.items():
            # Exact shares per kind, not a draw per instance: a range scope
            # costs several times a point scope, so a binomial count of them
            # would make two seeds two different workloads.
            scopes = [
                scope for scope, share in SCOPE_SHARES
                for _ in range(round(share * len(group)))
            ]
            scopes += ["current"] * (len(group) - len(scopes))
            dealer.shuffle(scopes)
            for instance, scope in zip(group, scopes):
                instances.append(
                    (f"{slug(kind)}.{scope}", instance.rpe, retrieve(instance.rpe, prefix(scope)))
                )
        history = f"WHEN EXISTS AT {start} : {end} "
        for vm in rng.sample(handles.vms, WHEN_EXISTS_VMS):
            rpe = f"VM(id={vm})->OnServer()->Host()"
            instances.append(("when_exists", rpe, placement(vm, history)))
        for index in range(STATUS_LOOKUPS):
            rpe = f"VM(status='{STATUSES[index % len(STATUSES)]}')->OnServer()->Host()"
            instances.append(
                ("status.at", rpe, retrieve(rpe, f"AT {rng.randrange(start, end)} "))
            )
        self.items = [ProbeItem(text, rpe, self.db) for _, rpe, text in instances]
        self.ranged = [
            (rpe, text) for label, rpe, text in instances
            if label.endswith(".range")
        ][:RATIO_PROBE]
        self.oracle = oracle_digests(self.db, [text for _, _, text in instances])
        expected = expected_digests(self.name, seed, self.oracle)
        groups: dict[str, list[Op]] = {}
        for label, _, text in instances:
            groups.setdefault(label, []).append(query_op(self.db, label, text, expected))
        self.round = stratified_blocks(
            groups, BLOCKS, random.Random(derive_seed(seed, "order"))
        )
        for op in self.round:  # warm-up round
            op.call()

    def measure(self, seconds: float, tracer=None) -> Measurement:
        log = closed_loop(itertools.cycle(self.round), seconds, tracer)
        measurement = closed_loop_measurement(log)
        by_scope = {
            scope: log.where(lambda label, s=scope: label.endswith("." + s))
            for scope in ("at", "range", "current")
        }
        when_exists = log.where(lambda label: label.startswith("when_exists"))
        measurement.extras = {
            **kind_p50s(log),
            **{
                f"scope.{name}.p50_ms": Metric(statistics.median(v) * 1000.0, "ms", len(v))
                for name, v in by_scope.items() if v
            },
        }
        if when_exists:
            measurement.extras["temporal.when_exists_ms"] = Metric(
                statistics.median(when_exists) * 1000.0, "ms", len(when_exists)
            )
        return measurement

    def probes(self) -> dict[str, Metric]:
        """Median range-scope latency over median point-scope latency, on
        the same instances."""
        def median_latency(texts: list[str]) -> float:
            samples = []
            for text in texts:
                started = time.perf_counter()
                self.db.query(text)
                samples.append(time.perf_counter() - started)
            return statistics.median(samples)

        ranged = median_latency([text for _, text in self.ranged])
        point = median_latency([retrieve(rpe, self.point) for rpe, _ in self.ranged])
        return {"temporal.range_vs_point_ratio": Metric(ranged / point, "ratio", len(self.ranged))}

    def database(self) -> NepalDB:
        return self.db

    def probe_items(self) -> list[ProbeItem]:
        return self.items
