"""``traverse_current`` — the paper's Tables 1 and 2 on the current snapshot.

In-process ``NepalDB.query``, one thread, closed loop.  A round is the five
Table-1 kinds on the service graph (42 + 4x50 instances) and the four
Table-2 kinds on the subclassed legacy graph (25 instances each): 342
distinct texts against a 256-entry plan cache, on purpose, so planning and
evictions show.  ``plan`` (traverse, batch operators) and
``storage.memgraph`` (CSR) do the work; ``server`` and ``storage.durable``
do none.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from repro import NepalDB
from repro.inventory.workload import table1_workload, table2_workload

from benchmarks.e2e.graphs import (
    attach_legacy,
    expected_digests,
    oracle_digests,
    query_op,
    retrieve,
    service_db,
    slug,
)
from benchmarks.e2e.measure import (
    STRUCTURE_SEED,
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
WARMUP_BLOCKS = 3


class TraverseCurrent(Workload):
    name = "traverse_current"

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.db, service = service_db(traced)
        legacy = attach_legacy(self.db, traced)
        table1 = table1_workload(service, 50, derive_seed(STRUCTURE_SEED, "table1"))
        table2 = table2_workload(legacy, True, 25, derive_seed(STRUCTURE_SEED, "table2"))
        instances = [
            (f"t1_{slug(kind)}", instance.rpe, "")
            for kind, group in table1.items() for instance in group
        ] + [
            (f"t2_{slug(kind)}", instance.rpe, "legacy")
            for kind, group in table2.items() for instance in group
        ]
        self.items = [
            ProbeItem(retrieve(rpe, store=store), rpe, self.db, store or "default")
            for _, rpe, store in instances
        ]
        texts = [item.text for item in self.items]
        self.oracle = oracle_digests(self.db, texts)
        expected = expected_digests(self.name, seed, self.oracle)
        groups: dict[str, list[Op]] = {}
        for (label, _, _), text in zip(instances, texts):
            groups.setdefault(label, []).append(query_op(self.db, label, text, expected))
        self.round = stratified_blocks(
            groups, BLOCKS, random.Random(derive_seed(seed, "order"))
        )
        # Warm-up: the oracle pass above already ran every text through
        # parse, typecheck and planning; a few blocks more build the CSR of
        # both stores.  A whole second round would only lengthen set-up.
        for op in self.round[: WARMUP_BLOCKS * len(self.round) // BLOCKS]:
            op.call()

    def measure(self, seconds: float, tracer=None) -> Measurement:
        log = closed_loop(itertools.cycle(self.round), seconds, tracer)
        measurement = closed_loop_measurement(log)
        measurement.extras = kind_p50s(log)
        return measurement

    def database(self) -> NepalDB:
        return self.db

    def probe_items(self) -> list[ProbeItem]:
        return self.items
