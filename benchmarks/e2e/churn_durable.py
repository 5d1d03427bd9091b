"""``churn_durable`` — acknowledged writes beside reads, then a crash.

In-process ``NepalDB(data_dir=..., durable_sync="commit")``, one thread,
closed loop on the service graph: repeating blocks of four writes — the
``ChurnSimulator`` event mix (status update, VM migration = delete + insert
of the ``OnServer`` edge, edge flap = delete + re-insert), issued one op at a
time through ``NepalDB`` — then one read, alternating a placement lookup
and ``VM-VM (4)``.  A checkpoint runs every ``CHECKPOINT_EVERY`` writes and
is charged to the write that triggered it.  This is where WAL fsyncs,
journaling, per-write CSR invalidation and statistics-epoch plan
invalidation cost something, and the only workload where they do.

After the run the data directory is copied *without* ``close()``, the WAL
copy cut at the byte offset recorded after the last acknowledged write, and
reopened: its ``history_digest`` must equal the live store's.

The transaction clock is pinned and advanced one second per op, so the
bytes journaled depend on the seed and the op count alone, and every read
can be replayed afterwards ``AT`` its own instant on the row path — that
replay is the oracle for the reads.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Iterator

from repro import NepalDB
from repro.storage.base import TimeScope
from repro.storage.durable import CHECKPOINT_FILE, WAL_FILE
from repro.storage.wal import history_digest

from benchmarks.e2e.graphs import load_expected, placement, retrieve, row_path, service_db
from benchmarks.e2e.measure import (
    DEFAULT_SEED,
    Metric,
    Op,
    closed_loop,
    derive_seed,
    ms,
    result_digest,
    segment_p99,
)
from benchmarks.e2e.workload import (
    Measurement,
    ProbeItem,
    Workload,
    closed_loop_measurement,
)

WRITES_PER_READ = 4
#: The issue asked for 2 000; a run here acknowledges about 2 000 writes in
#: all, so 400 keeps several checkpoints inside every run.
CHECKPOINT_EVERY = 400
MIGRATION_SHARE = 0.05
FLAP_SHARE = 0.05
STATUSES = ("Green", "Yellow", "Red", "up", "down", "Maintenance")
#: How many read digests the committed expected file holds.
EXPECTED_READS = 256


def _always(_result: object) -> bool:
    return True


class ChurnDurable(Workload):
    name = "churn_durable"

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.seed = seed
        self.data_dir = workdir / "data"
        self.copy_dir = workdir / "copy"
        self.db, handles = service_db(
            traced, data_dir=str(self.data_dir), durable_sync="commit"
        )
        self.durable = self.db.durable_store()
        self.rng = random.Random(derive_seed(seed, "churn-ops"))
        self.vms = handles.vms
        self.hosts = handles.hosts
        self.flappable = handles.horizontal_edges
        self.with_status = (
            handles.vnfs + handles.vfcs + handles.vms + handles.hosts + handles.switches
        )
        current = TimeScope.current()
        self.placement_edge = {
            edge.source_uid: edge.uid
            for vm in self.vms
            for edge in self.db.store.out_edges(vm, current)
            if edge.cls.name == "OnServer"
        }
        self.vm_host = dict(handles.vm_host)
        self.writes = 0
        self.wal_appended = 0
        self.checkpoint_bytes = 0
        self.checkpoint_seconds: list[float] = []
        self.reads: list[tuple[float, str, str]] = []  # (as-of, text, digest)
        self.stream = self._ops()
        self.db.checkpoint()  # the loaded graph becomes the baseline
        for op in (next(self.stream) for _ in range(5 * (WRITES_PER_READ + 1))):
            op.call()  # warm-up blocks
        self.reads.clear()

    # -- the op stream --------------------------------------------------------

    def _write(self, label: str, apply) -> Op:
        """A write op: advance the clock, apply, account the journal bytes,
        checkpoint when due (inside the op, so the stall is the write's)."""
        def call() -> None:
            self.db.clock.advance(1.0)
            before = self.durable.wal_bytes
            apply()
            self.wal_appended += self.durable.wal_bytes - before
            self.writes += 1
            if self.writes % CHECKPOINT_EVERY == 0:
                started = time.perf_counter()
                self.db.checkpoint()
                self.checkpoint_seconds.append(time.perf_counter() - started)
                self.checkpoint_bytes += os.path.getsize(self.data_dir / CHECKPOINT_FILE)

        return Op(label, call, _always)

    def _read(self, label: str, text: str) -> Op:
        def call():
            self.db.clock.advance(1.0)
            return self.db.query(text)

        def check(result) -> bool:
            # Judged after the run, against the row-path replay AT this instant.
            self.reads.append((self.db.clock.now(), text, result_digest(result)))
            return True

        return Op(label, call, check)

    def _ops(self) -> Iterator[Op]:
        rng, db = self.rng, self.db
        pending: list[Op] = []
        reads = 0
        while True:
            for _ in range(WRITES_PER_READ):
                if not pending:
                    pending = self._event(rng, db)
                yield pending.pop(0)
            vm = rng.choice(self.vms)
            if reads % 2 == 0:
                yield self._read("read.placement", placement(vm))
            else:
                yield self._read(
                    "read.vm_vm_4", retrieve(f"VM(id={vm})->[ConnectedTo()]{{1,4}}->VM()")
                )
            reads += 1

    def _event(self, rng: random.Random, db: NepalDB) -> list[Op]:
        roll = rng.random()
        if roll < MIGRATION_SHARE:
            vm = rng.choice(self.vms)
            host = rng.choice([h for h in self.hosts if h != self.vm_host[vm]])
            old = self.placement_edge[vm]

            def place() -> None:
                self.placement_edge[vm] = db.insert_edge("OnServer", vm, host)
                self.vm_host[vm] = host

            return [
                self._write("write.delete", lambda: db.delete(old)),
                self._write("write.insert", place),
            ]
        if roll < MIGRATION_SHARE + FLAP_SHARE:
            uid = rng.choice(self.flappable)
            edge = db.store.get_element(uid, TimeScope.current())
            return [
                self._write("write.delete", lambda: db.delete(uid)),
                self._write("write.insert", lambda: db.insert_edge(
                    edge.cls.name, edge.source_uid, edge.target_uid,
                    dict(edge.fields), uid=uid,
                )),
            ]
        uid = rng.choice(self.with_status)
        status = rng.choice(STATUSES)
        return [self._write("write.update", lambda: db.update(uid, {"status": status}))]

    # -- measuring ------------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> Measurement:
        writes_before, appended_before = self.writes, self.wal_appended
        checkpointed_before = self.checkpoint_bytes
        checkpoints_before = len(self.checkpoint_seconds)
        log = closed_loop(self.stream, seconds, tracer)
        measurement = closed_loop_measurement(log)
        writes = log.where(lambda label: label.startswith("write."))
        reads = log.where(lambda label: label.startswith("read."))
        acked = self.writes - writes_before
        appended = self.wal_appended - appended_before
        checkpointed = self.checkpoint_bytes - checkpointed_before
        checkpoints = self.checkpoint_seconds[checkpoints_before:]
        measurement.extras = {
            "write_latency_p50_ms": Metric(ms(statistics.median(writes)), "ms", len(writes)),
            "write_latency_p99_ms": Metric(ms(segment_p99(writes)), "ms", len(writes)),
            "read_latency_p50_ms": Metric(ms(statistics.median(reads)), "ms", len(reads)),
            "read_latency_p99_ms": Metric(ms(segment_p99(reads)), "ms", len(reads)),
            "disk_bytes_per_write": Metric((appended + checkpointed) / acked, "bytes", acked),
            "storage.wal.bytes_per_write": Metric(appended / acked, "bytes", acked),
            "storage.durable.checkpoint_bytes": Metric(
                checkpointed / max(1, len(checkpoints)), "bytes", len(checkpoints)
            ),
        }
        if checkpoints:
            measurement.extras["storage.durable.checkpoint_ms"] = Metric(
                ms(statistics.median(checkpoints)), "ms", len(checkpoints)
            )
        return measurement

    def verify(self) -> tuple[int, bool, dict[str, Metric]]:
        """After the last measured phase: (wrong reads, recovered == live, extras)."""
        acked_offset = self.durable.wal_bytes
        shutil.copytree(self.data_dir, self.copy_dir)
        with open(self.copy_dir / WAL_FILE, "r+b") as wal:
            wal.truncate(acked_offset)
        started = time.perf_counter()
        recovered = NepalDB(data_dir=str(self.copy_dir))
        try:
            recovered.query(placement(self.vms[0]))
            recovery_s = time.perf_counter() - started
            report = recovered.recovery_report
            same = history_digest(recovered.store) == history_digest(self.db.store)
        finally:
            recovered.close()
        shutil.rmtree(self.copy_dir)

        committed = (load_expected(self.name) or []) if self.seed == DEFAULT_SEED else []
        replayed = self._replay(self.reads[len(committed):])
        wrong = sum(
            got != want
            for (_, _, got), want in zip(self.reads, committed + replayed)
        )
        extras = {
            "recovery_s": Metric(recovery_s, "s"),
            "storage.durable.recovery_replayed": Metric(report.replayed, "count"),
        }
        return wrong, same, extras

    def _replay(self, reads: list[tuple[float, str, str]]) -> list[str]:
        """The oracle: each read again, ``AT`` its own instant, on the row path."""
        with row_path(self.db):
            return [
                result_digest(self.db.query(f"AT {as_of!r} {text}"))
                for as_of, text, _ in reads
            ]

    def expected_record(self, seconds: float) -> list[str]:
        self.measure(seconds)
        return self._replay(self.reads[:EXPECTED_READS])

    def database(self) -> NepalDB:
        return self.db

    def probe_items(self) -> list[ProbeItem]:
        seen = {text: ProbeItem(text, text.rpartition("MATCHES ")[2], self.db)
                for _, text, _ in self.reads[:128]}
        return list(seen.values())

    def close(self) -> None:
        self.db.close()
