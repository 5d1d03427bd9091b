"""Multi-reader/single-writer stress: concurrent replay vs a sequential oracle.

These are the tests CI repeats 20x under pytest-timeout (the `concurrency`
job) — every interleaving must agree with a single-threaded oracle.  Keep
each test well under a second locally so the repetition stays cheap.
"""

from __future__ import annotations

import sys
import threading

from repro.core.database import NepalDB
from repro.rpe.parser import parse_rpe
from repro.storage.base import TimeScope
from tests.concurrency.conftest import CORPUS, result_digest, small_topology

READERS = 4
REPLAYS = 15


def join_all(workers: list[threading.Thread], timeout: float = 60.0) -> None:
    for worker in workers:
        worker.join(timeout=timeout)
        assert not worker.is_alive(), f"{worker.name} failed to finish"


def test_pinned_readers_agree_with_sequential_oracle():
    """4 reader threads replay the corpus against a held snapshot while a
    writer churns; every concurrent result must equal the oracle computed
    sequentially before the churn started."""
    db = NepalDB()  # wall clock, like a deployment
    handles = small_topology(db)
    snap = db.snapshot()
    oracle = {text: result_digest(snap.query(text)) for text in CORPUS}

    stop = threading.Event()
    mismatches: list[str] = []
    errors: list[BaseException] = []

    def reader(slot: int) -> None:
        try:
            for _ in range(REPLAYS):
                for text in CORPUS:
                    if result_digest(snap.query(text)) != oracle[text]:
                        mismatches.append(f"reader {slot}: {text}")
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    def writer() -> None:
        try:
            serial = 0
            while not stop.is_set():
                vm = handles["vms"][serial % len(handles["vms"])]
                db.update(vm, {"status": ("Red", "Green", "Amber")[serial % 3]})
                uid = db.insert_node("VM", {"name": f"churn{serial}"})
                db.insert_edge("OnServer", uid, handles["hosts"][0])
                serial += 1
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    workers = [
        threading.Thread(target=reader, args=(slot,), name=f"reader-{slot}")
        for slot in range(READERS)
    ]
    churn = threading.Thread(target=writer, name="writer")
    churn.start()
    for worker in workers:
        worker.start()
    join_all(workers)
    stop.set()
    join_all([churn])

    assert not errors, errors[0]
    assert not mismatches, mismatches[:5]
    assert db.write_gate.commits > 28  # the writer really ran
    snap.close()
    assert db.write_gate.open_pins() == 0


def test_ephemeral_query_pins_see_consistent_states():
    """Plain db.query under a concurrent writer: each call may see an old
    or new state, but never a torn one — a VM and its placement edge are
    inserted in separate commits, so a path query can lag the node count
    but must never crash or see a path without its endpoints."""
    db = NepalDB()
    handles = small_topology(db)
    stop = threading.Event()
    errors: list[BaseException] = []
    path_text = CORPUS[0]

    def reader() -> None:
        try:
            while not stop.is_set():
                result = db.query(path_text)
                for row in result.rows:
                    pathway = row.values[0]
                    assert len(pathway.elements) == 3
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    def writer() -> None:
        try:
            for serial in range(120):
                uid = db.insert_node("VM", {"name": f"w{serial}"})
                db.insert_edge("OnServer", uid, handles["hosts"][serial % 4])
                db.delete(uid)
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    readers = [
        threading.Thread(target=reader, name=f"ereader-{i}") for i in range(READERS)
    ]
    churn = threading.Thread(target=writer, name="ewriter")
    for worker in readers:
        worker.start()
    churn.start()
    join_all([churn])
    stop.set()
    join_all(readers)
    assert not errors, errors[0]


def test_batch_readers_agree_with_row_oracle_while_overlay_grows_and_merges():
    """8 readers issue batch reads through pinned snapshots while one writer
    commits: every batch answer (base + overlay, across the merges the
    readers themselves trigger) must equal the per-element row routines'
    answer at the same pin.  A reader pairing one snapshot's base with
    another's overlay would miss a write and break the equality."""
    db = NepalDB()
    handles = small_topology(db)
    # A base large enough that several commits fit under the merge
    # threshold, so readers meet non-empty overlays between merges.
    fillers = [db.insert_node("VM", {"name": f"filler{i}"}) for i in range(150)]
    churned = handles["vms"] + fillers
    engine = db.store
    vm_atom = parse_rpe("VM()").bind(db.schema)
    current = TimeScope.current()
    stop = threading.Event()
    errors: list[BaseException] = []
    readers_count, rounds, growth = 8, 6, 150

    def reader() -> None:
        try:
            for _ in range(rounds):
                with db.snapshot() as snap:
                    store = snap.store
                    uids = store.known_uids()
                    row = {}
                    for uid in uids:
                        record = store.get_element(uid, current)
                        if record is not None:
                            row[uid] = record
                    assert store.get_many(uids, current) == row
                    assert store.out_edges_many(uids, current) == {
                        uid: store.out_edges(uid, current) for uid in uids
                    }
                    assert store.in_edges_many(uids, current) == {
                        uid: store.in_edges(uid, current) for uid in uids
                    }
                    assert store.scan_atom(vm_atom, current) == [
                        row[uid] for uid in sorted(row) if vm_atom.matches(row[uid])
                    ]
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    def writer() -> None:
        try:
            serial = 0
            while not stop.is_set():
                serial += 1
                # Walking every VM keeps dirtying *distinct* elements, so the
                # overlay keeps outgrowing the threshold and merges keep firing
                # for as long as the readers run.
                vm = churned[serial % len(churned)]
                db.update(vm, {"status": ("Red", "Green", "Amber")[serial % 3]})
                if serial > growth:
                    # Only status churn from here on: ``known_uids`` (which
                    # every reader round walks) must stay bounded, or rounds
                    # slow down faster than the writer grows the store.
                    continue
                uid = db.insert_node("VM", {"name": f"o{serial}"})
                edge = db.insert_edge("OnServer", uid, handles["hosts"][serial % 4])
                if serial % 3 == 0:
                    db.delete(edge)
                if serial % 5 == 0:
                    db.delete(uid)  # cascades to its placement edge
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    readers = [
        threading.Thread(target=reader, name=f"breader-{slot}")
        for slot in range(readers_count)
    ]
    churn = threading.Thread(target=writer, name="bwriter")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more interleavings per second
    try:
        churn.start()
        for worker in readers:
            worker.start()
        join_all(readers)
    finally:
        stop.set()
        join_all([churn])
        sys.setswitchinterval(interval)

    assert not errors, errors[0]
    # Reads really went through overlays, and merges really fired under them.
    assert db.metrics.event_count("executor.batch.csr_delta_reads") > 0
    # The first build plus at least one merge — and a merge is always run by
    # a reader, under the read lock, beside the other seven.
    assert db.metrics.event_count("executor.batch.csr_build") >= 2
    assert engine.csr_overlay() is not None
    assert db.write_gate.open_pins() == 0


def test_concurrent_writers_serialize_exactly():
    """N writer threads race through the commit gate: every mutation lands,
    uids never collide, and the version/commit counters advance by exactly
    the number of mutations."""
    db = NepalDB()
    threads, inserts = 6, 30
    base_version = db.store.data_version
    base_commits = db.write_gate.commits
    uid_batches: list[list[int]] = [[] for _ in range(threads)]
    errors: list[BaseException] = []

    def writer(slot: int) -> None:
        try:
            for serial in range(inserts):
                uid_batches[slot].append(
                    db.insert_node("VM", {"name": f"t{slot}-{serial}"})
                )
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    workers = [
        threading.Thread(target=writer, args=(slot,), name=f"writer-{slot}")
        for slot in range(threads)
    ]
    for worker in workers:
        worker.start()
    join_all(workers)

    assert not errors, errors[0]
    all_uids = [uid for batch in uid_batches for uid in batch]
    assert len(set(all_uids)) == threads * inserts
    assert db.store.class_count("VM") == threads * inserts
    assert db.store.data_version == base_version + threads * inserts
    assert db.write_gate.commits == base_commits + threads * inserts


def test_durable_concurrent_writes_recover(tmp_path):
    """Concurrent writers through the WAL, then a clean reopen: recovery
    must see every commit in a replayable order."""
    db = NepalDB(data_dir=str(tmp_path))
    handles = small_topology(db)
    threads, inserts = 4, 15
    errors: list[BaseException] = []

    def writer(slot: int) -> None:
        try:
            for serial in range(inserts):
                uid = db.insert_node("VM", {"name": f"d{slot}-{serial}"})
                db.insert_edge("OnServer", uid, handles["hosts"][slot % 4])
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    workers = [
        threading.Thread(target=writer, args=(slot,), name=f"dwriter-{slot}")
        for slot in range(threads)
    ]
    for worker in workers:
        worker.start()
    join_all(workers)
    assert not errors, errors[0]

    expected_vms = 12 + threads * inserts
    assert db.store.class_count("VM") == expected_vms
    oracle = {text: result_digest(db.query(text)) for text in CORPUS}
    db.close()

    reopened = NepalDB(data_dir=str(tmp_path))
    try:
        assert reopened.store.class_count("VM") == expected_vms
        for text in CORPUS:
            assert result_digest(reopened.query(text)) == oracle[text], text
    finally:
        reopened.close()


def test_metrics_registry_atomic_under_contention():
    """8 threads x 5000 events: the counter must land exactly at 40000."""
    from repro.stats.metrics import MetricsRegistry

    registry = MetricsRegistry()
    threads, bumps = 8, 5000
    counters = registry.counters("stress")

    def hammer() -> None:
        for _ in range(bumps):
            registry.event("stress.events")
            counters.hit()

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for worker in workers:
        worker.start()
    join_all(workers)
    assert registry.event_count("stress.events") == threads * bumps
    assert counters.hits == threads * bumps
