"""Batch-vs-row differential: the vectorized path must be invisible.

The batch engine (CSR snapshots + column operators) is an optimization,
never a semantic: with ``batch_enabled`` flipped, every read surface —
scans, point reads, batched point reads, frontier expansion, full query
results — must come back byte-identical, in the same order, with the
same record objects' values.  That contract is checked here under random
churn across the backend matrix, through pinned snapshots while a writer
churns underneath, and on a replica recovered from the durability log.

The CSR is built by the first batch read and then kept across writes:
what they change lands in its delta overlay until a merge rebuilds it.
The interleaving differential below therefore compares three answers at
every read — base + overlay, a from-scratch build, and the row path —
with the merge threshold drawn so some runs never merge, some merge
mid-sequence and some merge on almost every write.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.database import NepalDB
from repro.plan.planner import PlannerOptions
from repro.rpe.parser import parse_rpe
from repro.schema.builtin import build_network_schema
from repro.storage.base import TimeScope
from repro.storage.durable import recover
from repro.storage.memgraph.csr import MERGE_FRACTION
from repro.storage.memgraph.store import MemGraphStore
from repro.temporal.clock import TransactionClock
from tests.conftest import SmallInventory
from tests.storage.test_backend_equivalence import (
    BACKEND_MATRIX,
    SCHEMA,
    T0,
    OpReplay,
    _norm_value,
    _ops,
    apply_ops,
    matrix_stores,
    snapshot_of,
)
from tests.storage.test_csr import merge_fraction, never_merging

_choices = st.lists(st.integers(min_value=0, max_value=997), min_size=60, max_size=60)


def engine_of(store):
    """The innermost store carrying the batch engine flag, or None."""
    target = store
    while target is not None:
        if "batch_enabled" in vars(target):
            return target
        target = getattr(target, "_inner", None)
    return None


def read_surface(store, scope, scan_names, filter_name):
    """Every read surface the executor uses, order-sensitively."""
    schema = store.schema
    scans = []
    for name in scan_names:
        bound = parse_rpe(name if "(" in name else f"{name}()").bind(schema)
        scans.append((name, store.scan_atom(bound, scope)))
    uids = store.known_uids()
    filters = [schema.resolve(filter_name)]
    per_node = [
        (
            uid,
            store.get_element(uid, scope),
            store.out_edges(uid, scope),
            store.in_edges(uid, scope, filters),
        )
        for uid in uids
    ]
    return (
        scans,
        per_node,
        store.get_many(uids, scope),
        store.out_edges_many(uids, scope),
        store.in_edges_many(uids, scope, filters),
    )


def ordered_rows(result):
    """An order-*sensitive* digest of a query result."""
    return [
        (
            tuple(_norm_value(v) for v in row.values),
            tuple(sorted((name, p.key()) for name, p in row.bindings.items())),
        )
        for row in result.rows
    ]


EQUIV_SCANS = ("Box", "BigBox", "Link", "FastLink")
#: The same plus predicate atoms: an equality the interleaving test indexes
#: (candidate-driven scan) and non-indexed filters on nodes and on edges
#: (column sweep with ``atom.matches``).
OVERLAY_SCANS = EQUIV_SCANS + ("Box(status='changed')", "Box(size=1)", "Link(weight=2)")
NETWORK_SCANS = ("VM", "Host", "Vertical")


@settings(max_examples=20, deadline=None)
@given(_ops, _choices)
def test_batch_matches_row_across_matrix_under_churn(ops, choices):
    """Flip the engine flag on every matrix config after random writes:
    batch and row legs must be identical at every scope, and every config
    (including the row-only relational ones) must still agree with the
    batch-warmed memory reference."""
    stores = matrix_stores()
    for store in stores.values():
        apply_ops(store, ops, choices)
    reference = stores[BACKEND_MATRIX[0]]
    final = reference.clock.now()
    scopes = [
        TimeScope.current(),
        TimeScope.at(T0),
        TimeScope.at((T0 + final) / 2),
        TimeScope.between(T0, final + 1),
    ]
    for scope in scopes:
        for config, store in stores.items():
            engine = engine_of(store)
            if engine is None:
                continue
            engine.batch_enabled = True
            batch_leg = read_surface(store, scope, EQUIV_SCANS, "FastLink")
            engine.batch_enabled = False
            row_leg = read_surface(store, scope, EQUIV_SCANS, "FastLink")
            engine.batch_enabled = True
            assert batch_leg == row_leg, (config, scope)
        expected = snapshot_of(reference, scope)
        for config, store in stores.items():
            assert snapshot_of(store, scope) == expected, (config, scope)


_churn_ops = st.lists(
    st.sampled_from([
        ("node", "Box"), ("node", "BigBox"),
        ("edge", "Link"), ("edge", "FastLink"),
        ("update",), ("delete",), ("revive",), ("flap",), ("reinsert",),
        ("tick",), ("read",), ("read",), ("read",),
    ]),
    min_size=5,
    max_size=40,
)
#: Every run starts from a small sealed base, so drawn writes land in an
#: overlay from the first op on.
_PRELUDE = [
    ("node", "Box"), ("node", "BigBox"), ("node", "Box"), ("node", "BigBox"),
    ("edge", "Link"), ("edge", "FastLink"), ("edge", "Link"), ("edge", "FastLink"),
    ("tick",), ("read",),
]
_churn_choices = st.lists(
    st.integers(min_value=0, max_value=997), min_size=120, max_size=120
)
#: never merge (twice as likely) / merge once most or a third of the base
#: is dirty / the shipped constant, which on these handful-of-element
#: stores merges after almost every write.
_fractions = st.sampled_from([float("inf"), float("inf"), 0.75, 0.34, MERGE_FRACTION])


def three_way_read(store: MemGraphStore, scope) -> None:
    """base + overlay == fresh build == row path, on every read surface."""
    live = store._csr
    overlay_leg = read_surface(store, scope, OVERLAY_SCANS, "FastLink")
    store._csr = None  # the next batch read builds from scratch
    fresh_leg = read_surface(store, scope, OVERLAY_SCANS, "FastLink")
    assert store.csr_overlay() == (0, 0)
    store.batch_enabled = False
    row_leg = read_surface(store, scope, OVERLAY_SCANS, "FastLink")
    store.batch_enabled = True
    # Put the overlaid snapshot back, so it keeps growing across reads —
    # unless this read itself merged it; then the fresh build is the one
    # to keep.
    if live is not None and not live.merge_due():
        store._csr = live
    assert overlay_leg == row_leg, scope
    assert fresh_leg == row_leg, scope


@settings(max_examples=60, deadline=None)
@given(_churn_ops, _churn_choices, _fractions)
def test_overlay_matches_fresh_build_and_row_under_interleaved_churn(
    ops, choices, fraction
):
    """Random interleavings of inserts / updates / deletes (node deletes
    cascade) / edge flaps / revivals / reinserts with batch reads under
    current, AT and range scopes."""
    store = MemGraphStore(
        SCHEMA, clock=TransactionClock(start=T0), indexed_fields=("status",)
    )
    replay = OpReplay(store, choices)
    builds_seen = set()
    with merge_fraction(fraction):
        for op in [*_PRELUDE, *ops, ("read",)]:
            if op[0] != "read":
                replay.apply(op)
                continue
            now = store.clock.now()
            for scope in (
                TimeScope.current(),
                TimeScope.at(T0),
                TimeScope.at((T0 + now) / 2),
                TimeScope.at(now),
                TimeScope.between(T0, now + 1),
                TimeScope.between((T0 + now) / 2, now + 1),
            ):
                three_way_read(store, scope)
                builds_seen.add(id(store._csr))
    if fraction == float("inf"):
        assert len(builds_seen) == 1  # the prelude's base served the whole run


PIN_QUERY = (
    "Select source(P).name, target(P).name "
    "From PATHS P Where P MATCHES VFC()->VM()->Host()"
)


def test_pinned_snapshot_batch_reads_ignore_later_writes():
    """Snapshots pinned before churn must serve identical (pre-churn)
    answers from the batch and row engines, while live reads move on —
    first through the overlay the churn left on the pre-pin base, then
    through the base a merge rebuilt after the pin."""
    schema = build_network_schema()
    dbs = {}
    invs = {}
    for leg, enabled in (("batch", True), ("row", False)):
        db = NepalDB(
            schema=schema,
            clock=TransactionClock(start=T0),
            planner_options=PlannerOptions(batch_enabled=enabled),
        )
        invs[leg] = SmallInventory(db.store)
        dbs[leg] = db
    assert engine_of(dbs["batch"].store).batch_enabled
    assert not engine_of(dbs["row"].store).batch_enabled

    # The first query builds the batch leg's CSR, before pinning.
    before = {leg: ordered_rows(db.query(PIN_QUERY)) for leg, db in dbs.items()}
    assert before["batch"] == before["row"]
    assert before["batch"]  # the fixed topology does produce pathways
    engine = engine_of(dbs["batch"].store)
    sealed = engine._csr
    assert sealed is not None and engine.csr_overlay() == (0, 0)

    snaps = {leg: db.snapshot() for leg, db in dbs.items()}

    # Churn both databases identically underneath the open snapshots.
    for leg, db in dbs.items():
        inv = invs[leg]
        db.store.clock.advance(10)
        db.store.update_element(inv.vm1, {"status": "Red"})
        db.store.delete_element(inv.e_vfc2_vm2)
        db.store.insert_node("Host", {"name": "host-3", "cpu_cores": 8})
        db.store.clock.advance(10)

    def pinned_answers_hold():
        pinned = {leg: ordered_rows(snap.query(PIN_QUERY)) for leg, snap in snaps.items()}
        assert pinned["batch"] == pinned["row"]
        assert pinned["batch"] == before["batch"]

    try:
        with never_merging():
            pinned_answers_hold()
            assert engine._csr is sealed  # the writer dirtied it, nothing rebuilt
            elements, nodes = engine.csr_overlay()
            assert elements >= 3 and nodes >= 2
        with merge_fraction(0.0):  # any dirt is past the threshold: merge
            pinned_answers_hold()
        assert engine._csr is not sealed and engine.csr_overlay() == (0, 0)
        # Direct pinned point reads agree too, record for record.
        uids = dbs["batch"].store.known_uids()
        assert uids == dbs["row"].store.known_uids()
        for scope in (TimeScope.current(), TimeScope.at(T0)):
            got = {
                leg: snap.store.get_many(uids, scope) for leg, snap in snaps.items()
            }
            assert got["batch"] == got["row"]
        # The live stores really did diverge from the pinned view.
        live = {leg: ordered_rows(db.query(PIN_QUERY)) for leg, db in dbs.items()}
        assert live["batch"] == live["row"]
        assert live["batch"] != before["batch"]
    finally:
        for snap in snaps.values():
            snap.close()


def test_recovered_replica_batch_matches_row(tmp_path):
    """A replica rebuilt from the durability log answers identically on
    both engines, and identically to the primary it replicates — and keeps
    doing so when later writes land in the overlay of the base it built."""
    schema = build_network_schema()
    db = NepalDB(
        schema=schema,
        clock=TransactionClock(start=T0),
        data_dir=str(tmp_path / "data"),
    )
    inv = SmallInventory(db.store)
    db.store.clock.advance(5)
    db.store.update_element(inv.vm2, {"status": "Yellow"})
    db.store.delete_element(inv.e_fw_vfc2)

    scope = TimeScope.current()
    primary = read_surface(db.store, scope, NETWORK_SCANS, "OnServer")
    db.close()

    replica = MemGraphStore(schema, clock=TransactionClock(start=T0))
    recover(tmp_path / "data", replica)
    engine = engine_of(replica)

    def legs(at):
        engine.batch_enabled = True
        batch_leg = read_surface(replica, at, NETWORK_SCANS, "OnServer")
        engine.batch_enabled = False
        row_leg = read_surface(replica, at, NETWORK_SCANS, "OnServer")
        engine.batch_enabled = True
        assert batch_leg == row_leg
        return batch_leg

    assert legs(scope) == primary
    recovered_at = replica.clock.now()
    sealed = replica._csr
    with never_merging():
        replica.clock.advance(5)
        replica.update_element(inv.vm1, {"status": "Red"})
        replica.delete_element(inv.e_vfc2_vm2)
        replica.insert_edge("OnServer", inv.vm2, inv.host1)
        assert legs(scope) != primary
        legs(TimeScope.at(recovered_at))
        assert replica._csr is sealed and replica.csr_overlay()[0] == 3


def test_planner_option_reaches_the_engine_through_wrappers(tmp_path):
    """PlannerOptions(batch_enabled=False) lands on the innermost engine,
    never shadowed onto a delegating wrapper."""
    schema = build_network_schema()
    disabled = NepalDB(
        schema=schema,
        clock=TransactionClock(start=T0),
        data_dir=str(tmp_path / "data"),
        planner_options=PlannerOptions(batch_enabled=False),
    )
    engine = engine_of(disabled.store)
    assert engine is not disabled.store  # there is a DurableStore in between
    assert engine.batch_enabled is False
    assert "batch_enabled" not in vars(disabled.store)
    disabled.close()

    default = NepalDB(schema=schema, clock=TransactionClock(start=T0))
    assert engine_of(default.store).batch_enabled is True
