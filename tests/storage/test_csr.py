"""Properties of the columnar (CSR) snapshot layer.

The snapshot is the foundation the batch operators stand on, so its
invariants are tested directly: the interning table is a bijection, the
chain columns are bisectable (starts and ends ascending per chain), the
adjacency CSR reproduces ``AdjacencyIndex.edges`` ordering exactly, and
a write lands in the delta overlay of the same object — the sealed base
survives until the overlay outgrows ``MERGE_FRACTION`` — while reads
through base + overlay stay equivalent to a from-scratch build.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.stats.metrics import MetricsRegistry
from repro.storage.base import TimeScope
from repro.storage.memgraph import csr as csr_module
from repro.storage.memgraph.csr import MERGE_FRACTION, build_csr
from repro.storage.memgraph.store import MemGraphStore
from repro.temporal.clock import TransactionClock
from tests.storage.test_backend_equivalence import SCHEMA, T0, OpReplay, _ops

_choices = st.lists(st.integers(min_value=0, max_value=997), min_size=60, max_size=60)


@contextmanager
def merge_fraction(fraction: float):
    """Run with another merge threshold (the constant is read per call)."""
    with mock.patch.object(csr_module, "MERGE_FRACTION", fraction):
        yield


def never_merging():
    """The handful-of-elements stores here would merge on every other write;
    an unreachable threshold keeps the overlay path under test."""
    return merge_fraction(float("inf"))


def simple_store() -> MemGraphStore:
    store = MemGraphStore(SCHEMA, clock=TransactionClock(start=T0))
    a = store.insert_node("Box", {"status": "up"})
    b = store.insert_node("BigBox", {"status": "up"})
    c = store.insert_node("Box", {"status": "down"})
    store.insert_edge("Link", a, b, {"weight": 1})
    store.clock.advance(10)
    store.insert_edge("FastLink", a, c, {"weight": 2})
    store.insert_edge("Link", a, c, {"weight": 3})
    store.clock.advance(10)
    store.update_element(a, {"status": "warm"})
    store.delete_element(c)
    return store


def test_interning_table_is_a_bijection():
    store = simple_store()
    csr = build_csr(store)
    uids = list(csr.uids)
    assert uids == sorted(store._class_of)
    assert [csr.dense_of[uid] for uid in uids] == list(range(len(uids)))
    for dense, uid in enumerate(uids):
        name = csr.class_names[csr.element_class_ids[dense]]
        assert name == store._class_of[uid].name
    # Every schema class is interned, node and edge labels alike.
    assert {cls.name for cls in store.schema.classes()} <= set(csr.class_names)


def test_chain_columns_are_bisectable():
    store = simple_store()
    csr = build_csr(store)
    assert csr.chain_offsets[0] == 0
    assert csr.chain_offsets[-1] == len(csr.chain_records)
    for dense in range(len(csr.uids)):
        lo, hi = csr.chain_offsets[dense], csr.chain_offsets[dense + 1]
        starts = list(csr.chain_starts[lo:hi])
        ends = list(csr.chain_ends[lo:hi])
        assert starts == sorted(starts)
        assert ends == sorted(ends)
        # Versions of a chain never overlap: each closes before the next opens.
        for i in range(1, len(starts)):
            assert ends[i - 1] <= starts[i]


def test_adjacency_csr_reproduces_index_ordering():
    store = simple_store()
    csr = build_csr(store)
    filters = [None, ["Link"], ["FastLink"], ["Link", "FastLink"], ["FastLink", "Link"]]
    for adjacency, segments, flat in (
        (store._out, csr.out_segments, csr.out_edge_dense),
        (store._in, csr.in_segments, csr.in_edge_dense),
    ):
        for uid in store.known_uids():
            dense = csr.dense_of[uid]
            for names in filters:
                expected = adjacency.edges(uid, names)
                segs = segments[dense] or {}
                ranges = (
                    list(segs.values())
                    if names is None
                    else [segs[n] for n in names if n in segs]
                )
                got = [
                    csr.uids[flat[i]] for lo, hi in ranges for i in range(lo, hi)
                ]
                assert got == expected, (uid, names)


def test_write_dirties_the_overlay_and_the_base_survives_until_a_merge():
    metrics = MetricsRegistry()
    store = simple_store()
    store.set_metrics(metrics)
    for _ in range(40):  # a base big enough that two writes stay below the threshold
        store.insert_node("Box", {"status": "up"})
    # The first batch read builds; later reads reuse the same object.
    built = store._csr_snapshot()
    assert store._csr_snapshot() is built
    assert built.data_version == store.data_version
    assert built.describe()["delta_elements"] == 0
    assert store.csr_overlay() == (0, 0)

    # A write no longer orphans the base: it lands in the overlay of the
    # very same object, which readers keep using.
    box = store.insert_node("Box", {"status": "new"})
    assert store._csr_snapshot() is built
    assert built.delta_elements == {box}
    assert built.delta_adjacency_nodes == set()
    assert built.data_version < store.data_version
    assert box not in built.dense_of  # the base columns were not touched

    # An edge write dirties the edge and both endpoints' adjacency.
    a = store.known_uids()[0]
    edge = store.insert_edge("Link", a, box, {"weight": 9})
    assert store._csr_snapshot() is built
    assert built.delta_elements == {box, edge}
    assert built.delta_adjacency_nodes == {a, box}
    assert store.csr_overlay() == (2, 2)
    assert metrics.event_count("executor.batch.csr_build") == 1

    # Once the overlay outgrows MERGE_FRACTION of the base, the next read
    # merges: a new object, sealed at the current version, overlay empty.
    while not built.merge_due():
        store.insert_node("Box", {"status": "filler"})
    assert len(built.delta_elements) > MERGE_FRACTION * len(built.uids)
    merged = store._csr_snapshot()
    assert merged is not built
    assert merged.data_version == store.data_version
    assert store.csr_overlay() == (0, 0)
    assert box in merged.dense_of
    assert store._csr_snapshot() is merged
    assert metrics.event_count("executor.batch.csr_build") == 2


def test_repeated_writes_to_one_element_never_force_a_merge():
    """The overlay counts distinct elements, so hammering one status field
    (most of the paper's churn) costs set re-insertions, never a rebuild."""
    store = simple_store()
    for _ in range(40):
        store.insert_node("Box", {"status": "up"})
    built = store._csr_snapshot()
    target = store.current_uids()[0]
    for tick in range(200):
        store.clock.advance(1)
        store.update_element(target, {"status": f"s{tick}"})
        assert store._csr_snapshot() is built
    assert built.delta_elements == {target}
    assert store.get_many([target], TimeScope.current())[target].fields["status"] == "s199"


@settings(max_examples=30, deadline=None)
@given(_ops, _choices, st.integers(min_value=0, max_value=25))
def test_overlay_equals_fresh_build_equals_row_path(ops, choices, sealed_after):
    """Seal a base part-way through arbitrary churn, keep writing into its
    overlay, and every point read must still equal both a from-scratch
    build and the row path at every probe time."""
    store = MemGraphStore(SCHEMA, clock=TransactionClock(start=T0))
    replay = OpReplay(store, choices)
    with never_merging():
        for op in ops[:sealed_after]:
            replay.apply(op)
        sealed = store._csr_snapshot()
        for op in ops[sealed_after:]:
            replay.apply(op)
        assert store._csr_snapshot() is sealed
        fresh = build_csr(store)
        final = store.clock.now()
        uids = store.known_uids()
        for t in (T0, (T0 + final) / 2, final):
            scope = TimeScope.at(t)
            window = scope.window()
            a, b = window.start, window.end
            overlay = store.get_many(uids, scope)
            for uid in uids:
                assert overlay.get(uid) == fresh.latest_visible(uid, a, b)
                assert overlay.get(uid) == store.get_element(uid, scope)
