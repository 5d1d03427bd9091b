"""The cross-backend differential harness.

Two layers of evidence that every configuration computes the same answers:

* a property test replaying random write sequences on all four store
  configurations — memgraph, relational, and each wrapped in a zero-fault
  :class:`FaultInjectingStore` — and comparing every read surface (scans,
  adjacency, versions, counts) at every point of a shared timeline;
* a fixture matrix running the paper-query suite over the same seeded
  topology in all four configurations and asserting identical normalized
  result rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NepalError
from repro.inventory.virtualized import TopologyParams, VirtualizedServiceTopology
from repro.model.elements import ElementRecord
from repro.model.pathway import Pathway
from repro.rpe.parser import parse_rpe
from repro.schema.registry import Schema
from repro.storage.base import TimeScope
from repro.storage.chaos import FaultInjectingStore, FaultPlan
from repro.storage.memgraph.store import MemGraphStore
from repro.storage.relational.store import RelationalStore
from repro.temporal.clock import TransactionClock
from tests.conftest import BACKEND_MATRIX, build_matrix_db

T0 = 1_000.0


def build_schema() -> Schema:
    schema = Schema("equiv")
    schema.define_node("Box", fields={"status": "string", "size": "integer"})
    schema.define_node("BigBox", parent="Box")
    schema.define_edge("Link", fields={"weight": "integer"})
    schema.define_edge("FastLink", parent="Link")
    return schema


SCHEMA = build_schema()

# A write operation: (kind, argument tuple).
_ops = st.lists(
    st.sampled_from([
        ("node", "Box"), ("node", "BigBox"),
        ("edge", "Link"), ("edge", "FastLink"),
        ("update",), ("delete",), ("revive",), ("tick",),
    ]),
    min_size=3,
    max_size=25,
)


class OpReplay:
    """Replays write ops one at a time, deterministically, on a store —
    resumable, so tests can interleave reads between the writes."""

    def __init__(self, store, choices):
        self.store = store
        self.nodes: list[int] = []
        self.edges: list[int] = []
        self.deleted: list[int] = []
        self._pick = iter(choices)

    def choose(self, population):
        if not population:
            return None
        return population[next(self._pick) % len(population)]

    def apply(self, op) -> None:
        store = self.store
        if op[0] == "tick":
            store.clock.advance(10)
            return
        try:
            self._write(op)
        except NepalError:
            pass  # an op the current state does not admit: skipped on every store alike

    def _write(self, op) -> None:
        store, nodes, edges = self.store, self.nodes, self.edges
        if op[0] == "node":
            nodes.append(store.insert_node(op[1], {"status": "up", "size": len(nodes)}))
        elif op[0] == "edge":
            source, target = self.choose(nodes), self.choose(nodes)
            if source is not None and target is not None:
                edges.append(store.insert_edge(op[1], source, target, {"weight": 1}))
        elif op[0] == "update":
            uid = self.choose(nodes + edges)
            if uid is not None:
                store.update_element(uid, {"status": "changed"})
        elif op[0] == "delete":
            uid = self.choose(nodes + edges)
            if uid is not None:
                store.delete_element(uid)
                self.deleted.append(uid)
        elif op[0] == "revive":
            uid = self.choose([d for d in self.deleted if d in nodes])
            if uid is not None:
                store.insert_node("Box", {"status": "back"}, uid=uid)
        elif op[0] == "flap":
            # An edge drops and comes back under its own uid (the revived
            # ``insert_edge`` path snapshot feeds take).
            uid = self.choose(edges)
            if uid is not None:
                edge = store.get_element(uid, TimeScope.between(0.0, float("inf")))
                if edge is None:  # created and deleted within one instant
                    return
                store.clock.advance(1)
                if edge.is_current:
                    store.delete_element(uid)
                store.insert_edge(
                    edge.cls.name, edge.source_uid, edge.target_uid,
                    {"weight": 2}, uid=uid,
                )
        elif op[0] == "reinsert":
            uid = self.choose(self.deleted)
            if uid is not None:
                store.reinsert(uid)


def apply_ops(store, ops, choices):
    """Replay an op sequence deterministically on a store."""
    replay = OpReplay(store, choices)
    for op in ops:
        replay.apply(op)
    return replay.nodes, replay.edges


def snapshot_of(store, scope):
    """A comparable digest of everything a scope can see."""
    box = parse_rpe("Box()").bind(store.schema)
    link = parse_rpe("Link()").bind(store.schema)
    node_rows = {
        (r.uid, r.cls.name, tuple(sorted(r.fields.items())), r.period.start)
        for r in store.scan_atom(box, scope)
    }
    edge_rows = {
        (r.uid, r.cls.name, r.source_uid, r.target_uid, r.period.start)
        for r in store.scan_atom(link, scope)
    }
    adjacency = {
        (uid, tuple(sorted(e.uid for e in store.out_edges(uid, scope))),
         tuple(sorted(e.uid for e in store.in_edges(uid, scope))))
        for (uid, *_rest) in node_rows
    }
    return node_rows, edge_rows, adjacency


def matrix_stores():
    """One store per BACKEND_MATRIX configuration, on independent clocks."""
    stores = {}
    for config in BACKEND_MATRIX:
        backend, _, decorated = config.partition("-")
        cls = MemGraphStore if backend == "memory" else RelationalStore
        store = cls(SCHEMA, clock=TransactionClock(start=T0))
        if decorated == "chaos":
            store = FaultInjectingStore(store, FaultPlan(seed=0))
        stores[config] = store
    return stores


@settings(max_examples=40, deadline=None)
@given(_ops, st.lists(st.integers(min_value=0, max_value=997), min_size=60, max_size=60))
def test_backends_agree_under_random_writes(ops, choices):
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
        expected = snapshot_of(reference, scope)
        for config, store in stores.items():
            assert snapshot_of(store, scope) == expected, (config, scope)
    counts = reference.counts()
    for config, store in stores.items():
        assert store.counts() == counts, config


@pytest.mark.parametrize("ops", [
    [("node", "Box"), ("node", "BigBox"), ("edge", "Link"), ("tick",),
     ("update",), ("tick",), ("delete",), ("tick",), ("revive",)],
])
def test_versions_agree_example(ops):
    mem = MemGraphStore(SCHEMA, clock=TransactionClock(start=T0))
    rel = RelationalStore(SCHEMA, clock=TransactionClock(start=T0))
    choices = list(range(60))
    nodes_a, _ = apply_ops(mem, ops, choices)
    apply_ops(rel, ops, choices)
    from repro.temporal.interval import Interval

    window = Interval(0, float("inf"))
    for uid in nodes_a:
        mem_versions = [
            (v.period.start, v.period.end, dict(v.fields))
            for v in mem.versions(uid, window)
        ]
        rel_versions = [
            (v.period.start, v.period.end, dict(v.fields))
            for v in rel.versions(uid, window)
        ]
        assert mem_versions == rel_versions


# ----------------------------------------------------------------------
# paper-query differential matrix
# ----------------------------------------------------------------------

#: The query corpus every configuration must answer identically: explicit
#: chains, generic vertical traversals, physical-path joins, NOT EXISTS
#: subqueries, plain selects, anchor alternation and an AT timeslice.
PAPER_QUERY_CORPUS = (
    "Select source(P).name, target(P).name "
    "From PATHS P Where P MATCHES VNF()->VFC()->VM()->Host()",
    "Retrieve P From PATHS P "
    "Where P MATCHES VNF()->[Vertical()]{1,6}->Host()",
    "Select source(P).name, target(P).name "
    "From PATHS P Where P MATCHES Host()->[ConnectedTo()]{1,2}->Host()",
    "Select source(V).name, source(V).id From PATHS V "
    "Where V MATCHES VM() "
    "And NOT EXISTS( Retrieve P from PATHS P "
    "Where P MATCHES (VNF()|VFC())->[HostedOn()]{1,5}->VM() "
    "And target(V) = target(P) )",
    "Select source(V).name From PATHS V Where V MATCHES VM(status='Red')",
    "Retrieve P From PATHS P "
    "Where P MATCHES (VMWare()|Docker())->[HostedOn()]{1,2}->Host()",
    f"AT {T0 + 1} Select source(P).name From PATHS P Where P MATCHES VNF()",
)


def _norm_value(value):
    if isinstance(value, ElementRecord):
        return ("element", value.uid, value.cls.name)
    if isinstance(value, Pathway):
        return ("pathway", value.key())
    return value


def normalized_rows(result):
    """An order-insensitive, backend-independent digest of a result."""
    rows = []
    for row in result.rows:
        values = tuple(_norm_value(v) for v in row.values)
        bindings = tuple(
            sorted((name, p.key()) for name, p in row.bindings.items())
        )
        rows.append((values, bindings))
    return sorted(rows, key=repr)


@pytest.fixture(scope="module")
def query_matrix():
    """The same seeded topology loaded into every matrix configuration."""
    params = TopologyParams(
        services=2, vms=40, virtual_networks=10, virtual_routers=4,
        racks=3, hosts_per_rack=3, spine_switches=2, routers=2,
        seed=20180610,
    )
    dbs = {}
    for config in BACKEND_MATRIX:
        db = build_matrix_db(config, clock=TransactionClock(start=T0))
        VirtualizedServiceTopology(params).apply(db.store)
        dbs[config] = db
    return dbs


@pytest.mark.parametrize("query", PAPER_QUERY_CORPUS)
def test_paper_queries_agree_across_matrix(query_matrix, query):
    reference_config = BACKEND_MATRIX[0]
    expected = normalized_rows(query_matrix[reference_config].query(query))
    for config in BACKEND_MATRIX[1:]:
        assert normalized_rows(query_matrix[config].query(query)) == expected, config


def test_matrix_covers_chaos_decorated_backends(query_matrix):
    # The harness is only a differential test if the chaos wrappers really
    # decorate both backends and really injected nothing.
    wrapped = [
        db.store for config, db in query_matrix.items() if config.endswith("-chaos")
    ]
    assert len(wrapped) == 2
    for store in wrapped:
        assert isinstance(store, FaultInjectingStore)
        assert store.plan.injects_nothing()
        assert store.chaos.total_faults == 0
        assert store.chaos.total_calls > 0
