"""Direct timings of each layer's public functions on a workload's own texts.

Spans cannot reach inside ``query``, ``rpe`` and the planner without editing
``src/``, so the traced run calls their entry points itself, cold, once per
distinct text, and reports the median.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Iterable

from repro import NepalDB
from repro.model.elements import EdgeRecord, NodeRecord
from repro.plan.planner import Planner, PlannerOptions
from repro.query.parser import parse_query
from repro.query.typecheck import typecheck_query
from repro.rpe import build_nfa, normalize, parse_rpe
from repro.stats.cardinality import CardinalityEstimator
from repro.storage.base import GraphStore, TimeScope

from benchmarks.e2e.measure import Metric
from benchmarks.e2e.spans import engine_of
from benchmarks.e2e.workload import ProbeItem

MAX_TEXTS = 128
WRITES = 200
PINS = 200


def _median(timed: Iterable[Callable[[], Any]], unit: str) -> Metric:
    scale = {"ms": 1e3, "us": 1e6}[unit]
    samples = []
    for call in timed:
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return Metric(statistics.median(samples) * scale, unit, len(samples))


def text_probes(items: list[ProbeItem]) -> dict[str, Metric]:
    """``query``, ``rpe`` and ``plan`` entry points on the distinct texts."""
    items = items[:: max(1, len(items) // MAX_TEXTS)][:MAX_TEXTS]
    stores = {(id(i.db), i.store): i.db.stores()[i.store] for i in items}
    planners = {
        key: Planner(store.schema, CardinalityEstimator(store), PlannerOptions())
        for key, store in stores.items()
    }

    def store_of(item: ProbeItem) -> GraphStore:
        return stores[(id(item.db), item.store)]

    parsed = {item.text: parse_query(item.text) for item in items}
    bound = {item.text: normalize(parse_rpe(item.rpe).bind(store_of(item).schema)) for item in items}
    return {
        "query.parse_ms": _median((lambda i=i: parse_query(i.text) for i in items), "ms"),
        "query.typecheck_ms": _median(
            (lambda i=i: typecheck_query(
                parsed[i.text], lambda variable, i=i: i.db.stores()[variable.store or "default"].schema
            ) for i in items),
            "ms",
        ),
        "rpe.parse_ms": _median((lambda i=i: parse_rpe(i.rpe) for i in items), "ms"),
        "rpe.nfa_build_ms": _median((lambda i=i: build_nfa(bound[i.text]) for i in items), "ms"),
        "plan.compile_ms": _median(
            (lambda i=i: planners[(id(i.db), i.store)].compile(i.rpe) for i in items), "ms"
        ),
    }


def core_probes(db: NepalDB) -> dict[str, Metric]:
    def pin() -> None:
        db.snapshot().close()

    return {"core.snapshot_pin_us": _median((pin for _ in range(PINS)), "us")}


def write_probes(db: NepalDB) -> dict[str, Metric]:
    """A bare engine update and insert, and what journaling adds to them.

    Run last: the writes go straight to the stores, past the commit gate,
    and the bare ones past the journal.
    """
    engine = engine_of(db.store)
    current = TimeScope.current()
    nodes, edges = [], []
    for uid in engine.current_uids():
        record = engine.get_element(uid, current)
        if isinstance(record, NodeRecord) and record.cls.has_field("status"):
            nodes.append(uid)
        elif isinstance(record, EdgeRecord):
            edges.append(record)
        if len(nodes) >= WRITES and len(edges) >= WRITES:
            break

    def updates(store: GraphStore, status: str):
        for uid in nodes[:WRITES]:
            engine.clock.advance(1.0)
            yield lambda uid=uid: store.update_element(uid, {"status": status})

    def inserts(store: GraphStore):
        for edge in edges[:WRITES]:
            engine.clock.advance(1.0)
            yield lambda e=edge: store.insert_edge(
                e.cls.name, e.source_uid, e.target_uid, dict(e.fields)
            )

    out = {
        "storage.memgraph.update_us": _median(updates(engine, "probe-a"), "us"),
        "storage.memgraph.insert_us": _median(inserts(engine), "us"),
    }
    durable = db.durable_store()
    if durable is not None:
        journaled = _median(updates(durable, "probe-b"), "us")
        out["storage.durable.journal_overhead_us"] = Metric(
            journaled.value - out["storage.memgraph.update_us"].value, "us", journaled.samples
        )
    return out
