"""Seeded inputs: the graphs, the query texts and the row-path oracle."""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from typing import Any, Iterator

from repro import NepalDB
from repro.inventory.legacy import (
    LegacyHandles,
    LegacyParams,
    LegacyTopology,
    build_legacy_schema,
)
from repro.inventory.virtualized import (
    TopologyHandles,
    TopologyParams,
    VirtualizedServiceTopology,
)
from repro.storage.base import GraphStore
from repro.storage.memgraph.store import MemGraphStore
from repro.temporal.clock import TransactionClock

from benchmarks.e2e.measure import (
    DEFAULT_SEED,
    EXPECTED_DIR,
    STRUCTURE_SEED,
    T0,
    Op,
    derive_seed,
    result_digest,
)
from benchmarks.e2e.spans import TracingStore, engine_of, trace_default_store

#: ``benchmarks/support.py``'s ``medium`` legacy size (about 18k nodes and
#: 155k edges), repeated here so the benchmark imports nothing outside
#: ``src/`` and its own directory.
LEGACY_MEDIUM = LegacyParams(
    chains=2500, core_nodes=40, aggregation_nodes=250, sites=60,
    noise_hubs=25, noise_edges_per_hub=5000, agg_noise_edges=6000,
)


def retrieve(rpe: str, prefix: str = "", store: str = "") -> str:
    source = f"PATHS@{store}" if store else "PATHS"
    return f"{prefix}Retrieve P From {source} P Where P MATCHES {rpe}"


def placement(vm: int, prefix: str = "") -> str:
    return retrieve(f"VM(id={vm})->OnServer()->Host()", prefix)


def service_db(traced: bool = False, **db_options: Any) -> tuple[NepalDB, TopologyHandles]:
    """The paper-scale service graph (2 040 nodes / 7 284 edges) in a fresh db."""
    db = NepalDB(clock=TransactionClock(start=T0), **db_options)
    if traced:
        trace_default_store(db)
    topology = VirtualizedServiceTopology(
        TopologyParams(seed=derive_seed(STRUCTURE_SEED, "service-topology"))
    )
    db.load(topology)
    return db, topology.handles


def attach_legacy(db: NepalDB, traced: bool = False) -> LegacyHandles:
    """Attach the subclassed legacy graph to *db* as store ``legacy``.

    One database over both graphs means one plan cache for all their texts.
    """
    store: GraphStore = MemGraphStore(
        build_legacy_schema(True), clock=db.clock, name="legacy", metrics=db.metrics
    )
    params = dataclasses.replace(LEGACY_MEDIUM, seed=derive_seed(STRUCTURE_SEED, "legacy-topology"))
    handles = LegacyTopology(params, subclassed=True).apply(store)
    db.attach_store("legacy", TracingStore(store, "storage.memgraph") if traced else store)
    return handles


@contextmanager
def row_path(db: NepalDB) -> Iterator[None]:
    """Evaluate on the row path with temporal indexes off (the oracle)."""
    engines = [engine_of(store) for store in db.stores().values()]
    for engine in engines:
        engine.batch_enabled = False
        engine.temporal_index_enabled = False
    try:
        yield
    finally:
        for engine in engines:
            engine.batch_enabled = True
            engine.temporal_index_enabled = True


def oracle_digests(db: NepalDB, texts: list[str], rendered: bool = False) -> dict[str, str]:
    with row_path(db):
        return {text: result_digest(db.query(text), rendered) for text in texts}


def load_expected(workload: str) -> Any:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def expected_digests(workload: str, seed: int, oracle: dict[str, str]) -> dict[str, str]:
    """What each text must answer: the committed digests for the default
    seed, the oracle computed during set-up for any other."""
    committed = load_expected(workload) if seed == DEFAULT_SEED else None
    return oracle if committed is None else committed


def query_op(db: NepalDB, label: str, text: str, expected: dict[str, str]) -> Op:
    want = expected.get(text)
    return Op(label, lambda: db.query(text), lambda result: result_digest(result) == want)


def slug(kind: str) -> str:
    """``VM-VM (4)`` -> ``vm_vm_4``."""
    out = "".join(c if c.isalnum() else "_" for c in kind.lower())
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")

