"""Benchmark-owned tracing: spans at the layer boundaries, self time per layer.

Nothing under ``src/`` is edited.  The executor already opens spans for its
own stages on whatever :class:`TraceContext` is active; :class:`Tracer`
activates one per operation with a benchmark root span, and
:class:`TracingStore` adds a span around every call into a storage layer.
A span's self time is its duration minus its children's, and is charged to
the layer its name maps to.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.core.database import DEFAULT_STORE_NAME, NepalDB
from repro.stats.tracing import NULL_SPAN, TraceContext, TraceSpan, current_trace
from repro.storage.base import GraphStore

#: Executor span name -> layer (store spans carry their layer in the name).
_EXECUTOR_LAYER = {
    "parse": "query",
    "typecheck": "query",
    "plan": "plan",
    "evaluate": "plan",
    "anchor_scan": "plan",
    "join": "plan",
    "exists_filter": "plan",
    "project": "plan",
}

LAYERS = ("server", "core", "query", "plan", "storage.memgraph", "storage.durable")


def _spanned(method: str):
    def call(self: "TracingStore", *args: Any, **kwargs: Any) -> Any:
        trace = current_trace()
        span = NULL_SPAN if trace is None else trace.span(self._prefix + method, "storage")
        with span:
            return getattr(self._inner, method)(*args, **kwargs)

    call.__name__ = method
    return call


class TracingStore(GraphStore):
    """Pass-through decorator recording one span per store call.

    Same shape as ``FaultInjectingStore``.  Without an active trace it only
    delegates, so the untraced half of a traced run pays one context-variable
    read per call.
    """

    def __init__(self, inner: GraphStore, layer: str):
        super().__init__(inner.schema, clock=inner.clock, name=inner.name)
        self._inner = inner
        self._prefix = layer + "."

    @property
    def inner(self) -> GraphStore:
        return self._inner

    @property
    def data_version(self) -> int:
        return self._inner.data_version

    def bump_data_version(self) -> None:
        self._inner.bump_data_version()

    def restore_data_version(self, version: int) -> None:
        self._inner.restore_data_version(version)

    @property
    def supports_snapshots(self) -> bool:
        return self._inner.supports_snapshots

    @property
    def last_uid(self) -> int:
        return self._inner.last_uid

    def reserve_uid(self) -> int:
        return self._inner.reserve_uid()

    def observe_uid(self, external_id: int) -> None:
        self._inner.observe_uid(external_id)

    def known_uids(self) -> list[int]:
        return self._inner.known_uids()

    def bulk(self):
        return self._inner.bulk()

    insert_node = _spanned("insert_node")
    insert_edge = _spanned("insert_edge")
    update_element = _spanned("update_element")
    delete_element = _spanned("delete_element")
    scan_atom = _spanned("scan_atom")
    get_element = _spanned("get_element")
    get_many = _spanned("get_many")
    versions = _spanned("versions")
    out_edges = _spanned("out_edges")
    in_edges = _spanned("in_edges")
    out_edges_many = _spanned("out_edges_many")
    in_edges_many = _spanned("in_edges_many")
    class_count = _spanned("class_count")
    class_count_at = _spanned("class_count_at")
    counts = _spanned("counts")
    storage_cells = _spanned("storage_cells")

    def __getattr__(self, name: str) -> Any:
        # Engine extras (batch_enabled, wal_bytes, checkpoint, ...).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


def trace_default_store(db: NepalDB) -> None:
    """Put a :class:`TracingStore` around each storage layer of *db*.

    ``NepalDB`` has no public hook for decorating its default store
    (``inject_faults`` hard-codes the chaos wrapper) and this benchmark may
    not edit ``src/``, so it swaps the entries the way ``inject_faults`` does.
    """
    store = db.store
    durable = db.durable_store()
    if durable is not None:
        durable._inner = TracingStore(durable.inner, "storage.memgraph")
        store = TracingStore(durable, "storage.durable")
    else:
        store = TracingStore(store, "storage.memgraph")
    db._stores[DEFAULT_STORE_NAME] = store
    db._executor = None


def engine_of(store: GraphStore) -> GraphStore:
    """The innermost store of a decorator chain (where the ablation flags live)."""
    while "batch_enabled" not in vars(store):
        store = store.inner
    return store


class Tracer:
    """Collects the spans of every traced operation of one run."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []  # (op, id, parent, name, layer, start, end)
        self.ops = 0
        self.queries = 0  # ops that reached the executor
        self.op_seconds = 0.0
        self.root_seconds: Counter[str] = Counter()  # op durations by root layer
        self.root_count: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()  # by layer
        self.name_seconds: Counter[str] = Counter()  # self time by span name
        self.counters: Counter[str] = Counter()
        self.batch_queries = 0  # evaluate spans whose execution was "batch"

    @contextmanager
    def op(self, label: str, layer: str = "core") -> Iterator[None]:
        """Run one operation under a root span charged to *layer*."""
        context = TraceContext(label=label)
        with context.activate(), context.span("op", kind="benchmark"):
            yield
        root = context.root
        self.ops += 1
        self.op_seconds += root.elapsed
        self.root_seconds[layer] += root.elapsed
        self.root_count[layer] += 1
        self._collect(root, self.ops, None, label, layer)

    def _collect(
        self, span: TraceSpan, op: int, parent: int | None, label: str, root_layer: str
    ) -> None:
        span_id = len(self.rows)
        if parent is None:
            name, layer = f"op:{label}", root_layer
        else:
            name = span.name
            layer = _EXECUTOR_LAYER.get(name) or name.rpartition(".")[0]
        self.rows.append((op, span_id, parent, name, layer, span.start, span.end))
        own = span.elapsed - sum(child.elapsed for child in span.children)
        self.self_seconds[layer] += own
        self.name_seconds[span.name] += own
        self.counters.update(span.counters)
        if span.name == "evaluate":
            self.queries += 1
            self.batch_queries += span.attrs.get("execution") == "batch"
            self.counters["rows_out"] += span.attrs.get("rows_out", 0)
        for child in span.children:
            self._collect(child, op, span_id, label, root_layer)

    def self_ms_per_query(self, *span_names: str) -> float:
        """Mean self time of the named spans per traced query."""
        total = sum(self.name_seconds[name] for name in span_names)
        return total * 1000.0 / max(1, self.queries)

    def write(self, path: Path) -> None:
        """One JSON line per span: op id, span id, parent, name, layer, times."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, layer, start, end in self.rows:
                handle.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "start": start, "end": end,
                }) + "\n")
