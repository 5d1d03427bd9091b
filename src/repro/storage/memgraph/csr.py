"""Columnar snapshots of the in-memory store: a sealed CSR base plus a delta overlay.

The row-at-a-time read path walks Python dicts element by element:
``scan_atom`` copies index sets, sorts them, and chases a dict lookup plus
an ``Interval`` method call per candidate; frontier expansion does the
same per edge.  Following the batch-at-a-time execution model of
vectorized engines (MonetDB/X100 style), this module freezes the store
into flat parallel arrays so the batch operators in
:mod:`repro.plan.batch` can replace those inner loops with bisects over
sorted interval columns and tight scans over offset ranges.

A :class:`CsrSnapshot` holds a **sealed base**, built once by
:func:`build_csr` and never modified afterwards:

* an **interning table**: every uid admitted when the base was sealed,
  sorted ascending in an ``array('q')``; its index is the element's
  *dense id*.  Class names (node and edge labels alike) are interned to
  dense int ids the same way, and a parallel int32 array maps each
  element to its class id.
* **chain columns**: every element's version chain (closed history plus
  the open current version, chronological) flattened into parallel
  start/end ``array('d')`` columns plus a record column, indexed CSR-style
  by a per-element offset array.  Starts and ends are each ascending
  within a chain, so the latest version visible in a window ``[a, b)`` is
  found with one bisect and one comparison.
* **class columns**: per concrete class, the current members as a
  uid-sorted column (current-scope scans never sort or copy sets again)
  and the full version set split into start-sorted *open* and end-sorted
  *closed* columns (the vectorized temporal-visibility filter bisects
  these instead of calling ``Interval.contains`` per element).
* **adjacency CSR**: forward and reverse adjacency flattened into a
  dense-edge-id column with per-node, per-edge-class ``(lo, hi)``
  segments, preserving exactly the ordering contract of
  :meth:`~repro.storage.memgraph.indexes.AdjacencyIndex.edges`.

and a small mutable **delta overlay** recording what the base no longer
describes: :attr:`CsrSnapshot.delta_elements` (uids whose version chain
changed, or that were admitted, after the seal) and
:attr:`CsrSnapshot.delta_adjacency_nodes` (nodes with an incident edge
added or changed after the seal).  Writers never touch the base columns;
they only add to these two sets, through :meth:`CsrSnapshot.touch`, under
the store's exclusive write lock — the same lock hold that mutates the
version chains, so a reader (shared lock) always sees chains and overlay
agree.  The batch operators answer everything *outside* the overlay from
the base columns and route the overlay's members through the store's row
routines, so a write costs a set insertion instead of orphaning an
O(graph) build.

Base and overlay are one object and are replaced together: once the
overlay outgrows :data:`MERGE_FRACTION` of the base, the next batch read
*merges* — a fresh :func:`build_csr` with an empty overlay — and swaps the
store's single snapshot reference.  A build is therefore paid at most once
per ``MERGE_FRACTION * len(base)`` distinct dirty elements: amortized O(1)
per write, however reads and writes interleave.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from repro.model.elements import EdgeRecord, ElementRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.memgraph.store import MemGraphStore


#: A merge (full :func:`build_csr`) is due once the overlay holds more
#: than this fraction of the base's elements.  Larger values merge less
#: often but send more of every batch through the row routines; at 1/8 a
#: read routes at most an eighth of the graph row-wise, and a build is
#: amortized over at least ``len(base) / 8`` writes.
MERGE_FRACTION = 0.125


class ClassColumns:
    """Per-class version columns powering batched anchor scans."""

    __slots__ = (
        "current_uids",
        "current_records",
        "open_starts",
        "open_uids",
        "open_records",
        "closed_ends",
        "closed_starts",
        "closed_uids",
        "closed_records",
    )

    def __init__(self) -> None:
        # Current members, uid-ascending (scan output order needs no sort).
        self.current_uids: list[int] = []
        self.current_records: list[ElementRecord] = []
        # Open versions (end == FOREVER), start-ascending: visible under a
        # window [a, b) iff start < b, i.e. a bisect prefix.
        self.open_starts: list[float] = []
        self.open_uids: list[int] = []
        self.open_records: list[ElementRecord] = []
        # Closed versions, end-ascending with parallel starts: visible iff
        # end > a (a bisect tail) and start < b (a comparison).
        self.closed_ends: list[float] = []
        self.closed_starts: list[float] = []
        self.closed_uids: list[int] = []
        self.closed_records: list[ElementRecord] = []

    def visible_rows(
        self, a: float, b: float, rows: list[tuple[int, float, ElementRecord]]
    ) -> None:
        """Append every ``(uid, start, record)`` visible in ``[a, b)``."""
        starts = self.open_starts
        for i in range(bisect_left(starts, b)):
            rows.append((self.open_uids[i], starts[i], self.open_records[i]))
        ends = self.closed_ends
        cstarts = self.closed_starts
        for i in range(bisect_right(ends, a), len(ends)):
            start = cstarts[i]
            if start < b:
                rows.append((self.closed_uids[i], start, self.closed_records[i]))


class CsrSnapshot:
    """A sealed columnar base of a :class:`MemGraphStore` plus its delta overlay."""

    __slots__ = (
        "data_version",
        "delta_elements",
        "delta_adjacency_nodes",
        "uids",
        "dense_of",
        "class_names",
        "class_id_of",
        "element_class_ids",
        "current_records",
        "chain_offsets",
        "chain_starts",
        "chain_ends",
        "chain_records",
        "class_columns",
        "out_segments",
        "out_edge_dense",
        "out_edge_current",
        "out_node_lo",
        "out_node_hi",
        "in_segments",
        "in_edge_dense",
        "in_edge_current",
        "in_node_lo",
        "in_node_hi",
    )

    def __init__(self, data_version: int) -> None:
        #: the store's ``data_version`` when the base was sealed.
        self.data_version = data_version
        #: uids whose chain the base no longer describes (changed or new).
        self.delta_elements: set[int] = set()
        #: nodes whose expansion the base no longer describes: an incident
        #: edge was added, or its chain changed, after the seal.
        self.delta_adjacency_nodes: set[int] = set()
        #: dense id -> uid, ascending; the inverse of :attr:`dense_of`.
        self.uids: array = array("q")
        self.dense_of: dict[int, int] = {}
        #: interned class labels (node and edge classes share one table).
        self.class_names: list[str] = []
        self.class_id_of: dict[str, int] = {}
        #: dense element id -> interned class id (int32 column).
        self.element_class_ids: array = array("i")
        #: dense element id -> current record, or None while deleted.
        self.current_records: list[ElementRecord | None] = []
        # Version chains, flattened CSR-style over dense element ids.
        self.chain_offsets: array = array("q", [0])
        self.chain_starts: array = array("d")
        self.chain_ends: array = array("d")
        self.chain_records: list[ElementRecord] = []
        self.class_columns: dict[str, ClassColumns] = {}
        # Adjacency CSR: per dense node id, {edge class name: (lo, hi)}
        # segments into the flat dense-edge-id column.  Segment dict order
        # and in-segment order reproduce AdjacencyIndex.edges() exactly.
        self.out_segments: list[dict[str, tuple[int, int]] | None] = []
        self.out_edge_dense: array = array("q")
        self.in_segments: list[dict[str, tuple[int, int]] | None] = []
        self.in_edge_dense: array = array("q")
        # Unfiltered expansion fast path: a node's class segments are laid
        # out consecutively, so its whole adjacency is one [lo, hi) range —
        # plus the edges' current records materialized as a parallel
        # column, so current-scope waves never touch the chain arrays.
        self.out_node_lo: array = array("q")
        self.out_node_hi: array = array("q")
        self.in_node_lo: array = array("q")
        self.in_node_hi: array = array("q")
        self.out_edge_current: list[ElementRecord | None] = []
        self.in_edge_current: list[ElementRecord | None] = []

    # ------------------------------------------------------------------
    # delta overlay
    # ------------------------------------------------------------------

    def touch(self, record: ElementRecord) -> None:
        """Note that *record*'s chain changed after the base was sealed.

        Called by every store write path while it holds the exclusive
        write lock.  An edge write also dirties both endpoints, so a node
        outside :attr:`delta_adjacency_nodes` has only clean incident
        edges and expands from the base columns alone.
        """
        self.delta_elements.add(record.uid)
        if isinstance(record, EdgeRecord):
            self.delta_adjacency_nodes.add(record.source_uid)
            self.delta_adjacency_nodes.add(record.target_uid)

    def merge_due(self) -> bool:
        """Has the overlay outgrown :data:`MERGE_FRACTION` of the base?"""
        return len(self.delta_elements) > MERGE_FRACTION * len(self.uids)

    # ------------------------------------------------------------------
    # base chain probes (stale for uids in the overlay)
    # ------------------------------------------------------------------

    def chain_run(self, dense: int, a: float, b: float) -> tuple[int, int]:
        """Indices ``[lo, hi)`` into the chain columns visible in ``[a, b)``.

        Chain starts and ends are each ascending, so the visible versions
        of one element form a contiguous run: drop the prefix whose ends
        are ``<= a`` and the suffix whose starts are ``>= b``.
        """
        lo = self.chain_offsets[dense]
        hi = self.chain_offsets[dense + 1]
        return (
            bisect_right(self.chain_ends, a, lo, hi),
            bisect_left(self.chain_starts, b, lo, hi),
        )

    def latest_visible_dense(
        self, dense: int, a: float, b: float
    ) -> ElementRecord | None:
        """Latest version of dense element visible in ``[a, b)``, or None.

        The last version with ``start < b`` also has the chain's maximum
        end among that prefix, so a single end comparison decides.
        """
        lo = self.chain_offsets[dense]
        hi = bisect_left(self.chain_starts, b, lo, self.chain_offsets[dense + 1])
        if hi > lo and self.chain_ends[hi - 1] > a:
            return self.chain_records[hi - 1]
        return None

    def latest_visible(self, uid: int, a: float, b: float) -> ElementRecord | None:
        dense = self.dense_of.get(uid)
        if dense is None:
            return None
        return self.latest_visible_dense(dense, a, b)

    def current_of(self, uid: int) -> ElementRecord | None:
        dense = self.dense_of.get(uid)
        if dense is None:
            return None
        return self.current_records[dense]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def describe(self) -> dict[str, int]:
        return {
            "data_version": self.data_version,
            "elements": len(self.uids),
            "classes": len(self.class_names),
            "versions": len(self.chain_records),
            "out_adjacency": len(self.out_edge_dense),
            "in_adjacency": len(self.in_edge_dense),
            "delta_elements": len(self.delta_elements),
            "delta_adjacency_nodes": len(self.delta_adjacency_nodes),
        }


def _intern_class(snapshot: CsrSnapshot, name: str) -> int:
    class_id = snapshot.class_id_of.get(name)
    if class_id is None:
        class_id = len(snapshot.class_names)
        snapshot.class_id_of[name] = class_id
        snapshot.class_names.append(name)
    return class_id


def _build_adjacency(
    snapshot: CsrSnapshot,
    edges_by_node: dict[int, dict[str, list[int]]],
    segments: list[dict[str, tuple[int, int]] | None],
    flat: array,
    node_lo: array,
    node_hi: array,
) -> None:
    dense_of = snapshot.dense_of
    for node_uid, per_class in edges_by_node.items():
        node_dense = dense_of.get(node_uid)
        if node_dense is None:  # pragma: no cover - adjacency implies admitted
            continue
        lo_all = len(flat)
        segs: dict[str, tuple[int, int]] = {}
        for class_name, edge_uids in per_class.items():
            lo = len(flat)
            for edge_uid in edge_uids:
                flat.append(dense_of[edge_uid])
            segs[class_name] = (lo, len(flat))
        segments[node_dense] = segs
        node_lo[node_dense] = lo_all
        node_hi[node_dense] = len(flat)


def build_csr(store: "MemGraphStore") -> CsrSnapshot:
    """Freeze *store* into a :class:`CsrSnapshot` with an empty overlay.

    Must run under the store's read lock (the batch accessor holds it);
    the snapshot only aliases immutable records, never live containers.
    """
    snapshot = CsrSnapshot(store.data_version)
    current = store._current
    history = store._history
    class_of = store._class_of

    uids = snapshot.uids
    dense_of = snapshot.dense_of
    for dense, uid in enumerate(sorted(class_of)):
        uids.append(uid)
        dense_of[uid] = dense

    per_class: dict[str, ClassColumns] = snapshot.class_columns
    opens: dict[str, list[tuple[float, int, ElementRecord]]] = {}
    closeds: dict[str, list[tuple[float, float, int, ElementRecord]]] = {}

    chain_offsets = snapshot.chain_offsets
    chain_starts = snapshot.chain_starts
    chain_ends = snapshot.chain_ends
    chain_records = snapshot.chain_records
    for uid in uids:
        cls_name = class_of[uid].name
        snapshot.element_class_ids.append(_intern_class(snapshot, cls_name))
        closed_rows = closeds.setdefault(cls_name, [])
        for version in history.get(uid, ()):
            chain_starts.append(version.period.start)
            chain_ends.append(version.period.end)
            chain_records.append(version)
            closed_rows.append((version.period.end, version.period.start, uid, version))
        record = current.get(uid)
        snapshot.current_records.append(record)
        if record is not None:
            chain_starts.append(record.period.start)
            chain_ends.append(record.period.end)
            chain_records.append(record)
            opens.setdefault(cls_name, []).append((record.period.start, uid, record))
            columns = per_class.get(cls_name)
            if columns is None:
                columns = per_class[cls_name] = ClassColumns()
            # uid-ascending because the enclosing loop is.
            columns.current_uids.append(uid)
            columns.current_records.append(record)
        chain_offsets.append(len(chain_records))

    for cls_name, rows in opens.items():
        rows.sort(key=lambda row: row[0])
        columns = per_class.setdefault(cls_name, ClassColumns())
        for start, uid, record in rows:
            columns.open_starts.append(start)
            columns.open_uids.append(uid)
            columns.open_records.append(record)
    for cls_name, crows in closeds.items():
        if not crows:
            continue
        crows.sort(key=lambda row: (row[0], row[1]))
        columns = per_class.setdefault(cls_name, ClassColumns())
        for end, start, uid, record in crows:
            columns.closed_ends.append(end)
            columns.closed_starts.append(start)
            columns.closed_uids.append(uid)
            columns.closed_records.append(record)

    for cls in store.schema.classes():
        _intern_class(snapshot, cls.name)

    n = len(uids)
    snapshot.out_segments = [None] * n
    snapshot.in_segments = [None] * n
    zeros = array("q", [0]) * n
    snapshot.out_node_lo = array("q", zeros)
    snapshot.out_node_hi = array("q", zeros)
    snapshot.in_node_lo = array("q", zeros)
    snapshot.in_node_hi = array("q", zeros)
    _build_adjacency(
        snapshot,
        store._out._edges,
        snapshot.out_segments,
        snapshot.out_edge_dense,
        snapshot.out_node_lo,
        snapshot.out_node_hi,
    )
    _build_adjacency(
        snapshot,
        store._in._edges,
        snapshot.in_segments,
        snapshot.in_edge_dense,
        snapshot.in_node_lo,
        snapshot.in_node_hi,
    )
    records = snapshot.current_records
    snapshot.out_edge_current = [records[d] for d in snapshot.out_edge_dense]
    snapshot.in_edge_current = [records[d] for d in snapshot.in_edge_dense]
    return snapshot
