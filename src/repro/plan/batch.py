"""Column-batch operators over :class:`~repro.storage.memgraph.csr.CsrSnapshot`.

These replace the row-at-a-time inner loops of the read hot path:

* :func:`batch_scan_atom` — anchor scans that sweep the per-class
  columns of a CSR snapshot.  Current-scope scans walk the uid-sorted
  member columns directly (no set copies, no sort); historical scans run
  the vectorized temporal-visibility filter — two bisects per column
  instead of an ``Interval`` call per version — then pick each element's
  representative with late materialization: records are only touched for
  versions that survived the visibility filter, and predicates only run
  on the newest-first candidates per uid.
* :func:`batch_expand_many` — wave-at-a-time frontier expansion walking
  CSR ``(lo, hi)`` offset ranges per (node, edge class) instead of
  re-resolving adjacency dicts per element.
* :func:`batch_get_many` — batched point reads answering a whole
  frontier of uids with one chain bisect each.

Each operator reads a :class:`CsrSnapshot` — a sealed base plus the delta
overlay of what writers changed since.  With an empty overlay (one branch
per call) it runs on the base columns alone; otherwise the overlay's
uids / adjacency-dirty nodes are answered by the store's row routines
(``_visible_versions``, ``_expand``) and spliced back in row-path order.

Every operator is a drop-in for its row twin and must return *identical*
results (same records, same order) — the Hypothesis differential in
``tests/plan/test_batch_execution.py`` holds them to that.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.model.elements import EdgeRecord, ElementRecord
from repro.storage.base import TimeScope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rpe.ast import Atom
    from repro.storage.memgraph.csr import CsrSnapshot
    from repro.storage.memgraph.indexes import AdjacencyIndex
    from repro.storage.memgraph.store import MemGraphStore


_record_uid = attrgetter("uid")


def _window(scope: TimeScope) -> tuple[float, float]:
    window = scope.window()
    return window.start, window.end


def _current_representatives(
    csr: "CsrSnapshot", uids: Sequence[int], atom: "Atom"
) -> list[ElementRecord]:
    """Row-identical representatives for a sorted current-scope uid batch."""
    dense_of = csr.dense_of
    current = csr.current_records
    results: list[ElementRecord] = []
    for uid in uids:
        dense = dense_of.get(uid)
        if dense is None:
            continue
        record = current[dense]
        if record is not None and atom.matches(record):
            results.append(record)
    return results


def _chain_representatives(
    csr: "CsrSnapshot", uids: Sequence[int], atom: "Atom", a: float, b: float
) -> list[ElementRecord]:
    """Representatives for a sorted historical uid batch via chain bisects."""
    dense_of = csr.dense_of
    records = csr.chain_records
    results: list[ElementRecord] = []
    for uid in uids:
        dense = dense_of.get(uid)
        if dense is None:
            continue
        lo, hi = csr.chain_run(dense, a, b)
        for i in range(hi - 1, lo - 1, -1):
            record = records[i]
            if atom.matches(record):
                results.append(record)
                break
    return results


def _sweep_current(
    csr: "CsrSnapshot", atom: "Atom", class_names: Sequence[str]
) -> list[ElementRecord]:
    """Current members of the class subtree satisfying *atom*, uid-ascending."""
    # Columns are already restricted to the atom's concrete class subtree,
    # so a predicate-free atom matches every record they hold: the batch
    # can skip the per-record ``atom.matches`` call entirely.
    trivial = not atom.predicates
    columns = csr.class_columns
    present = [
        cols
        for cols in (columns.get(name) for name in class_names)
        if cols is not None and cols.current_uids
    ]
    if len(present) == 1:
        # A single member column is already uid-ascending.
        if trivial:
            return list(present[0].current_records)
        return [r for r in present[0].current_records if atom.matches(r)]
    pairs: list[tuple[int, ElementRecord]] = []
    for cols in present:
        pairs.extend(zip(cols.current_uids, cols.current_records))
    pairs.sort(key=lambda pair: pair[0])
    if trivial:
        return [record for _, record in pairs]
    return [record for _, record in pairs if atom.matches(record)]


def _sweep_window(
    csr: "CsrSnapshot",
    atom: "Atom",
    class_names: Sequence[str],
    a: float,
    b: float,
    dirty: set[int],
) -> tuple[list[ElementRecord], int]:
    """Representatives of the clean elements visible in ``[a, b)``.

    Returns ``(records uid-ascending, clean uids with a visible version)``;
    rows of *dirty* uids are stale and dropped before grouping.
    """
    rows: list[tuple[int, float, ElementRecord]] = []
    for name in class_names:
        cols = csr.class_columns.get(name)
        if cols is not None:
            cols.visible_rows(a, b, rows)
    if dirty:
        rows = [row for row in rows if row[0] not in dirty]
    if not atom.predicates:
        # Newest visible version per uid, one dict pass — no sort needed
        # (starts never repeat within a chain, so "max start" is exact).
        best: dict[int, tuple[float, ElementRecord]] = {}
        for uid, start, record in rows:
            prev = best.get(uid)
            if prev is None or start > prev[0]:
                best[uid] = (start, record)
        return [best[uid][1] for uid in sorted(best)], len(best)
    # Chains never repeat a start, so (uid, start) orders each element's
    # visible versions chronologically; the representative is the newest
    # version in its group that satisfies the atom.
    rows.sort(key=lambda row: (row[0], row[1]))
    results = []
    visible = 0
    i = 0
    n = len(rows)
    while i < n:
        uid = rows[i][0]
        j = i
        while j < n and rows[j][0] == uid:
            j += 1
        visible += 1
        for k in range(j - 1, i - 1, -1):
            record = rows[k][2]
            if atom.matches(record):
                results.append(record)
                break
        i = j
    return results, visible


def _overlay_representatives(
    store: "MemGraphStore",
    clean: list[ElementRecord],
    touched: Iterable[int],
    atom: "Atom",
    scope: TimeScope,
) -> tuple[list[ElementRecord], int]:
    """Merge the row-path representatives of the overlay uids *touched*
    into the uid-ascending *clean* records (none of which is in *touched*).
    *clean* is the caller's own fresh list and is extended in place.

    Returns ``(merged records, touched uids with a visible version)``.
    """
    merged = clean
    visible = 0
    reads = 0
    for uid in touched:
        reads += 1
        versions = store._visible_versions(uid, scope)
        if versions:
            visible += 1
            for version in reversed(versions):
                if atom.matches(version):
                    merged.append(version)
                    break
    store._event("executor.batch.csr_delta_reads", reads)
    # One sorted run plus a short tail: timsort merges it in ~linear time.
    merged.sort(key=_record_uid)
    return merged, visible


def batch_scan_atom(
    store: "MemGraphStore",
    csr: "CsrSnapshot",
    atom: "Atom",
    class_names: Sequence[str],
    scope: TimeScope,
) -> list[ElementRecord]:
    """Columnar ``scan_atom`` (uid-equality atoms stay on the row path —
    a single point lookup has nothing to batch — so the store never sends
    them here).

    Fires the same ``index.*`` events as the row path so EXPLAIN ANALYZE
    counters and index-usage tests read identically under the ablation
    switch.  Clean elements come from the base columns; the overlay's
    uids in the scanned classes are answered by the row routines and
    merged in by uid, so the result is the row path's, record for record.
    """
    dirty = csr.delta_elements
    current = scope.is_current
    a, b = (0.0, 0.0) if current else _window(scope)

    candidates = store._indexed_equalities(
        atom, class_names, scope, temporal=not current
    )
    if candidates is not None:
        if current:
            store._event("index.field.hit")
        else:
            store._event("index.temporal.field_hit")
            store._event("index.temporal.candidates", len(candidates))
        # The indexes are live, so the candidate set is already exact; only
        # the base's answers for its dirty members are stale.
        touched = dirty & candidates if dirty else None
        uids = sorted(candidates - touched if touched else candidates)
        if current:
            results = _current_representatives(csr, uids, atom)
        else:
            results = _chain_representatives(csr, uids, atom, a, b)
        if touched:
            results, _ = _overlay_representatives(store, results, touched, atom, scope)
        return results

    if current:
        store._event("index.class.hit")
        results = _sweep_current(csr, atom, class_names)
        visible = 0
    else:
        store._event("index.temporal.class_hit")
        results, visible = _sweep_window(csr, atom, class_names, a, b, dirty)
    if dirty:
        names = set(class_names)
        class_of = store._class_of
        touched = [uid for uid in dirty if class_of[uid].name in names]
        if touched:
            if current:
                results = [r for r in results if r.uid not in dirty]
            results, seen = _overlay_representatives(
                store, results, touched, atom, scope
            )
            visible += seen
    if not current:
        store._event("index.temporal.candidates", visible)
    return results


def _segment_ranges(
    segments: dict[str, tuple[int, int]], class_names: Sequence[str] | None
) -> list[tuple[int, int]]:
    if class_names is None:
        return list(segments.values())
    ranges = []
    for name in class_names:
        rng = segments.get(name)
        if rng is not None:
            ranges.append(rng)
    return ranges


def batch_expand_many(
    store: "MemGraphStore",
    csr: "CsrSnapshot",
    adjacency: "AdjacencyIndex",
    node_uids: Sequence[int],
    scope: TimeScope,
    class_names: Sequence[str] | None,
) -> dict[int, list[EdgeRecord]]:
    """Wave-at-a-time frontier expansion: clean nodes walk the adjacency
    CSR, adjacency-dirty nodes go through the store's row ``_expand``."""
    forward = adjacency is store._out
    dirty = csr.delta_adjacency_nodes
    if not dirty or dirty.isdisjoint(node_uids):
        return _expand_base(csr, forward, node_uids, scope, class_names)
    base = _expand_base(
        csr, forward, [uid for uid in node_uids if uid not in dirty], scope, class_names
    )
    result: dict[int, list[EdgeRecord]] = {}
    reads = 0
    for uid in node_uids:  # the row path's key order
        if uid in dirty:
            reads += 1
            result[uid] = store._expand(adjacency, uid, scope, class_names)  # type: ignore[arg-type]
        else:
            result[uid] = base[uid]
    store._event("executor.batch.csr_delta_reads", reads)
    return result


def _expand_base(
    csr: "CsrSnapshot",
    forward: bool,
    node_uids: Sequence[int],
    scope: TimeScope,
    class_names: Sequence[str] | None,
) -> dict[int, list[EdgeRecord]]:
    """Expansion of nodes outside the overlay, from the base columns alone.

    The unfiltered case never touches the segment dicts: a node's whole
    adjacency is one precomputed ``[lo, hi)`` range, and current-scope
    waves slice the materialized edge-record column directly.
    """
    if forward:
        segments = csr.out_segments
        flat = csr.out_edge_dense
        edge_current = csr.out_edge_current
        node_lo, node_hi = csr.out_node_lo, csr.out_node_hi
    else:
        segments = csr.in_segments
        flat = csr.in_edge_dense
        edge_current = csr.in_edge_current
        node_lo, node_hi = csr.in_node_lo, csr.in_node_hi
    dense_get = csr.dense_of.get
    current = scope.is_current
    result: dict[int, list[EdgeRecord]] = {}

    if current and class_names is None:
        for uid in node_uids:
            dense = dense_get(uid)
            result[uid] = (
                []
                if dense is None
                else [
                    r  # type: ignore[misc]
                    for r in edge_current[node_lo[dense] : node_hi[dense]]
                    if r is not None
                ]
            )
        return result

    a, b = (0.0, 0.0) if current else _window(scope)
    chain_offsets = csr.chain_offsets
    chain_starts = csr.chain_starts
    chain_ends = csr.chain_ends
    chain_records = csr.chain_records
    for uid in node_uids:
        records: list[EdgeRecord] = []
        dense = dense_get(uid)
        if dense is not None:
            if class_names is None:
                ranges: Sequence[tuple[int, int]] = ((node_lo[dense], node_hi[dense]),)
            else:
                segs = segments[dense]
                ranges = _segment_ranges(segs, class_names) if segs else ()
            for lo, hi in ranges:
                if current:
                    for i in range(lo, hi):
                        record = edge_current[i]
                        if record is not None:
                            records.append(record)  # type: ignore[arg-type]
                else:
                    for i in range(lo, hi):
                        # latest_visible_dense, inlined for the hot loop
                        d = flat[i]
                        clo = chain_offsets[d]
                        chi = bisect_left(
                            chain_starts, b, clo, chain_offsets[d + 1]
                        )
                        if chi > clo and chain_ends[chi - 1] > a:
                            records.append(chain_records[chi - 1])  # type: ignore[arg-type]
        result[uid] = records
    return result


def batch_get_many(
    store: "MemGraphStore", csr: "CsrSnapshot", uids: Sequence[int], scope: TimeScope
) -> dict[int, ElementRecord]:
    """Batched ``get_element``: latest visible version per uid — clean uids
    by one chain bisect each, overlay uids through ``_visible_versions``."""
    dirty = csr.delta_elements
    if not dirty or dirty.isdisjoint(uids):
        return _get_many_base(csr, uids, scope)
    base = _get_many_base(csr, [uid for uid in uids if uid not in dirty], scope)
    result: dict[int, ElementRecord] = {}
    reads = 0
    for uid in uids:  # the row path's key order
        if uid in dirty:
            reads += 1
            versions = store._visible_versions(uid, scope)
            if versions:
                result[uid] = versions[-1]
        else:
            record = base.get(uid)
            if record is not None:
                result[uid] = record
    store._event("executor.batch.csr_delta_reads", reads)
    return result


def _get_many_base(
    csr: "CsrSnapshot", uids: Sequence[int], scope: TimeScope
) -> dict[int, ElementRecord]:
    """Point reads of uids outside the overlay, from the base columns alone."""
    result: dict[int, ElementRecord] = {}
    dense_get = csr.dense_of.get
    if scope.is_current:
        current_records = csr.current_records
        for uid in uids:
            dense = dense_get(uid)
            if dense is not None:
                record = current_records[dense]
                if record is not None:
                    result[uid] = record
        return result
    a, b = _window(scope)
    chain_offsets = csr.chain_offsets
    chain_starts = csr.chain_starts
    chain_ends = csr.chain_ends
    chain_records = csr.chain_records
    for uid in uids:
        dense = dense_get(uid)
        if dense is None:
            continue
        lo = chain_offsets[dense]
        hi = bisect_left(chain_starts, b, lo, chain_offsets[dense + 1])
        if hi > lo and chain_ends[hi - 1] > a:
            result[uid] = chain_records[hi - 1]
    return result
