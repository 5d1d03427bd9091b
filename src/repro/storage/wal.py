"""Write-ahead log framing and temporal-history compaction.

The durability layer (:mod:`repro.storage.durable`) journals every mutation
as a :class:`WalRecord` before applying it.  This module owns the on-disk
format and the two codecs around it:

* **framing** — each record is serialized as compact JSON and written as
  ``[length u32][crc32 u32][payload]`` (network byte order).  A reader
  verifies both fields, so a torn final record — the normal residue of a
  crash mid-write — is detected and tolerated rather than misparsed;
* **compaction** — :func:`compact_history` renders a store's *entire*
  temporal state (every version chain, not just the current snapshot) as
  the minimal synthetic op stream that reproduces it.  Checkpoints are
  just a compacted stream written atomically, so recovery replays
  checkpoints and live journals through one code path and validity
  intervals come out bit-identical.

Record vocabulary: ``insert_node`` / ``insert_edge`` / ``update`` /
``delete`` / ``reinsert`` carry uid, class, fields and the transaction
timestamp; ``bulk_begin`` / ``bulk_commit`` bracket an atomic batch
(records after an unmatched ``bulk_begin`` are discarded at recovery);
``checkpoint`` is the trailing manifest of a checkpoint file, recording
the data version, the last journaled LSN covered by the baseline, and the
uid-allocator high-water mark.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.errors import StorageError
from repro.temporal.interval import FOREVER, Interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.base import GraphStore

_FRAME = struct.Struct("!II")
"""Per-record header: payload length and CRC32 of the payload."""

#: Mutation ops (journaled by the durable store and replayed at recovery).
OP_INSERT_NODE = "insert_node"
OP_INSERT_EDGE = "insert_edge"
OP_UPDATE = "update"
OP_DELETE = "delete"
OP_REINSERT = "reinsert"
#: Batch framing ops.
OP_BULK_BEGIN = "bulk_begin"
OP_BULK_COMMIT = "bulk_commit"
#: Checkpoint manifest (trailing record of a checkpoint file).
OP_CHECKPOINT = "checkpoint"
#: Epoch fence: stamped into the WAL when a node is promoted to primary.
#: A node whose highest journaled epoch is lower than the cluster's is a
#: revived stale primary and must refuse writes (see repro.replication).
OP_EPOCH = "epoch"

MUTATION_OPS = frozenset(
    {OP_INSERT_NODE, OP_INSERT_EDGE, OP_UPDATE, OP_DELETE, OP_REINSERT}
)


class WalCorruptionError(StorageError):
    """A WAL frame failed validation somewhere other than the torn tail."""


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One journaled operation (or framing/manifest marker).

    ``ts`` is the transaction timestamp the mutation was (or must be)
    stamped with — replay pins the store clock to it so version chains are
    reproduced with identical validity intervals.  ``dv`` is the store's
    ``data_version`` *before* the op was applied; recovery uses it to
    restore the counter monotonically.  ``last_lsn`` / ``last_uid`` are
    only set on ``checkpoint`` manifests.  ``epoch`` is set on ``epoch``
    fence records and on checkpoint manifests written by a replicated
    node.
    """

    lsn: int
    op: str
    ts: float | None = None
    uid: int | None = None
    cls: str | None = None
    fields: Mapping[str, Any] | None = None
    source: int | None = None
    target: int | None = None
    dv: int | None = None
    last_lsn: int | None = None
    last_uid: int | None = None
    epoch: int | None = None

    def to_payload(self) -> bytes:
        document: dict[str, Any] = {"lsn": self.lsn, "op": self.op}
        for key in ("ts", "uid", "cls", "fields", "source", "target", "dv",
                    "last_lsn", "last_uid", "epoch"):
            value = getattr(self, key)
            if value is not None:
                document[key] = value
        return json.dumps(document, separators=(",", ":"), sort_keys=True).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        document = json.loads(payload.decode("utf-8"))
        return cls(
            lsn=int(document["lsn"]),
            op=str(document["op"]),
            ts=document.get("ts"),
            uid=document.get("uid"),
            cls=document.get("cls"),
            fields=document.get("fields"),
            source=document.get("source"),
            target=document.get("target"),
            dv=document.get("dv"),
            last_lsn=document.get("last_lsn"),
            last_uid=document.get("last_uid"),
            epoch=document.get("epoch"),
        )


def encode_frame(record: WalRecord) -> bytes:
    payload = record.to_payload()
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class FrameDecoder:
    """Incremental frame parser for byte streams that arrive in chunks.

    Log shipping moves the WAL in arbitrarily sized chunks, so a frame may
    be split anywhere — header, payload, even mid-CRC.  The decoder buffers
    the undecodable tail between :meth:`feed` calls and yields each record
    exactly once, as soon as its last byte arrives.  Unlike the torn *tail*
    of a crashed journal, a CRC mismatch or undecodable payload mid-stream
    is corruption (the primary only ships bytes it committed) and raises
    :class:`WalCorruptionError`.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.consumed = 0
        """Bytes decoded into complete records so far (stream offset of the
        first still-buffered byte)."""

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a split frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[WalRecord, int]]:
        """Absorb one chunk; return ``(record, end_offset)`` for every
        record it completed, in order.  ``end_offset`` is the stream offset
        just past the record — the replica's commit-boundary bookkeeping —
        measured from the first byte ever fed."""
        self._buffer.extend(data)
        base = self.consumed
        records: list[tuple[WalRecord, int]] = []
        position = 0
        while True:
            header = self._buffer[position:position + _FRAME.size]
            if len(header) < _FRAME.size:
                break
            length, checksum = _FRAME.unpack(bytes(header))
            end = position + _FRAME.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[position + _FRAME.size:end])
            if zlib.crc32(payload) != checksum:
                raise WalCorruptionError(
                    f"shipped frame checksum mismatch at stream offset "
                    f"{base + position}"
                )
            try:
                records.append((WalRecord.from_payload(payload), base + end))
            except (ValueError, KeyError) as error:
                raise WalCorruptionError(
                    f"undecodable shipped frame at stream offset "
                    f"{base + position}: {error}"
                ) from error
            position = end
        del self._buffer[:position]
        self.consumed += position
        return records


class WalWriter:
    """Appends framed records to a journal file.

    The writer flushes the OS buffer after every append (so an in-process
    simulated crash observes the bytes) and exposes :meth:`sync` for the
    durability points — standalone ops and ``bulk_commit`` — where the
    caller wants an fsync.  :meth:`rollback_to` truncates the file back to
    a remembered offset, undoing a journaled record whose application
    failed validation (the write-ahead analogue of an abort).
    """

    def __init__(self, path: str | os.PathLike, start_offset: int | None = None):
        self.path = os.fspath(path)
        self._file = open(self.path, "ab")
        size = self._file.tell()
        if start_offset is not None and start_offset < size:
            self._file.truncate(start_offset)
            size = start_offset
        self._offset = size

    def tell(self) -> int:
        """Bytes of journal currently written (and not rolled back)."""
        return self._offset

    def append(self, record: WalRecord) -> int:
        """Write one framed record; returns the offset it starts at."""
        offset = self._offset
        frame = encode_frame(record)
        self._file.write(frame)
        self._file.flush()
        self._offset = offset + len(frame)
        return offset

    def append_raw(self, data: bytes) -> int:
        """Write pre-framed bytes verbatim; returns the offset they start at.

        Log shipping appends the primary's journal bytes unmodified — the
        frames were validated when the primary wrote them, and copying them
        byte-for-byte keeps replica journals identical to the primary's.
        The chunk may end mid-frame; the torn-tail-tolerant scan handles
        that exactly as it handles a crash, and the next chunk completes
        the frame.
        """
        offset = self._offset
        self._file.write(data)
        self._file.flush()
        self._offset = offset + len(data)
        return offset

    def sync(self) -> None:
        """fsync the journal (a commit point survives power loss)."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def rollback_to(self, offset: int) -> None:
        """Discard every record at or after *offset*."""
        if offset > self._offset:
            raise StorageError(
                f"cannot roll the WAL forward: {offset} > {self._offset}"
            )
        self._file.truncate(offset)
        self._file.flush()
        self._offset = offset

    def truncate(self) -> None:
        """Empty the journal (checkpoint has made its contents redundant)."""
        self.rollback_to(0)
        self.sync()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()


@dataclass
class WalScan:
    """The result of reading a journal file sequentially.

    ``records`` parallel ``end_offsets`` — the byte offset just past each
    record, which recovery uses to truncate back to the last committed
    point.  ``valid_bytes`` is the prefix that framed correctly;
    ``torn_bytes`` whatever remained (a crash mid-write), with ``note``
    describing what stopped the scan.
    """

    records: list[WalRecord]
    end_offsets: list[int]
    valid_bytes: int
    total_bytes: int
    note: str | None = None

    @property
    def torn_bytes(self) -> int:
        return self.total_bytes - self.valid_bytes


def scan_wal(path: str | os.PathLike) -> WalScan:
    """Read every well-formed record, stopping at the first bad frame.

    A bad frame — short header, short payload, CRC mismatch, or undecodable
    JSON — ends the scan: everything after it is unrecoverable residue of a
    torn write.  The scan never raises for tail damage; callers decide
    whether a torn tail is tolerable (live journals: yes; checkpoint files,
    which are written atomically: no).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return WalScan([], [], 0, 0)

    records: list[WalRecord] = []
    offsets: list[int] = []
    position = 0
    note: str | None = None
    while position < len(data):
        header = data[position:position + _FRAME.size]
        if len(header) < _FRAME.size:
            note = f"torn header at offset {position}"
            break
        length, checksum = _FRAME.unpack(header)
        payload = data[position + _FRAME.size:position + _FRAME.size + length]
        if len(payload) < length:
            note = f"torn payload at offset {position}"
            break
        if zlib.crc32(payload) != checksum:
            note = f"checksum mismatch at offset {position}"
            break
        try:
            record = WalRecord.from_payload(payload)
        except (ValueError, KeyError):
            note = f"undecodable payload at offset {position}"
            break
        position += _FRAME.size + length
        records.append(record)
        offsets.append(position)
    return WalScan(records, offsets, position, len(data), note)


# ----------------------------------------------------------------------
# temporal-history compaction (the checkpoint baseline)
# ----------------------------------------------------------------------

#: Replay ordering for events sharing a timestamp: nodes must exist before
#: edges reference them, updates touch still-current elements, and edge
#: closures precede the node deletes whose cascade would have closed them.
_PRIORITY_NODE_INSERT = 0
_PRIORITY_EDGE_INSERT = 1
_PRIORITY_UPDATE = 2
_PRIORITY_EDGE_DELETE = 3
_PRIORITY_NODE_DELETE = 4

_ALL_TIME = Interval(-FOREVER, FOREVER)


def _update_changes(
    previous: Mapping[str, Any], following: Mapping[str, Any]
) -> dict[str, Any]:
    """The change dict turning *previous* into *following* under the
    merge-with-None-removal semantics of ``update_element``."""
    changes: dict[str, Any] = dict(following)
    for name in previous:
        if name not in following:
            changes[name] = None
    return changes


def compact_history(store: "GraphStore") -> list[WalRecord]:
    """The minimal op stream reproducing *store*'s full temporal state.

    Each element's version chain becomes: an insert at the first version's
    start, an update at every contiguous version boundary, a delete/
    reinsert pair around every gap, and a final delete if the chain is
    closed.  Events are globally ordered by (timestamp, kind, uid) so a
    replay through the public write path — with the clock pinned to each
    event's timestamp — rebuilds identical validity intervals.  All
    records carry ``lsn=0``: a baseline sorts below any journaled record.
    """
    from repro.model.elements import EdgeRecord

    events: list[tuple[float, int, int, WalRecord]] = []
    for uid in store.known_uids():
        chain = store.versions(uid, _ALL_TIME)
        if not chain:
            continue  # annihilated same-instant element: never durably existed
        first = chain[0]
        is_edge = isinstance(first, EdgeRecord)
        insert_priority = _PRIORITY_EDGE_INSERT if is_edge else _PRIORITY_NODE_INSERT
        delete_priority = _PRIORITY_EDGE_DELETE if is_edge else _PRIORITY_NODE_DELETE
        events.append((
            first.period.start, insert_priority, uid,
            WalRecord(
                lsn=0,
                op=OP_INSERT_EDGE if is_edge else OP_INSERT_NODE,
                ts=first.period.start,
                uid=uid,
                cls=first.cls.name,
                fields=dict(first.fields),
                source=first.source_uid if is_edge else None,
                target=first.target_uid if is_edge else None,
            ),
        ))
        previous = first
        for version in chain[1:]:
            if version.period.start == previous.period.end:
                events.append((
                    version.period.start, _PRIORITY_UPDATE, uid,
                    WalRecord(
                        lsn=0, op=OP_UPDATE, ts=version.period.start, uid=uid,
                        fields=_update_changes(previous.fields, version.fields),
                    ),
                ))
            else:  # a gap: the element was deleted and later reinserted
                events.append((
                    previous.period.end, delete_priority, uid,
                    WalRecord(lsn=0, op=OP_DELETE, ts=previous.period.end, uid=uid),
                ))
                events.append((
                    version.period.start, insert_priority, uid,
                    WalRecord(
                        lsn=0, op=OP_REINSERT, ts=version.period.start, uid=uid,
                        fields=dict(version.fields),
                    ),
                ))
            previous = version
        if previous.period.end != FOREVER:
            events.append((
                previous.period.end, delete_priority, uid,
                WalRecord(lsn=0, op=OP_DELETE, ts=previous.period.end, uid=uid),
            ))
    events.sort(key=lambda event: event[:3])
    return [record for *_key, record in events]


def history_digest(store: "GraphStore") -> str:
    """A comparable fingerprint of a store's full temporal state: the
    SHA-256 of its compacted journal.

    Two stores with equal digests answer every query — current, timeslice
    or time-range — identically; the crash matrix compares recovered
    stores against committed prefixes with it.  Hashing record by record
    keeps the fingerprint a few bytes however long the history is (a
    digest is typically held while a second store's is computed).
    """
    digest = hashlib.sha256()
    for record in compact_history(store):
        digest.update(record.to_payload())
    return digest.hexdigest()


def write_records(
    path: str | os.PathLike, records: Iterable[WalRecord]
) -> int:
    """Write *records* to a fresh file at *path*, fsynced; returns count."""
    count = 0
    with open(path, "wb") as handle:
        for record in records:
            handle.write(encode_frame(record))
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    return count
