"""Half-open transaction-time intervals and interval sets.

Timestamps are represented as floats (seconds since the Unix epoch).  An
interval ``[start, end)`` asserts that a fact was in the database from
``start`` (inclusive) up to ``end`` (exclusive); ``end == FOREVER`` means the
fact is still current — the paper renders this as an interval with a missing
upper bound, e.g. ``[‘2017-02-15 09:15’, ]``.

:class:`IntervalSet` is the workhorse of the time-range query semantics of
Section 4: the validity range of a pathway is the *intersection* of the
validity sets of its element versions, and the maximal ranges the paper
promises are exactly the connected components of that intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator, Sequence

from repro.errors import TemporalError

FOREVER: float = math.inf
"""Open upper bound for rows that are still current."""

_TIMESTAMP_FORMATS = (
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%dT%H:%M:%S.%f",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%dT%H:%M",
    "%Y-%m-%d",
)


def parse_timestamp(value: str | float | int | datetime) -> float:
    """Coerce *value* to an epoch-seconds float.

    Accepts the timestamp literal formats used in NPQL queries
    (``'2017-02-15 10:00:00'`` and friends), numbers (passed through), and
    :class:`datetime` objects (naive datetimes are taken as UTC).
    """
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime):
        if value.tzinfo is None:
            value = value.replace(tzinfo=timezone.utc)
        return value.timestamp()
    text = value.strip().strip("'\"")
    for fmt in _TIMESTAMP_FORMATS:
        try:
            parsed = datetime.strptime(text, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=timezone.utc).timestamp()
    raise TemporalError(f"unrecognized timestamp literal: {value!r}")


def format_timestamp(ts: float) -> str:
    """Render an epoch timestamp the way the paper prints them."""
    if ts == FOREVER:
        return ""
    if ts == -FOREVER:
        return "-inf"
    moment = datetime.fromtimestamp(ts, tz=timezone.utc)
    if moment.microsecond:
        return moment.strftime("%Y-%m-%d %H:%M:%S.%f")
    return moment.strftime("%Y-%m-%d %H:%M:%S")


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """A half-open interval ``[start, end)`` of transaction time."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise TemporalError(
                f"empty interval: start {self.start!r} must precede end {self.end!r}"
            )

    @classmethod
    def at(cls, point: float) -> "Interval":
        """Smallest representable interval containing *point* (for timeslices)."""
        return cls(point, math.nextafter(point, math.inf))

    @classmethod
    def since(cls, start: float) -> "Interval":
        """Interval open to the right: the fact is still current."""
        return cls(start, FOREVER)

    @property
    def is_current(self) -> bool:
        """True when the interval extends to the present (``end == FOREVER``)."""
        return self.end == FOREVER

    def contains(self, point: float) -> bool:
        """Membership test honouring the half-open convention."""
        return self.start <= point < self.end

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share at least one instant."""
        return self.start < other.end and other.start < self.end

    def meets_or_overlaps(self, other: "Interval") -> bool:
        """True when the union of the two intervals is a single interval."""
        return self.start <= other.end and other.start <= self.end

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection, or None when the intervals are disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Interval(start, end)

    def duration(self) -> float:
        """Length in seconds (``inf`` for still-current intervals)."""
        return self.end - self.start

    def __str__(self) -> str:
        return f"[{format_timestamp(self.start)!r}, {format_timestamp(self.end)!r})"


class IntervalSet:
    """An immutable union of disjoint, sorted, half-open intervals.

    The constructor normalizes arbitrary input intervals by sorting and
    coalescing adjacent/overlapping ones, so the maximal-interval guarantee of
    the paper's time-range queries falls out of the representation.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._intervals: tuple[Interval, ...] = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
        ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
        merged: list[Interval] = []
        for interval in ordered:
            if merged and merged[-1].meets_or_overlaps(interval):
                last = merged[-1]
                if interval.end > last.end:
                    merged[-1] = Interval(last.start, max(last.end, interval.end))
            else:
                merged.append(interval)
        return tuple(merged)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    @classmethod
    def always(cls) -> "IntervalSet":
        """The full timeline ``(-inf, inf)``."""
        return _ALWAYS

    @classmethod
    def of(cls, start: float, end: float = FOREVER) -> "IntervalSet":
        return cls([Interval(start, end)])

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._intervals

    def is_empty(self) -> bool:
        return not self._intervals

    def contains(self, point: float) -> bool:
        """Binary-searched membership test."""
        lo, hi = 0, len(self._intervals)
        while lo < hi:
            mid = (lo + hi) // 2
            interval = self._intervals[mid]
            if point < interval.start:
                hi = mid
            elif point >= interval.end:
                lo = mid + 1
            else:
                return True
        return False

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return IntervalSet([*self._intervals, *other._intervals])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Linear-merge intersection of two normalized interval sequences."""
        if self.is_empty() or other.is_empty():
            return _EMPTY
        result: list[Interval] = []
        i = j = 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            overlap = a[i].intersect(b[j])
            if overlap is not None:
                result.append(overlap)
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    def clip(self, window: Interval) -> "IntervalSet":
        """Restrict the set to *window*."""
        return self.intersect(IntervalSet([window]))

    def complement(self, window: Interval) -> "IntervalSet":
        """The instants of *window* not covered by this set."""
        gaps: list[Interval] = []
        cursor = window.start
        for interval in self._intervals:
            if interval.end <= window.start:
                continue
            if interval.start >= window.end:
                break
            if interval.start > cursor:
                gaps.append(Interval(cursor, min(interval.start, window.end)))
            cursor = max(cursor, interval.end)
        if cursor < window.end:
            gaps.append(Interval(cursor, window.end))
        return IntervalSet(gaps)

    def first_instant(self) -> float | None:
        """Earliest covered instant — ``First Time When Exists`` (§4)."""
        return self._intervals[0].start if self._intervals else None

    def last_instant(self) -> float | None:
        """Latest covered instant, ``None`` upper bound meaning still current.

        Implements ``Last Time When Exists`` (§4): for a still-current set the
        last instant is unbounded, reported here as ``FOREVER``.
        """
        return self._intervals[-1].end if self._intervals else None

    def total_duration(self) -> float:
        return sum(interval.duration() for interval in self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        return f"IntervalSet({list(map(str, self._intervals))})"


def intersect_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Intersection of many interval sets (empty input yields ``always``)."""
    if not sets:
        return IntervalSet.always()
    result = sets[0]
    for interval_set in sets[1:]:
        if result.is_empty():
            return result
        result = result.intersect(interval_set)
    return result


_EMPTY = IntervalSet.__new__(IntervalSet)
object.__setattr__(_EMPTY, "_intervals", ())

_ALWAYS = IntervalSet.__new__(IntervalSet)
object.__setattr__(_ALWAYS, "_intervals", (Interval(-FOREVER, FOREVER),))
