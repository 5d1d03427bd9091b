"""Typed element versions.

A Nepal database stores *versions* of nodes and edges: the element identity
is the ``uid`` (database-wide unique, stable across updates) and each version
carries the field values plus the transaction-time system period during
which that version was current.  Snapshot queries see only still-current
versions; time-travel queries see whichever version's period contains the
query time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.schema.classes import EdgeClass, ElementClass, NodeClass
from repro.temporal.interval import FOREVER, Interval


@dataclass(frozen=True, slots=True)
class ElementRecord:
    """One version of a node or edge."""

    uid: int
    cls: ElementClass
    fields: Mapping[str, Any]
    period: Interval = field(default_factory=lambda: Interval(0.0, FOREVER))

    @property
    def is_node(self) -> bool:
        """True for node versions."""
        return isinstance(self.cls, NodeClass)

    @property
    def is_edge(self) -> bool:
        """True for edge versions."""
        return isinstance(self.cls, EdgeClass)

    @property
    def is_current(self) -> bool:
        """Whether this version is the live one (open system period)."""
        return self.period.is_current

    def get(self, name: str, default: Any = None) -> Any:
        """Field access; ``id`` and ``name`` resolve like ordinary fields."""
        if name == "id":
            return self.uid
        return self.fields.get(name, default)

    def with_period(self, period: Interval) -> "ElementRecord":
        """A copy of this version with a different system period."""
        return replace(self, period=period)

    def instance_of(self, cls: ElementClass) -> bool:
        """Query-time generalization: is this element's class in *cls*'s subtree?"""
        return self.cls.is_subclass_of(cls)

    def describe(self) -> str:
        """Verbose rendering including non-empty fields."""
        interesting = {
            k: v for k, v in self.fields.items() if v not in (None, "", [], {})
        }
        return f"{self.cls.name}#{self.uid}({interesting})"

    def __str__(self) -> str:
        label = self.fields.get("name")
        return f"{self.cls.name}#{self.uid}" + (f"[{label}]" if label else "")


@dataclass(frozen=True, slots=True)
class NodeRecord(ElementRecord):
    """A node version."""


@dataclass(frozen=True, slots=True)
class EdgeRecord(ElementRecord):
    """An edge version; ``source_uid``/``target_uid`` give its endpoints.

    Endpoints are part of the edge identity and never change across versions
    (rewiring is modelled as delete + insert, which is how the paper's
    snapshot-diff loader behaves).
    """

    source_uid: int = 0
    target_uid: int = 0

    def other_end(self, node_uid: int) -> int:
        """The endpoint opposite to *node_uid*."""
        return self.target_uid if node_uid == self.source_uid else self.source_uid

    def __str__(self) -> str:
        return f"{self.cls.name}#{self.uid}({self.source_uid}->{self.target_uid})"
