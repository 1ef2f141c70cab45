"""Aggregate query descriptions.

A query names an aggregate over a (conceptually query-dependent) attribute
value held at every host.  The paper considers min, max, count, sum and avg;
count and sum are duplicate-sensitive in their exact form, which is why the
FM operators of Section 5.2 exist.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence


class QueryKind(enum.Enum):
    """The aggregate functions covered by the paper."""

    MIN = "min"
    MAX = "max"
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"

    @classmethod
    def parse(cls, name: str) -> "QueryKind":
        """Parse a query kind from a loose string ("maximum", "Average", ...)."""
        normalized = name.strip().lower()
        aliases = {
            "min": cls.MIN, "minimum": cls.MIN,
            "max": cls.MAX, "maximum": cls.MAX,
            "count": cls.COUNT,
            "sum": cls.SUM, "total": cls.SUM,
            "avg": cls.AVG, "average": cls.AVG, "mean": cls.AVG,
        }
        if normalized not in aliases:
            raise ValueError(f"unknown aggregate query kind: {name!r}")
        return aliases[normalized]

    @property
    def duplicate_insensitive_exact(self) -> bool:
        """Whether the exact combine function already tolerates duplicates."""
        return self in (QueryKind.MIN, QueryKind.MAX)


class AggregateQuery:
    """A one-time aggregate query issued at a querying host.

    Immutable: assigning a field raises :class:`AttributeError`.

    Attributes:
        kind: the aggregate function.
        attribute: name of the attribute being aggregated (informational;
            the ad-hoc query model means values are produced on receipt of
            the query, so the simulator simply reads them from the workload).
        epsilon: requested approximation slack for Approximate Single-Site
            Validity; ``None`` requests exact semantics where achievable.
        confidence: requested success probability (1 - zeta) for approximate
            queries.
    """

    __slots__ = ("kind", "attribute", "epsilon", "confidence")

    def __init__(self, kind: QueryKind, attribute: str = "value",
                 epsilon: Optional[float] = None,
                 confidence: Optional[float] = None) -> None:
        if epsilon is not None and not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if confidence is not None and not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        for name, value in zip(self.__slots__,
                               (kind, attribute, epsilon, confidence)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), (self.kind, self.attribute, self.epsilon,
                            self.confidence)

    @classmethod
    def of(cls, kind: str, **kwargs) -> "AggregateQuery":
        """Build a query from a string kind (``AggregateQuery.of("max")``)."""
        return cls(kind=QueryKind.parse(kind), **kwargs)

    def evaluate(self, values: Sequence[float]) -> float:
        """Evaluate the query exactly over a concrete value multiset."""
        if not values:
            return 0.0
        if self.kind is QueryKind.MIN:
            return float(min(values))
        if self.kind is QueryKind.MAX:
            return float(max(values))
        if self.kind is QueryKind.COUNT:
            return float(len(values))
        if self.kind is QueryKind.SUM:
            return float(sum(values))
        if self.kind is QueryKind.AVG:
            return float(sum(values)) / len(values)
        raise AssertionError(f"unhandled kind {self.kind}")

    def describe(self) -> str:
        """Readable description used in logs and experiment tables."""
        parts = [f"{self.kind.value}({self.attribute})"]
        if self.epsilon is not None:
            parts.append(f"eps={self.epsilon}")
        if self.confidence is not None:
            parts.append(f"conf={self.confidence}")
        return " ".join(parts)
