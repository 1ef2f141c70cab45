"""Combine functions ("combiners") for in-network aggregation.

A combiner encapsulates everything a protocol needs to know about a query's
aggregation semantics:

* how a host turns its local attribute value into an initial partial
  aggregate (``initial``),
* how two partial aggregates are merged (``combine``),
* how the querying host turns its final partial aggregate into the declared
  answer (``finalize``), and
* whether the merge is *duplicate-insensitive*, i.e. whether folding the
  same partial aggregate in twice changes the result.

WILDFIRE floods partial aggregates along every path, so it requires a
duplicate-insensitive combiner (min, max, or the FM sketch operators);
tree-based protocols can also use the exact, duplicate-sensitive ones.

A partial aggregate is a plain value, and ``==`` is its equality: a
float for min, max and the exact count and sum, an :class:`AverageState`
for the exact average, and for the FM operators the packed bitmask int
of one :class:`~repro.sketches.fm.FMSketch` (count and sum, merged by
``operator.or_``) or a ``(sum, count)`` pair of them (average).  A host
keeps, sends and folds that value as it is; only ``finalize`` builds a
sketch.
"""

from __future__ import annotations

import abc
import operator
import random
from typing import Any, Generic, NamedTuple, Tuple, TypeVar

from repro.sketches.fm import (DEFAULT_NUM_BITS, FMSketch, _sample_packed_element,
                               _sample_packed_value)

State = TypeVar("State")


class Combiner(abc.ABC, Generic[State]):
    """Interface for query-specific combine functions."""

    #: True when combine(a, a) == a for all states (safe for WILDFIRE).
    duplicate_insensitive: bool = False

    #: True when ``initial`` consumes randomness (the FM sketch family),
    #: i.e. when the declared answer depends on the run seed.  The
    #: service's shared-flood cache keys on this: seed-insensitive runs
    #: (exact combiners under fixed delay) produce bit-identical results
    #: regardless of seed, so their computation keys omit the seed.
    stochastic: bool = False

    #: Short name used in reports and experiment tables.
    name: str = "combiner"

    @abc.abstractmethod
    def initial(self, value: float, rng: random.Random) -> State:
        """Partial aggregate representing a single host holding ``value``."""

    @abc.abstractmethod
    def combine(self, a: State, b: State) -> State:
        """Merge two partial aggregates."""

    def finalize(self, state: State) -> float:
        """Turn the final partial aggregate into the declared answer."""
        return float(state)  # type: ignore[arg-type]

    def absorbs(self, a: State, b: State) -> bool:
        """Whether folding ``b`` into ``a`` would leave ``a`` unchanged.

        No protocol calls this (a host folds with ``combine`` and tests
        the result with ``==``); the perf harness's ``sketches.absorbs``
        kernel times it.
        """
        return self.combine(a, b) == a


# ----------------------------------------------------------------------
# Order statistics: duplicate-insensitive by nature
# ----------------------------------------------------------------------
class MinCombiner(Combiner[float]):
    """Minimum: the combine function is ``min`` itself."""

    duplicate_insensitive = True
    name = "min"

    def initial(self, value: float, rng: random.Random) -> float:
        return float(value)

    def combine(self, a: float, b: float) -> float:
        return a if a <= b else b


class MaxCombiner(Combiner[float]):
    """Maximum: the combine function is ``max`` itself."""

    duplicate_insensitive = True
    name = "max"

    def initial(self, value: float, rng: random.Random) -> float:
        return float(value)

    def combine(self, a: float, b: float) -> float:
        return a if a >= b else b


# ----------------------------------------------------------------------
# Exact (duplicate-sensitive) combiners for tree-structured protocols
# ----------------------------------------------------------------------
class ExactCountCombiner(Combiner[float]):
    """Exact count: every host contributes 1; combine is addition."""

    duplicate_insensitive = False
    name = "count-exact"

    def initial(self, value: float, rng: random.Random) -> float:
        return 1.0

    def combine(self, a: float, b: float) -> float:
        return a + b


class ExactSumCombiner(Combiner[float]):
    """Exact sum: combine is addition of attribute values."""

    duplicate_insensitive = False
    name = "sum-exact"

    def initial(self, value: float, rng: random.Random) -> float:
        return float(value)

    def combine(self, a: float, b: float) -> float:
        return a + b


class AverageState(NamedTuple):
    """Partial state for average queries: a (sum, count) pair."""

    total: float
    count: float

    def value(self) -> float:
        return self.total / self.count if self.count else 0.0


class ExactAverageCombiner(Combiner[AverageState]):
    """Exact average via (sum, count) pairs."""

    duplicate_insensitive = False
    name = "avg-exact"

    def initial(self, value: float, rng: random.Random) -> AverageState:
        return AverageState(total=float(value), count=1.0)

    def combine(self, a: AverageState, b: AverageState) -> AverageState:
        return AverageState(total=a.total + b.total, count=a.count + b.count)

    def finalize(self, state: AverageState) -> float:
        return state.value()


# ----------------------------------------------------------------------
# Duplicate-insensitive FM combiners (Section 5.2)
# ----------------------------------------------------------------------
class _FMCombiner(Combiner[Any]):
    """What the three FM combiners share: the sketch shape, checked once
    here, so a bad shape fails when the run is set up rather than at its
    first host's draw."""

    duplicate_insensitive = True
    stochastic = True

    def __init__(self, repetitions: int = 8, num_bits: int = DEFAULT_NUM_BITS) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if num_bits < 1:
            raise ValueError("num_bits must be positive")
        self.repetitions = repetitions
        self.num_bits = num_bits


class _FMSketchCombiner(_FMCombiner):
    """Count and sum: the state is one :class:`FMSketch`'s packed int
    (vector ``i`` in bits ``[i * num_bits, (i + 1) * num_bits)``), so
    the merge is a bitwise OR and ``==`` is sketch equality; only
    ``finalize`` builds the sketch."""

    combine = staticmethod(operator.or_)

    def finalize(self, state: int) -> float:
        return FMSketch._from_packed(state, self.repetitions,
                                     self.num_bits).estimate()


class FMCountCombiner(_FMSketchCombiner):
    """Duplicate-insensitive count using Flajolet-Martin sketches."""

    name = "count-fm"

    def initial(self, value: float, rng: random.Random) -> int:
        """``FMSketch.for_new_element``'s packed int, drawing what it
        draws in either sampling mode.  No argument check: the shape was
        checked when the combiner was built."""
        return _sample_packed_element(rng, self.repetitions, self.num_bits)


class FMSumCombiner(_FMSketchCombiner):
    """Duplicate-insensitive sum: each host contributes ``value`` elements.

    A fractional value is truncated (99.9 contributes 99 elements), so
    the estimated SUM is that of the integer parts; a negative value,
    -0.5 included, is refused.
    """

    name = "sum-fm"

    def initial(self, value: float, rng: random.Random) -> int:
        """``FMSketch.for_value``'s packed int, drawing what it draws in
        either sampling mode."""
        return _sample_packed_value(rng, value, self.repetitions,
                                    self.num_bits)


class FMAverageCombiner(_FMCombiner):
    """Duplicate-insensitive average as the ratio of FM sum and FM count.

    The state is the pair ``(sum, count)`` of packed sketch ints, the
    sum drawn first."""

    name = "avg-fm"

    def initial(self, value: float, rng: random.Random) -> Tuple[int, int]:
        return (_sample_packed_value(rng, value, self.repetitions,
                                     self.num_bits),
                _sample_packed_element(rng, self.repetitions, self.num_bits))

    def combine(self, a: Tuple[int, int],
                b: Tuple[int, int]) -> Tuple[int, int]:
        return a[0] | b[0], a[1] | b[1]

    def finalize(self, state: Tuple[int, int]) -> float:
        total, count = (FMSketch._from_packed(bits, self.repetitions,
                                              self.num_bits).estimate()
                        for bits in state)
        return total / count if count else 0.0


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def combiner_for_query(
    kind: str,
    exact: bool = False,
    repetitions: int = 8,
    num_bits: int = DEFAULT_NUM_BITS,
) -> Combiner[Any]:
    """Build the right combiner for a query kind.

    Args:
        kind: one of ``min``, ``max``, ``count``, ``sum``, ``avg``.
        exact: when True, return the exact (duplicate-sensitive) combiner for
            count/sum/avg -- usable only by tree-structured protocols.
        repetitions: FM repetitions ``c`` for the sketch-based combiners.
        num_bits: bit-vector width for the sketch-based combiners.
    """
    normalized = kind.lower()
    if normalized in ("min", "minimum"):
        return MinCombiner()
    if normalized in ("max", "maximum"):
        return MaxCombiner()
    if normalized == "count":
        if exact:
            return ExactCountCombiner()
        return FMCountCombiner(repetitions=repetitions, num_bits=num_bits)
    if normalized == "sum":
        if exact:
            return ExactSumCombiner()
        return FMSumCombiner(repetitions=repetitions, num_bits=num_bits)
    if normalized in ("avg", "average", "mean"):
        if exact:
            return ExactAverageCombiner()
        return FMAverageCombiner(repetitions=repetitions, num_bits=num_bits)
    raise ValueError(f"unknown query kind: {kind!r}")
