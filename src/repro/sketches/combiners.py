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
"""

from __future__ import annotations

import abc
import random
from typing import Any, Generic, NamedTuple, TypeVar

from repro.sketches.fm import (DEFAULT_NUM_BITS, FMSketch, _sample_packed_element,
                               _sample_packed_value)

State = TypeVar("State")


def _sketch_absorbs(a: FMSketch, b: FMSketch) -> bool:
    """Whether merging ``b`` into ``a`` would change nothing.

    Shares :meth:`FMSketch.merge`'s shape guard so mismatched sketches
    stay an error rather than silent corruption, but tests containment on
    the packed masks without allocating a merged sketch.
    """
    if a.repetitions != b.repetitions or a.num_bits != b.num_bits:
        raise ValueError("cannot merge sketches with different shapes")
    return (a.packed | b.packed) == a.packed


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

    def states_equal(self, a: State, b: State) -> bool:
        """Whether two partial aggregates are equal (controls re-sending)."""
        return a == b

    def absorbs(self, a: State, b: State) -> bool:
        """Whether folding ``b`` into ``a`` would leave ``a`` unchanged.

        Equivalent to ``states_equal(combine(a, b), a)``; combiners with a
        cheap containment test override this so the simulation hot path can
        skip allocating a merged state that would be discarded.
        """
        return self.states_equal(self.combine(a, b), a)


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

    def absorbs(self, a: float, b: float) -> bool:
        return a <= b


class MaxCombiner(Combiner[float]):
    """Maximum: the combine function is ``max`` itself."""

    duplicate_insensitive = True
    name = "max"

    def initial(self, value: float, rng: random.Random) -> float:
        return float(value)

    def combine(self, a: float, b: float) -> float:
        return a if a >= b else b

    def absorbs(self, a: float, b: float) -> bool:
        return a >= b


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
    """Count and sum: the state is one :class:`FMSketch`, merged by OR."""

    #: The state is a single packed bitmask int (enables protocol fast
    #: paths: a host may keep ``initial_packed`` ints and fold them by OR).
    packed_state = True

    def combine(self, a: FMSketch, b: FMSketch) -> FMSketch:
        return a.merge(b)

    def states_equal(self, a: FMSketch, b: FMSketch) -> bool:
        return a.packed == b.packed

    def absorbs(self, a: FMSketch, b: FMSketch) -> bool:
        return _sketch_absorbs(a, b)

    def finalize(self, state: FMSketch) -> float:
        return state.estimate()


class FMCountCombiner(_FMSketchCombiner):
    """Duplicate-insensitive count using Flajolet-Martin sketches."""

    name = "count-fm"

    def initial(self, value: float, rng: random.Random) -> FMSketch:
        return FMSketch.for_new_element(self.repetitions, rng, num_bits=self.num_bits)

    def initial_packed(self, value: float, rng: random.Random) -> int:
        """``initial(value, rng).packed`` in one call, drawing what it
        draws in either sampling mode: what a host that keeps only the
        bitmask draws.  No argument check: the shape was checked when
        the combiner was built."""
        return _sample_packed_element(rng, self.repetitions, self.num_bits)


class FMSumCombiner(_FMSketchCombiner):
    """Duplicate-insensitive sum: each host contributes ``value`` elements.

    A fractional value is truncated (99.9 contributes 99 elements), so
    the estimated SUM is that of the integer parts; a negative value,
    -0.5 included, is refused.
    """

    name = "sum-fm"

    def initial(self, value: float, rng: random.Random) -> FMSketch:
        return FMSketch.for_value(value, self.repetitions, rng,
                                  num_bits=self.num_bits)

    def initial_packed(self, value: float, rng: random.Random) -> int:
        """``initial(value, rng).packed`` in one call, drawing what it
        draws in either sampling mode (the value's sign is still
        checked)."""
        return _sample_packed_value(rng, value, self.repetitions,
                                    self.num_bits)


class _FMAverageState(NamedTuple):
    """Partial state for the FM average: a (sum sketch, count sketch) pair."""

    sum_sketch: FMSketch
    count_sketch: FMSketch


class FMAverageCombiner(_FMCombiner):
    """Duplicate-insensitive average as the ratio of FM sum and FM count."""

    name = "avg-fm"

    def initial(self, value: float, rng: random.Random) -> _FMAverageState:
        return _FMAverageState(
            sum_sketch=FMSketch.for_value(value, self.repetitions, rng,
                                          num_bits=self.num_bits),
            count_sketch=FMSketch.for_new_element(self.repetitions, rng,
                                                  num_bits=self.num_bits),
        )

    def combine(self, a: _FMAverageState, b: _FMAverageState) -> _FMAverageState:
        return _FMAverageState(
            sum_sketch=a.sum_sketch.merge(b.sum_sketch),
            count_sketch=a.count_sketch.merge(b.count_sketch),
        )

    def absorbs(self, a: _FMAverageState, b: _FMAverageState) -> bool:
        # Short-circuit order matches combine(): both components must be
        # contained for the state to be unchanged.
        return (_sketch_absorbs(a.sum_sketch, b.sum_sketch)
                and _sketch_absorbs(a.count_sketch, b.count_sketch))

    def finalize(self, state: _FMAverageState) -> float:
        count = state.count_sketch.estimate()
        if count == 0:
            return 0.0
        return state.sum_sketch.estimate() / count


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
