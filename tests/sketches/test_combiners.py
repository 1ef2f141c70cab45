"""Tests for the query combine functions."""

import random

import pytest

from repro.sketches.combiners import (
    AverageState,
    ExactAverageCombiner,
    ExactCountCombiner,
    ExactSumCombiner,
    FMAverageCombiner,
    FMCountCombiner,
    FMSumCombiner,
    MaxCombiner,
    MinCombiner,
    combiner_for_query,
)
from repro.sketches.fm import SAMPLING_MODES, FMSketch, sampling_mode


@pytest.fixture
def rng():
    return random.Random(42)


class TestOrderCombiners:
    def test_min_combiner(self, rng):
        combiner = MinCombiner()
        assert combiner.duplicate_insensitive
        a = combiner.initial(5, rng)
        b = combiner.initial(3, rng)
        assert combiner.combine(a, b) == 3
        assert combiner.finalize(combiner.combine(a, b)) == 3.0

    def test_max_combiner(self, rng):
        combiner = MaxCombiner()
        assert combiner.combine(combiner.initial(5, rng), combiner.initial(9, rng)) == 9

    def test_order_combiners_idempotent(self, rng):
        for combiner in (MinCombiner(), MaxCombiner()):
            state = combiner.initial(7, rng)
            assert combiner.combine(state, state) == state


class TestExactCombiners:
    def test_count(self, rng):
        combiner = ExactCountCombiner()
        assert not combiner.duplicate_insensitive
        total = combiner.combine(combiner.initial(99, rng), combiner.initial(1, rng))
        assert combiner.finalize(total) == 2.0

    def test_sum(self, rng):
        combiner = ExactSumCombiner()
        total = combiner.combine(combiner.initial(10, rng), combiner.initial(32, rng))
        assert combiner.finalize(total) == 42.0

    def test_average(self, rng):
        combiner = ExactAverageCombiner()
        state = combiner.combine(combiner.initial(10, rng), combiner.initial(20, rng))
        assert isinstance(state, AverageState)
        assert combiner.finalize(state) == 15.0

    def test_average_state_empty(self):
        assert AverageState(total=0.0, count=0.0).value() == 0.0


#: What each FM combiner's state packs, drawn through ``FMSketch``.
_SKETCHES = {
    FMCountCombiner: lambda value, rng: (FMSketch.for_new_element(8, rng),),
    FMSumCombiner: lambda value, rng: (FMSketch.for_value(value, 8, rng),),
    FMAverageCombiner: lambda value, rng: (FMSketch.for_value(value, 8, rng),
                                           FMSketch.for_new_element(8, rng)),
}


def _parts(state):
    """A state's packed ints: the pair's two, or the one int."""
    return list(state) if type(state) is tuple else [state]


class TestFMCombiners:
    def test_count_combiner_estimates(self, rng):
        combiner = FMCountCombiner(repetitions=16)
        assert combiner.duplicate_insensitive
        state = combiner.initial(123, rng)
        for _ in range(499):
            state = combiner.combine(state, combiner.initial(5, rng))
        estimate = combiner.finalize(state)
        assert 200 <= estimate <= 1200

    def test_count_combiner_idempotent(self, rng):
        combiner = FMCountCombiner(repetitions=8)
        state = combiner.initial(1, rng)
        assert combiner.combine(state, state) == state

    def test_sum_combiner_estimates(self, rng):
        combiner = FMSumCombiner(repetitions=16)
        values = [30, 100, 250, 75, 45]
        state = combiner.initial(values[0], rng)
        for value in values[1:]:
            state = combiner.combine(state, combiner.initial(value, rng))
        truth = sum(values)
        assert truth / 2.5 <= combiner.finalize(state) <= truth * 2.5

    def test_average_combiner_estimates(self, rng):
        combiner = FMAverageCombiner(repetitions=16)
        values = [100] * 40
        state = combiner.initial(values[0], rng)
        for value in values[1:]:
            state = combiner.combine(state, combiner.initial(value, rng))
        estimate = combiner.finalize(state)
        assert 30 <= estimate <= 300

    def test_average_combiner_empty_count_guard(self, rng):
        combiner = FMAverageCombiner(repetitions=4)
        # A handcrafted pair of empty sketches finalizes to 0 rather than
        # dividing by zero.
        assert combiner.finalize((0, 0)) == 0.0

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            FMCountCombiner(repetitions=0)
        with pytest.raises(ValueError):
            FMSumCombiner(repetitions=0)
        with pytest.raises(ValueError):
            FMAverageCombiner(repetitions=0)

    @pytest.mark.parametrize("combiner_class", [
        FMCountCombiner, FMSumCombiner, FMAverageCombiner])
    def test_invalid_width_refused_when_built(self, combiner_class):
        """A zero-bit sketch used to be accepted here and refused only at
        the first host's draw, mid-flood."""
        with pytest.raises(ValueError, match="num_bits"):
            combiner_class(num_bits=0)

    @pytest.mark.parametrize("combiner_class", [
        FMSumCombiner, FMAverageCombiner])
    def test_negative_fraction_refused_like_a_negative_integer(
            self, combiner_class, rng):
        """-0.5 used to be truncated to 0 before the sign check and
        contribute an empty sketch, where -1.0 raised."""
        combiner = combiner_class(repetitions=4)
        for value in (-0.5, -1.0):
            with pytest.raises(ValueError, match="non-negative"):
                combiner.initial(value, rng)

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    # 64 and 65: one whole block of the fast SUM sampler, and one over.
    @pytest.mark.parametrize("value", [0, 0.9, 1, 47, 64, 65, 500])
    @pytest.mark.parametrize("combiner_class", sorted(
        _SKETCHES, key=lambda cls: cls.name))
    def test_the_state_is_the_packed_sketch(self, combiner_class, value,
                                            mode):
        """A state is the packed int of what ``FMSketch`` draws from an
        equal-seeded RNG (a ``(sum, count)`` pair for the average), and
        leaves the RNG in the same state; ``combine`` is the sketches'
        ``merge`` and ``finalize`` their estimate."""
        combiner = combiner_class(repetitions=8)
        sketches = _SKETCHES[combiner_class]
        with sampling_mode(mode):
            for seed in range(3):
                state_rng, sketch_rng = random.Random(seed), random.Random(seed)
                a, b = (combiner.initial(value, state_rng) for _ in range(2))
                x, y = (sketches(value, sketch_rng) for _ in range(2))
                merged = [s.merge(t) for s, t in zip(x, y)]
                assert state_rng.getstate() == sketch_rng.getstate()
                assert [_parts(state) for state in (
                    a, b, combiner.combine(a, b))] == [
                    [s.packed for s in drawn] for drawn in (x, y, merged)]
                estimates = [s.estimate() for s in merged] + [1.0]
                assert combiner.finalize(combiner.combine(a, b)) == (
                    estimates[0] / estimates[1])


class TestFactory:
    def test_min_max_always_order_combiners(self):
        assert isinstance(combiner_for_query("min"), MinCombiner)
        assert isinstance(combiner_for_query("maximum"), MaxCombiner)

    def test_exact_flag_selects_exact_combiners(self):
        assert isinstance(combiner_for_query("count", exact=True), ExactCountCombiner)
        assert isinstance(combiner_for_query("sum", exact=True), ExactSumCombiner)
        assert isinstance(combiner_for_query("avg", exact=True), ExactAverageCombiner)

    def test_default_is_fm_for_dup_sensitive_aggregates(self):
        assert isinstance(combiner_for_query("count"), FMCountCombiner)
        assert isinstance(combiner_for_query("sum"), FMSumCombiner)
        assert isinstance(combiner_for_query("average"), FMAverageCombiner)

    def test_repetitions_forwarded(self):
        combiner = combiner_for_query("count", repetitions=24)
        assert combiner.repetitions == 24

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            combiner_for_query("median")
