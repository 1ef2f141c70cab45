"""Tests for the Flajolet-Martin sketch."""

import random

import pytest

from repro.sketches.fm import FM_CORRECTION, FMSketch, required_repetitions


class TestConstruction:
    def test_empty_sketch(self):
        sketch = FMSketch.empty(4)
        assert sketch.repetitions == 4
        assert sketch.is_empty()
        assert sketch.estimate() == 0.0

    def test_single_element_sets_one_bit_per_vector(self):
        rng = random.Random(1)
        sketch = FMSketch.for_new_element(8, rng)
        assert all(bin(v).count("1") == 1 for v in sketch.vectors)

    def test_for_value_zero_is_empty(self):
        rng = random.Random(1)
        assert FMSketch.for_value(0, 4, rng).is_empty()

    def test_for_value_sets_bits(self):
        rng = random.Random(1)
        sketch = FMSketch.for_value(100, 4, rng)
        assert not sketch.is_empty()
        assert all(v > 0 for v in sketch.vectors)

    def test_invalid_parameters(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            FMSketch.empty(0)
        with pytest.raises(ValueError):
            FMSketch.for_new_element(0, rng)
        with pytest.raises(ValueError):
            FMSketch.for_value(-1, 4, rng)
        with pytest.raises(ValueError):
            FMSketch(vectors=(), num_bits=32)
        with pytest.raises(ValueError):
            FMSketch(vectors=(1 << 40,), num_bits=32)


class TestMerge:
    def test_merge_is_bitwise_or(self):
        a = FMSketch(vectors=(0b0011, 0b0100), num_bits=8)
        b = FMSketch(vectors=(0b0101, 0b0010), num_bits=8)
        merged = a.merge(b)
        assert merged.vectors == (0b0111, 0b0110)

    def test_merge_operator(self):
        a = FMSketch(vectors=(0b1,), num_bits=8)
        b = FMSketch(vectors=(0b10,), num_bits=8)
        assert (a | b).vectors == (0b11,)

    def test_merge_incompatible_repetitions(self):
        a = FMSketch.empty(2)
        b = FMSketch.empty(3)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_incompatible_widths(self):
        a = FMSketch.empty(2, num_bits=16)
        b = FMSketch.empty(2, num_bits=32)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_is_idempotent(self):
        rng = random.Random(3)
        sketch = FMSketch.for_value(50, 8, rng)
        assert sketch.merge(sketch) == sketch


class TestEstimation:
    def test_lowest_zero_bits(self):
        sketch = FMSketch(vectors=(0b0111, 0b0001, 0b0000), num_bits=8)
        assert sketch.lowest_zero_bits() == (3, 1, 0)

    def test_estimate_grows_with_distinct_elements(self):
        rng = random.Random(5)
        small = FMSketch.empty(16)
        for _ in range(20):
            small = small.merge(FMSketch.for_new_element(16, rng))
        large = FMSketch.empty(16)
        for _ in range(2000):
            large = large.merge(FMSketch.for_new_element(16, rng))
        assert large.estimate() > 5 * small.estimate()

    def test_estimate_accuracy_within_factor_two_at_c16(self):
        rng = random.Random(7)
        truth = 1000
        sketch = FMSketch.empty(16)
        for _ in range(truth):
            sketch = sketch.merge(FMSketch.for_new_element(16, rng))
        estimate = sketch.estimate()
        assert truth / 2 <= estimate <= truth * 2

    def test_sum_estimate_tracks_total(self):
        rng = random.Random(11)
        values = [17, 200, 3, 90, 45, 120, 61]
        sketch = FMSketch.empty(16)
        for value in values:
            sketch = sketch.merge(FMSketch.for_value(value, 16, rng))
        truth = sum(values)
        assert truth / 2.5 <= sketch.estimate() <= truth * 2.5

    def test_correction_constant_value(self):
        assert FM_CORRECTION == pytest.approx(0.77351)

    def test_describe_renders_bit_rows(self):
        sketch = FMSketch(vectors=(0b1, 0b10), num_bits=8)
        text = sketch.describe()
        assert len(text.splitlines()) == 2


class TestHelpers:
    def test_required_repetitions(self):
        assert required_repetitions(3.0) == 3
        assert required_repetitions(4.5) == 5
        with pytest.raises(ValueError):
            required_repetitions(2.0)
