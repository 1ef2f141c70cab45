"""Tests for the related-work validity metrics."""

import pytest

from repro.semantics.metrics import (
    accuracy_ratio,
    mean_and_confidence_interval,
    relative_error,
)


class TestRelativeError:
    def test_overestimate(self):
        assert relative_error(120, 100) == pytest.approx(0.2)

    def test_underestimate(self):
        assert relative_error(80, 100) == pytest.approx(0.2)

    def test_zero_truth(self):
        assert relative_error(0, 0) == 0.0
        assert relative_error(5, 0) == float("inf")


class TestAccuracyRatio:
    def test_ratio(self):
        assert accuracy_ratio(50, 100) == pytest.approx(0.5)

    def test_zero_truth(self):
        assert accuracy_ratio(0, 0) == 1.0
        assert accuracy_ratio(3, 0) == float("inf")


class TestConfidenceInterval:
    def test_single_sample_has_zero_width(self):
        mean, ci = mean_and_confidence_interval([5.0])
        assert mean == 5.0
        assert ci == 0.0

    def test_constant_samples_have_zero_width(self):
        mean, ci = mean_and_confidence_interval([3.0, 3.0, 3.0])
        assert mean == 3.0
        assert ci == 0.0

    def test_known_values(self):
        samples = [10.0, 14.0]
        mean, ci = mean_and_confidence_interval(samples)
        assert mean == 12.0
        assert ci == pytest.approx(1.96 * (8 ** 0.5) / (2 ** 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_confidence_interval([])
