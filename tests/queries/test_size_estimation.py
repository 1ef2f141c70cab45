"""Tests for the continuous size estimators (Section 5.4)."""

import pytest

from repro.queries.size_estimation import (
    CaptureRecaptureEstimator,
    RingSegmentEstimator,
    required_sample_size,
)


class TestRequiredSampleSize:
    def test_formula(self):
        # 4 / (0.1^2 * 0.5) * ln(2 / 0.05) ~= 2951.7 -> 2952
        assert required_sample_size(0.1, 0.05, 0.5) == 2952

    def test_smaller_marked_fraction_needs_more_samples(self):
        assert required_sample_size(0.1, 0.05, 0.01) > required_sample_size(0.1, 0.05, 0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            required_sample_size(0.0, 0.05, 0.5)
        with pytest.raises(ValueError):
            required_sample_size(0.1, 1.0, 0.5)
        with pytest.raises(ValueError):
            required_sample_size(0.1, 0.05, 0.0)


class TestRingSegmentEstimator:
    def test_estimates_within_reason(self):
        estimator = RingSegmentEstimator.random_overlay(4000, seed=1)
        estimate = estimator.estimate(sample_size=400, seed=2)
        assert estimate == pytest.approx(4000, rel=0.35)
        assert estimator.true_size == 4000

    def test_full_sample_is_exact(self):
        estimator = RingSegmentEstimator.random_overlay(50, seed=3)
        # Sampling every host covers the whole ring, whose total length is 1.
        assert estimator.estimate(sample_size=50, seed=0) == pytest.approx(50)

    def test_segment_length_of_unknown_position_rejected(self):
        estimator = RingSegmentEstimator([0.1, 0.5, 0.9])
        with pytest.raises(ValueError):
            estimator.segment_length(0.3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RingSegmentEstimator([])
        with pytest.raises(ValueError):
            RingSegmentEstimator([1.2])
        estimator = RingSegmentEstimator([0.2, 0.6])
        with pytest.raises(ValueError):
            estimator.estimate(0)
        with pytest.raises(ValueError):
            estimator.estimate(3)


class TestCaptureRecapture:
    def test_first_interval_produces_no_estimate(self):
        estimator = CaptureRecaptureEstimator()
        record = estimator.observe_interval(set(range(100)), sample=list(range(10)))
        assert record is None

    def test_second_interval_estimates_population(self):
        estimator = CaptureRecaptureEstimator()
        population = set(range(1000))
        estimator.observe_interval(population, sample=list(range(0, 1000, 5)))
        record = estimator.observe_interval(population, sample=list(range(0, 1000, 4)))
        assert record is not None
        assert record.estimate == pytest.approx(1000, rel=0.3)
        assert estimator.latest() is record

    def test_marked_hosts_pruned_when_dead(self):
        estimator = CaptureRecaptureEstimator()
        estimator.observe_interval({0, 1, 2, 3}, sample=[0, 1])
        # Hosts 0 and 1 die; the marked set for the next interval is empty
        # so no estimate can be produced.
        record = estimator.observe_interval({2, 3}, sample=[2])
        assert record is None
        assert estimator.marked_hosts == set()

    def test_max_marked_cap(self):
        estimator = CaptureRecaptureEstimator(max_marked=2)
        estimator.observe_interval(set(range(10)), sample=[0, 1, 2, 3, 4])
        estimator.observe_interval(set(range(10)), sample=[5])
        assert len(estimator.marked_hosts) <= 2

    def test_invalid_max_marked(self):
        with pytest.raises(ValueError):
            CaptureRecaptureEstimator(max_marked=0)
