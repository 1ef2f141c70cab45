"""Tests for churn schedules."""

import math
import re

import pytest

from repro.simulation.churn import ChurnSchedule, uniform_failure_schedule


class TestChurnSchedule:
    def test_failures_are_sorted_by_time(self):
        schedule = ChurnSchedule(failures=[(5.0, 1), (2.0, 2), (9.0, 3)])
        assert [t for t, _ in schedule.failures] == [2.0, 5.0, 9.0]

    def test_the_callers_list_is_left_as_given(self):
        failures = [(5.0, 1), (2.0, 2)]
        schedule = ChurnSchedule(failures=failures)
        assert failures == [(5.0, 1), (2.0, 2)]
        assert schedule.failures == [(2.0, 2), (5.0, 1)]

    def test_tuples_are_accepted(self):
        schedule = ChurnSchedule(failures=((5.0, 1), (2.0, 2)))
        assert schedule.failures == [(2.0, 2), (5.0, 1)]

    def test_duplicate_failure_rejected(self):
        with pytest.raises(ValueError):
            ChurnSchedule(failures=[(1.0, 4), (2.0, 4)])

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf, -1.0])
    def test_a_time_the_engine_cannot_run_is_refused(self, time):
        """NaN and infinity never pass the engine's ``time <= max_time``,
        so the run ignored such a failure while the oracle counted the
        host as failed; a negative time was refused only mid-``run()``,
        by the queue.  The schedule refuses all of them, naming the
        pair."""
        with pytest.raises(ValueError, match=re.escape(f"({time!r}, 5)")):
            ChurnSchedule(failures=[(1.0, 4), (time, 5)])

    @pytest.mark.parametrize("host", [3.0, True, "3", None])
    def test_a_host_that_is_not_an_int_is_refused(self, host):
        """A float id passed the engine's ``0 <= host < slots`` check and
        raised a bare ``TypeError`` from the alive bitmap mid-drain; a
        ``bool`` failed host 0 or 1.  The schedule refuses both, naming
        the pair."""
        with pytest.raises(ValueError,
                           match=re.escape(f"(0.5, {host!r})")):
            ChurnSchedule(failures=[(1.0, 4), (0.5, host)])

    def test_empty_schedule(self):
        schedule = ChurnSchedule.empty()
        assert schedule.num_failures == 0
        assert schedule.failures == []


class TestUniformFailureSchedule:
    def test_correct_number_of_failures(self):
        schedule = uniform_failure_schedule(range(100), 10, start=1.0, end=9.0, seed=3)
        assert schedule.num_failures == 10

    def test_failures_spread_across_interval(self):
        schedule = uniform_failure_schedule(range(100), 5, start=2.0, end=10.0, seed=3)
        times = [t for t, _ in schedule.failures]
        assert times[0] == pytest.approx(2.0)
        assert times[-1] == pytest.approx(10.0)
        assert all(times[i] <= times[i + 1] for i in range(len(times) - 1))

    def test_protected_hosts_never_fail(self):
        schedule = uniform_failure_schedule(range(20), 19, start=0.0, end=1.0,
                                            seed=0, protect=[0])
        assert 0 not in [host for _, host in schedule.failures]

    def test_zero_failures_gives_empty_schedule(self):
        schedule = uniform_failure_schedule(range(10), 0, start=0.0, end=1.0)
        assert schedule.num_failures == 0

    def test_single_failure_placed_mid_interval(self):
        schedule = uniform_failure_schedule(range(10), 1, start=0.0, end=10.0, seed=1)
        assert schedule.failures[0][0] == pytest.approx(5.0)

    def test_too_many_failures_rejected(self):
        with pytest.raises(ValueError):
            uniform_failure_schedule(range(5), 6, start=0.0, end=1.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            uniform_failure_schedule(range(5), 1, start=2.0, end=1.0)

    def test_deterministic_for_fixed_seed(self):
        a = uniform_failure_schedule(range(50), 5, 0.0, 10.0, seed=11)
        b = uniform_failure_schedule(range(50), 5, 0.0, 10.0, seed=11)
        assert a.failures == b.failures
