"""Tests for the simulation clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation.clock import SimulationClock, instant_after


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        clock = SimulationClock()
        assert clock.now == 0.0

    def test_starts_at_custom_time(self):
        clock = SimulationClock(start=5.5)
        assert clock.now == 5.5

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimulationClock(start=-1.0)


class TestInstantAfter:
    """A fixed-delay instant is ``k * delta``: one product, one rounding."""

    deltas = st.floats(1e-6, 1e6, allow_subnormal=False)

    @given(delta=deltas, ticks=st.integers(0, 10_000),
           more=st.integers(0, 1_000))
    def test_the_grid_is_closed(self, delta, ticks, more):
        assert (instant_after(ticks * delta, more * delta, delta)
                == (ticks + more) * delta)

    def test_a_running_sum_leaves_the_grid_and_the_grid_sum_does_not(self):
        summed = stepped = 0.0
        for _ in range(6):
            summed += 0.1
            stepped = instant_after(stepped, 0.1, 0.1)
        assert stepped == 6 * 0.1 != summed

    @given(delta=deltas, time=st.floats(0.0, 1e6), wait=st.floats(0.0, 1e6))
    def test_off_the_grid_it_is_the_float_sum(self, delta, time, wait):
        on_grid = (round(time / delta) * delta == time
                   and round(wait / delta) * delta == wait)
        if not on_grid:
            assert instant_after(time, wait, delta) == time + wait

    @pytest.mark.parametrize("wait", [float("inf"), float("nan")], ids=str)
    def test_a_non_finite_wait_falls_through_to_the_sum(self, wait):
        # ... for the caller's own range check to reject.
        assert not instant_after(2.0, wait, 0.5) < float("inf")
