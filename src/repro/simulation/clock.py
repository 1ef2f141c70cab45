"""Simulated clock.

The paper's relaxed asynchronous model assumes known bounds on processing
speed, transmission delay and clock drift, all folded into a single maximum
per-hop delay ``delta``.  The simulator therefore keeps one global virtual
clock; protocol code never reads wall-clock time.

One ``delta`` is the natural *tick* of that clock: costs and histograms
are bucketed per tick (:func:`tick_index` / :func:`tick_time`), which
keeps per-instant measures well-defined when a variable
:mod:`~repro.simulation.delay` model spreads events over arbitrary float
timestamps.  Under the fixed-delay model every event already lands on a
tick boundary, so bucketing is the identity there.

This module is also the one place that knows how a fixed-delay instant
becomes a float: **it is** ``k * delta`` **for an integer tick** ``k``,
one rounding, never a running sum (:func:`instant_after`).  A query
starts at tick 0, a send from a grid instant lands on one and a timer
set from one for a whole number of ``delta`` fires on one, so the
protocols' deadlines -- themselves products such as
``(2 * d_hat - depth) * delta`` -- meet the deliveries they are timed
against exactly, for any ``delta``.
"""

from __future__ import annotations

#: Relative slack absorbed when mapping a float timestamp onto the tick
#: grid, so accumulated floating-point drift just below a boundary (e.g.
#: 2.9999999996 with width 1.0) still lands in the intended bucket.
_TICK_EPSILON = 1e-9


def tick_index(time: float, width: float) -> int:
    """The zero-based clock tick containing ``time`` (bucket ``width``)."""
    return int(time / width + _TICK_EPSILON)


def tick_time(time: float, width: float) -> float:
    """The start time of the tick containing ``time``.

    This is the canonical histogram key for per-instant measures: under
    the fixed-delay model it equals ``time`` exactly for every event the
    simulator schedules, so tick-bucketed histograms are bit-identical
    to the historical raw-float keying there.
    """
    return tick_index(time, width) * width


def instant_after(time: float, wait: float, delta: float) -> float:
    """The instant ``wait`` after ``time`` (one hop: ``wait = delta``).

    When ``time`` is exactly the grid instant ``k * delta`` and ``wait``
    exactly ``m * delta`` the answer is the grid instant
    ``(k + m) * delta``; otherwise (a variable-delay timestamp, a wait
    that is no whole number of ticks) it is the plain float sum.  The
    ticks are recovered, not carried: the nearest whole number is
    accepted only if its product reproduces the float bit for bit, so
    there is no tolerance to tune, and a non-finite input falls through
    to the sum for the caller's own range check to reject.
    """
    ticks = (time / delta + 0.5) // 1.0
    if ticks * delta == time:
        more = 1.0 if wait == delta else (wait / delta + 0.5) // 1.0
        if more * delta == wait:
            return (ticks + more) * delta
    return time + wait


class SimulationClock:
    """Monotonic virtual clock measured in multiples of the hop delay."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("simulation time cannot start negative")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulationClock(now={self._now})"
