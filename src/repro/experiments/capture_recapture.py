"""Section 5.4: continuous approximate size estimation under churn.

The experiment simulates a population of hosts that shrinks (and optionally
grows) over a sequence of sampling intervals, runs the Jolly-Seber style
capture-recapture estimator, and reports the relative error of its size
estimates; it also exercises the ring-segment estimator for DHT overlays.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence, Set

from repro.queries.size_estimation import (
    CaptureRecaptureEstimator,
    RingSegmentEstimator,
)


class SizeEstimationRow(NamedTuple):
    """One interval of the capture-recapture experiment."""

    interval: int
    true_size: int
    estimate: float
    relative_error: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "interval": self.interval,
            "true_size": self.true_size,
            "estimate": round(self.estimate, 1),
            "relative_error": round(self.relative_error, 3),
        }


def run_capture_recapture_experiment(
    initial_size: int = 2000,
    num_intervals: int = 12,
    departure_rate: float = 0.03,
    arrival_rate: float = 0.02,
    sample_size: int = 200,
    seed: int = 0,
) -> List[SizeEstimationRow]:
    """Drive the capture-recapture estimator over a churning population.

    Args:
        initial_size: hosts alive at the first interval.
        num_intervals: sampling intervals to simulate.
        departure_rate: fraction of hosts leaving per interval.
        arrival_rate: fraction of (current) hosts arriving per interval.
        sample_size: hosts sampled per interval (|N_t|).
        seed: RNG seed.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be at least 1")
    if initial_size < sample_size:
        raise ValueError("sample_size cannot exceed the initial population")
    rng = random.Random(seed)
    alive: Set[int] = set(range(initial_size))
    next_id = initial_size
    estimator = CaptureRecaptureEstimator()
    rows: List[SizeEstimationRow] = []

    for interval in range(num_intervals):
        sample = rng.sample(sorted(alive), min(sample_size, len(alive)))
        record = estimator.observe_interval(alive, sample)
        if record is not None:
            error = abs(record.estimate / len(alive) - 1.0)
            rows.append(
                SizeEstimationRow(
                    interval=interval,
                    true_size=len(alive),
                    estimate=record.estimate,
                    relative_error=error,
                )
            )
        # Apply churn for the next interval.
        departures = rng.sample(sorted(alive),
                                int(len(alive) * departure_rate))
        alive.difference_update(departures)
        arrivals = int(len(alive) * arrival_rate)
        for _ in range(arrivals):
            alive.add(next_id)
            next_id += 1
    return rows


def run_ring_segment_experiment(
    network_sizes: Sequence[int] = (500, 2000, 8000),
    sample_size: int = 100,
    num_trials: int = 5,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Evaluate the ring-segment estimator across overlay sizes."""
    rows: List[Dict[str, object]] = []
    for size in network_sizes:
        errors = []
        for trial in range(num_trials):
            estimator = RingSegmentEstimator.random_overlay(size, seed=seed + trial)
            estimate = estimator.estimate(min(sample_size, size), seed=seed + 17 * trial)
            errors.append(abs(estimate / size - 1.0))
        rows.append(
            {
                "|H|": size,
                "sample": min(sample_size, size),
                "mean_relative_error": round(sum(errors) / len(errors), 3),
            }
        )
    return rows
