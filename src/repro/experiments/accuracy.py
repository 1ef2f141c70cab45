"""Figure 6: accuracy of the FM count and sum operators.

The paper draws a set M of Zipf-distributed elements in [10, 500] with
|M| in {2^10, 2^12, 2^14}, runs the duplicate-insensitive count and sum
operators, and plots the accuracy ratio (estimate / truth) against the
number of sketch repetitions c.  The ratio converges to 1 quickly, with
c ~= 8 already giving good estimates.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence

from repro.experiments.runner import TrialStats, aggregate_trials
from repro.sketches.fm import FMSketch
from repro.workloads.values import zipf_values


class AccuracyRow(NamedTuple):
    """One point of the Figure 6 curves."""

    operator: str
    set_size: int
    repetitions: int
    accuracy_ratio: TrialStats

    def as_dict(self) -> Dict[str, object]:
        return {
            "operator": self.operator,
            "|M|": self.set_size,
            "c": self.repetitions,
            "ratio_mean": round(self.accuracy_ratio.mean, 4),
            "ratio_ci": round(self.accuracy_ratio.ci, 4),
        }


def _count_estimate(set_size: int, repetitions: int, rng: random.Random) -> float:
    # One sketch of ``set_size`` distinct elements: the same draws, in
    # the same order, as OR-ing ``set_size`` single-element sketches.
    sketch = FMSketch.for_value(set_size, repetitions, rng)
    return sketch.estimate() / set_size


def _sum_estimate(values: Sequence[int], repetitions: int, rng: random.Random) -> float:
    # A value of ``v`` is ``int(v)`` distinct elements, drawn after the
    # previous value's: one sketch of all of them makes the same draws
    # as OR-ing one ``for_value`` sketch per value.
    if any(value < 0 for value in values):
        raise ValueError("sum sketches require non-negative values")
    elements = sum(int(value) for value in values)
    sketch = FMSketch.for_value(elements, repetitions, rng)
    truth = sum(values)
    return sketch.estimate() / truth if truth else 1.0


def run_accuracy_experiment(
    set_sizes: Sequence[int] = (2 ** 10, 2 ** 12, 2 ** 14),
    repetitions_sweep: Sequence[int] = (1, 2, 4, 8, 12, 16, 24, 32),
    num_trials: int = 5,
    value_low: int = 10,
    value_high: int = 500,
    seed: int = 0,
    include_sum: bool = True,
) -> List[AccuracyRow]:
    """Regenerate the Figure 6 accuracy curves.

    Args:
        set_sizes: the |M| values to evaluate.
        repetitions_sweep: sketch repetitions c to evaluate.
        num_trials: independent trials per point.
        value_low: smallest attribute value (paper: 10).
        value_high: largest attribute value (paper: 500).
        seed: base RNG seed.
        include_sum: also evaluate the sum operator (the slow part at the
            paper's largest |M|); disable for quick smoke runs.
    """
    rows: List[AccuracyRow] = []
    for set_size in set_sizes:
        for repetitions in repetitions_sweep:
            count_samples = []
            sum_samples = []
            for trial in range(num_trials):
                rng = random.Random(seed + 1000 * trial + set_size + repetitions)
                count_samples.append(_count_estimate(set_size, repetitions, rng))
                if include_sum:
                    values = zipf_values(set_size, low=value_low, high=value_high,
                                         seed=seed + trial)
                    sum_samples.append(_sum_estimate(values, repetitions, rng))
            rows.append(
                AccuracyRow(
                    operator="count",
                    set_size=set_size,
                    repetitions=repetitions,
                    accuracy_ratio=aggregate_trials(count_samples),
                )
            )
            if include_sum:
                rows.append(
                    AccuracyRow(
                        operator="sum",
                        set_size=set_size,
                        repetitions=repetitions,
                        accuracy_ratio=aggregate_trials(sum_samples),
                    )
                )
    return rows
