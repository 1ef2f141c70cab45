"""Trial statistics: means with confidence intervals.

The paper reports averages over 10 trials with 95% confidence intervals;
this module provides the small amount of shared machinery the per-figure
drivers need to do the same.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.semantics.metrics import mean_and_confidence_interval


class TrialStats(NamedTuple):
    """Mean and 95% confidence half-width of a repeated measurement."""

    mean: float
    ci: float
    samples: int

    @property
    def low(self) -> float:
        return self.mean - self.ci

    @property
    def high(self) -> float:
        return self.mean + self.ci

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.2f} +/- {self.ci:.2f}"


def aggregate_trials(samples: Sequence[float]) -> TrialStats:
    """Summarise repeated measurements as a :class:`TrialStats`."""
    mean, ci = mean_and_confidence_interval(samples)
    return TrialStats(mean=mean, ci=ci, samples=len(samples))
