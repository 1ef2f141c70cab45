"""Post-hoc validity metrics from related work (Section 2.4).

Relative Error is the metric earlier best-effort systems used to
characterise answer quality (Completeness, the other, is
``Oracle.completeness_of``).  The paper points out that both can only be
computed by an oracle after the fact; they are provided here for the
comparison experiments.
"""

from __future__ import annotations

from typing import Sequence


def relative_error(reported: float, true_value: float) -> float:
    """The paper's relative-error metric ``|reported / true - 1|``."""
    if true_value == 0:
        return 0.0 if reported == 0 else float("inf")
    return abs(reported / true_value - 1.0)


def accuracy_ratio(reported: float, true_value: float) -> float:
    """The ratio ``reported / true`` plotted in Figure 6.

    Values below 1 are underestimates, above 1 overestimates, exactly 1 is
    perfect accuracy.
    """
    if true_value == 0:
        return float("inf") if reported else 1.0
    return reported / true_value


def mean_and_confidence_interval(samples: Sequence[float], z: float = 1.96):
    """Mean and half-width of a normal-approximation confidence interval.

    The paper reports averages over 10 trials with 95% confidence intervals;
    this helper reproduces that reporting convention.

    Returns:
        A ``(mean, half_width)`` tuple; the half-width is 0 for fewer than
        two samples.
    """
    values = list(samples)
    if not values:
        raise ValueError("need at least one sample")
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    half_width = z * (variance ** 0.5) / (len(values) ** 0.5)
    return mean, half_width
