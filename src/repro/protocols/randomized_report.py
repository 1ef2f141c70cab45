"""The RANDOMIZEDREPORT protocol (Section 4.3).

A sampled variant of ALLREPORT used to estimate the network size with
Approximate Single-Site Validity: the Broadcast message carries a report
probability ``p``; each host reports with probability ``p`` and the querying
host declares ``|M| / p`` where ``M`` is the set of reports received.  The
required ``p`` for a target (epsilon, zeta) is ``p >= 4 / (eps^2 n) ln(2 / zeta)``.
"""

from __future__ import annotations

import math

from repro.protocols.allreport import AllReportHost
from repro.protocols.base import Protocol


def report_probability_for(epsilon: float, zeta: float, network_size: int) -> float:
    """The sampling probability required by the Approximate SSV analysis.

    Args:
        epsilon: target multiplicative error.
        zeta: target failure probability.
        network_size: (an estimate of) the network size ``n``.

    Returns:
        A probability clamped to (0, 1].
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must be in (0, 1)")
    if network_size < 1:
        raise ValueError("network_size must be positive")
    p = 4.0 / (epsilon ** 2 * network_size) * math.log(2.0 / zeta)
    return min(1.0, max(p, 1.0 / network_size))


class RandomizedReportHost(AllReportHost):
    """Identical to :class:`AllReportHost` with ``report_probability < 1``."""

    __slots__ = ()


class RandomizedReport(Protocol):
    """Protocol object for RANDOMIZEDREPORT runs.

    Args:
        epsilon: target multiplicative error for the size estimate.
        zeta: target failure probability.
        expected_size: prior estimate of the network size used to derive the
            sampling probability; defaults to the topology size at run time.
        report_probability: set the probability directly (overrides the
            epsilon/zeta derivation).
    """

    name = "randomized-report"
    requires_duplicate_insensitive = False
    host_class = RandomizedReportHost

    def __init__(
        self,
        epsilon: float = 0.1,
        zeta: float = 0.05,
        expected_size: int | None = None,
        report_probability: float | None = None,
    ) -> None:
        self.epsilon = epsilon
        self.zeta = zeta
        self.expected_size = expected_size
        self.report_probability = report_probability
        # With the probability left to the epsilon/zeta derivation the
        # resolved value depends on the run-time topology size, so the
        # protocol is conservatively stochastic unless pinned to 1.0.
        self.stochastic = report_probability != 1.0

    def config_spec(self) -> tuple:
        return (self.epsilon, self.zeta, self.expected_size,
                self.report_probability)

    def host_options(self, num_hosts: int) -> dict:
        probability = self.report_probability
        if probability is None:
            probability = report_probability_for(
                self.epsilon, self.zeta, self.expected_size or num_hosts)
        return {"report_probability": probability}
