"""Continuous approximate network-size estimation (Section 5.4).

Two estimators are implemented:

* :class:`RingSegmentEstimator` -- for DHT-style overlays that place hosts
  uniformly at random on a unit ring, the total segment length managed by a
  sample of ``s`` hosts yields the unbiased estimator ``s / X_s``.
* :class:`CaptureRecaptureEstimator` -- the protocol-agnostic Jolly-Seber
  style scheme: the querying host keeps a set of *marked* hosts, samples
  ``|N_t|`` random hosts per interval, and estimates
  ``|H_t| ~= |M_t| * |N_t| / m_t`` from the recapture count ``m_t``.
"""

from __future__ import annotations

import math
import random
from typing import List, NamedTuple, Optional, Sequence, Set


def required_sample_size(epsilon: float, delta: float, marked_fraction: float) -> int:
    """Chernoff-bound sample size for the capture-recapture estimate.

    The paper requires ``|N_t| >= 4 / (eps^2 * rho_t) * ln(2 / delta)`` where
    ``rho_t`` is the fraction of marked hosts in the population.

    Args:
        epsilon: target multiplicative error.
        delta: target failure probability.
        marked_fraction: ``rho_t = |M_t| / |H_t|`` (a crude estimate works).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not 0.0 < marked_fraction <= 1.0:
        raise ValueError("marked_fraction must be in (0, 1]")
    return int(math.ceil(4.0 / (epsilon ** 2 * marked_fraction) * math.log(2.0 / delta)))


class SizeEstimate(NamedTuple):
    """One network-size estimate with its inputs recorded for auditing."""

    interval: int
    estimate: float
    marked: int
    sampled: int
    recaptured: int


class RingSegmentEstimator:
    """Protocol-specific size estimator for unit-ring overlays.

    Hosts are assumed to be placed uniformly at random on a ring of unit
    length, each managing the segment between its own position and its
    clockwise predecessor.  If ``X_s`` is the total segment length managed by
    ``s`` sampled hosts then ``s / X_s`` is an unbiased estimate of ``|H|``.
    """

    def __init__(self, positions: Sequence[float]) -> None:
        """Args:
            positions: ring positions in [0, 1) of all currently alive hosts.
        """
        if not positions:
            raise ValueError("need at least one host position")
        for position in positions:
            if not 0.0 <= position < 1.0:
                raise ValueError("ring positions must lie in [0, 1)")
        self._sorted = sorted(positions)

    @classmethod
    def random_overlay(cls, num_hosts: int, seed: int = 0) -> "RingSegmentEstimator":
        """Build an estimator over a synthetic overlay of the given size."""
        rng = random.Random(seed)
        return cls([rng.random() for _ in range(num_hosts)])

    def segment_length(self, position: float) -> float:
        """Length of the segment managed by the host at ``position``."""
        import bisect

        index = bisect.bisect_left(self._sorted, position)
        if self._sorted[index % len(self._sorted)] != position:
            raise ValueError("position does not belong to a known host")
        predecessor = self._sorted[index - 1] if index > 0 else self._sorted[-1] - 1.0
        return position - predecessor

    def estimate(self, sample_size: int, seed: int = 0) -> float:
        """Estimate ``|H|`` from a uniform sample of ``sample_size`` hosts."""
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if sample_size > len(self._sorted):
            raise ValueError("cannot sample more hosts than exist")
        rng = random.Random(seed)
        sample = rng.sample(self._sorted, sample_size)
        total_length = sum(self.segment_length(p) for p in sample)
        if total_length <= 0:
            return float(len(self._sorted))
        return sample_size / total_length

    @property
    def true_size(self) -> int:
        return len(self._sorted)


class CaptureRecaptureEstimator:
    """Jolly-Seber capture-recapture estimator of a dynamic network's size.

    The estimator assumes a black-box sampling primitive returning uniform
    random alive hosts (e.g. random walks on an expander overlay).  Each
    interval it:

    1. refreshes the marked set ``M_t`` by probing previously seen hosts and
       dropping the dead ones,
    2. draws a fresh sample ``N_t``,
    3. counts recaptures ``m_t = |M_t intersect N_t|`` and estimates
       ``|H_t| ~= |M_t| * |N_t| / m_t``,
    4. folds the fresh sample into the candidate marked set for ``t + 1``.
    """

    def __init__(self, max_marked: Optional[int] = None) -> None:
        """Args:
            max_marked: optional cap on the marked-set size (the querying
                host may prune arbitrarily if the set grows too large).
        """
        if max_marked is not None and max_marked < 1:
            raise ValueError("max_marked must be positive when given")
        self.max_marked = max_marked
        self._marked: Set[int] = set()
        self._previous_sample: Set[int] = set()
        self._interval = 0
        self.history: List[SizeEstimate] = []

    @property
    def marked_hosts(self) -> Set[int]:
        return set(self._marked)

    def observe_interval(
        self,
        alive_hosts: Set[int],
        sample: Sequence[int],
    ) -> Optional[SizeEstimate]:
        """Process one sampling interval and return the estimate (if any).

        Args:
            alive_hosts: the hosts currently alive (used only to probe the
                candidate marked hosts, mirroring the probing step hq
                performs; the estimator never counts this set directly).
            sample: hosts returned by the black-box random sampling call.

        Returns:
            ``None`` for the first interval (no marked hosts yet) or when no
            marked host was recaptured; otherwise a :class:`SizeEstimate`.
        """
        self._interval += 1
        # Step 1: refresh the marked set from previous knowledge.
        candidates = self._marked | self._previous_sample
        self._marked = {h for h in candidates if h in alive_hosts}
        if self.max_marked is not None and len(self._marked) > self.max_marked:
            self._marked = set(sorted(self._marked)[: self.max_marked])

        sample_set = set(sample)
        self._previous_sample = sample_set

        if not self._marked:
            return None
        recaptured = len(self._marked & sample_set)
        if recaptured == 0:
            return None
        estimate = len(self._marked) * len(sample_set) / recaptured
        record = SizeEstimate(
            interval=self._interval,
            estimate=estimate,
            marked=len(self._marked),
            sampled=len(sample_set),
            recaptured=recaptured,
        )
        self.history.append(record)
        return record

    def latest(self) -> Optional[SizeEstimate]:
        """The most recent estimate, if any."""
        return self.history[-1] if self.history else None
