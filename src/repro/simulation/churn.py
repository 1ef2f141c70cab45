"""Churn (dynamism) schedules.

The paper models dynamism by removing ``R`` randomly selected hosts at a
uniform rate over the query-processing interval.  A :class:`ChurnSchedule`
is an explicit list of (time, host) failure pairs -- hosts only leave -- so
experiments are reproducible and the oracle can reason about exactly the
same sequence of events the simulator executed.
"""

from __future__ import annotations

import random
from math import inf
from typing import Iterable, Optional, Sequence, Tuple


class ChurnSchedule:
    """An explicit schedule of host failures.

    Attributes:
        failures: (time, host) pairs sorted by time; each host appears
            at most once.  A sorted copy: the caller's sequence is left
            as given.

    A failure time must be finite and non-negative: the engine files no
    event at NaN or infinity, so the run would ignore the failure while
    the oracle counted it.
    """

    __slots__ = ("failures",)

    def __init__(self, failures: Iterable[Tuple[float, int]] = ()) -> None:
        self.failures = sorted(failures, key=lambda pair: pair[0])
        seen = set()
        for time, host in self.failures:
            if not 0 <= time < inf:
                raise ValueError(
                    f"churn failure ({time!r}, {host}) has a time the "
                    f"engine cannot run: it must be finite and "
                    f"non-negative")
            if host in seen:
                raise ValueError(f"host {host} scheduled to fail more than once")
            seen.add(host)

    @property
    def num_failures(self) -> int:
        return len(self.failures)

    @staticmethod
    def empty() -> "ChurnSchedule":
        """A schedule with no churn (the failure-free baseline)."""
        return ChurnSchedule()


def uniform_failure_schedule(
    candidates: Sequence[int],
    num_failures: int,
    start: float,
    end: float,
    seed: int = 0,
    protect: Optional[Iterable[int]] = None,
) -> ChurnSchedule:
    """Fail ``num_failures`` random hosts at a uniform rate over [start, end].

    This is the dynamism model of Section 6.2: ``R`` randomly selected hosts
    are removed from ``G`` at a uniform rate during the query interval.

    Args:
        candidates: hosts eligible to fail (usually all hosts).
        num_failures: the paper's parameter ``R``.
        start: first failure instant.
        end: last failure instant.
        seed: RNG seed for reproducibility.
        protect: hosts that must never fail (e.g. the querying host, so the
            query itself survives, as in the paper's experiments).

    Raises:
        ValueError: if more failures are requested than eligible hosts.
    """
    if end < start:
        raise ValueError("end must not precede start")
    protected = set(protect) if protect is not None else set()
    eligible = [h for h in candidates if h not in protected]
    if num_failures > len(eligible):
        raise ValueError(
            f"cannot fail {num_failures} hosts: only {len(eligible)} eligible"
        )
    rng = random.Random(seed)
    victims = rng.sample(eligible, num_failures)
    if num_failures == 0:
        return ChurnSchedule()
    if num_failures == 1:
        times = [start + (end - start) / 2.0]
    else:
        step = (end - start) / (num_failures - 1)
        times = [start + i * step for i in range(num_failures)]
    failures = list(zip(times, victims))
    return ChurnSchedule(failures=failures)
