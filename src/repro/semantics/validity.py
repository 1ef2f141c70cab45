"""Single-Site Validity: host-set bounds and validity checks.

Section 4 of the paper defines a hierarchy of correctness conditions for
aggregate queries on dynamic networks.  Snapshot Validity and Interval
Validity are impossible to guarantee; *Single-Site Validity* requires that
the declared answer equal ``q(H)`` for some host set ``H`` with
``H_C <= H <= H_U`` where

* ``H_U`` (union) is the set of hosts alive at some instant during query
  processing, and
* ``H_C`` (stable core) is the set of hosts that have at least one *stable
  path* to the querying host -- a path every host of which stays alive for
  the whole query interval.

This module computes those bounds from a topology plus a churn schedule and
checks declared answers against them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence, Set

from repro.simulation.churn import ChurnSchedule
from repro.topology.base import Topology


class ValidityBounds(NamedTuple):
    """The Single-Site Validity host-set bounds for one query execution.

    Attributes:
        stable_core: the lower-bound host set ``H_C``.
        union: the upper-bound host set ``H_U``.
        querying_host: the host at which the query was issued.
        lower_value: ``q(H_C)`` for the query that produced these bounds.
        upper_value: ``q(H_U)``.
    """

    stable_core: frozenset
    union: frozenset
    querying_host: int
    lower_value: float = 0.0
    upper_value: float = 0.0

    @property
    def core_size(self) -> int:
        return len(self.stable_core)

    @property
    def union_size(self) -> int:
        return len(self.union)

    def admissible_host_sets_contain(self, hosts: Iterable[int]) -> bool:
        """Whether ``H_C <= hosts <= H_U`` holds for the given host set."""
        host_set = set(hosts)
        return self.stable_core <= host_set <= self.union


def stable_core(
    topology: Topology,
    churn: ChurnSchedule,
    querying_host: int,
    horizon: Optional[float] = None,
) -> Set[int]:
    """Compute ``H_C``: hosts with a stable path to the querying host.

    Because the dynamism model only removes hosts, a path is stable over the
    query interval exactly when every host on it survives the entire
    interval, so ``H_C`` is the connected component of the querying host in
    the subgraph induced by surviving hosts.

    Args:
        topology: the initial topology of the network.
        churn: the failure schedule applied during the run.
        querying_host: the host issuing the query.
        horizon: only failures at or before this time are considered (use the
            protocol's termination time ``T``); ``None`` considers them all.
    """
    failed = {
        host
        for time, host in churn.failures
        if horizon is None or time <= horizon
    }
    if querying_host in failed:
        return set()
    survivors = set(range(topology.num_hosts)) - failed
    core: Set[int] = {querying_host}
    frontier = deque([querying_host])
    while frontier:
        host = frontier.popleft()
        for other in topology.adjacency[host]:
            if other in survivors and other not in core:
                core.add(other)
                frontier.append(other)
    return core


def union_set(
    topology: Topology,
    churn: ChurnSchedule,
    horizon: Optional[float] = None,
) -> Set[int]:
    """Compute ``H_U``: hosts alive at some instant during the interval.

    Hosts only leave, and every initial host was alive at time 0, so
    ``H_U`` is every initial host whatever ``churn`` fails and whatever
    the ``horizon``.
    """
    return set(range(topology.num_hosts))


def aggregate_over(kind: str, hosts: Iterable[int], values: Sequence[float]) -> float:
    """Evaluate the aggregate ``q`` exactly over a host set (oracle-side)."""
    host_list = list(hosts)
    if not host_list:
        return 0.0
    selected = [values[h] for h in host_list]
    normalized = kind.lower()
    if normalized in ("min", "minimum"):
        return float(min(selected))
    if normalized in ("max", "maximum"):
        return float(max(selected))
    if normalized == "count":
        return float(len(selected))
    if normalized == "sum":
        return float(sum(selected))
    if normalized in ("avg", "average", "mean"):
        return float(sum(selected)) / len(selected)
    raise ValueError(f"unknown query kind: {kind!r}")


def compute_bounds(
    topology: Topology,
    values: Sequence[float],
    churn: ChurnSchedule,
    querying_host: int,
    kind: str,
    horizon: Optional[float] = None,
) -> ValidityBounds:
    """Compute the Single-Site Validity bounds and their aggregate values."""
    core = stable_core(topology, churn, querying_host, horizon=horizon)
    union = union_set(topology, churn, horizon=horizon)
    lower = aggregate_over(kind, core, values)
    upper = aggregate_over(kind, union, values)
    return ValidityBounds(
        stable_core=frozenset(core),
        union=frozenset(union),
        querying_host=querying_host,
        lower_value=lower,
        upper_value=upper,
    )


def check_single_site_validity(
    value: float,
    bounds: ValidityBounds,
    kind: str,
    values: Sequence[float],
) -> bool:
    """Check whether a declared answer is Single-Site Valid.

    For monotone aggregates (count, sum) a value is valid iff it lies between
    ``q(H_C)`` and ``q(H_U)``.  For min/max the admissible answers are the
    aggregates of host sets sandwiched between the bounds, which again form
    an interval between the two bound values (min is antitone, max is
    monotone in the host set).  Average is not monotone in the host set, so
    we check the necessary-and-sufficient interval condition derived from
    the extreme admissible sets.
    """
    normalized = kind.lower()
    lower, upper = bounds.lower_value, bounds.upper_value
    if normalized in ("count", "sum", "max", "maximum", "min", "minimum"):
        return min(lower, upper) <= value <= max(lower, upper)
    if normalized in ("avg", "average", "mean"):
        # Admissible averages are convex combinations of core values and any
        # subset of the extra (union minus core) values; the reachable range
        # is bounded by the min/max attainable average.
        extra = sorted(values[h] for h in bounds.union - bounds.stable_core)
        core_vals = [values[h] for h in bounds.stable_core]
        if not core_vals and not extra:
            return value == 0.0
        candidates = []
        base_sum = sum(core_vals)
        base_count = len(core_vals)
        # Adding extras in sorted order explores the extreme averages.
        running_sum, running_count = base_sum, base_count
        if base_count:
            candidates.append(base_sum / base_count)
        for v in extra:
            running_sum += v
            running_count += 1
            candidates.append(running_sum / running_count)
        running_sum, running_count = base_sum, base_count
        for v in reversed(extra):
            running_sum += v
            running_count += 1
            candidates.append(running_sum / running_count)
        if not candidates:
            return False
        return min(candidates) - 1e-9 <= value <= max(candidates) + 1e-9
    raise ValueError(f"unknown query kind: {kind!r}")


def check_approximate_single_site_validity(
    value: float,
    bounds: ValidityBounds,
    kind: str,
    values: Sequence[float],
    epsilon: float,
) -> bool:
    """Check Approximate Single-Site Validity with multiplicative slack.

    The answer must satisfy ``(1 - eps) * q(H) <= value <= (1 + eps) * q(H)``
    for *some* admissible host set ``H``; with monotone aggregates it
    suffices to widen the exact validity interval by the factor ``eps``.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    low = min(bounds.lower_value, bounds.upper_value)
    high = max(bounds.lower_value, bounds.upper_value)
    return (1.0 - epsilon) * low <= value <= (1.0 + epsilon) * high
