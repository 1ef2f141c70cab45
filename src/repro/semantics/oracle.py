"""The ORACLE frame of reference.

The paper's experiments use an ORACLE that observes every event in the
network, detects reachability of each host from the querying host, and from
that computes the Single-Site Validity lower bound ``q(H_C)`` and upper
bound ``q(H_U)``.  Such an oracle is infeasible in a real deployment (it
needs a perfect global view) but is exactly what a simulator can provide.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.semantics import validity
from repro.simulation.churn import ChurnSchedule
from repro.topology.base import Topology


class OracleReport(NamedTuple):
    """Everything the oracle knows about one query execution."""

    bounds: validity.ValidityBounds
    kind: str
    true_initial_value: float
    core_value: float
    union_value: float

    @property
    def lower(self) -> float:
        return self.core_value

    @property
    def upper(self) -> float:
        return self.union_value


def sketch_slack(protocol, query, sketch_epsilon: float = 0.5) -> float:
    """The multiplicative slack :meth:`Oracle.judge` grants ``protocol``'s
    answer to ``query``.

    An FM estimate -- a count/sum/avg folded by the duplicate-insensitive
    combiner the protocol picks for it -- is judged by Approximate
    Single-Site Validity: within ``(1 +- sketch_epsilon) * q(H)`` for some
    admissible ``H``.  An exact answer (exact addition; min/max under any
    combiner) gets none.
    """
    if (not query.kind.duplicate_insensitive_exact
            and protocol.default_combiner(query).duplicate_insensitive):
        return sketch_epsilon
    return 0.0


class Oracle:
    """Omniscient observer computing validity bounds for an execution.

    Args:
        topology: the initial topology.
        values: attribute value per host.
        querying_host: the host issuing the query.
    """

    def __init__(
        self,
        topology: Topology,
        values: Sequence[float],
        querying_host: int,
    ) -> None:
        if len(values) < topology.num_hosts:
            raise ValueError("need one attribute value per host")
        if not 0 <= querying_host < topology.num_hosts:
            raise ValueError("querying host not in topology")
        self.topology = topology
        self.values = list(values)
        self.querying_host = querying_host

    def bounds(
        self,
        kind: str,
        churn: ChurnSchedule,
        horizon: Optional[float] = None,
    ) -> validity.ValidityBounds:
        """Single-Site Validity bounds for the given churn schedule."""
        return validity.compute_bounds(
            topology=self.topology,
            values=self.values,
            churn=churn,
            querying_host=self.querying_host,
            kind=kind,
            horizon=horizon,
        )

    def report(
        self,
        kind: str,
        churn: ChurnSchedule,
        horizon: Optional[float] = None,
    ) -> OracleReport:
        """A full oracle report including the failure-free truth."""
        bounds = self.bounds(kind, churn, horizon=horizon)
        all_hosts = range(self.topology.num_hosts)
        truth = validity.aggregate_over(kind, all_hosts, self.values)
        return OracleReport(
            bounds=bounds,
            kind=kind,
            true_initial_value=truth,
            core_value=bounds.lower_value,
            union_value=bounds.upper_value,
        )

    def is_valid(
        self,
        value: float,
        kind: str,
        churn: ChurnSchedule,
        horizon: Optional[float] = None,
        epsilon: float = 0.0,
    ) -> bool:
        """Judge a declared answer against Single-Site Validity.

        Args:
            value: the answer declared by the protocol under test.
            kind: query kind.
            churn: churn schedule of the run.
            horizon: protocol termination time ``T``.
            epsilon: when non-zero, check the approximate variant instead.
        """
        return self.judge(value, self.bounds(kind, churn, horizon=horizon),
                          kind, epsilon)

    def judge(
        self,
        value: float,
        bounds: validity.ValidityBounds,
        kind: str,
        epsilon: float = 0.0,
    ) -> bool:
        """:meth:`is_valid` on bounds already computed: a driver judging
        several answers against one (churn, horizon) computes them once."""
        if epsilon > 0.0:
            return validity.check_approximate_single_site_validity(
                value, bounds, kind, self.values, epsilon
            )
        return validity.check_single_site_validity(value, bounds, kind, self.values)

    def completeness_of(self, contributing_hosts: Sequence[int]) -> float:
        """The Completeness metric: fraction of hosts whose data contributed."""
        if self.topology.num_hosts == 0:
            return 1.0
        return len(set(contributing_hosts)) / self.topology.num_hosts
