"""Per-estimate provenance: which hosts' values reached the declaration.

The paper's Section 4 validity semantics ask, of a declared aggregate,
*whose* values it actually absorbed -- the stable core must be covered,
hosts lost to churn may legitimately be missing.  The experiments so far
answered that question post hoc, by diffing declared values against the
Oracle's bounds.  This module makes the answer a first-class artifact:
an opt-in tracer records every delivery (unsampled) plus churn, and a
reverse temporal-reachability pass over that record yields the
contribution set of the declared estimate.

The reachability rule mirrors how aggregation protocols actually move
state: host ``s`` contributes iff some message chain carries its value
to the querying host ``q`` by the termination time ``T``.  Processing
deliveries in decreasing send-time order, ``deadline[d]`` is the latest
instant at which information arriving at ``d`` still reaches ``q`` in
time; a delivery ``s -> d`` with ``delivered <= deadline[d]`` therefore
extends ``deadline[s]`` to at least its send instant.  Equal send and
deadline instants qualify because the engines order deliveries before
timer fires at the same timestamp, so a value arriving exactly at a
host's forwarding deadline is folded into the outgoing message.

This is a *may-contribute* relation: it is exact for flooding protocols
(WILDFIRE forwards every new piece of state) and an upper bound for
protocols that fold selectively.  Its complement is sound for all of
them -- a host outside the set cannot have influenced the declaration,
which is the direction validity accounting needs.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, NamedTuple, Tuple

from repro.obs.trace import Tracer

__all__ = [
    "ProvenanceTracer",
    "EstimateProvenance",
    "run_protocol_with_provenance",
]


class ProvenanceTracer(Tracer):
    """Records every delivery and churn event, unsampled and unbounded.

    Meant for validity-accounting runs at experiment scale (hundreds to
    low thousands of hosts); for 100k+ hosts use the sampled
    :class:`~repro.obs.trace.RingTracer` instead.
    """

    __slots__ = ("deliveries", "failures")

    def __init__(self) -> None:
        self.deliveries: List[Tuple[int, int, float, float]] = []
        self.failures: List[Tuple[float, int]] = []

    def deliver(self, time, sender, dest, kind, chain_depth, sent_at=0.0,
                query_id=0):
        self.deliveries.append((sender, dest, sent_at, time))

    def fail(self, time, host):
        self.failures.append((time, host))

    def provenance(self, querying_host: int, termination: float,
                   num_hosts: int) -> "EstimateProvenance":
        """Reverse temporal reachability over the recorded deliveries."""
        deadline: Dict[int, float] = {querying_host: termination}
        # Decreasing send time: when a delivery is examined, every chain
        # segment that could consume its payload (all later sends) has
        # already been processed, so ``deadline[dest]`` is final enough
        # to judge it -- the classic offline pass for temporal graphs.
        for sender, dest, sent_at, delivered_at in sorted(
                self.deliveries, key=lambda r: r[2], reverse=True):
            dest_deadline = deadline.get(dest)
            if dest_deadline is None or delivered_at > dest_deadline:
                continue
            known = deadline.get(sender)
            if known is None or sent_at > known:
                deadline[sender] = sent_at
        contributors = frozenset(deadline)
        failed = frozenset(h for _, h in self.failures)
        lost = frozenset(h for h in range(num_hosts)
                         if h not in contributors)
        return EstimateProvenance(
            querying_host=querying_host,
            termination=termination,
            num_hosts=num_hosts,
            contributors=contributors,
            failed=failed,
            lost=lost,
            deliveries=len(self.deliveries),
        )


class EstimateProvenance(NamedTuple):
    """The contribution DAG of one declared estimate, reduced to sets.

    Attributes:
        querying_host: the host whose declaration is attributed.
        termination: the nominal termination time the attribution used.
        num_hosts: the network size (hosts only leave, so every host is
            an initial one, the range the paper's validity semantics
            cover).
        contributors: hosts whose value may have reached the declaration.
        failed: hosts that failed during the run.
        lost: initial hosts absent from the contribution set; split by
            :attr:`lost_to_churn` / :attr:`lost_alive` into hosts the
            validity semantics excuse (they failed) and hosts whose
            absence indicts the protocol (they stayed alive).
        deliveries: number of recorded delivery edges.
    """

    querying_host: int
    termination: float
    num_hosts: int
    contributors: FrozenSet[int]
    failed: FrozenSet[int]
    lost: FrozenSet[int]
    deliveries: int = 0

    @property
    def lost_to_churn(self) -> FrozenSet[int]:
        """Missing hosts that failed -- legitimately excludable."""
        return self.lost & self.failed

    @property
    def lost_alive(self) -> FrozenSet[int]:
        """Missing hosts that never failed.

        For exact aggregation (the tree protocols with exact combiners)
        a non-empty set is a validity violation.  For sketch-based
        flooding it also contains hosts whose sketch bits were subsumed
        by earlier folds -- they truly did not change the declared
        sketch, so the complement stays sound but is not a violation by
        itself."""
        return self.lost - self.failed

    def as_dict(self) -> Dict[str, Any]:
        return {
            "querying_host": self.querying_host,
            "termination": self.termination,
            "num_hosts": self.num_hosts,
            "contributors": len(self.contributors),
            "failed": len(self.failed),
            "lost": len(self.lost),
            "lost_to_churn": len(self.lost_to_churn),
            "lost_alive": len(self.lost_alive),
            "deliveries": self.deliveries,
        }


def run_protocol_with_provenance(*args, **kwargs):
    """Run a protocol solo with provenance recording switched on.

    Same signature as :func:`repro.protocols.base.run_protocol` (minus
    ``tracer``); returns ``(result, provenance)``.  The tracer observes
    but never perturbs, so ``result`` is bit-identical to an untraced
    run with the same arguments.
    """
    from repro.protocols.base import run_protocol

    tracer = ProvenanceTracer()
    result = run_protocol(*args, tracer=tracer, **kwargs)
    topology = args[1] if len(args) > 1 else kwargs["topology"]
    provenance = tracer.provenance(
        result.querying_host, result.termination_time, topology.num_hosts)
    return result, provenance
