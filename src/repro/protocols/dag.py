"""The DIRECTEDACYCLICGRAPH best-effort protocol (Section 4.4).

A DAG protocol gives every host up to ``k`` parents instead of one, so a
single parent failure no longer discards the whole subtree.  Because a
host's partial aggregate now reaches the querying host along several paths,
the protocol must use duplicate-insensitive combine functions for count and
sum -- the paper's implementation (and ours) uses the FM sketch operators.

Report deadlines are computed from the delay *bound* ``delta`` (see the
spanning-tree module for the argument); extra parents are only adopted
from strictly shallower hosts, which keeps the parent relation acyclic
under any realised delay model bounded by ``delta``.

This module holds the one convergecast body -- :class:`DagHost`, of
which SPANNINGTREE's host is the ``k = 1`` subclass -- and its one batch
transcription for the tick lane, :class:`ConvergecastBatchKernel`.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Sequence

from repro.protocols.base import Protocol
from repro.queries.query import AggregateQuery
from repro.simulation.host import HostContext, ProtocolHost
from repro.simulation.messages import Message
from repro.sketches.combiners import Combiner, combiner_for_query
from repro.topology.base import Topology

BROADCAST = "dag-broadcast"
REPORT = "dag-report"


class DagHost(ProtocolHost):
    """Per-host convergecast state machine (slotted), for any ``k``.

    SPANNINGTREE is the ``k = 1`` case of this body
    (:class:`~repro.protocols.spanning_tree.SpanningTreeHost`): with one
    parent slot the extra-parent branch below is dead and the only
    difference left is the two message-kind strings, which are class
    attributes.
    """

    __slots__ = (
        "querying_host", "combiner", "d_hat", "delta", "rng", "num_parents",
        "active", "parents", "depth", "partial", "reports_received",
        "reported",
    )

    broadcast_kind = BROADCAST
    report_kind = REPORT

    def __init__(
        self,
        host_id: int,
        value: float,
        querying_host: int,
        combiner: Combiner,
        d_hat: int,
        delta: float,
        rng: random.Random,
        num_parents: int = 2,
    ) -> None:
        super().__init__(host_id, value)
        if num_parents < 1:
            raise ValueError("num_parents must be at least 1")
        self.querying_host = querying_host
        self.combiner = combiner
        self.d_hat = d_hat
        self.delta = delta
        self.rng = rng
        self.num_parents = num_parents

        self.active = False
        self.parents: List[int] = []
        self.depth: Optional[int] = None
        self.partial: Any = None
        self.reports_received = 0
        self.reported = False

    def on_query_start(self, ctx: HostContext) -> None:
        self.active = True
        self.depth = 0
        self.partial = self.combiner.initial(self.value, self.rng)
        ctx.send_to_neighbors(self.broadcast_kind,
                              {"depth": 0, "d_hat": self.d_hat})

    def on_message(self, message: Message, ctx: HostContext) -> None:
        if message.kind == self.broadcast_kind:
            self._on_broadcast(message, ctx)
        elif message.kind == self.report_kind:
            self._on_report(message, ctx)

    def _on_broadcast(self, message: Message, ctx: HostContext) -> None:
        sender_depth = int(message.payload["depth"])
        if not self.active:
            self.active = True
            self.parents = [message.sender]
            self.depth = sender_depth + 1
            self.partial = self.combiner.initial(self.value, self.rng)
            ctx.send_to_neighbors(
                self.broadcast_kind,
                {"depth": self.depth, "d_hat": self.d_hat},
                exclude=(message.sender,),
            )
            report_time = (2.0 * self.d_hat - self.depth) * self.delta
            ctx.set_timer(max(0.0, report_time - ctx.now), "report")
            return
        # Additional Broadcasts from hosts no deeper than us become extra
        # parents, up to k; this keeps the parent relation acyclic.
        if (
            len(self.parents) < self.num_parents
            and message.sender not in self.parents
            and self.depth is not None
            and sender_depth < self.depth
            and message.sender != self.host_id
        ):
            self.parents.append(message.sender)

    def _on_report(self, message: Message, ctx: HostContext) -> None:
        if not self.active or self.reported:
            # Reports arriving after this host already pushed its own partial
            # aggregate up the tree are lost -- the best-effort behaviour.
            return
        self.partial = self.combiner.combine(self.partial, message.payload["agg"])
        self.reports_received += 1

    def on_timer(self, name: str, data: Any, ctx: HostContext) -> None:
        if name != "report" or self.reported or not self.parents:
            return
        self.reported = True
        payload = {"agg": self.partial}
        for parent in self.parents:
            # ``ctx.send`` performs the alive-edge check itself and
            # records nothing when it fails, so the guarded send needs no
            # materialised neighbor view.
            ctx.send(parent, self.report_kind, payload)

    def local_result(self) -> Optional[float]:
        if self.partial is None:
            return None
        return self.combiner.finalize(self.partial)


class ConvergecastBatchKernel:
    """The batch transcription of :class:`DagHost` for the tick lane.

    Same shape as :class:`~repro.protocols.wildfire.WildfireBatchKernel`:
    the lane hands each instant's delivery records
    ``(rank, sender, dests, kind, agg, dist, chain_depth)`` to
    :meth:`process_instant` and each instant's due timers
    ``(host_id, chain_depth, rank)`` to :meth:`process_timer_bucket`.  A
    Broadcast carries the sender's tree depth in the ``dist`` slot, a
    Report carries the partial aggregate in ``agg`` (the object itself:
    a host never changes its partial after reporting, so the reference
    the spec's payload dict holds is the same one).  ``rank`` is carried
    for the shared record shape and never read -- only the in-process
    lane admits convergecast, where append order already is spec order.

    Unlike WILDFIRE's flush, the report timer is due at
    ``(2 * d_hat - depth) * delta`` -- generally a future instant, and
    for a non-dyadic ``delta`` a float that can sit one ulp off the
    tick-accumulated delivery instant it "coincides" with.  The kernel
    therefore registers it on the lane's timer calendar under the exact
    float the spec host computes, and the lane orders instants by float
    comparison as the spec calendar does.
    """

    __slots__ = ("hosts", "broadcast_kind", "report_kind")

    @classmethod
    def try_build(cls, hosts: Sequence[Any], num_hosts: int,
                  querying_host: int) -> Optional["ConvergecastBatchKernel"]:
        """A kernel for this host table, or ``None`` if unsupported.

        Supported: every host is exactly of the querying host's class,
        and that class names this kernel in its own body -- a subclass
        that merely inherits the name may have overridden a handler the
        kernel inlines.  The branches call each host's own combiner and
        never look inside a partial, so any combiner works.
        """
        if num_hosts <= 0 or len(hosts) < num_hosts:
            return None
        host_type = type(hosts[querying_host])
        if vars(host_type).get("batch_kernel") is not cls:
            return None
        for host in hosts:
            if type(host) is not host_type:
                return None
        return cls(hosts, host_type.broadcast_kind, host_type.report_kind)

    def __init__(self, hosts: Sequence[Any], broadcast_kind: str,
                 report_kind: str) -> None:
        self.hosts = hosts
        self.broadcast_kind = broadcast_kind
        self.report_kind = report_kind

    def flatten(self, payload) -> tuple:
        """The ``(agg, dist)`` record slots of a spec Broadcast payload."""
        return None, payload["depth"]

    def refresh_host(self, host_id: int) -> None:
        """The kernel mirrors no host state, so a real hook having run
        leaves nothing to refresh."""

    def process_instant(self, now: float, entries: Sequence[tuple],
                        lane: Any) -> None:
        """Process one instant's delivery records in spec FIFO order
        (inlined :meth:`DagHost.on_message`); with a ``lane.tracer``
        every delivery and drop is recorded where the spec loop records
        it, stamped with the batch's send instant ``lane.sent_at``."""
        hosts = self.hosts
        alive = lane.alive_bytes
        counts = lane.counts
        broadcast_kind = self.broadcast_kind
        dropped = 0
        max_depth = lane.max_depth
        tracer = lane.tracer
        sent_at = lane.sent_at
        for rank, sender, dests, kind, incoming, sender_depth, depth in entries:
            is_broadcast = kind == broadcast_kind
            delivered = False
            for dest in dests:
                if not alive[dest]:
                    dropped += 1  # lost to a host that failed in flight
                    if tracer is not None:
                        tracer.drop(now, dest)
                    continue
                counts[dest] += 1
                delivered = True
                if tracer is not None:
                    # Recorded before the handler body runs, the spec
                    # loop's deliver-then-dispatch order.
                    tracer.deliver(now, sender, dest, kind, depth, sent_at)
                host = hosts[dest]
                if is_broadcast:
                    if not host.active:
                        self._activate_host(host, dest, sender,
                                            sender_depth, now, depth, rank,
                                            lane)
                        continue
                    # -- _on_broadcast, already active: extra parents --
                    parents = host.parents
                    if (len(parents) < host.num_parents
                            and sender not in parents
                            and sender_depth < host.depth
                            and sender != dest):
                        parents.append(sender)
                elif host.active and not host.reported:
                    # -- _on_report ------------------------------------
                    host.partial = host.combiner.combine(host.partial,
                                                         incoming)
                    host.reports_received += 1
            if delivered and depth > max_depth:
                max_depth = depth
        lane.dropped += dropped
        lane.max_depth = max_depth

    def _activate_host(self, host: DagHost, dest: int, sender: int,
                       sender_depth: int, now: float, depth: int, rank: int,
                       lane: Any) -> None:
        """Inlined inactive branch of :meth:`DagHost._on_broadcast`."""
        host.active = True
        host.parents = [sender]
        host.depth = my_depth = sender_depth + 1
        host.partial = host.combiner.initial(host.value, host.rng)
        # A host forwards the Broadcast once, so the lane's neighbor memo
        # would never be read back.
        targets = [t for t in lane.network.alive_neighbors_sorted(dest)
                   if t != sender]
        if targets:
            lane.submit_multi(dest, targets, self.broadcast_kind, None,
                              my_depth, now, depth + 1)
        report_time = (2.0 * host.d_hat - my_depth) * host.delta
        # The spec's ``ctx.set_timer(max(0.0, report_time - now))``: the
        # same two float operations, so the same calendar key.
        lane.timers_at(now + max(0.0, report_time - now)).append(
            (dest, depth, rank))

    def process_timer_bucket(self, now: float, bucket: List[tuple],
                             lane: Any) -> None:
        """Fire one instant's report timers in registration order
        (inlined :meth:`DagHost.on_timer`)."""
        hosts = self.hosts
        alive = lane.alive_bytes
        report_kind = self.report_kind
        tracer = lane.tracer
        for host_id, depth, rank in bucket:
            if not alive[host_id]:
                continue  # dead hosts' timers expire silently
            if tracer is not None:
                # The spec loop records every fired timer on an alive
                # host before its handler runs.
                tracer.timer(now, host_id, "report")
            host = hosts[host_id]
            if host.reported or not host.parents:
                continue
            host.reported = True
            partial = host.partial
            for parent in host.parents:
                lane.submit_unicast(host_id, parent, report_kind, partial,
                                    None, now, depth + 1, rank)


# Named after both classes exist; ``SpanningTreeHost`` names it again in
# its own body (``try_build`` does not honour an inherited claim).
DagHost.batch_kernel = ConvergecastBatchKernel


class DirectedAcyclicGraph(Protocol):
    """Protocol object for DIRECTEDACYCLICGRAPH runs.

    Args:
        num_parents: the fan-out ``k`` (the paper evaluates k = 2 and k = 3).
    """

    requires_duplicate_insensitive = False

    def __init__(self, num_parents: int = 2) -> None:
        if num_parents < 1:
            raise ValueError("num_parents must be at least 1")
        self.num_parents = num_parents
        self.name = f"dag-k{num_parents}"

    def create_hosts(
        self,
        topology: Topology,
        values: Sequence[float],
        querying_host: int,
        query: AggregateQuery,
        combiner: Combiner,
        d_hat: int,
        delta: float,
        rng: random.Random,
    ) -> List[ProtocolHost]:
        return [
            DagHost(
                host_id=host_id,
                value=values[host_id],
                querying_host=querying_host,
                combiner=combiner,
                d_hat=d_hat,
                delta=delta,
                rng=rng,
                num_parents=self.num_parents,
            )
            for host_id in range(topology.num_hosts)
        ]

    def termination_time(self, d_hat: int, delta: float) -> float:
        return 2.0 * d_hat * delta

    def default_combiner(self, query: AggregateQuery, repetitions: int = 8) -> Combiner:
        # With multiple parents the same partial aggregate reaches the root
        # along several paths, so count/sum/avg must use the FM operators.
        return combiner_for_query(query.kind.value, exact=False, repetitions=repetitions)
