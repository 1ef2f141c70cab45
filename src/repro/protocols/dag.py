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
which SPANNINGTREE's host is the ``k = 1`` subclass -- and the tick
lane's driver for it, :class:`ConvergecastBatchKernel`, which calls that
body for every per-host transition.  A host keeps its partial aggregate
as the combiner's state, as a WILDFIRE host does -- for the FM count and
sum the packed bitmask int, folded by one OR -- and a Report carries it
as is; only the querying host's declaration turns it into a value.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.protocols.base import Protocol
from repro.queries.query import AggregateQuery
from repro.simulation.host import HostContext, ProtocolHost, RunRecord
from repro.simulation.messages import Message
from repro.sketches.combiners import Combiner, combiner_for_query

BROADCAST = "dag-broadcast"
REPORT = "dag-report"


class DagRun(RunRecord):
    """DAG-k's run constants: the shared record plus ``num_parents``,
    the fan-out ``k`` (checked here, once per run), and ``fold``, the
    combiner's ``combine`` bound once per run (``operator.or_`` itself
    for the FM count and sum)."""

    __slots__ = ("num_parents", "fold")

    def __init__(self, *shared: Any, num_parents: int) -> None:
        super().__init__(*shared)
        if num_parents < 1:
            raise ValueError("num_parents must be at least 1")
        self.num_parents = num_parents
        self.fold = self.combiner.combine


class DagHost(ProtocolHost):
    """Per-host convergecast state machine (slotted), for any ``k``.

    SPANNINGTREE is the ``k = 1`` case of this body
    (:class:`~repro.protocols.spanning_tree.SpanningTreeHost`): with one
    parent slot the extra-parent branch below is dead and the only
    difference left is the two message-kind strings, which are class
    attributes.

    ``partial`` is the host's partial aggregate, the combiner's state
    (the packed bitmask int for the FM count and sum).  A Report carries
    it as is; only :meth:`local_result` turns it into the declared
    value, through ``combiner.finalize``.

    The three O(hosts) transitions are methods that return what to send
    instead of sending it -- :meth:`adopt` (the first Broadcast: parent,
    depth, contribution, and the one statement of the report deadline
    ``(2 * D_hat - depth) * delta``), :meth:`take_report` and
    :meth:`report_due` -- so the handlers below and
    :class:`ConvergecastBatchKernel` both call them: each runs once per
    host (or per host and parent) -- the 24 tree/DAG runs of a Fig. 7
    sweep repetition make 16 641 adoptions, 19 547 Report folds and
    15 990 report timers against 242 008 messages in the sweep -- where
    a method call is noise.  Only the extra-parent test in
    :meth:`_on_broadcast`, which runs once per Broadcast *delivery*, is
    stated again in the kernel.
    """

    __slots__ = ("active", "parents", "depth", "partial",
                 "reports_received", "reported")

    run_class = DagRun
    broadcast_kind = BROADCAST
    report_kind = REPORT

    def __init__(self, host_id: int, value: float, run: DagRun) -> None:
        # ``ProtocolHost``'s three slots, assigned here rather than
        # through ``super().__init__``: a run builds one host per
        # network host.
        self.host_id = host_id
        self.value = value
        self.run = run
        self.active = False
        #: ``()`` until adoption; then the parents, the first one the
        #: adopted sender (a tuple: most hosts never gain a second).
        self.parents: Tuple[int, ...] = ()
        self.depth: Optional[int] = None
        self.partial: Any = None
        self.reports_received = 0
        self.reported = False

    def on_query_start(self, ctx: HostContext) -> None:
        run = self.run
        self.active = True
        self.depth = 0
        self.partial = run.combiner.initial(self.value, run.rng)
        ctx.send_to_neighbors(self.broadcast_kind,
                              {"depth": 0, "d_hat": run.d_hat})

    def on_message(self, message: Message, ctx: HostContext) -> None:
        if message.kind == self.broadcast_kind:
            self._on_broadcast(message, ctx)
        elif message.kind == self.report_kind:
            self.take_report(message.payload["agg"])

    def _on_broadcast(self, message: Message, ctx: HostContext) -> None:
        sender_depth = int(message.payload["depth"])
        if not self.active:
            deadline = self.adopt(message.sender, sender_depth, ctx.now)
            ctx.send_to_neighbors(
                self.broadcast_kind,
                {"depth": self.depth, "d_hat": self.run.d_hat},
                exclude=(message.sender,),
            )
            ctx.set_timer_at(deadline, "report")
            return
        # Additional Broadcasts from hosts no deeper than us become extra
        # parents, up to k; this keeps the parent relation acyclic.
        if (
            len(self.parents) < self.run.num_parents
            and message.sender not in self.parents
            and self.depth is not None
            and sender_depth < self.depth
            and message.sender != self.host_id
        ):
            self.parents += (message.sender,)

    def adopt(self, sender: int, sender_depth: int, now: float) -> float:
        """The first Broadcast heard: ``sender`` becomes the parent, the
        host draws its own contribution, and the return value is the
        instant to report at -- ``(2 * D_hat - depth) * delta``, one
        ``delta`` before the parent's own deadline ("now" when a fast
        many-hop path made ``depth`` exceed the hop distance).  The
        caller forwards the Broadcast and sets the timer at it."""
        run = self.run
        self.active = True
        self.parents = (sender,)
        self.depth = sender_depth + 1
        self.partial = run.combiner.initial(self.value, run.rng)
        return max(now, (2.0 * run.d_hat - self.depth) * run.delta)

    def take_report(self, agg: Any) -> None:
        """Fold a child's Report.  One that arrives after this host pushed
        its own partial aggregate up the tree (or before it heard the
        Broadcast) is lost -- the best-effort behaviour.  ``agg`` is a
        combiner state, like ``partial``."""
        if self.active and not self.reported:
            self.partial = self.run.fold(self.partial, agg)
            self.reports_received += 1

    def report_due(self) -> Sequence[int]:
        """The report timer fired: the parents now owed this host's partial
        aggregate (none when it already reported or has no parent)."""
        if self.reported or not self.parents:
            return ()
        self.reported = True
        return self.parents

    def on_timer(self, name: str, data: Any, ctx: HostContext) -> None:
        if name != "report":
            return
        payload = {"agg": self.partial}
        for parent in self.report_due():
            # ``ctx.send`` performs the alive-edge check itself and
            # records nothing when it fails, so the guarded send needs no
            # materialised neighbor view.
            ctx.send(parent, self.report_kind, payload)

    def local_result(self) -> Optional[float]:
        partial = self.partial
        return None if partial is None else self.run.combiner.finalize(partial)


class ConvergecastBatchKernel:
    """:class:`DagHost` over the tick lane's batches: the lane's business.

    Same shape as :class:`~repro.protocols.wildfire.WildfireBatchKernel`:
    the lane hands each instant's delivery records
    ``(rank, sender, dests, kind, agg, dist, chain_depth)`` to
    :meth:`process_instant`, as an iterable traversed once, and each
    instant's due report timers -- bare host ids -- to
    :meth:`process_timer_bucket`, and
    the kernel keeps what a lane adds to the protocol -- target lists,
    filing the onward Broadcasts and the Reports (records straight onto
    ``lane.out_records``, one tally per instant and kind), timer
    registration, accounting and trace hooks.  Adoption, the Report
    fold and the report deadline are calls into the spec host
    (:meth:`DagHost.adopt`, :meth:`~DagHost.take_report`,
    :meth:`~DagHost.report_due`); the extra-parent test is the one
    per-delivery branch inlined here.  As there, the onward Broadcast's
    targets are the network's own sorted view (``lane.alive_sorted``,
    rebuilt where a failure cleared the row) less the sender, and a
    Report to a parent -- a former sender, a structural neighbor for
    the whole run -- needs only both ends alive on the bitmap.  A
    Broadcast carries the sender's tree depth in the
    ``dist`` slot, a Report carries the partial aggregate in ``agg`` --
    the combiner's state, the packed int for the FM count and sum --
    which is what the spec's payload dict holds (a host never changes
    its partial after reporting).  ``rank`` is carried
    for the shared record shape and never read -- only the in-process
    lane admits convergecast, where append order already is spec order
    -- so every record this kernel files has rank 0.

    Unlike WILDFIRE's flush, the report timer is generally due at a
    future instant: the kernel registers it on the lane's timer calendar
    under the deadline :meth:`DagHost.adopt` returns, the float the spec
    host hands ``ctx.set_timer_at``.  The registration is the host id
    alone.  On a tick lane a Broadcast record's chain depth is its
    sender's tree depth plus one (the query start's is 1, from depth 0),
    so an adopter's ``depth`` is the chain depth that registered its
    timer, and its Reports leave at chain depth ``depth + 1``.  They
    leave as one record: ``dests`` is the parents tuple
    :meth:`DagHost.report_due` returns when every parent is alive, else
    the list of the alive ones in parent order -- the very deliveries,
    in the very order, that one record per parent made.
    """

    __slots__ = ("hosts", "run", "broadcast_kind", "report_kind")

    @classmethod
    def try_build(cls, hosts: Sequence[Any], alive: bytearray,
                  querying_host: int) -> Optional["ConvergecastBatchKernel"]:
        """A kernel for this host table over the network's alive bitmap
        ``alive`` (one byte per host), or ``None`` if unsupported.

        Supported: every host is exactly of the querying host's class
        and shares its run record (the kernel reads ``num_parents`` off
        it once), and that class names this kernel in its own body -- a subclass
        that merely inherits the name may have overridden the branch the
        kernel inlines.  The hosts call their own combiner and the kernel
        never looks inside a partial, so any combiner works.
        """
        if not alive or len(hosts) < len(alive):
            return None
        host_type = type(hosts[querying_host])
        if vars(host_type).get("batch_kernel") is not cls:
            return None
        run = hosts[querying_host].run
        for host in hosts:
            if type(host) is not host_type or host.run is not run:
                return None
        return cls(hosts, host_type.broadcast_kind, host_type.report_kind)

    def __init__(self, hosts: Sequence[Any], broadcast_kind: str,
                 report_kind: str) -> None:
        self.hosts = hosts
        self.run = hosts[0].run
        self.broadcast_kind = broadcast_kind
        self.report_kind = report_kind

    def flatten(self, payload) -> tuple:
        """The ``(agg, dist)`` record slots of a spec Broadcast payload."""
        return None, payload["depth"]

    def refresh_host(self, host_id: int) -> None:
        """The kernel mirrors no host state, so a real hook having run
        leaves nothing to refresh."""

    def process_instant(self, now: float, entries: Iterable[tuple],
                        lane: Any) -> None:
        """Process one instant's delivery records in spec FIFO order
        (:meth:`DagHost.on_message`'s dispatch), from an iterable the
        kernel traverses once; with a ``lane.tracer``
        every delivery and drop is recorded where the spec loop records
        it, stamped with the batch's send instant ``lane.sent_at``.  An
        adoption's onward Broadcast goes straight onto
        ``lane.out_records``, counted in two locals folded into the lane
        at the end, and its report timer straight onto ``lane.timers``."""
        hosts = self.hosts
        alive = lane.alive_bytes
        counts = lane.counts
        broadcast_kind = self.broadcast_kind
        num_parents = self.run.num_parents
        network = lane.network
        views = lane.alive_sorted
        timers = lane.timers
        wireless = lane.wireless
        out = lane.out_records
        dropped = 0
        sent = 0
        wireless_extra = 0
        max_depth = lane.max_depth
        tracer = lane.tracer
        qid = lane.qid
        sent_at = lane.sent_at
        for rank, sender, dests, kind, incoming, sender_depth, depth in entries:
            is_broadcast = kind == broadcast_kind
            delivered = False
            for dest in dests:
                if not alive[dest]:
                    dropped += 1  # lost to a host that failed in flight
                    if tracer is not None:
                        tracer.drop(now, dest, qid)
                    continue
                counts[dest] += 1
                delivered = True
                if tracer is not None:
                    # Recorded before the handler body runs, the spec
                    # loop's deliver-then-dispatch order.
                    tracer.deliver(now, sender, dest, kind, depth, sent_at,
                                   qid)
                host = hosts[dest]
                if not is_broadcast:
                    host.take_report(incoming)
                elif host.active:
                    # DagHost._on_broadcast's extra-parent branch, stated
                    # again: it runs per Broadcast delivery, not per host
                    # (a Fig. 7 sweep rep: 16 641 adoptions against
                    # 242 008 messages), so it stays inlined.
                    parents = host.parents
                    if (len(parents) < num_parents
                            and sender not in parents
                            and sender_depth < host.depth
                            and sender != dest):
                        host.parents = parents + (sender,)
                else:
                    # Adoption is the spec host's own transition; the
                    # lane forwards the Broadcast (a host does so once, so
                    # the lane's neighbor memo would never be read back)
                    # and registers the report timer at the deadline.
                    deadline = host.adopt(sender, sender_depth, now)
                    targets = views[dest]
                    if targets is None:  # cleared by a failure
                        targets = network.alive_neighbors_sorted(dest)
                    if sender in targets:
                        targets = list(targets)
                        targets.remove(sender)
                    if targets:
                        if wireless:
                            # One over-the-air transmission per batch.
                            sent += 1
                            wireless_extra += len(targets) - 1
                        else:
                            sent += len(targets)
                        if tracer is not None:
                            tracer.send(now, dest, -1, broadcast_kind,
                                        len(targets), qid)
                        out.append((0, dest, targets, broadcast_kind, None,
                                    host.depth, depth + 1))
                    registered = timers.get(deadline)
                    if registered is None:
                        timers[deadline] = [dest]
                    else:
                        registered.append(dest)
            if delivered and depth > max_depth:
                max_depth = depth
        if sent:
            lane.send_acc[(now, broadcast_kind)] += sent
        if wireless_extra:
            lane.wireless_groups += wireless_extra
        lane.dropped += dropped
        lane.max_depth = max_depth

    def process_timer_bucket(self, now: float, bucket: List[int],
                             lane: Any) -> None:
        """Fire one instant's report timers (host ids) in registration
        order (:meth:`DagHost.on_timer`'s sends).  Every Report of the
        bucket is sent at ``now`` with one kind, so, as in
        :meth:`~repro.protocols.wildfire.WildfireBatchKernel.process_timer_bucket`,
        each host's one record goes straight onto ``lane.out_records``
        and the bucket's sends -- one per alive parent -- are added to
        the lane's tally once; a traced run records one ``send`` per
        parent, as the spec loop does."""
        hosts = self.hosts
        alive = lane.alive_bytes
        report_kind = self.report_kind
        out = lane.out_records
        tracer = lane.tracer
        qid = lane.qid
        sent = 0
        for host_id in bucket:
            if not alive[host_id]:
                continue  # dead hosts' timers expire silently
            if tracer is not None:
                # The spec loop records every fired timer on an alive
                # host before its handler runs.
                tracer.timer(now, host_id, "report", qid)
            host = hosts[host_id]
            # ``ctx.send``'s alive-edge check: both ends alive (the
            # sender is, above).  One record carries the host's Reports,
            # in parent order: the parents tuple itself unless one died.
            parents = host.report_due()
            for parent in parents:
                if not alive[parent]:
                    parents = [up for up in parents if alive[up]]
                    break
            if not parents:
                continue
            sent += len(parents)
            if tracer is not None:
                for parent in parents:
                    tracer.send(now, host_id, parent, report_kind, 1, qid)
            out.append((0, host_id, parents, report_kind, host.partial,
                        None, host.depth + 1))
        if sent:
            lane.send_acc[(now, report_kind)] += sent


# Named after both classes exist; ``SpanningTreeHost`` names it again in
# its own body (``try_build`` does not honour an inherited claim).
DagHost.batch_kernel = ConvergecastBatchKernel


class DirectedAcyclicGraph(Protocol):
    """Protocol object for DIRECTEDACYCLICGRAPH runs.

    Args:
        num_parents: the fan-out ``k`` (the paper evaluates k = 2 and k = 3).
    """

    requires_duplicate_insensitive = False
    host_class = DagHost

    def __init__(self, num_parents: int = 2) -> None:
        if num_parents < 1:
            raise ValueError("num_parents must be at least 1")
        self.num_parents = num_parents
        self.name = f"dag-k{num_parents}"

    def host_options(self, num_hosts: int) -> dict:
        return {"num_parents": self.num_parents}

    def default_combiner(self, query: AggregateQuery, repetitions: int = 8) -> Combiner:
        # With multiple parents the same partial aggregate reaches the root
        # along several paths, so count/sum/avg must use the FM operators.
        return combiner_for_query(query.kind.value, exact=False, repetitions=repetitions)
