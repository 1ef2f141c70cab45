"""The WILDFIRE protocol (Section 5).

WILDFIRE floods the query over the network (Broadcast) and then lets every
host repeatedly exchange partial aggregates with all of its neighbors
(Convergecast) until time ``2 * D_hat * delta``.  Because partial aggregates
travel along *every* path rather than a single spanning tree, the value of
any host with a stable path to the querying host is guaranteed to be folded
into the final answer -- this is what buys Single-Site Validity -- provided
the combine function is duplicate-insensitive (min, max, or the FM sketch
operators of Section 5.2).

The implementation batches outgoing Convergecast traffic per time instant:
all partial aggregates a host receives at time ``t`` are folded in first,
and a single (possibly multicast) message carrying the resulting aggregate
is sent at the end of the instant.  This mirrors the paper's cost model, in
which a host sends at most one update to its neighbors per ``delta`` and the
worst-case traffic is ``2 * D_hat * |E|`` messages.

Two optimisations from Section 5.3 are implemented and on by default:

* the first Convergecast message of a host is piggybacked on the Broadcast
  message it forwards, and
* a host at hop distance ``l`` from the querying host only participates
  until time ``(2 * D_hat - l + 1) * delta``.

All deadlines are computed from the delay *bound* ``delta``, never from
observed message timings: under a variable
:class:`~repro.simulation.delay.DelayModel` messages merely arrive
earlier than the deadlines assume, so every guaranteed exchange still
happens in time and Single-Site Validity is preserved.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable, List, Optional, Sequence, Set

from repro.protocols.base import Protocol
from repro.simulation.clock import instant_after
from repro.simulation.host import HostContext, ProtocolHost, RunRecord
from repro.simulation.messages import Message

#: Message kinds used by the protocol.
BROADCAST = "wf-broadcast"
CONVERGECAST = "wf-convergecast"

#: Name of the per-instant flush timer.
FLUSH = "wf-flush"

#: A dead host's slot in the batch kernel's deadline mirror: no instant
#: is inside it, so the past-deadline test alone routes a delivery there.
_DEAD = float("-inf")


class WildfireRun(RunRecord):
    """WILDFIRE's run constants: the shared record plus whether the
    participation window narrows with hop distance (Section 5.3), the
    combiner's ``combine``, bound once per run (``operator.or_`` itself
    for the FM count and sum), and ``windows``, the narrowed window's
    end by hop distance -- one float per distance, filled as hosts at a
    new distance activate and shared by every host there (and by the
    batch kernel's deadline mirror)."""

    __slots__ = ("early_termination", "combine", "windows")

    def __init__(self, *shared: Any, early_termination: bool) -> None:
        super().__init__(*shared)
        self.early_termination = early_termination
        self.combine = self.combiner.combine
        self.windows: List[float] = []


class WildfireHost(ProtocolHost):
    """Per-host WILDFIRE state machine (slotted: one per network host).

    This class is the protocol, stated once.  Its O(hosts) transition --
    :meth:`first_contact`: adopt the distance, draw the contribution,
    fold the piggybacked aggregate, decide whether a flush is owed -- is
    a method that returns what to do instead of doing it, so
    :meth:`on_message` and :class:`WildfireBatchKernel` both call it
    and each adds only its own way of sending.  Two O(messages) bodies
    are deliberately *not* shared, and the kernel states them again:
    the active-host fold in :meth:`on_message` and the FLUSH emission
    in :meth:`on_timer`.  One 6 000-host flood makes 6 000 activations
    (the query start and 5 999 first contacts) but 191 263 deliveries
    and 43 418 flushes.  Both folds decide in one order, doing only the
    work that can change what is sent: a delivery equal to ``partial``
    is *settled* and returns before any merge (an idempotent merge would
    change nothing, and WILDFIRE's duplicate-insensitive combiners are
    idempotent); otherwise one merge, then growth (dirty, maybe a skip
    neighbor) or a stale sender, noted in ``_reply_to`` only while the
    host is clean -- ``_dirty`` is cleared only by the flush, and a
    dirty flush multicasts and discards ``_reply_to``, so a note made
    while dirty is dead.  The kernel writes the merge inline for the
    folds it admits -- the packed sketch OR, min and max -- where this
    class calls the run's ``combine`` (the spec is the general
    statement; any duplicate-insensitive combiner runs here).  Sharing
    the flush was tried when the split was sized and cost a call plus a
    result tuple per flush for three *more* lines.  Unit differentials
    (``tests/protocols/test_wildfire.py``) lock the two fold bodies
    together delivery by delivery.

    ``partial`` is the host's partial aggregate, the combiner's state
    (for the FM count and sum, the packed bitmask int: folded by OR,
    compared by ``==``).  A message carries it as is; only
    :meth:`local_result` turns it into the declared value, through
    ``combiner.finalize``.
    """

    __slots__ = (
        "active", "distance", "partial", "_dirty", "_skip_neighbor",
        "_reply_to", "_flush_pending", "_next_flush", "_deadline",
    )

    run_class = WildfireRun

    def __init__(self, host_id: int, value: float, run: WildfireRun) -> None:
        # ``ProtocolHost``'s three slots, assigned here rather than
        # through ``super().__init__``: a run builds one host per
        # network host.
        self.host_id = host_id
        self.value = value
        self.run = run
        self.active = False
        self.distance: Optional[int] = None
        self.partial: Any = None

        # Per-instant batching state.  ``_next_flush`` rate-limits outgoing
        # Convergecast updates to one per ``delta`` (the paper's cost
        # model): under the fixed-delay model every arrival instant is
        # already a multiple of ``delta`` so the limit never delays a
        # flush, but under variable delay models it is what keeps a host
        # from flushing once per (now unique) arrival timestamp.
        # ``_reply_to`` stays None until this host actually owes a
        # neighbor a catch-up reply; most hosts in a large flood never do,
        # and one set per host is real memory at 1M hosts.
        self._dirty = False
        self._skip_neighbor: Optional[int] = None
        self._reply_to: Optional[Set[int]] = None
        self._flush_pending = False
        self._next_flush = 0.0

        # The participation deadline, narrowed at activation time (it
        # only depends on the hop distance, which never changes).
        self._deadline = run.global_deadline

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _activate(self, distance: int) -> None:
        self.active = True
        self.distance = distance
        run = self.run
        self.partial = run.combiner.initial(self.value, run.rng)
        if run.early_termination and self.host_id != run.querying_host:
            # Section 5.3: a host ``distance`` hops out keeps processing
            # Convergecast only until ``(2 * D_hat - distance + 1) *
            # delta`` (the querying host, and every host without the
            # optimisation, until the global deadline set at __init__).
            windows = run.windows
            while len(windows) <= distance:
                windows.append(
                    (2.0 * run.d_hat - len(windows) + 1.0) * run.delta)
            self._deadline = windows[distance]

    def first_contact(self, sender: int, incoming: Any,
                      sender_distance: Optional[int]) -> bool:
        """The first message an inactive host hears (Fig. 4, first contact).

        Adopts the hop distance, draws the host's own contribution and
        folds the piggybacked aggregate ``incoming`` (a combiner state,
        like ``partial``) into it.  Sends nothing:
        the caller forwards the Broadcast (carrying the folded aggregate
        to every neighbor but ``sender``, which is why nothing is left
        dirty) and then, when this returns ``True``, schedules the flush
        that either replies to a ``sender`` that knows less than this
        host or just opens the one-update-per-``delta`` window.
        """
        self._activate(
            sender_distance + 1 if sender_distance is not None else 1)
        run, partial = self.run, self.partial
        if incoming is None:
            grew, settled = False, False
        else:
            merged = run.combine(partial, incoming)
            grew = merged != partial
            if grew:
                self.partial = merged
            settled = merged == incoming
        if not settled:
            # The sender still needs our aggregate: it knows less than us.
            self._note_reply(sender)
        return grew or not settled

    def _payload(self) -> dict:
        return {
            "d_hat": self.run.d_hat,
            "dist": self.distance,
            "agg": self.partial,
        }

    def _note_reply(self, sender: int) -> None:
        """Mark ``sender`` as owed a catch-up reply (lazy set creation)."""
        reply_to = self._reply_to
        if reply_to is None:
            self._reply_to = {sender}
        else:
            reply_to.add(sender)

    def _schedule_flush(self, ctx: HostContext) -> None:
        """Set the one flush this host owes; the caller has checked that
        none is pending."""
        self._flush_pending = True
        # Due now (or when the one-per-delta rate limit ends): timers
        # are dispatched after all message deliveries of the same
        # instant, so every aggregate received by the flush instant is
        # folded in before the single outgoing update.
        ctx.set_timer_at(max(ctx.now, self._next_flush), FLUSH)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def on_query_start(self, ctx: HostContext) -> None:
        """The querying host initiates Broadcast at time 0."""
        self._activate(distance=0)
        ctx.send_to_neighbors(BROADCAST, self._payload())

    def on_message(self, message: Message, ctx: HostContext) -> None:
        if message.kind not in (BROADCAST, CONVERGECAST):
            return
        incoming = message.payload.get("agg")

        if not self.active:
            if ctx.now >= self.run.global_deadline:
                return
            owes_flush = self.first_contact(
                message.sender, incoming, message.payload.get("dist"))
            # Forward the Broadcast immediately (flooding must not wait a
            # whole instant); the partial aggregate -- already folded with
            # the piggybacked one -- rides along as this host's first
            # Convergecast contribution.
            ctx.send_to_neighbors(BROADCAST, self._payload(),
                                  exclude=(message.sender,))
            if owes_flush and not self._flush_pending:
                self._schedule_flush(ctx)
            return

        if ctx.now > self._deadline:
            return
        # The Fig. 4 fold, the hottest protocol code path (see the class
        # docstring for why the batch kernel repeats it).
        if incoming is None:
            return
        partial = self.partial
        if partial == incoming:
            # Settled: an idempotent merge would change nothing and the
            # sender knows what we know.
            return
        merged = self.run.combine(partial, incoming)
        if merged == partial:
            if self._dirty:
                # The flush already pending multicasts to the sender too.
                return
            # Our aggregate did not change but the sender's is stale:
            # send ours back so the sender (and eventually the querying
            # host on the other side of it) catches up.
            self._note_reply(message.sender)
        else:
            self.partial = merged
            self._dirty = True
            # If the merge result equals what the sender already has,
            # there is no point echoing it straight back (Example 5.1).
            # A reply owed to the sender is not withdrawn: the flush
            # ignores ``_reply_to`` while ``_dirty``.
            self._skip_neighbor = (message.sender if merged == incoming
                                   else None)
        if not self._flush_pending:
            self._schedule_flush(ctx)

    def on_timer(self, name: str, data: Any, ctx: HostContext) -> None:
        if name != FLUSH:
            return
        self._flush_pending = False
        delta = self.run.delta
        self._next_flush = instant_after(ctx.now, delta, delta)
        if not self.active or ctx.now > self._deadline:
            self._dirty = False
            self._reply_to = None
            return
        if self._dirty:
            exclude = (self._skip_neighbor,) if self._skip_neighbor is not None else ()
            ctx.send_to_neighbors(CONVERGECAST, self._payload(), exclude=exclude)
            self._reply_to = None
        elif self._reply_to:
            payload = self._payload()
            for neighbor in sorted(self._reply_to):
                # ``ctx.send`` performs the alive-edge check itself (and
                # records nothing when it fails), so no neighbor-view
                # needs materialising here.
                ctx.send(neighbor, CONVERGECAST, payload)
            self._reply_to = None
        self._dirty = False
        self._skip_neighbor = None

    def local_result(self) -> Optional[float]:
        """The value this host would declare (meaningful at the querying host)."""
        partial = self.partial
        return None if partial is None else self.run.combiner.finalize(partial)


class WildfireBatchKernel:
    """WILDFIRE over a tick lane's batches: the lane's business only.

    A tick lane (:mod:`repro.simulation.vector_lane`; its epoch-exchange
    subclass in :mod:`repro.simulation.sharded.worker`) hands each
    instant's deliveries to :meth:`process_instant` and the flushes they
    registered to :meth:`process_timer_bucket`.  What a lane adds to the
    protocol is how things travel -- target lists, filing every send
    (the record onto ``lane.out_records``, one tally per instant and
    kind into ``lane.send_acc``, the trace record), timer registration,
    the ``deadlines`` mirror, accounting and trace hooks -- and that is
    what lives here.  The
    protocol itself is :class:`WildfireHost`: an inactive host's first
    contact is a call to its own :meth:`~WildfireHost.first_contact`
    (which draws the contribution in spec RNG order).  The two
    bodies that run per message rather than per host are stated a
    second time, **inlined** over the batch -- the active-host fold and
    the FLUSH emission -- because there a delivery must cost a couple of
    index operations and one comparison, not a
    :class:`~repro.simulation.messages.Message` allocation, a context
    rebind and a method call (the call counts are in the
    :class:`WildfireHost` docstring).  The fold is one body for the
    three duplicate-insensitive folds Section 5 admits: the host state
    is its one scalar ``partial`` (the packed sketch int, or the min /
    max float), read and written in place; only the merge expression
    depends on the fold, and the spec's comparisons decide settled,
    stale sender or growth in the spec's order -- no combiner method is
    called per delivery.  Liveness is read from the ``deadlines``
    mirror, not the alive bitmap: a dead host's slot is ``-inf``, which
    no instant is inside, so the one past-deadline test routes a
    delivery to it, and only that branch asks whether the host is past
    its window (count the delivery) or dead (count a drop).
    Target lists are read from the network's own sorted-view table
    (``lane.alive_sorted``, less the sender for a first contact's onward
    Broadcast), rebuilt through the network only where a failure
    cleared a row.

    Everything travels as one flat record shape,
    ``(rank, sender, dests, kind, agg, dist, chain_depth)``: ``agg`` is
    the sender's ``partial`` as the spec lane sends it (the packed
    bitmask int for the FM count and sum), ``dests`` ascend, and
    ``rank`` orders the record within its instant.  A delivery's rank
    rides onto the flush registration ``(host, chain_depth, rank)`` it
    causes and from there into slot 0 of that flush's emissions; the
    in-process lane never reads it (append order already is spec order),
    the sharded lane turns it into the canonical cross-shard key.  A lane
    hands :meth:`process_instant` its batch as a one-pass iterable that
    frees each record once it is delivered.  A participation deadline is
    the run's shared float for the host's distance
    (``WildfireRun.windows``), so the mirror holds one float per
    distance, not one per host.

    The inlined bodies are safe because deliveries are processed in the
    exact global FIFO order of the spec loop and every branch reads the
    host's *live* state: the sequence of state transitions is the one
    the spec loop would have produced, step for step.  They rely on the
    fixed-delay gate both lanes share -- a flush always fires at its
    registration instant (``_next_flush`` is never in the future, which
    :meth:`process_instant` asserts), so every flush is registered on
    the lane's timer calendar at ``now``, and every send of instant
    ``t`` lands one ``delta`` later.  The mirror is live too: it is
    built from the alive bitmap, so a host that died before the launch
    is dead from the start, and every real hook is followed by
    :meth:`refresh_host` -- the query start, the engine's FAIL branch
    and a shard's ``_apply_fails``.
    ``try_build`` gates engagement to host tables the kernel provably
    understands; everything else falls back to the spec lane.
    """

    __slots__ = ("hosts", "run", "alive", "keep_min", "deadlines")

    @classmethod
    def try_build(cls, hosts: Sequence[Any], alive: bytearray,
                  querying_host: int) -> Optional["WildfireBatchKernel"]:
        """A kernel for this host table over the network's alive bitmap
        ``alive`` (one byte per host), or ``None`` if unsupported.

        Supported: every host is exactly a :class:`WildfireHost` sharing
        one run record, whose combiner either merges with
        ``operator.or_`` itself (the FM count and sum) or is exactly
        :class:`~repro.sketches.combiners.MinCombiner` /
        :class:`~repro.sketches.combiners.MaxCombiner`: the three merges
        :meth:`process_instant` writes inline, choosing by the same
        test.  Pair states (FM average) and third-party combiners fall
        back to the spec lane.
        """
        from repro.sketches.combiners import MaxCombiner, MinCombiner

        if not alive or len(hosts) < len(alive):
            return None
        run = hosts[querying_host].run
        for host in hosts:
            if type(host) is not WildfireHost or host.run is not run:
                return None
        combiner = run.combiner
        if run.combine is not operator.or_ and type(combiner) not in (
                MinCombiner, MaxCombiner):
            return None
        return cls(hosts, alive, type(combiner) is MinCombiner)

    def __init__(self, hosts: Sequence[Any], alive: bytearray,
                 keep_min: bool) -> None:
        self.hosts = hosts
        self.run = hosts[0].run
        self.alive = alive
        #: The fold: OR when ``run.combine`` is ``operator.or_``, else
        #: min (``keep_min``) or max.
        self.keep_min = keep_min
        #: Participation-deadline mirror: ``None`` while a host is
        #: inactive, ``_DEAD`` once it failed.  One list load replaces
        #: an alive-bitmap read, a host fetch and two attribute reads per
        #: delivery, and past-deadline and dead deliveries (the tail of
        #: every flood) skip the host object entirely.  Built from the
        #: bitmap here, maintained at first contact and by
        #: :meth:`refresh_host` after every real hook.
        self.deadlines: List[Optional[float]] = [
            (host._deadline if host.active else None) if up else _DEAD
            for host, up in zip(hosts, alive)]

    def flatten(self, payload) -> tuple:
        """The ``(agg, dist)`` record slots of a spec payload: the two
        fields WILDFIRE handlers read, each as the spec sends it."""
        return payload.get("agg"), payload.get("dist")

    def refresh_host(self, host_id: int) -> None:
        """Re-mirror one host after a real hook ran -- the query start,
        or a failure (the engine's FAIL branch, a shard's
        ``_apply_fails``): ``_DEAD`` once it failed, else its
        participation deadline once active, else ``None``."""
        host = self.hosts[host_id]
        if not self.alive[host_id]:
            self.deadlines[host_id] = _DEAD
        else:
            self.deadlines[host_id] = host._deadline if host.active else None

    def process_instant(self, now: float, entries: Iterable[tuple],
                        lane: Any) -> None:
        """Process one instant's delivery records in spec FIFO order.

        ``entries`` yields the instant's records in ascending rank order
        (``dests`` restricted to the hosts this lane owns); it is an
        iterable the kernel may traverse once, and the lane frees each
        record as the traversal moves past it.  Receive-side
        accounting (processed counts, drops, chain depth) accumulates
        into the ``lane``'s bulk counters; with a ``lane.tracer`` every
        delivery, drop and send is recorded where the spec loop records
        it (one pointer check each when there is none).
        """
        hosts = self.hosts
        counts = lane.counts
        deadlines = self.deadlines
        bucket = lane.timers.setdefault(now, [])
        gdl = self.run.global_deadline
        fold_or = self.run.combine is operator.or_
        keep_min = self.keep_min
        network = lane.network
        views = lane.alive_sorted
        wireless = lane.wireless
        out = lane.out_records
        dropped = 0
        sent = 0
        wireless_extra = 0
        max_depth = lane.max_depth
        tracer = lane.tracer
        qid = lane.qid
        sent_at = lane.sent_at
        for rank, sender, dests, kind, incoming, dist, depth in entries:
            if depth > max_depth:
                # The chain depth counts deliveries only: raise it for a
                # record with at least one live destination.
                for dest in dests:
                    if deadlines[dest] != _DEAD:
                        max_depth = depth
                        break
            for dest in dests:
                deadline = deadlines[dest]
                if deadline is not None and now > deadline:
                    # Past its window, or dead: no instant is inside
                    # ``_DEAD``.
                    if deadline == _DEAD:
                        dropped += 1
                        if tracer is not None:
                            tracer.drop(now, dest, qid)
                        continue
                    counts[dest] += 1
                    if tracer is not None:
                        tracer.deliver(now, sender, dest, kind, depth,
                                       sent_at, qid)
                    continue  # spec path: return untouched
                counts[dest] += 1
                if tracer is not None:
                    # Recorded before the handler body runs, the spec
                    # loop's deliver-then-dispatch order.
                    tracer.deliver(now, sender, dest, kind, depth, sent_at,
                                   qid)
                if deadline is None:  # inactive
                    if now >= gdl:
                        continue  # spec path: return untouched
                    # First contact is the spec host's own transition, a
                    # plain call: 5 999 of them a 6 000-host flood against
                    # 191 263 deliveries.  The lane's business is what is
                    # left -- the deadline mirror, the onward Broadcast
                    # (send_to_neighbors with exclude=(sender,): the
                    # shared view itself unless it holds the sender) and
                    # the flush registration, due at once: a host that
                    # was never active has never flushed.
                    host = hosts[dest]
                    owes_flush = host.first_contact(sender, incoming, dist)
                    deadlines[dest] = host._deadline
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
                            tracer.send(now, dest, -1, BROADCAST,
                                        len(targets), qid)
                        out.append((0, dest, targets, BROADCAST,
                                    host.partial, host.distance, depth + 1))
                    if owes_flush and not host._flush_pending:
                        host._flush_pending = True
                        bucket.append((dest, depth, rank))
                    continue
                if incoming is None:
                    continue
                host = hosts[dest]
                # -- WildfireHost.on_message's active-host fold, stated
                # again (see the class docstring): settled, then merge,
                # then stale (noted only while clean) or growth.  Min /
                # max merge as the combiner writes it, so ``merged`` is
                # the very object ``combine`` returns, NaN and -0.0
                # included ----
                state = host.partial
                if state == incoming:
                    continue  # settled
                if fold_or:
                    merged = state | incoming
                elif keep_min:
                    merged = state if state <= incoming else incoming
                else:
                    merged = state if state >= incoming else incoming
                if merged == state:
                    if host._dirty:
                        continue  # the pending flush multicasts
                    # absorbed but the sender is stale: owe a reply
                    reply_to = host._reply_to
                    if reply_to is None:
                        host._reply_to = {sender}
                    else:
                        reply_to.add(sender)
                else:
                    host.partial = merged
                    host._dirty = True
                    host._skip_neighbor = (sender if merged == incoming
                                           else None)
                # inlined _schedule_flush: the flush fires this instant.
                if not host._flush_pending:
                    host._flush_pending = True
                    if host._next_flush > now:
                        raise RuntimeError(
                            "tick lane: flush scheduled in the future")
                    bucket.append((dest, depth, rank))
        if sent:
            lane.send_acc[(now, BROADCAST)] += sent
        if wireless_extra:
            lane.wireless_groups += wireless_extra
        lane.dropped += dropped
        lane.max_depth = max_depth

    def process_timer_bucket(self, now: float, bucket: List[tuple],
                             lane: Any) -> None:
        """Fire one instant's flushes in registration (spec seq) order.

        ``bucket`` holds ``(host_id, chain_depth, causing_rank)`` in
        (rank, destination) order -- the spec loop's timer registration
        order.  The FLUSH handler (:meth:`WildfireHost.on_timer` plus
        the ``send_to_neighbors`` / ``send`` paths it calls) is
        transcribed inline.  All sends from this bucket share one
        delivery instant (``lane.lands_at``, one ``delta`` after ``now``:
        also every flushing host's ``_next_flush``) and one accounting key
        (``(now, CONVERGECAST)``).  Multicasts (the dirty branch) and
        unicast replies (the ``_reply_to`` branch) alike are traced and
        appended straight to ``lane.out_records`` in spec order, and
        counted in two locals folded into the lane at the end: the totals
        are those the per-send path would record.  A reply goes back to a
        former sender -- a structural neighbor for the whole run, since
        hosts only leave -- from a host that is alive, so the spec's
        alive-edge check reduces to the deadline mirror's verdict on the
        neighbor.  A flush fires in the instant that registered it and
        failures land between instants (a lane's instant is filed ahead
        of that engine instant's failures; a shard applies its failure
        plan between steps), so a flushing host is never dead: one that
        is raises, as a flush scheduled in the future does.
        """
        hosts = self.hosts
        deadlines = self.deadlines
        network = lane.network
        views = lane.alive_sorted
        lands_at = lane.lands_at
        wireless = lane.wireless
        out = lane.out_records
        tracer = lane.tracer
        qid = lane.qid
        sent = 0
        wireless_extra = 0
        for host_id, depth, rank in bucket:
            deadline = deadlines[host_id]
            if deadline == _DEAD:
                raise RuntimeError("tick lane: flush fired on a dead host")
            if tracer is not None:
                # The spec loop records every fired timer on an alive
                # host before its handler runs.
                tracer.timer(now, host_id, FLUSH, qid)
            # -- WildfireHost.on_timer(FLUSH), stated again: 43 418
            # flushes a 6 000-host flood; sharing the handler was
            # measured (a call plus a (targets, agg) tuple per flush,
            # three lines more than this) and not kept ---------------
            host = hosts[host_id]
            host._flush_pending = False
            host._next_flush = lands_at
            if not host.active or now > deadline:
                host._dirty = False
                host._reply_to = None
                continue
            agg = host.partial
            if host._dirty:
                targets = views[host_id]
                if targets is None:  # cleared by a failure
                    targets = network.alive_neighbors_sorted(host_id)
                skip = host._skip_neighbor
                if skip is not None and skip in targets:
                    targets = list(targets)
                    targets.remove(skip)
                if targets:
                    if wireless:
                        # One over-the-air transmission for the batch.
                        sent += 1
                        wireless_extra += len(targets) - 1
                    else:
                        sent += len(targets)
                    if tracer is not None:
                        # session_multicast's record: dest -1, width as
                        # the count.
                        tracer.send(now, host_id, -1, CONVERGECAST,
                                    len(targets), qid)
                    out.append((rank, host_id, targets, CONVERGECAST, agg,
                                host.distance, depth + 1))
                host._reply_to = None
            elif host._reply_to:
                distance = host.distance
                for neighbor in sorted(host._reply_to):
                    if deadlines[neighbor] == _DEAD:
                        continue  # ctx.send's alive-edge check refuses
                    sent += 1
                    if tracer is not None:
                        tracer.send(now, host_id, neighbor, CONVERGECAST, 1,
                                    qid)
                    out.append((rank, host_id, (neighbor,), CONVERGECAST,
                                agg, distance, depth + 1))
                host._reply_to = None
            host._dirty = False
            host._skip_neighbor = None
        if sent:
            lane.send_acc[(now, CONVERGECAST)] += sent
        if wireless_extra:
            lane.wireless_groups += wireless_extra


# Named after both classes exist: the host class names its batch kernel
# for the tick lanes' gate (``try_build`` admits exactly this class).
WildfireHost.batch_kernel = WildfireBatchKernel


class Wildfire(Protocol):
    """Protocol object for WILDFIRE runs.

    Args:
        early_termination: enable the distance-based participation window
            optimisation from Section 5.3.
    """

    name = "wildfire"
    # WILDFIRE always needs duplicate-insensitive combine functions.
    requires_duplicate_insensitive = True
    host_class = WildfireHost

    def __init__(self, early_termination: bool = True) -> None:
        self.early_termination = early_termination

    def host_options(self, num_hosts: int) -> dict:
        return {"early_termination": self.early_termination}
