"""The discrete-event simulation engine: one loop, keyed by session.

The paper's setting is one dynamic network on which *many* users issue
aggregate queries; a single query is the one-user case.  The code says
it once.  :class:`EventEngine` drives any number of :class:`Session`
objects -- one query's :class:`~repro.simulation.host.ProtocolHost`
state machines, cost sink, delay stream and launch instant ``t0`` --
over one :class:`~repro.simulation.network.DynamicNetwork` and one
calendar :class:`~repro.simulation.events.EventQueue`:

* message deliveries route on ``Message.query_id`` and timers on the
  session they were filed with; both carry their *query-local* instant
  (the float a lone query computes for it), while the calendar orders
  them at ``t0 + local`` -- IEEE addition is monotone, so a session's
  events never reorder, and ``0.0 + x == x`` exactly, so a session
  launched at 0 sees the very floats it would see alone;
* sends are accounted to the session's private
  :class:`~repro.simulation.stats.CostAccounting` (the paper's Section
  6.3 costs) and delayed by its private
  :class:`~repro.simulation.delay.DelayModel` stream (``None`` = the
  paper's worst case of exactly ``delta`` per hop);
* churn is shared: a FAIL mutates the one network and fans out to every
  live session's host table (hosts only leave, so a session's table is
  the network's hosts for its whole life);
* a session the kernel-lane gate admits is stepped an instant at a time
  by this loop (:meth:`EventEngine.start_query`: one CUSTOM calendar
  entry per instant of its tick lane) instead of delivered a message at
  a time; its failures still arrive through the FAIL handler.

:class:`Simulator` is that engine with exactly one session that never
retires (``qid 0``, ``t0 = 0.0``) plus the gate in front of the loop;
the multi-tenant :class:`~repro.service.engine.MuxEngine` adds what only
a service has -- the QUERY_START control plane, session retirement and
late-delivery tallies -- and asks the same gate per session.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.simulation.churn import ChurnSchedule
from repro.simulation.clock import SimulationClock, instant_after
from repro.simulation.delay import DelayModel, delay_model_from_spec
from repro.simulation.events import (
    Event, EventKind, EventQueue, _DeliverBatch, _TimerBatch)
from repro.simulation.host import HostContext, ProtocolHost
from repro.simulation.messages import Message
from repro.simulation.network import DynamicNetwork
from repro.simulation.stats import CostAccounting, make_stats_sink
from repro.simulation.vector_lane import DEFAULT_LANE, _TickLane, validate_lane
from repro.obs.trace import Tracer


class SimulationResult:
    """Outcome of one simulated protocol run.

    Attributes:
        value: the value declared at the querying host (protocol specific;
            ``None`` if the protocol never produced one).
        costs: the message/computation/time cost accounting for the run.
        finished_at: simulation time when the run stopped.
        querying_host: id of the host that issued the query.
        extra: protocol- or experiment-specific extras (e.g. tree depth).
        lane_used: the kernel lane that executed the run.
        fallback_reason: when a tick lane (``vector``, the default, or
            ``sharded``) was asked for but its gate refused the run, why
            -- carried on the result itself so concurrent or subsequent
            runs cannot clobber it.  ``None`` when the lane asked for ran.
    """

    __slots__ = ("value", "costs", "finished_at", "querying_host", "extra",
                 "lane_used", "fallback_reason")

    def __init__(self, value: Any, costs: CostAccounting, finished_at: float,
                 querying_host: int, extra: Optional[Dict[str, Any]] = None,
                 lane_used: str = "python",
                 fallback_reason: Optional[str] = None) -> None:
        self.value = value
        self.costs = costs
        self.finished_at = finished_at
        self.querying_host = querying_host
        self.extra = {} if extra is None else extra
        self.lane_used = lane_used
        self.fallback_reason = fallback_reason


class Session:
    """What the event engine knows of one query.

    Attributes:
        qid: the id stamped on every message of the query (the demux key).
        t0: engine time of the query's launch; protocol code sees
            ``engine time - t0``.
        hosts: one protocol state machine per network host, indexed by
            host id (``None`` while the session holds no protocol state).
        sink: the query's private cost accounting.
        sample: the query's realised-delay sampler (``None`` = fixed
            ``delta``).
        termination: query-local instant after which the query's
            stimuli are no longer delivered.
        ends_at: the same instant in engine time.
        querying_host: the host the query is issued at.
        lane: the session's tick lane once the gate admitted it
            (:meth:`EventEngine.start_query`), else ``None``: the query
            then runs per message.

    A fresh session never expires (``termination = ends_at = inf``); the
    query service narrows both at launch.
    """

    __slots__ = ("qid", "t0", "hosts", "sink", "sample", "termination",
                 "ends_at", "querying_host", "lane")

    def __init__(
        self,
        qid: int,
        hosts: Optional[List[ProtocolHost]] = None,
        sink: Optional[CostAccounting] = None,
        sample: Optional[Callable[[int, int, float], float]] = None,
        querying_host: int = 0,
    ) -> None:
        self.qid = qid
        self.querying_host = querying_host
        self.t0 = 0.0
        self.hosts = hosts
        self.sink = sink
        self.sample = sample
        self.termination = inf
        self.ends_at = inf
        self.lane = None

    def step(self, engine: "EventEngine") -> None:
        """The calendar entry of a tick-path session came due: run its
        lane's earliest pending instant and hand the engine the next."""
        engine.lane_stepped(self, self.lane.step())


class EventEngine:
    """The event loop shared by :class:`Simulator` and the query service.

    A subclass says what a QUERY_START event means
    (``_on_query_start(time, event, ctx)``), and ends it in
    :meth:`start_query`: the session's spec hook, or, once the gate
    admitted it, its tick lane, which this loop then steps an instant
    per calendar entry -- the one driver of every in-process lane.
    One whose sessions expire also pushes their ``(ends_at, qid)``
    deadlines and supplies ``_retire_front()`` and
    ``_late(query_id, vtime, dest)``, which the loop reaches only through
    a deadline or a delivery of a session no longer live.

    Args:
        network: the (mutable) dynamic network every session runs on.
        delta: maximum per-hop message delay (the paper's ``delta``):
            the *bound* every protocol's timer math relies on.
        churn: schedule of host failures to apply.
        wireless: when True, a multicast to all neighbors of a host counts
            as one transmission (the sensor-network broadcast medium).
        max_time: hard stop for the engine clock, never NaN or
            negative.  A drain-to-empty run (no ``until``) that reaches it
            with events still pending raises, which catches protocols
            that fail to terminate.
        tracer: structured trace sink (see :mod:`repro.obs.trace`), or
            ``None`` for an untraced run.  With no tracer the loop
            performs a single pointer check per event and nothing else
            -- tracing observes, it never perturbs RNG streams, event
            ordering, or cost accounting.  Trace times
            are query-local and carry the query id, so one trace
            demultiplexes per session.
    """

    def __init__(
        self,
        network: DynamicNetwork,
        delta: float,
        churn: Optional[ChurnSchedule],
        wireless: bool,
        max_time: float,
        tracer: Optional[Tracer],
    ) -> None:
        if not 0 < delta < inf:
            raise ValueError(
                f"delta must be finite and positive, not {delta!r}")
        if not max_time >= 0:  # NaN would turn the backstop off
            raise ValueError(
                f"max_time must be non-negative, not {max_time!r}")
        self.network = network
        self.delta = float(delta)
        self.wireless = wireless
        self.max_time = float(max_time)
        self.clock = SimulationClock()
        self._queue = EventQueue(width=self.delta)
        self._churn = churn = churn or ChurnSchedule.empty()
        # A churn id must name a host of the network.  Past the bitmap a
        # FAIL would raise a bare IndexError mid-drain, and a negative id
        # would fail a host counted from the end.
        slots = network.num_hosts
        for _, host in churn.failures:
            if not 0 <= host < slots:
                raise ValueError(
                    f"churn fails host {host}, outside the {slots} hosts "
                    f"of this network")
        self._churn_scheduled = False
        # qid -> live session (the demux table), and the (ends_at, qid)
        # heap of sessions due to leave it (empty while none expires).
        self._active: Dict[int, Session] = {}
        self._ends_heap: List[Tuple[float, int]] = []
        # Engine-wide tallies (per-query accounting lives on the sinks).
        self.messages_sent = 0
        self.dropped_messages = 0
        self.events_processed = 0
        self.tracer = tracer
        # The last fixed-delay send's send and landing instants: an
        # instant's sends share one landing, computed once.
        self._sent_at = 0.0
        self._lands_at = self.delta

    # ------------------------------------------------------------------
    # Scheduling API used by HostContext
    # ------------------------------------------------------------------
    def session_send(
        self,
        session: Session,
        sender: int,
        dest: int,
        kind: str,
        payload: Mapping[str, Any],
        vnow: float,
        chain_depth: int,
    ) -> bool:
        """Queue one unicast of ``session`` for delivery within ``delta``.

        ``vnow`` is the session's query-local time; the sink is keyed by
        it while the delivery is filed at the corresponding engine time.
        At fixed delay the unicast is a one-destination send of its own
        payload snapshot, which joins the calendar's open batch when it
        shares its key (``EventQueue.push_multicast``); a variable delay
        files it as a bare :class:`Message`.
        """
        network = self.network
        if not network.is_alive(sender):
            return False
        if not network.has_alive_edge(sender, dest):
            return False
        qid = session.qid
        session.sink.record_send(kind, vnow)
        self.messages_sent += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.send(vnow, sender, dest, kind, query_id=qid)
        # The query-local delivery instant is the one a lone query
        # computes; the engine instant only orders the shared calendar.
        sample = session.sample
        if sample is None:
            if vnow != self._sent_at:
                self._sent_at = vnow
                self._lands_at = instant_after(vnow, self.delta, self.delta)
            vdeliver = self._lands_at
            self._queue.push_multicast(
                session.t0 + vdeliver, sender, (dest,), kind, dict(payload),
                vnow, chain_depth, False, qid, vdeliver)
        else:
            vdeliver = vnow + sample(sender, dest, vnow)
            self._queue.push_deliver(
                session.t0 + vdeliver,
                Message(sender, dest, kind, dict(payload), vnow, chain_depth,
                        False, qid, vdeliver))
        return True

    def session_multicast(
        self,
        session: Session,
        sender: int,
        dests: Sequence[int],
        kind: str,
        payload: Mapping[str, Any],
        vnow: float,
        chain_depth: int,
        trusted_dests: bool = False,
    ) -> None:
        """Queue the same message of ``session`` to several neighbors.

        On a wireless medium the whole batch counts as one transmission; on
        a point-to-point medium each destination is a separate message.
        The delivered messages share one payload snapshot (receivers treat
        payloads as read-only), and the cost counters are bumped once per
        batch rather than once per destination.

        Args:
            trusted_dests: set when ``dests`` was just derived from the
                network's own alive-neighbor view (the
                :meth:`~repro.simulation.host.HostContext.send_to_neighbors`
                path), allowing the per-destination liveness re-check to be
                skipped.
        """
        network = self.network
        if not network.is_alive(sender):
            return
        if not trusted_dests:
            neighbors = network.neighbors(sender)
            dests = [dest for dest in dests if dest in neighbors]
        if not dests:
            return
        t0 = session.t0
        shared_payload = dict(payload)
        wireless = self.wireless
        qid = session.qid
        sample = session.sample
        if sample is None:
            # Fixed delay: the whole multicast shares one delivery instant
            # and joins (or opens) one calendar entry: one Message, which
            # ``_drain`` hands to every destination in turn.
            if vnow != self._sent_at:
                self._sent_at = vnow
                self._lands_at = instant_after(vnow, self.delta, self.delta)
            vdeliver = self._lands_at
            self._queue.push_multicast(t0 + vdeliver, sender, dests, kind,
                                       shared_payload, vnow, chain_depth,
                                       wireless, qid, vdeliver)
        else:
            # Variable delay: each destination gets its own realised delay
            # (still at most ``delta``), so messages are filed one by one.
            push_deliver = self._queue.push_deliver
            for dest in dests:
                vdeliver = vnow + sample(sender, dest, vnow)
                push_deliver(
                    t0 + vdeliver,
                    Message(sender, dest, kind, shared_payload, vnow,
                            chain_depth, wireless, qid, vdeliver))
        sink = session.sink
        if wireless:
            # The whole batch is one over-the-air transmission; follow-on
            # group members are tracked separately for the summary.
            sink.record_send(kind, vnow)
            sink.record_wireless_group(len(dests) - 1)
            self.messages_sent += 1
        else:
            sink.record_send_batch(kind, vnow, len(dests))
            self.messages_sent += len(dests)
        tracer = self.tracer
        if tracer is not None:
            tracer.send(vnow, sender, -1, kind, count=len(dests),
                        query_id=qid)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _bound(self, until: Optional[float]) -> float:
        """The engine-time horizon of a run asked to stop at ``until``."""
        return self.max_time if until is None else min(until, self.max_time)

    def _schedule_churn(self) -> None:
        """File the churn schedule's events up to ``max_time``, once: a
        resumed run finds them (or what is left of them) queued."""
        if self._churn_scheduled:
            return
        self._churn_scheduled = True
        limit = self.max_time
        for time, host in self._churn.failures:
            if time <= limit:
                self._queue.push(time, EventKind.FAIL, host=host)

    def _drain(self, until: Optional[float]) -> float:
        """Consume every event due by ``until``; returns the horizon.

        With no ``until`` the loop runs until the calendar queue drains
        (every protocol in this repository terminates via timers, so it
        does) and raises if ``max_time`` is reached first.  With
        ``until``, events beyond the horizon stay queued and a later call
        resumes them.

        The two hot event kinds (message deliveries and timers, >99% of
        traffic) are handled inline and everything else goes through
        :meth:`_dispatch`.  One :class:`HostContext` -- a local, so the
        engine holds no reference cycle -- is reused across stimuli (no
        protocol retains it past the handler call), the clock is advanced
        by direct assignment (the ring pops in non-decreasing time order
        by construction), and the cyclic garbage collector is paused for
        the duration of the loop -- simulation objects are acyclic, so the
        periodic gen-0 scans triggered by the allocation rate are pure
        overhead.  Per popped entry the demux costs one dict lookup for a
        message, one tuple slot for a timer, and the deadline check that
        retires expired sessions.

        At fixed delay an instant's traffic pops as a few batches (a
        500-host WILDFIRE flood: at most four entries per instant).  A
        run of same-key sends -- multicasts, and unicasts as
        one-destination sends -- pops as one
        :class:`~repro.simulation.events._DeliverBatch`, a
        :class:`Message` that names its ``sends``, and is delivered
        here: one engine step, ``weight`` deliveries, each counted in
        ``events_processed``, in exactly the order its deliveries would
        drain filed one by one (see ``EventQueue.pop_due`` for what a
        handler may file meanwhile).  Every destination's handler gets
        that same object, with ``sender`` and ``payload`` rebound per
        send and ``dest`` per delivery, so no handler may keep a message
        past its call (the contract the reused context already states).
        A run of same-key timers pops as one
        :class:`~repro.simulation.events._TimerBatch` and fires at each
        of its hosts in filing order; a timer alone at its key pops as
        its ``(host, name, info)`` tuple.  A late batch is tallied
        through ``_late`` per destination.  A handler that raises
        abandons the rest of its batch with it: the queue no longer
        holds those stimuli, and ``len(queue)`` says so.

        Each delivery is counted straight into its sink's processed
        array, which :meth:`start_query` sizes to cover every host; a
        batch raises the sink's ``max_chain_depth`` once, at its first
        delivered destination and before that handler runs (its
        deliveries share one depth).

        On return every live tick lane settles its flat counters into
        its session's sink (``_TickLane.settle``), so a sink read between
        two drains reads what the spec loop's would.
        """
        import gc

        horizon = self._bound(until)
        queue = self._queue
        pop_due = queue.pop_due
        clock = self.clock
        # The network's packed alive bitmap (a bytearray: one byte per
        # host, flipped in place on failures, so the binding stays valid).
        alive_flags = self.network._alive
        active = self._active
        ends_heap = self._ends_heap
        tracer = self.tracer
        ctx = HostContext(self, None, 0, 0.0, 0)
        events = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                front = pop_due(horizon)
                if front is None:
                    break
                time, entry = front
                clock._now = time
                events += 1
                # Retire sessions whose deadline has strictly passed.
                # Safe: IEEE addition is monotone, so every event of a
                # session with query-local time <= T sits at an engine
                # time <= fl(t0 + T) == the session's heap key, and has
                # therefore already been popped.
                while ends_heap and ends_heap[0][0] < time:
                    self._retire_front()
                if entry.__class__ is Message:
                    session = active.get(entry.query_id)
                    # The deadline check runs in *query-local* time (exact,
                    # the comparison a lone run's drain horizon makes).
                    if session is None or entry.vtime > session.termination:
                        self._late(entry.query_id, entry.vtime, entry.dest)
                        continue
                    dest = entry.dest
                    # Messages to hosts that failed in flight are lost.
                    if not alive_flags[dest]:
                        self.dropped_messages += 1
                        session.sink.record_dropped()
                        if tracer is not None:
                            tracer.drop(entry.vtime, dest, entry.query_id)
                        continue
                    chain_depth = entry.chain_depth
                    sink = session.sink
                    sink._processed[dest] += 1
                    if chain_depth > sink.max_chain_depth:
                        sink.max_chain_depth = chain_depth
                    if tracer is not None:
                        tracer.deliver(entry.vtime, entry.sender, dest,
                                       entry.kind, chain_depth,
                                       entry.sent_at, entry.query_id)
                    ctx.session = session
                    ctx.host_id = dest
                    ctx.now = entry.vtime
                    ctx._chain_depth = chain_depth
                    session.hosts[dest].on_message(entry, ctx)
                elif entry.__class__ is _DeliverBatch:
                    # A run of same-key sends, one Message: the
                    # unicast's statements per destination, send by
                    # send, with what the deliveries share (session,
                    # deadline, clock, sink, the message itself) read
                    # once.  Kept beside the unicast rather than folded
                    # into it: the one-destination loop costs a
                    # variable-delay run, all unicasts, a few percent.
                    events += entry.weight - 1
                    qid = entry.query_id
                    vtime = entry.vtime
                    session = active.get(qid)
                    if session is None or vtime > session.termination:
                        for _, dests, _ in entry.sends:
                            for dest in dests:
                                self._late(qid, vtime, dest)
                        continue
                    chain_depth = entry.chain_depth
                    sink = session.sink
                    processed = sink._processed
                    deeper = chain_depth > sink.max_chain_depth
                    hosts = session.hosts
                    ctx.session = session
                    ctx.now = vtime
                    ctx._chain_depth = chain_depth
                    for sender, dests, payload in entry.sends:
                        entry.sender = sender
                        entry.payload = payload
                        for dest in dests:
                            if not alive_flags[dest]:
                                self.dropped_messages += 1
                                sink.record_dropped()
                                if tracer is not None:
                                    tracer.drop(vtime, dest, qid)
                                continue
                            processed[dest] += 1
                            if deeper:
                                sink.max_chain_depth = chain_depth
                                deeper = False
                            if tracer is not None:
                                tracer.deliver(vtime, sender, dest,
                                               entry.kind, chain_depth,
                                               entry.sent_at, qid)
                            ctx.host_id = dest
                            entry.dest = dest
                            hosts[dest].on_message(entry, ctx)
                elif entry.__class__ is tuple:  # a timer
                    host, name, info = entry
                    if not alive_flags[host]:
                        continue
                    data, chain_depth, session, vfire = info
                    # A session that declared has released its hosts.
                    if session.hosts is None or vfire > session.termination:
                        continue
                    if tracer is not None:
                        tracer.timer(vfire, host, name, session.qid)
                    ctx.session = session
                    ctx.host_id = host
                    ctx.now = vfire
                    ctx._chain_depth = chain_depth
                    session.hosts[host].on_timer(name, data, ctx)
                elif entry.__class__ is _TimerBatch:
                    # A run of same-key timers: the lone timer's
                    # statements per host, with what they share read
                    # once (a session releases its hosts only between
                    # two pops, when it retires).
                    timed = entry.hosts
                    events += len(timed) - 1
                    data, chain_depth, session, vfire = entry.info
                    hosts = session.hosts
                    if hosts is None or vfire > session.termination:
                        continue
                    name = entry.name
                    ctx.session = session
                    ctx.now = vfire
                    ctx._chain_depth = chain_depth
                    for host in timed:
                        if not alive_flags[host]:
                            continue
                        if tracer is not None:
                            tracer.timer(vfire, host, name, session.qid)
                        ctx.host_id = host
                        hosts[host].on_timer(name, data, ctx)
                else:
                    self._dispatch(time, entry, ctx)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.events_processed += events
        for session in active.values():
            if session.lane is not None:
                session.lane.settle(session.sink)
        if until is None and queue:
            raise RuntimeError(
                f"run stopped at max_time={self.max_time} with {len(queue)} "
                f"events still pending; the protocol did not terminate")
        return horizon

    def start_query(self, session: Session, kernel, time: float,
                    ctx: HostContext) -> None:
        """Start ``session`` at engine ``time``, the one launch of every
        session: with the gate's ``kernel``, give it its tick lane (run
        the lane's instant 0 now and file the next instant); with
        ``None``, run the query-start hook at the querying host.  Either
        way the session's sink first grows to cover every host of the
        network, which the drain's in-place counts rely on."""
        session.sink.reserve(self.network.num_hosts)
        if kernel is not None:
            session.lane = _TickLane(self, session, kernel)
            self.lane_stepped(session, session.lane.start())
            return
        host = session.querying_host
        ctx.session = session
        ctx.host_id = host
        ctx.now = time - session.t0
        ctx._chain_depth = 0
        session.hosts[host].on_query_start(ctx)

    def lane_stepped(self, session: Session, v_next: float) -> None:
        """Book the instant ``session``'s lane just ran and file its next.

        The instant's sends and drops reach the session's sink and the
        engine tallies now, so a sliced drive reads what one drain
        would.  The lane works in query-local time; only the calendar
        key is ``t0 + v_next``, at CUSTOM priority -- after the
        QUERY_STARTs and before the FAILs of that engine instant, the
        only kinds a tick-path session can share one with.  A finished
        lane (``v_next`` is ``inf``) files nothing.  Once no instant is
        left inside the window of a session that expires, the batch
        still in flight would have landed late: it goes to the calendar
        as the deliveries it is, for ``_late`` to tally when they land.
        """
        lane = session.lane
        sent, dropped = lane.flush_tallies(session.sink)
        self.messages_sent += sent
        self.dropped_messages += dropped
        t0 = session.t0
        if v_next < inf and v_next <= session.termination:
            self._queue.push(t0 + v_next, EventKind.CUSTOM,
                             data=session.step)
            return
        v_land, records, sent_at = lane.take_in_flight()
        for _, sender, dests, kind, _, _, depth in records:
            self._queue.push_multicast(
                t0 + v_land, sender, dests, kind, None, sent_at, depth,
                self.wireless, session.qid, v_land)

    def _dispatch(self, time: float, event: Event, ctx: HostContext) -> None:
        """Handle one event the drain does not inline.

        An event no branch handles -- a CUSTOM whose ``data`` is not
        callable -- raises :class:`ValueError` rather than vanish from
        the run (``EventQueue.push`` refuses the other two kinds it
        could carry, DELIVER and TIMER, at the call).
        """
        kind = event.kind
        if kind is EventKind.QUERY_START:
            self._on_query_start(time, event, ctx)
        elif kind is EventKind.FAIL:
            host = event.host
            if not self.network.is_alive(host):
                return
            self.network.fail_host(host, time)
            if self.tracer is not None:
                self.tracer.fail(time, host)
            for session in self._active.values():
                # Sessions riding a shared flood hold no host table (the
                # flood's own session sees the failure).  A tick lane's
                # kernel re-mirrors the host after the hook: WILDFIRE's
                # deadline mirror carries death, so its deliveries read
                # no alive bitmap.
                if time <= session.ends_at and session.hosts is not None:
                    session.hosts[host].on_fail(time - session.t0)
                    if session.lane is not None:
                        session.lane.kernel.refresh_host(host)
        elif kind is EventKind.CUSTOM and callable(event.data):
            event.data(self)
        else:
            raise ValueError(
                f"no handler for a {kind.name} event at t={time!r}")


class Simulator(EventEngine):
    """Event-driven executor for one aggregation query on a dynamic network.

    Args:
        network: the (mutable) dynamic network the protocol runs on.
        hosts: one protocol state machine per host id; the list is indexed
            by host id and must cover every host in the network.
        querying_host: the host at which the query is issued at time 0.
        delta: maximum per-hop message delay (the paper's ``delta``).
            This is the *bound* every protocol's timer math relies on;
            realised delays are drawn from ``delay_model`` and never
            exceed it.
        churn: schedule of host failures to apply during the run.
        wireless: when True, a multicast to all neighbors of a host counts
            as one transmission (the sensor-network broadcast medium).
        max_time: hard stop for the simulation clock; a drain-to-empty
            run (no ``until``) that reaches it with events still pending
            raises, which catches protocols that fail to terminate.
        delay_model: realised per-message delay policy (see
            :mod:`repro.simulation.delay`); ``None`` or a spec string
            resolving to ``fixed`` selects the historical exact-``delta``
            fast path.  A model instance must carry ``bound == delta``.
        stats: a ready-made
            :class:`~repro.simulation.stats.CostAccounting` to account
            into, or ``None`` for a fresh one.
        tracer: structured trace sink (see :class:`EventEngine`).
        lane: kernel lane -- ``"vector"`` (the default,
            :data:`~repro.simulation.vector_lane.DEFAULT_LANE`) asks for
            the per-tick batch lane (:mod:`~repro.simulation.vector_lane`),
            whose gate engages it when the run is supported (fixed delay,
            nothing queued before the first ``run()``,
            kernel-supported hosts; traced or not) and otherwise falls
            back to the spec loop, recording why on the result's
            ``fallback_reason``.  ``"python"`` requests the spec loop
            itself -- one event per iteration, the executable spec every
            lane is locked to.  ``"sharded"`` asks for the multiprocess
            epoch-synchronous lane (:mod:`~repro.simulation.sharded`),
            which partitions the host range across ``shards`` worker
            processes under the same gate contract.  ``lane_used``
            (here and on the result) records which lane executed.
        shards: worker-process count for the sharded lane (ignored by the
            other lanes); ``1`` runs the sharded protocol in-process.
    """

    def __init__(
        self,
        network: DynamicNetwork,
        hosts: Sequence[ProtocolHost],
        querying_host: int,
        delta: float = 1.0,
        churn: Optional[ChurnSchedule] = None,
        wireless: bool = False,
        max_time: float = 1_000_000.0,
        delay_model: Union[DelayModel, str, None] = None,
        stats: Union[CostAccounting, str, None] = None,
        tracer: Optional[Tracer] = None,
        lane: str = DEFAULT_LANE,
        shards: int = 1,
    ) -> None:
        if len(hosts) < network.num_hosts:
            raise ValueError(
                f"expected at least {network.num_hosts} protocol hosts, got {len(hosts)}"
            )
        if not network.is_alive(querying_host):
            raise ValueError("the querying host must be alive at time 0")
        super().__init__(network, delta, churn, wireless, max_time, tracer)
        self.hosts: List[ProtocolHost] = list(hosts)
        self.querying_host = querying_host
        self.costs = make_stats_sink(stats, num_hosts=network.num_hosts,
                                     tick_width=self.delta)
        # ``None`` marks the fixed-delay fast path: deliveries land exactly
        # ``delta`` after their send and an instant's same-key sends share one
        # calendar entry.
        self.delay_model = delay_model_from_spec(delay_model, self.delta)
        #: The run's one session: launched at 0, never retired.
        self.session = Session(
            0, self.hosts, self.costs,
            None if self.delay_model is None else self.delay_model.sample,
            querying_host=querying_host)
        self._active[0] = self.session
        self.lane = validate_lane(lane)
        if int(shards) < 1:
            raise ValueError("shards must be at least 1")
        self.shards = int(shards)
        #: Which lane :meth:`run` actually executed (``None`` before it),
        #: and why not the one asked for.
        self.lane_used: Optional[str] = None
        self._fallback_reason: Optional[str] = None

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Execute the protocol and return the querying host's result.

        The first call consults the lane gate, then primes the queue
        once (churn schedule, query start); a later call never re-primes
        and resumes the events left beyond the earlier horizon.  The
        spec loop and the vector lane are both drained from the
        calendar, so a run sliced into several calls equals one call to
        the last horizon.  The sharded lane is the exception: it runs to
        its horizon in one go, on its own clock, and a later call finds
        nothing queued and returns the same result.

        Args:
            until: optional simulation-time horizon; when omitted the run
                continues until the event queue drains (all protocols in
                this repository terminate via timers, so the queue always
                drains).
        """
        if self.lane_used is None:
            if self.lane != "python":
                # Tick lanes (in-process vector, multiprocess epoch-
                # synchronous sharded), consulted before anything is
                # queued: a refusing gate returns (None, reason) having
                # touched nothing, and the spec loop takes the run.
                from repro.simulation import sharded, vector_lane

                lane = vector_lane if self.lane == "vector" else sharded
                result, self._fallback_reason = lane.maybe_run(self, until)
                if result is not None:
                    self.lane_used = result.lane_used = self.lane
                    return result
            self._prime(None)
        self._drain(until)
        return SimulationResult(
            value=self.hosts[self.querying_host].local_result(),
            costs=self.costs,
            finished_at=self.clock.now,
            querying_host=self.querying_host,
            lane_used=self.lane_used,
            fallback_reason=self._fallback_reason,
        )

    def _prime(self, kernel) -> None:
        """File the churn schedule and the query start, once.  The start
        launches ``kernel``'s tick lane, or runs the spec hook when
        ``kernel`` is ``None``."""
        self.lane_used = "python" if kernel is None else self.lane
        self._schedule_churn()
        self._queue.push(0.0, EventKind.QUERY_START, host=self.querying_host,
                         data=kernel)

    def _on_query_start(self, time: float, event: Event,
                        ctx: HostContext) -> None:
        if self.network.is_alive(event.host):
            self.start_query(self.session, event.data, time, ctx)

