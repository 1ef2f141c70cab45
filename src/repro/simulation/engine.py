"""The discrete-event simulation engine.

The :class:`Simulator` drives a set of :class:`~repro.simulation.host.ProtocolHost`
state machines over a :class:`~repro.simulation.network.DynamicNetwork`,
delivering messages within the per-hop delay bound ``delta`` (realised
delays come from a pluggable :class:`~repro.simulation.delay.DelayModel`;
the default is the paper's worst case of exactly ``delta`` per hop),
executing a churn schedule, and accounting costs through a pluggable
:class:`~repro.simulation.stats.StatsSink` as defined in the paper's
Section 6.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.simulation.churn import ChurnSchedule
from repro.simulation.clock import SimulationClock
from repro.simulation.delay import DelayModel, delay_model_from_spec
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.host import HostContext, ProtocolHost
from repro.simulation.messages import Message
from repro.simulation.network import DynamicNetwork
from repro.simulation.stats import CostAccounting, StatsSink, make_stats_sink
from repro.simulation.vector_lane import DEFAULT_LANE, validate_lane
from repro.obs.trace import Tracer, default_tracer


@dataclass
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

    value: Any
    costs: StatsSink
    finished_at: float
    querying_host: int
    extra: Dict[str, Any] = field(default_factory=dict)
    lane_used: str = "python"
    fallback_reason: Optional[str] = None


class Simulator:
    """Event-driven executor for aggregation protocols on dynamic networks.

    Args:
        network: the (mutable) dynamic network the protocol runs on.
        hosts: one protocol state machine per host id; the list is indexed
            by host id and must cover every host in the network.
        querying_host: the host at which the query is issued at time 0.
        delta: maximum per-hop message delay (the paper's ``delta``).
            This is the *bound* every protocol's timer math relies on;
            realised delays are drawn from ``delay_model`` and never
            exceed it.
        churn: schedule of host failures/joins to apply during the run.
        wireless: when True, a multicast to all neighbors of a host counts
            as one transmission (the sensor-network broadcast medium).
        max_time: hard stop for the simulation clock; runs longer than this
            raise, which catches protocols that fail to terminate.
        delay_model: realised per-message delay policy (see
            :mod:`repro.simulation.delay`); ``None`` or a spec string
            resolving to ``fixed`` selects the historical exact-``delta``
            fast path.  A model instance must carry ``bound == delta``.
        stats: cost accounting sink -- ``"full"``, ``"streaming"`` for
            the bounded-memory accumulator, a ready-made
            :class:`~repro.simulation.stats.StatsSink`, or ``None`` for
            the process-wide default mode (``"full"`` unless changed).
        tracer: structured trace sink (see :mod:`repro.obs.trace`);
            ``None`` resolves the process-wide default *once* here.  With
            no tracer bound the run loop performs a single pointer check
            per event and nothing else -- tracing observes, it never
            perturbs RNG streams, event ordering, or cost accounting.
        lane: kernel lane -- ``"vector"`` (the default,
            :data:`~repro.simulation.vector_lane.DEFAULT_LANE`) asks for
            the per-tick batch lane (:mod:`~repro.simulation.vector_lane`),
            whose gate engages it when the run is supported (fixed delay,
            no joins, no tracer, kernel-supported hosts) and otherwise
            falls back to the spec loop, recording why on the result's
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
        stats: Union[StatsSink, str, None] = None,
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
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.network = network
        self.hosts: List[ProtocolHost] = list(hosts)
        self.querying_host = querying_host
        self.delta = float(delta)
        self.wireless = wireless
        self.max_time = float(max_time)
        self.clock = SimulationClock()
        self.costs = make_stats_sink(stats, num_hosts=network.num_hosts,
                                     tick_width=self.delta)
        # ``None`` marks the fixed-delay fast path: deliveries land exactly
        # ``delta`` after their send and multicasts share one ring slot.
        self.delay_model = delay_model_from_spec(delay_model, self.delta)
        self._sample_delay = (
            None if self.delay_model is None else self.delay_model.sample
        )
        self._queue = EventQueue(width=self.delta)
        self._churn = churn or ChurnSchedule.empty()
        self._stopped = False
        self._fail_callbacks: List[Callable[[int, float], None]] = []
        self.tracer = tracer if tracer is not None else default_tracer()
        self.lane = validate_lane(lane)
        if int(shards) < 1:
            raise ValueError("shards must be at least 1")
        self.shards = int(shards)
        #: Which lane :meth:`run` actually executed (``None`` before it).
        self.lane_used: Optional[str] = None

    # ------------------------------------------------------------------
    # Scheduling API used by HostContext
    # ------------------------------------------------------------------
    def submit_message(
        self,
        sender: int,
        dest: int,
        kind: str,
        payload: Mapping[str, Any],
        time: float,
        chain_depth: int,
    ) -> bool:
        """Queue a unicast message for delivery within ``delta`` time."""
        network = self.network
        if not network.is_alive(sender):
            return False
        if not network.has_alive_edge(sender, dest):
            return False
        message = Message(
            sender=sender,
            dest=dest,
            kind=kind,
            payload=dict(payload),
            sent_at=time,
            chain_depth=chain_depth,
        )
        self.costs.record_send(kind, time)
        tracer = self.tracer
        if tracer is not None:
            tracer.send(time, sender, dest, kind)
        sample = self._sample_delay
        delay = self.delta if sample is None else sample(sender, dest, time)
        self._queue.push_deliver(time + delay, message)
        return True

    def submit_multicast(
        self,
        sender: int,
        dests: Sequence[int],
        kind: str,
        payload: Mapping[str, Any],
        time: float,
        chain_depth: int,
        trusted_dests: bool = False,
    ) -> None:
        """Queue the same message to several neighbors.

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
        shared_payload = dict(payload)
        wireless = self.wireless
        sample = self._sample_delay
        if sample is None:
            # Fixed delay: the whole multicast shares one delivery instant
            # and lands in the ring as a single lazily expanded batch (no
            # per-destination Message exists until its delivery pops).
            self._queue.push_multicast(time + self.delta, sender, dests,
                                       kind, shared_payload, time,
                                       chain_depth, wireless)
        else:
            # Variable delay: each destination gets its own realised delay
            # (still at most ``delta``), so messages are filed one by one.
            push_deliver = self._queue.push_deliver
            for dest in dests:
                push_deliver(
                    time + sample(sender, dest, time),
                    Message(sender, dest, kind, shared_payload, time,
                            chain_depth, wireless))
        if wireless:
            # The whole batch is one over-the-air transmission; follow-on
            # group members are tracked separately for the summary.
            self.costs.record_send(kind, time)
            self.costs.record_wireless_group(len(dests) - 1)
        else:
            self.costs.record_send_batch(kind, time, len(dests))
        tracer = self.tracer
        if tracer is not None:
            tracer.send(time, sender, -1, kind, count=len(dests))

    def schedule_timer(
        self,
        host: int,
        time: float,
        name: str,
        data: Any,
        chain_depth: int,
    ) -> None:
        """Schedule a timer event for ``host`` at absolute ``time``."""
        self._queue.push(
            time,
            EventKind.TIMER,
            host=host,
            timer_name=name,
            data=(data, chain_depth),
        )

    def on_host_failure(self, callback: Callable[[int, float], None]) -> None:
        """Register an observer invoked as ``callback(host, time)`` on failures."""
        self._fail_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Execute the protocol and return the querying host's result.

        Args:
            until: optional simulation-time horizon; when omitted the run
                continues until the event queue drains (all protocols in
                this repository terminate via timers, so the queue always
                drains).
        """
        horizon = min(until, self.max_time) if until is not None else self.max_time
        self._schedule_churn(horizon)
        self._queue.push(0.0, EventKind.QUERY_START, host=self.querying_host)

        fallback_reason: Optional[str] = None
        if self.lane != "python":
            # Tick lanes (in-process vector, multiprocess epoch-
            # synchronous sharded): each returns (None, reason), having
            # consumed nothing, when its gate refuses the run, in which
            # case the spec loop below proceeds untouched.
            from repro.simulation import sharded, vector_lane

            lane = vector_lane if self.lane == "vector" else sharded
            result, fallback_reason = lane.maybe_run(self, horizon)
            if result is not None:
                self.lane_used = result.lane_used = self.lane
                return result
        self.lane_used = "python"

        # The run loop handles the two hot event kinds (message deliveries
        # and timers, >99% of traffic) inline and routes everything else
        # through ``_dispatch``; semantics are identical to dispatching all
        # kinds, this just removes two function-call hops per event.  One
        # HostContext is reused across stimuli (no protocol retains it past
        # the handler call), the clock is advanced by direct assignment
        # (the ring pops in non-decreasing time order by construction), and
        # the cyclic garbage collector is paused for the duration of the
        # loop -- simulation objects are acyclic, so the periodic gen-0
        # scans triggered by the allocation rate are pure overhead.
        import gc

        queue = self._queue
        pop_due = queue.pop_due
        clock = self.clock
        network = self.network
        # The network's packed alive bitmap (a bytearray: one byte per
        # host, appended in place on joins, so the binding stays valid).
        alive_flags = network._alive
        hosts = self.hosts
        costs = self.costs
        # The default full accounting keeps its per-host Counter inlined in
        # the loop (one dict bump per message); any other sink goes through
        # its record_processed hook, which streaming sinks keep O(1).
        if type(costs) is CostAccounting:
            processed = costs.messages_processed
            record_processed = None
        else:
            processed = None
            record_processed = costs.record_processed
        timer = EventKind.TIMER
        tracer = self.tracer
        ctx = HostContext(self, 0, 0.0, 0)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while not self._stopped:
                front = pop_due(horizon)
                if front is None:
                    break
                time, entry = front
                clock._now = time
                if entry.__class__ is Message:
                    dest = entry.dest
                    # Messages to hosts that failed in flight are lost.
                    if not alive_flags[dest]:
                        costs.dropped_messages += 1
                        if tracer is not None:
                            tracer.drop(time, dest)
                        continue
                    chain_depth = entry.chain_depth
                    if processed is not None:
                        processed[dest] += 1
                        if chain_depth > costs.max_chain_depth:
                            costs.max_chain_depth = chain_depth
                    else:
                        record_processed(dest, chain_depth)
                    if tracer is not None:
                        tracer.deliver(time, entry.sender, dest, entry.kind,
                                       chain_depth, entry.sent_at)
                    ctx.host_id = dest
                    ctx.now = time
                    ctx._chain_depth = chain_depth
                    hosts[dest].on_message(entry, ctx)
                elif entry.kind is timer:
                    host = entry.host
                    if not alive_flags[host]:
                        continue
                    info = entry.data
                    if info is not None:
                        data, chain_depth = info
                    else:
                        data = None
                        chain_depth = 0
                    if tracer is not None:
                        tracer.timer(time, host, entry.timer_name or "")
                    ctx.host_id = host
                    ctx.now = time
                    ctx._chain_depth = chain_depth
                    hosts[host].on_timer(entry.timer_name or "", data, ctx)
                else:
                    self._dispatch(entry)
        finally:
            if gc_was_enabled:
                gc.enable()

        finished = self.clock.now
        value = self.hosts[self.querying_host].local_result()
        return SimulationResult(
            value=value,
            costs=self.costs,
            finished_at=finished,
            querying_host=self.querying_host,
            fallback_reason=fallback_reason,
        )

    def stop(self) -> None:
        """Stop the run after the current event (used by custom handlers)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _schedule_churn(self, horizon: float) -> None:
        for time, host in self._churn.failures:
            if time <= horizon:
                self._queue.push(time, EventKind.FAIL, host=host)
        for join in self._churn.joins:
            if join.time <= horizon:
                self._queue.push(
                    join.time, EventKind.JOIN, data=tuple(join.neighbors)
                )

    def _dispatch(self, event: Event) -> None:
        if event.kind is EventKind.QUERY_START:
            self._handle_query_start(event)
        elif event.kind is EventKind.DELIVER:
            self._handle_deliver(event)
        elif event.kind is EventKind.TIMER:
            self._handle_timer(event)
        elif event.kind is EventKind.FAIL:
            self._handle_fail(event)
        elif event.kind is EventKind.JOIN:
            self._handle_join(event)
        elif event.kind is EventKind.CUSTOM:
            handler = event.data
            if callable(handler):
                handler(self)

    def _handle_query_start(self, event: Event) -> None:
        host = event.host
        assert host is not None
        if not self.network.is_alive(host):
            return
        ctx = HostContext(self, host, self.clock.now, chain_depth=0)
        self.hosts[host].on_query_start(ctx)

    def _handle_deliver(self, event: Event) -> None:
        message = event.message
        assert message is not None
        dest = message.dest
        # Messages to hosts that failed while the message was in flight are
        # lost; the sender may detect this via heartbeats but the base model
        # simply drops them.
        if not self.network.is_alive(dest):
            self.costs.record_dropped()
            if self.tracer is not None:
                self.tracer.drop(self.clock.now, dest)
            return
        self.costs.record_processed(dest, message.chain_depth)
        if self.tracer is not None:
            self.tracer.deliver(self.clock.now, message.sender, dest,
                                message.kind, message.chain_depth,
                                message.sent_at)
        ctx = HostContext(self, dest, self.clock.now, chain_depth=message.chain_depth)
        self.hosts[dest].on_message(message, ctx)

    def _handle_timer(self, event: Event) -> None:
        host = event.host
        assert host is not None
        if not self.network.is_alive(host):
            return
        info = event.data
        data, chain_depth = info if info is not None else (None, 0)
        ctx = HostContext(self, host, self.clock.now, chain_depth=chain_depth)
        self.hosts[host].on_timer(event.timer_name or "", data, ctx)

    def _handle_fail(self, event: Event) -> None:
        host = event.host
        assert host is not None
        if not self.network.is_alive(host):
            return
        self.network.fail_host(host, self.clock.now)
        if self.tracer is not None:
            self.tracer.fail(self.clock.now, host)
        self.hosts[host].on_fail(self.clock.now)
        for callback in self._fail_callbacks:
            callback(host, self.clock.now)

    def _handle_join(self, event: Event) -> None:
        neighbors = [
            h for h in (event.data or ()) if self.network.is_alive(h)
        ]
        if not neighbors:
            return
        new_id = self.network.join_host(neighbors, self.clock.now)
        if self.tracer is not None:
            self.tracer.join(self.clock.now, new_id)
        # Joining hosts get a default protocol state cloned from the factory
        # attached by the experiment driver; if none was provided the host
        # silently ignores all traffic.
        factory = getattr(self, "join_host_factory", None)
        if factory is not None:
            self.hosts.append(factory(new_id))
        else:
            self.hosts.append(InertHost(new_id))


class InertHost(ProtocolHost):
    """A host that ignores every stimulus.

    Used as the placeholder state machine for hosts that join mid-run
    without a ``join_host_factory``, and by the query service to pad a
    session's host table for network hosts that exist but do not
    participate in that query (e.g. hosts that joined before the query
    launched)."""

    __slots__ = ()

    def __init__(self, host_id: int) -> None:
        super().__init__(host_id, value=0.0)

    def on_query_start(self, ctx: HostContext) -> None:  # pragma: no cover
        return

    def on_message(self, message: Message, ctx: HostContext) -> None:
        return
