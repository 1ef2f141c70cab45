"""The query service's engine: many sessions on the one event loop.

:class:`MuxEngine` is the :class:`~repro.simulation.engine.EventEngine`
-- the loop, the submit paths, churn scheduling and FAIL fan-out
that a solo :class:`~repro.simulation.engine.Simulator` runs with one
session -- plus what only a multi-tenant service has:

* the QUERY_START control plane: shared-flood subscription, admission
  control, the lazy launch of the session's protocol state, then the
  lane gate (:func:`~repro.simulation.vector_lane.plan_run`, the one a
  solo run consults).  A session it admits gets its own tick lane
  through the launch a solo run uses
  (:meth:`~repro.simulation.engine.EventEngine.start_query`: one
  calendar entry per *instant* of its query-local clock, instead of one
  per message); a session it refuses (variable delay, hosts no kernel
  drives) runs per message as before, with the reason on its
  row.  Either way the calendar is the only ordering authority:
  QUERY_START, FAIL and retirement are where they were, and a FAIL fans
  out to the host objects the kernels mutate;
* retirement: sessions leave the demux table the moment simulation time
  passes their termination instant -- their declared value and cost sink
  are kept, their per-host protocol state (the dominant memory cost at
  10k+ hosts) is released -- so resident state is proportional to the
  number of *concurrently active* queries, not to the total served;
* late-delivery tallies: messages of a retired session still in flight
  are counted as ``late_messages`` and dropped without waking protocol
  code (a lane's leftovers are filed as the deliveries they are once
  its window holds no further instant, so they are tallied when they
  would have landed);
* per-tenant queue depth -- calendar entries plus what each lane holds,
  in the same weights.

Per-session state (seed stream, delay-model stream, cost sink, virtual
clock) is fully private, so the stimulus sequence one query observes is
independent of what other queries are doing on the same substrate --
which is what makes per-query results bit-identical to solo runs and
reproducible under any interleaving.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.obs.trace import Tracer
from repro.service.session import QuerySession, QueryStatus
from repro.simulation.churn import ChurnSchedule
from repro.simulation.engine import EventEngine
from repro.simulation.events import (
    Event, EventKind, _DeliverBatch, _TimerBatch)
from repro.simulation.host import HostContext
from repro.simulation.messages import Message
from repro.simulation.network import DynamicNetwork
from repro.simulation.vector_lane import plan_run


class MuxEngine(EventEngine):
    """Event-driven executor multiplexing query sessions on one network.

    Args:
        network: the shared dynamic network all sessions run on.
        delta: the per-hop delay bound every session's timer math uses.
        churn: service-wide schedule of host failures.
        wireless: broadcast-medium accounting (shared by all sessions).
        max_time: hard stop for the engine clock (runaway backstop: a
            drain-to-empty :meth:`run` that reaches it with events still
            pending raises).
        tracer: structured trace sink (``None`` resolves the process
            default once; trace times are session *virtual* times plus
            the query id, so one trace demultiplexes per tenant).
    """

    def __init__(
        self,
        network: DynamicNetwork,
        delta: float = 1.0,
        churn: Optional[ChurnSchedule] = None,
        wireless: bool = False,
        max_time: float = 1_000_000.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(network, delta, churn, wireless, max_time, tracer)
        self.late_messages = 0
        # Introspection: high-water mark of concurrently live sessions,
        # the order sessions left the demux table (declared), and late
        # deliveries per query (only bumped on the rare late path).
        self.max_active_sessions = 0
        self.retired_order: List[int] = []
        self.late_by_query: Dict[int, int] = {}
        # Optional control-plane hooks, installed by the service:
        # a SharedFloodCache and/or an AdmissionController.  Both sit on
        # the QUERY_START dispatch path only -- the hot message/timer
        # loop is untouched when they are off.
        self.sharing = None
        self.admission = None

    # ------------------------------------------------------------------
    # Session scheduling
    # ------------------------------------------------------------------
    def schedule_session(self, session: QuerySession) -> None:
        """File a session's launch into the calendar queue.

        QUERY_START outranks every other event kind at the same instant,
        so a query launching at ``t`` sees all of ``t``'s traffic -- the
        same ordering a solo run gives its time-0 start event.
        """
        self._queue.push(session.launch_at, EventKind.QUERY_START,
                         data=session)

    @property
    def active_sessions(self) -> int:
        """Number of sessions currently holding live protocol state."""
        return len(self._active)

    def pending_events(self) -> int:
        return len(self._queue)

    def queue_depth_by_session(self) -> Dict[int, int]:
        """Pending queued work per query id, computed on demand.

        Walks the calendar queue's live entries (never the drain path):
        bare messages count 1 under their ``query_id``, send batches
        count their destinations, and timers (one, or a batch counting
        its hosts) route on the session they were filed with.  This is
        the per-tenant queue-depth signal the admission-control roadmap
        item needs.
        """
        depths: Dict[int, int] = {}
        for entry, weight in self._queue.iter_pending():
            cls = entry.__class__
            if cls is Message or cls is _DeliverBatch:
                qid = entry.query_id
            elif cls is tuple:  # a timer: (host, name, info)
                qid = entry[2][2].qid
            elif cls is _TimerBatch:
                qid = entry.info[2].qid
            else:
                continue
            depths[qid] = depths.get(qid, 0) + weight
        # A tick-path session's work sits in its lane, not the calendar
        # (which holds one entry for its next instant): count it with
        # the calendar's own weights, so the admission gates trip where
        # they would on the spec loop.
        for qid, session in self._active.items():
            held = session.lane.pending() if session.lane is not None else 0
            if held:
                depths[qid] = depths.get(qid, 0) + held
        return depths

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Drain the shared event loop and return the final engine time.

        With no ``until`` the loop runs until the calendar queue drains
        (every submitted query has launched, run to its deadline, and
        stopped producing traffic).  With ``until``, events beyond the
        horizon stay queued and a later ``run`` call resumes them, which
        lets drivers interleave simulation with submission; either way a
        tick-path session's sink then reads what its spec loop's would.
        """
        self._schedule_churn()
        horizon = self._drain(until)
        # The drain consumed every event at time <= horizon, so any
        # session whose deadline lies within the horizon is final --
        # declare it even if no later event popped to trigger retirement
        # (a horizon-bounded drive must leave poll() accurate).
        ends_heap = self._ends_heap
        while ends_heap and ends_heap[0][0] <= horizon:
            self._retire_front()
        if not self._queue:
            # Queue drained: no stimulus can ever reach a session again,
            # so every running query's state is final -- declare them all.
            for qid in list(self._active):
                self._retire(qid)
            ends_heap.clear()
        return self.clock.now

    # ------------------------------------------------------------------
    # Internals (the hooks the shared loop calls)
    # ------------------------------------------------------------------
    def _retire_front(self) -> None:
        self._retire(heapq.heappop(self._ends_heap)[1])

    def _retire(self, qid: int) -> None:
        """Declare a session, drop it from the demux table and run the
        control-plane retirement hooks."""
        session = self._active.pop(qid, None)
        if session is None:
            return
        session.finalize()
        if self.sharing is not None:
            self.sharing.on_retired(session)
        if self.admission is not None:
            self.admission.charge(session)
        self.retired_order.append(qid)
        if self.tracer is not None:
            self.tracer.session(session.termination, qid, "declare",
                                session.value)

    def _late(self, qid: int, vtime: float, dest: int) -> None:
        """Tally a delivery whose query already declared: a solo run
        would have left it unconsumed."""
        self.late_messages += 1
        late = self.late_by_query
        late[qid] = late.get(qid, 0) + 1
        if self.tracer is not None:
            self.tracer.late(vtime, dest, qid)

    def _enroll(self, session: QuerySession) -> None:
        """Give a session its demux slot until its deadline."""
        self._active[session.qid] = session
        if len(self._active) > self.max_active_sessions:
            self.max_active_sessions = len(self._active)
        heapq.heappush(self._ends_heap, (session.ends_at, session.qid))

    def _on_query_start(self, time: float, event: Event,
                        ctx: HostContext) -> None:
        session = event.data
        sharing = self.sharing
        if sharing is not None:
            leader = sharing.try_subscribe(session, time)
            if leader is not None:
                # Shared-flood hit: ride the in-flight computation
                # instead of launching another flood.  The session
                # still occupies a demux slot until its own deadline
                # so retirement order and residency stay faithful.
                sharing.hits += 1
                session.attach_shared(leader, time)
                self._enroll(session)
                if self.tracer is not None:
                    self.tracer.session(
                        0.0, session.qid, "subscribe",
                        f"leader={leader.qid}")
                return
        admission = self.admission
        if admission is not None and admission.decide(self, session, time):
            return
        try:
            launched = session.launch(self, time)
        except Exception as exc:
            # A session that cannot materialise (bad combiner shape,
            # protocol construction error) fails alone; aborting the
            # shared loop would strand every other tenant.
            session.status = QueryStatus.FAILED
            session.hosts = None
            session.extra["error"] = repr(exc)
            if self.tracer is not None:
                self.tracer.session(time, session.qid, "failed", repr(exc))
            return
        if launched:
            self._enroll(session)
            if admission is not None:
                admission.note_admitted(time, session)
            if sharing is not None:
                sharing.register(session)
            if self.tracer is not None:
                self.tracer.session(0.0, session.qid, "launch",
                                    session.protocol.name)
            kernel, session.fallback_reason = plan_run(self, session)
            session.lane_used = "python" if kernel is None else "vector"
            self.start_query(session, kernel, time, ctx)
