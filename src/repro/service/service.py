"""The multi-tenant query service: submit / poll / retire over one network.

:class:`QueryService` is the front door of the service subsystem.  One
instance owns one live simulated network (topology + churn schedule +
delay-bound ``delta``) and multiplexes any number of aggregate queries
over it through the :class:`~repro.service.engine.MuxEngine` (the
simulation engine's one event loop plus the service's control plane):

>>> service = QueryService(topology, values, seed=0)
>>> q1 = service.submit("wildfire", "count", at=0.0)
>>> q2 = service.submit("spanning-tree", "sum", at=3.0, querying_host=7)
>>> report = service.run()
>>> service.poll(q1).value            # doctest: +SKIP

Determinism contract: each session's seed is derived from the service
seed and the query's *content* (or passed explicitly) -- two tenants
submitting the same aggregate draw the same streams and receive the
same answer, the consensus-answer property the shared-flood cache
builds on -- and every source of randomness a query touches -- sketch
initialisation, protocol coin flips, stochastic link delays -- draws
from session-private streams.
Re-running the same submission sequence therefore reproduces every
query's value and per-query cost accounting bit-for-bit, regardless of
how the queries interleave on the shared substrate; and a query run solo
(through :func:`~repro.protocols.base.run_protocol` with the session's
seed and the service's ``d_hat``) declares the identical value with
identical costs whenever no cross-query churn interferes.

One float-arithmetic caveat on the solo comparison, under a *variable*
delay model only (a fixed-delay instant is ``k * delta`` from
:mod:`repro.simulation.clock` on either path, and no two sit an ulp
apart): two session events an ulp apart by addition order -- ``(a + k)
+ d`` vs ``(a + d) + k`` under the fixed-latency ``per_edge`` model --
may share one calendar instant on the shared clock, where the
deliver-before-timer priority resolves them, so order-sensitive float
accumulation (push-sum gossip) can differ from the solo run in the last
digits on such a tie.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.protocols.base import Protocol, protocol_from_spec, resolve_d_hat
from repro.queries.query import AggregateQuery
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.engine import MuxEngine
from repro.service.session import QueryOutcome, QuerySession, QueryStatus
from repro.service.sharing import (SharedFloodCache, computation_key,
                                   consensus_material, consensus_seed,
                                   delay_is_stochastic)
from repro.simulation.churn import ChurnSchedule
from repro.sketches.combiners import Combiner
from repro.topology.base import Topology


class ServiceReport:
    """Summary of one :meth:`QueryService.run` drive.

    Attributes:
        outcomes: one :class:`QueryOutcome` per non-retired query, in
            submission order (includes still-pending/running ones when the
            run was horizon-bounded; queries the tenant already retired
            are gone from the service's records).
        finished_at: engine time when the loop stopped.
        elapsed: cumulative wall-clock seconds spent inside the loop,
            across every ``run`` call of this service -- the message and
            query tallies are cumulative, so the throughput ratio must
            be too.
        messages_sent: total messages across all sessions.
        late_messages: deliveries that arrived after their query declared.
        dropped_messages: deliveries lost to host failures.
        events_processed: events the engine's loop consumed (cumulative).
        peak_active_sessions: high-water mark of concurrently live
            sessions -- the resident-state bound the retirement design
            promises.
        retired_order: query ids in the order their sessions declared
            and left the demux table.
        late_by_query: late-delivery count per query id (queries with
            no late deliveries are absent).
        shed: queries terminally rejected by admission control.
        deferred: queries currently requeued by the defer policy
            (zero after a run to drain: every deferral ends in a launch
            or a shed).
        degraded: queries answered from the recent-answer store with a
            staleness tag (counted inside ``answered`` too -- they did
            declare a value).
        cache_hits: sessions that subscribed to an in-flight shared
            flood instead of flooding themselves.
        deferrals: individual defer events (one query can defer several
            times before launching or being shed).
    """

    __slots__ = ("outcomes", "finished_at", "elapsed", "messages_sent",
                 "late_messages", "dropped_messages", "events_processed",
                 "peak_active_sessions", "retired_order", "late_by_query",
                 "shed", "deferred", "degraded", "cache_hits", "deferrals")

    def __init__(self, outcomes: Optional[List[QueryOutcome]] = None,
                 finished_at: float = 0.0, elapsed: float = 0.0,
                 messages_sent: int = 0, late_messages: int = 0,
                 dropped_messages: int = 0, events_processed: int = 0,
                 peak_active_sessions: int = 0,
                 retired_order: Optional[List[int]] = None,
                 late_by_query: Optional[Dict[int, int]] = None,
                 shed: int = 0, deferred: int = 0, degraded: int = 0,
                 cache_hits: int = 0, deferrals: int = 0) -> None:
        self.outcomes = [] if outcomes is None else outcomes
        self.finished_at = finished_at
        self.elapsed = elapsed
        self.messages_sent = messages_sent
        self.late_messages = late_messages
        self.dropped_messages = dropped_messages
        self.events_processed = events_processed
        self.peak_active_sessions = peak_active_sessions
        self.retired_order = [] if retired_order is None else retired_order
        self.late_by_query = {} if late_by_query is None else late_by_query
        self.shed = shed
        self.deferred = deferred
        self.degraded = degraded
        self.cache_hits = cache_hits
        self.deferrals = deferrals

    @property
    def answered(self) -> int:
        """Number of queries that declared a value."""
        return sum(1 for o in self.outcomes if o.status is QueryStatus.DONE)

    @property
    def queries_per_second(self) -> float:
        """Answered queries per wall-clock second of simulation."""
        return self.answered / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "queries": len(self.outcomes),
            "answered": self.answered,
            "failed": sum(1 for o in self.outcomes
                          if o.status is QueryStatus.FAILED),
            "finished_at": self.finished_at,
            "elapsed_seconds": round(self.elapsed, 4),
            "queries_per_second": round(self.queries_per_second, 2),
            "messages_sent": self.messages_sent,
            "late_messages": self.late_messages,
            "dropped_messages": self.dropped_messages,
            "events_processed": self.events_processed,
            "peak_active_sessions": self.peak_active_sessions,
            "retired": len(self.retired_order),
            "retired_order": list(self.retired_order),
            "late_by_query": {str(qid): count for qid, count
                              in sorted(self.late_by_query.items())},
            "shed": self.shed,
            "deferred": self.deferred,
            "degraded": self.degraded,
            "cache_hits": self.cache_hits,
            "deferrals": self.deferrals,
        }


class QueryService:
    """Session manager multiplexing aggregate queries over one network.

    Args:
        topology: the shared network's initial topology.
        values: one attribute value per topology host (shared by every
            query, as in the paper's ad-hoc query model).
        delta: per-hop delay bound for every session's timer math.
        churn: service-wide failure schedule (applied once, seen by
            every session that overlaps it).
        seed: service seed; per-query seeds derive from it and the
            query's content (see
            :func:`~repro.service.sharing.consensus_seed`).
        delay: realised link-delay model spec shared by all sessions
            *as a spec* -- each session instantiates its own model with a
            session-derived seed, so delay randomness never couples
            queries.
        wireless: broadcast-medium accounting.
        d_hat: stable-diameter overestimate shared by sessions that do
            not pass their own; resolved once from the topology (the
            shared-substrate service resolves it with the *service* seed,
            so concurrent queries agree on the horizon arithmetic).
        max_time: engine runaway backstop (a drain-to-empty :meth:`run`
            that reaches it with events still pending raises).
        tracer: structured trace sink handed to the engine (``None``:
            untraced).
        share_floods: enable the cross-tenant shared-flood cache --
            sessions whose computation key matches an in-flight
            computation subscribe to it instead of flooding (results
            are bit-identical either way; see
            :mod:`repro.service.sharing`).
        admission: an :class:`~repro.service.admission.AdmissionConfig`
            arming the overload control loop (``None`` admits
            everything, the pre-control behaviour).
    """

    def __init__(
        self,
        topology: Topology,
        values: Sequence[float],
        delta: float = 1.0,
        churn: Optional[ChurnSchedule] = None,
        seed: int = 0,
        delay: Any = None,
        wireless: bool = False,
        d_hat: Optional[int] = None,
        max_time: float = 1_000_000.0,
        tracer=None,
        share_floods: bool = False,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        if len(values) < topology.num_hosts:
            raise ValueError("need one attribute value per host")
        self.topology = topology
        self.values = list(values)
        self.delta = float(delta)
        self.churn = churn or ChurnSchedule.empty()
        self.seed = seed
        self.delay_spec = delay
        self.d_hat = resolve_d_hat(topology, d_hat, seed=seed)
        self.engine = MuxEngine(
            topology.to_network(), delta=self.delta, churn=self.churn,
            wireless=wireless, max_time=max_time, tracer=tracer,
        )
        self._sessions: Dict[int, QuerySession] = {}
        self._next_qid = 1
        self._elapsed_total = 0.0
        self.share_floods = bool(share_floods)
        self._delay_stochastic = delay_is_stochastic(delay, self.delta)
        # ``(seed, computation key)`` per distinct submission content:
        # keyed by the consensus material, plus the seed when the caller
        # passed one (the key is ``None`` while sharing is off).
        self._derived: Dict[Any, tuple] = {}
        # The cache also backs the degrade policy's recent-answer store,
        # so it exists (with subscription off) when only degrading.
        if self.share_floods or (admission is not None
                                 and admission.policy == "degrade"):
            self.engine.sharing = SharedFloodCache(
                self.churn, subscribe=self.share_floods)
        if admission is not None:
            self.engine.admission = AdmissionController(admission)

    # ------------------------------------------------------------------
    # Tenant API
    # ------------------------------------------------------------------
    def submit(
        self,
        protocol: Union[Protocol, str],
        query: Union[AggregateQuery, str],
        querying_host: int = 0,
        at: float = 0.0,
        seed: Optional[int] = None,
        combiner: Optional[Combiner] = None,
        d_hat: Optional[int] = None,
        repetitions: int = 8,
        stream: Optional[int] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Register one aggregate query and return its session id.

        The query launches at engine time ``at`` (protocol state is built
        lazily at that instant) and declares at ``at + T`` where ``T`` is
        the protocol's nominal termination time.  ``seed`` defaults to
        the *content-derived* consensus seed (identical submissions get
        identical seeds, hence identical answers -- see
        :func:`~repro.service.sharing.consensus_seed`); pass it
        explicitly to replay a session solo or to force private streams.
        Session ids are assigned 1, 2, ... in submission order.
        """
        if at < 0:
            raise ValueError("queries cannot launch at negative times")
        if at < self.engine.clock.now:
            # After a horizon-bounded run() the network has already lived
            # through churn past ``at``; launching in the past would run
            # the query on a future network state, matching no schedule.
            raise ValueError(
                f"cannot launch at {at}: the service clock is already at "
                f"{self.engine.clock.now}"
            )
        if not 0 <= querying_host < self.topology.num_hosts:
            raise ValueError("querying_host is not part of the topology")
        if isinstance(query, str):
            query = AggregateQuery.of(query)
        protocol = protocol_from_spec(protocol)
        # Fail bad submissions at the front door, as run_protocol does --
        # raising mid-run() would strand every other tenant's session.
        if (combiner is not None
                and protocol.requires_duplicate_insensitive
                and not combiner.duplicate_insensitive):
            raise ValueError(
                f"{protocol.name} floods partial aggregates along multiple "
                f"paths and requires a duplicate-insensitive combiner; got "
                f"{combiner.name!r}"
            )
        qid = self._next_qid
        self._next_qid += 1
        # Resolve what the run will actually use so the consensus seed
        # and the computation key see the same inputs as the launch.
        resolved_combiner = (combiner if combiner is not None else
                             protocol.default_combiner(
                                 query, repetitions=repetitions))
        resolved_d_hat = self.d_hat if d_hat is None else int(d_hat)
        # One content, one seed, one key: derived once per distinct
        # material (every input of both but the service-wide ones).
        material = consensus_material(protocol, query, querying_host,
                                      resolved_combiner, resolved_d_hat)
        memo = material if seed is None else (material, seed)
        derived = self._derived.get(memo)
        if derived is None:
            if seed is None:
                seed = consensus_seed(self.seed, protocol, query,
                                      querying_host, resolved_combiner,
                                      resolved_d_hat)
            share_key = None
            if self.engine.sharing is not None:
                share_key = computation_key(
                    protocol, query, querying_host, resolved_combiner,
                    resolved_d_hat, self.delay_spec, seed,
                    delay_stochastic=self._delay_stochastic)
            derived = self._derived[memo] = (seed, share_key)
        seed, share_key = derived
        session = QuerySession(
            qid=qid,
            protocol=protocol,
            query=query,
            querying_host=querying_host,
            seed=seed,
            launch_at=float(at),
            topology=self.topology,
            values=self.values,
            repetitions=repetitions,
            combiner=combiner,
            d_hat=resolved_d_hat,
            delay=self.delay_spec,
            stream=stream,
            extra=extra,
        )
        session.share_key = share_key
        self._sessions[qid] = session
        self.engine.schedule_session(session)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.session(float(at), qid, "submit", protocol.name)
        return qid

    def poll(self, query_id: int) -> QueryOutcome:
        """Snapshot one query's status/value/costs (raises on unknown id)."""
        return self._sessions[query_id].outcome()

    def retire(self, query_id: int) -> QueryOutcome:
        """Remove a finished query's record from the service and return it.

        The tenant has read its answer; after retirement the id no longer
        polls and the session's cost sink is released with it.  Only
        sessions that already declared (or failed) can retire -- dropping
        the record of a pending/running session would leave the engine
        driving a query nobody can ever read.
        """
        session = self._sessions[query_id]
        if session.status not in (QueryStatus.DONE, QueryStatus.FAILED,
                                  QueryStatus.SHED):
            raise ValueError(
                f"query {query_id} is {session.status.value}; only done, "
                f"failed or shed queries can be retired"
            )
        outcome = self._sessions.pop(query_id).outcome()
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.session(self.engine.clock.now, query_id, "retire")
        return outcome

    def run(self, until: Optional[float] = None) -> ServiceReport:
        """Drive the shared event loop (to drain, or to ``until``)."""
        engine = self.engine
        start = _time.perf_counter()
        finished = engine.run(until=until)
        self._elapsed_total += _time.perf_counter() - start
        outcomes = [s.outcome() for s in self._sessions.values()]
        return ServiceReport(
            outcomes=outcomes,
            finished_at=finished,
            elapsed=self._elapsed_total,
            messages_sent=engine.messages_sent,
            late_messages=engine.late_messages,
            dropped_messages=engine.dropped_messages,
            events_processed=engine.events_processed,
            peak_active_sessions=engine.max_active_sessions,
            retired_order=list(engine.retired_order),
            late_by_query=dict(engine.late_by_query),
            shed=sum(1 for o in outcomes
                     if o.status is QueryStatus.SHED),
            deferred=sum(1 for o in outcomes
                         if o.status is QueryStatus.DEFERRED),
            degraded=sum(1 for o in outcomes
                         if o.extra.get("degraded")),
            cache_hits=(engine.sharing.hits
                        if engine.sharing is not None else 0),
            deferrals=(engine.admission.defer_events
                       if engine.admission is not None else 0),
        )

    def outcomes(self) -> List[QueryOutcome]:
        """Snapshots of every non-retired query, in submission order."""
        return [s.outcome() for s in self._sessions.values()]

    def metrics(self) -> Dict[str, Any]:
        """One self-describing metrics snapshot of the live service.

        The engine's cumulative tallies, calendar-queue occupancy (its
        ``None`` horizon fields skipped while the queue is empty),
        session residency (virtual time each launched session stays
        live) and the per-tenant breakdown -- pending queue depth, late
        deliveries and messages per query id -- that admission control
        reads as its signal.  The cache and admission blocks appear only
        when those hooks are installed.
        """
        engine = self.engine
        snapshot: Dict[str, Any] = {
            "service.messages_sent": engine.messages_sent,
            "service.dropped_messages": engine.dropped_messages,
            "service.late_messages": engine.late_messages,
            "service.events_processed": engine.events_processed,
            "service.active_sessions": engine.active_sessions,
            "service.peak_active_sessions": engine.max_active_sessions,
            "service.retired_sessions": len(engine.retired_order),
            "service.pending_queries": sum(
                1 for s in self._sessions.values()
                if s.status is QueryStatus.PENDING),
        }
        for key, value in engine._queue.occupancy().items():
            if value is not None:
                snapshot[f"service.queue.{key}"] = value
        sharing = engine.sharing
        if sharing is not None:
            snapshot.update({
                "service.cache.hits": sharing.hits,
                "service.cache.leads": sharing.leads,
                "service.cache.inflight": sharing.inflight_computations,
                "service.cache.recent_answers": sharing.recent_answers,
                "service.cache.hit_rate": round(sharing.hit_rate, 4),
            })
        admission = engine.admission
        if admission is not None:
            snapshot.update({
                "service.admission.shed": admission.shed,
                "service.admission.degraded": admission.degraded,
                "service.admission.deferrals": admission.defer_events,
                "service.admission.deferred_pending":
                    admission.deferred_pending,
            })

        residencies: List[float] = []
        total = 0.0
        tenants: Dict[str, Dict[str, Any]] = {}
        pending_by_query = engine.queue_depth_by_session()
        for qid, session in sorted(self._sessions.items()):
            if session.status in (QueryStatus.RUNNING, QueryStatus.DONE):
                residencies.append(float(session.termination))
                total += residencies[-1]  # in id order: a bit-stable sum
            tenants[str(qid)] = {
                "status": session.status.value,
                "protocol": session.protocol.name,
                "queue_depth": pending_by_query.get(qid, 0),
                "late_messages": engine.late_by_query.get(qid, 0),
                "messages_sent": (session.sink.messages_sent
                                  if session.sink is not None else 0),
                "residency": session.termination,
            }
        snapshot["service.session_residency"] = {
            "count": len(residencies),
            "sum": total,
            "min": min(residencies, default=None),
            "max": max(residencies, default=None),
            "mean": total / len(residencies) if residencies else None,
        }
        snapshot["service.tenants"] = tenants
        snapshot["service.retired_order"] = list(engine.retired_order)
        return snapshot
