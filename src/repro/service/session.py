"""Per-query sessions of the multi-tenant query service.

A :class:`QuerySession` is one tenant of the multi-tenant query service:
one aggregate query, its per-query protocol state machines, its private
seed stream, its private cost accounting, and its private *virtual clock*
-- the engine-facing :class:`~repro.simulation.engine.Session` plus the
lifecycle (lazy launch, shared-flood subscription, declaration) and the
tenant-visible record.

The virtual clock is what makes multiplexing invisible to protocol code:
every protocol in this repository computes its deadlines assuming the
query starts at time 0 (``2 * D_hat * delta`` and friends), so a session
launched at engine time ``t0`` has its hosts handed a
:class:`~repro.simulation.host.HostContext` whose ``now`` is
``engine_now - t0`` and their timers filed at ``t0 + virtual_time``.
Combined with per-session RNG, delay-model and accounting streams, a
query's stimulus sequence inside the service is *bit-identical* to a solo
:func:`~repro.protocols.base.run_protocol` execution with the same seed
(the service test suite pins this).

A session the lane gate admits at launch does not even share the
calendar's arithmetic: like a solo run's, it owns a tick lane
(:class:`~repro.simulation.vector_lane._TickLane`) that keeps its
in-flight records and timers in query-local time, and the engine files
one calendar entry per lane instant (``Session.step`` is what the entry
runs).  ``lane_used`` / ``fallback_reason`` on the session and its
outcome row say which path ran.  The lane's flat counters reach the
cost sink whenever a drain returns and, for a session that retires
mid-drain, in :meth:`QuerySession.finalize`, which then drops the lane
with the host table.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence

from repro.protocols.base import Protocol, prepare_protocol_run
from repro.queries.query import AggregateQuery
from repro.simulation.engine import Session
from repro.simulation.stats import CostAccounting
from repro.sketches.combiners import Combiner
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.service.engine import MuxEngine


class QueryStatus(enum.Enum):
    """Lifecycle of one query session inside the service."""

    PENDING = "pending"    # submitted; launch instant not reached yet
    RUNNING = "running"    # protocol instances live on the shared network
    DONE = "done"          # declared a value at its termination time
    FAILED = "failed"      # querying host was dead at the launch instant
    SHED = "shed"          # rejected by admission control (terminal)
    DEFERRED = "deferred"  # requeued by admission control (transient)


class QueryOutcome:
    """The externally visible record of one query (returned by ``poll``).

    Attributes:
        query_id: the service-assigned session id.
        protocol: short protocol name.
        query: the aggregate query.
        querying_host: host the query was issued at.
        status: current :class:`QueryStatus`.
        seed: the session's private seed (reusable for a solo replay).
        submitted_at: engine time the query was scheduled to launch.
        declared_at: engine time of the declaration (``None`` until done).
        value: the declared aggregate (``None`` until done / if failed).
        costs: the session's private cost accounting sink (a
            subscriber's is its own copy of its leader's final sink).
        summary: ``costs.summary()``, frozen read-only when the flood
            the value came from (the query's own, or a subscriber's
            leader's) declared; ``None`` before that.
        fingerprint: ``costs.fingerprint()``, frozen with ``summary``.
        d_hat: the stable-diameter overestimate the session used.
        termination: the protocol's nominal duration ``T`` (virtual time).
        stream: caller-supplied user-stream tag (reports of one
            continuous query share it); ``None`` when untagged.
        extra: caller-supplied metadata attached at submit time.
        lane_used: the path that executed the query -- ``"vector"`` (its
            own tick lane, stepped by the event loop) or ``"python"``
            (the per-message spec loop); a shared-flood subscriber
            reports its leader's.  ``None`` until launch, and for a
            query that never launched (shed, failed at launch).
        fallback_reason: why the lane gate refused the session
            (``None`` when the lane ran).
    """

    __slots__ = ("query_id", "protocol", "query", "querying_host", "status",
                 "seed", "submitted_at", "declared_at", "value", "costs",
                 "d_hat", "termination", "stream", "extra", "lane_used",
                 "fallback_reason", "summary", "fingerprint")

    def __init__(self, query_id: int, protocol: str, query: AggregateQuery,
                 querying_host: int, status: QueryStatus, seed: int,
                 submitted_at: float, declared_at: Optional[float] = None,
                 value: Optional[float] = None,
                 costs: Optional[CostAccounting] = None, d_hat: int = 0,
                 termination: float = 0.0, stream: Optional[int] = None,
                 extra: Optional[Dict[str, Any]] = None,
                 lane_used: Optional[str] = None,
                 fallback_reason: Optional[str] = None,
                 summary: Optional[Mapping[str, int]] = None,
                 fingerprint: Optional[str] = None) -> None:
        self.query_id = query_id
        self.protocol = protocol
        self.query = query
        self.querying_host = querying_host
        self.status = status
        self.seed = seed
        self.submitted_at = submitted_at
        self.declared_at = declared_at
        self.value = value
        self.costs = costs
        self.d_hat = d_hat
        self.termination = termination
        self.stream = stream
        self.extra = {} if extra is None else extra
        self.lane_used = lane_used
        self.fallback_reason = fallback_reason
        self.summary = summary
        self.fingerprint = fingerprint

    def as_row(self) -> Dict[str, Any]:
        """Flatten into a report-table row (submit-time metadata included,
        so JSON report consumers can group continuous streams)."""
        row: Dict[str, Any] = {
            "query_id": self.query_id,
            "protocol": self.protocol,
            "aggregate": self.query.kind.value,
            "querying_host": self.querying_host,
            "status": self.status.value,
            "submitted_at": self.submitted_at,
            "declared_at": self.declared_at,
            "value": self.value,
            "seed": self.seed,
            "lane_used": self.lane_used,
            "fallback_reason": self.fallback_reason,
        }
        if self.stream is not None:
            row["stream"] = self.stream
        row.update(self.extra)
        if self.summary is not None:
            row.update(self.summary)
        elif self.costs is not None:  # not declared yet: read it live
            row.update(self.costs.summary())
        return row


class QuerySession(Session):
    """One query multiplexed onto the shared simulated network.

    Constructed by :meth:`~repro.service.service.QueryService.submit`;
    all protocol state is built lazily at the launch instant (so a session
    scheduled far in the future costs nothing until then, and its host
    table is sized to the network as of launch time).
    """

    __slots__ = (
        "protocol", "query", "seed", "launch_at",
        "repetitions", "combiner", "d_hat_hint", "delay_spec",
        "topology", "values", "stream", "extra",
        # launch-time state
        "status", "delay_model", "d_hat", "value", "declared_at",
        "lane_used", "fallback_reason", "summary", "fingerprint",
        # shared-flood cache wiring
        "share_key", "shared_from",
    )

    def __init__(
        self,
        qid: int,
        protocol: Protocol,
        query: AggregateQuery,
        querying_host: int,
        seed: int,
        launch_at: float,
        topology: Topology,
        values: Sequence[float],
        repetitions: int = 8,
        combiner: Optional[Combiner] = None,
        d_hat: Optional[int] = None,
        delay: Any = None,
        stream: Optional[int] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(qid, querying_host=querying_host)
        self.protocol = protocol
        self.query = query
        self.seed = seed
        self.launch_at = float(launch_at)
        self.repetitions = repetitions
        self.combiner = combiner
        self.d_hat_hint = d_hat
        self.delay_spec = delay
        self.topology = topology
        self.values = values
        self.stream = stream
        self.extra = dict(extra or {})

        self.status = QueryStatus.PENDING
        self.delay_model = None
        self.d_hat = 0
        self.termination = 0.0
        self.value: Optional[float] = None
        self.declared_at: Optional[float] = None
        # The gate's verdict at launch, as the outcome row reports it.
        self.lane_used: Optional[str] = None
        self.fallback_reason: Optional[str] = None
        # Frozen by finalize with the value and the final sink: the
        # record a subscriber declares from.
        self.summary: Optional[Mapping[str, int]] = None
        self.fingerprint: Optional[str] = None
        # Set by the service when flood sharing is on: the session's
        # computation key, and (after subscription) the in-flight
        # computation this session rides instead of flooding itself.
        self.share_key = None
        self.shared_from = None

    # ------------------------------------------------------------------
    # Lifecycle (driven by the engine)
    # ------------------------------------------------------------------
    def launch(self, engine: "MuxEngine", now: float) -> bool:
        """Materialise protocol state at the launch instant.

        Returns True when the session went live; False when the querying
        host was dead at launch (status becomes ``FAILED``), mirroring
        :class:`~repro.simulation.engine.Simulator`'s QUERY_START
        liveness check.
        """
        if not engine.network.is_alive(self.querying_host):
            # Fail before building the O(N) per-host state table; the
            # outcome still reports the horizon arithmetic, which is
            # cheap (the diameter estimate is memoised on the topology).
            from repro.protocols.base import resolve_d_hat

            self.d_hat = resolve_d_hat(self.topology, self.d_hat_hint,
                                       seed=self.seed)
            self.termination = self.protocol.termination_time(
                self.d_hat, engine.delta)
            self.status = QueryStatus.FAILED
            return False
        prepared = prepare_protocol_run(
            self.protocol, self.topology, self.values, self.query,
            querying_host=self.querying_host, combiner=self.combiner,
            d_hat=self.d_hat_hint, delta=engine.delta, seed=self.seed,
            repetitions=self.repetitions, delay=self.delay_spec,
        )
        self.query = prepared.query
        self.d_hat = prepared.d_hat
        self.termination = prepared.termination
        self.hosts = prepared.hosts
        self.delay_model = prepared.delay_model
        self.sample = (None if prepared.delay_model is None
                       else prepared.delay_model.sample)
        self.sink = CostAccounting(num_hosts=engine.network.num_hosts,
                                   tick_width=engine.delta)
        self.t0 = now
        self.ends_at = now + self.termination
        self.status = QueryStatus.RUNNING
        return True

    def attach_shared(self, leader: "QuerySession", now: float) -> None:
        """Go live as a *subscriber* of an in-flight shared computation.

        The session builds no protocol state of its own: its horizon
        arithmetic is copied from the leader (a key match guarantees the
        leader resolved the same ``d_hat``, hence the same termination
        time), its virtual clock starts at its own launch instant, and
        its declared value and cost sink are forked from the leader at
        finalize time.  Only per-tenant bookkeeping is private -- which
        is the whole point of the shared-flood cache.
        """
        self.query = leader.query
        self.d_hat = leader.d_hat
        self.termination = leader.termination
        self.t0 = now
        self.ends_at = now + self.termination
        self.status = QueryStatus.RUNNING
        self.shared_from = leader
        self.lane_used = leader.lane_used
        self.fallback_reason = leader.fallback_reason
        self.extra["cache_hit"] = True
        self.extra["shared_with"] = leader.qid

    def finalize(self) -> None:
        """Declare the query's value and release its protocol state."""
        if self.status is not QueryStatus.RUNNING:
            return
        leader = self.shared_from
        if leader is not None:
            # Subscriber: declare the leader's frozen record with a
            # private copy of its final sink (bit-identical to the solo
            # run this session would have executed -- see sharing.py).
            # A subscriber whose retirement instant ties with the
            # leader's can pop from the deadline heap first (heap order
            # is ``(ends_at, qid)``); every leader event has been
            # consumed by then, so finalizing the leader here is exact,
            # and its own later retirement becomes a no-op.
            if leader.status is QueryStatus.RUNNING:
                leader.finalize()
            self.value = leader.value
            self.summary = leader.summary
            self.fingerprint = leader.fingerprint
            self.sink = leader.sink.copy()
            self.declared_at = self.ends_at
            self.status = QueryStatus.DONE
            self.shared_from = None
            return
        assert self.hosts is not None
        if self.lane is not None:
            # What the lane still holds flat (receive counts, chain
            # depth, wireless groups) lands in the sink before anyone --
            # a subscriber's fork, the admission charge -- reads it.
            self.lane.settle(self.sink)
        self.value = self.hosts[self.querying_host].local_result()
        self.declared_at = self.ends_at
        # Summarised and fingerprinted once per flood: every subscriber
        # declares these very objects.
        self.summary = MappingProxyType(self.sink.summary())
        self.fingerprint = self.sink.fingerprint()
        self.status = QueryStatus.DONE
        # Per-host protocol state dominates a session's footprint (one
        # state machine per network host); the result and the cost sink
        # are all that outlives the declaration.
        self.hosts = None
        self.lane = None
        self.sample = None
        self.delay_model = None

    def outcome(self) -> QueryOutcome:
        """Snapshot the session as an externally visible record."""
        return QueryOutcome(
            query_id=self.qid,
            protocol=self.protocol.name,
            query=self.query,
            querying_host=self.querying_host,
            status=self.status,
            seed=self.seed,
            submitted_at=self.launch_at,
            declared_at=self.declared_at,
            value=self.value,
            costs=self.sink,
            d_hat=self.d_hat,
            termination=self.termination,
            stream=self.stream,
            extra=dict(self.extra),
            lane_used=self.lane_used,
            fallback_reason=self.fallback_reason,
            summary=self.summary,
            fingerprint=self.fingerprint,
        )
