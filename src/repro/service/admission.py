"""Admission control: the service's first overload control loop.

ROADMAP item 4's second half.  The controller sits on the QUERY_START
dispatch path (after shared-flood subscription, before launch) and
decides -- from the *live* signals PRs 6/9 exposed: active-session and
event-queue depth, per-tenant ``queue_depth_by_session``, late-delivery
counters and message-cost residency -- whether launching one more flood
would push the service past its configured envelope.  Overloaded
submissions are resolved by policy:

* ``shed``    -- reject now; the query terminates with status SHED.
* ``defer``   -- requeue the QUERY_START ``defer_retry`` simulated
  seconds later; retries repeat until admission succeeds or the query
  has been pending ``defer_deadline`` seconds, then it is shed.
* ``degrade`` -- answer from the shared-flood cache's recent-answer
  store, tagged with staleness; fall back to ``shed`` on a miss or a
  stale entry.

Every submitted query reaches **exactly one terminal outcome** (DONE,
FAILED, SHED, or deferred-then-one-of-those); the overload matrix in
``tests/service/test_admission.py`` locks this together with the
fairness balance ``answered + failed + shed == submitted``.

Budgets are *per tenant*: a continuous query's reports share one stream
budget, one-shot queries are each their own tenant.  Leaders are charged
their flood's message cost at retirement; shared-flood subscribers ride
an already-paid flood and are not charged, which is precisely why
sharing moves the saturation knee right.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional, Tuple

from repro.simulation.events import EventKind

__all__ = ["AdmissionConfig", "AdmissionController"]

_POLICIES = ("shed", "defer", "degrade")


class AdmissionConfig:
    """Envelope and policy for the admission controller.

    All limits default to "off" (``None``); any subset can be armed.

    Args:
        policy: what to do with a blocked submission (``shed`` /
            ``defer`` / ``degrade``).
        max_active_sessions: cap on concurrently running sessions.
        max_queue_depth: cap on total pending simulation events.
        max_qps: cap on admitted launches per simulated second
            (sliding one-second window).
        tenant_message_budget: per-tenant cap on charged message cost;
            a tenant whose retired queries already spent this much is
            blocked.
        max_tenant_queue_depth: per-tenant cap on pending events
            (``queue_depth_by_session``); blocks the flood-heavy tenant
            while light tenants keep flowing.
        max_late_messages: circuit breaker on the engine-wide late
            delivery counter -- late deliveries mean floods outliving
            their termination windows, the earliest overload signal.
        defer_retry: simulated seconds between defer retries.
        defer_deadline: how long (simulated seconds past the original
            launch time) a deferred query may wait before being shed.
        max_staleness: oldest recent answer the degrade policy may
            serve, in simulated seconds.
    """

    __slots__ = ("policy", "max_active_sessions", "max_queue_depth",
                 "max_qps", "tenant_message_budget", "max_tenant_queue_depth",
                 "max_late_messages", "defer_retry", "defer_deadline",
                 "max_staleness")

    def __init__(self, policy: str = "shed",
                 max_active_sessions: Optional[int] = None,
                 max_queue_depth: Optional[int] = None,
                 max_qps: Optional[float] = None,
                 tenant_message_budget: Optional[int] = None,
                 max_tenant_queue_depth: Optional[int] = None,
                 max_late_messages: Optional[int] = None,
                 defer_retry: float = 2.0, defer_deadline: float = 30.0,
                 max_staleness: float = math.inf) -> None:
        if policy not in _POLICIES:
            raise ValueError(
                f"policy must be one of {_POLICIES}, got {policy!r}")
        if defer_retry <= 0:
            raise ValueError("defer_retry must be positive")
        if defer_deadline < 0:
            raise ValueError("defer_deadline must be non-negative")
        if max_qps is not None and max_qps <= 0:
            raise ValueError("max_qps must be positive")
        self.policy = policy
        self.max_active_sessions = max_active_sessions
        self.max_queue_depth = max_queue_depth
        self.max_qps = max_qps
        self.tenant_message_budget = tenant_message_budget
        self.max_tenant_queue_depth = max_tenant_queue_depth
        self.max_late_messages = max_late_messages
        self.defer_retry = defer_retry
        self.defer_deadline = defer_deadline
        self.max_staleness = max_staleness
        for name in ("max_active_sessions", "max_queue_depth",
                     "tenant_message_budget", "max_tenant_queue_depth",
                     "max_late_messages", "max_staleness"):
            limit = getattr(self, name)
            if limit is not None and limit < 0:
                raise ValueError(f"{name} must be non-negative")


def _tenant(session) -> Tuple[str, object]:
    """The budget key: continuous streams pool, one-shots stand alone."""
    if session.stream is not None:
        return ("stream", session.stream)
    return ("query", session.qid)


class AdmissionController:
    """Applies an :class:`AdmissionConfig` on the QUERY_START path."""

    __slots__ = ("config", "shed", "degraded", "defer_events",
                 "_admit_times", "_spent", "_deferred")

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        #: Queries terminally rejected (includes defer/degrade fallbacks).
        self.shed = 0
        #: Queries answered from the recent-answer store.
        self.degraded = 0
        #: Individual defer events (one query can defer repeatedly).
        self.defer_events = 0
        self._admit_times: deque = deque()
        self._spent: Dict[Tuple[str, object], int] = {}
        self._deferred: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------
    def overloaded(self, engine, session, now: float) -> Optional[str]:
        """The first tripped gate's name, or ``None`` when admissible."""
        cfg = self.config
        if (cfg.max_active_sessions is not None
                and len(engine._active) >= cfg.max_active_sessions):
            return "active_sessions"
        if cfg.max_queue_depth is not None or cfg.max_tenant_queue_depth is not None:
            depths = engine.queue_depth_by_session()
            if (cfg.max_queue_depth is not None
                    and sum(depths.values()) >= cfg.max_queue_depth):
                return "queue_depth"
            if cfg.max_tenant_queue_depth is not None:
                tenant = _tenant(session)
                tenant_depth = sum(
                    depth for qid, depth in depths.items()
                    if qid in engine._active
                    and _tenant(engine._active[qid]) == tenant)
                if tenant_depth >= cfg.max_tenant_queue_depth:
                    return "tenant_queue_depth"
        if cfg.max_qps is not None:
            window = self._admit_times
            while window and window[0] <= now - 1.0:
                window.popleft()
            if len(window) >= cfg.max_qps:
                return "qps"
        if (cfg.tenant_message_budget is not None
                and self._spent.get(_tenant(session), 0)
                >= cfg.tenant_message_budget):
            return "tenant_budget"
        if (cfg.max_late_messages is not None
                and engine.late_messages >= cfg.max_late_messages):
            return "late_messages"
        return None

    def decide(self, engine, session, now: float) -> bool:
        """Apply policy to one QUERY_START; True means "do not launch".

        Terminal rejections set the session's status (SHED, or DONE for
        a degraded answer) and leave it out of the active set; a defer
        re-pushes the QUERY_START and keeps the session pending.
        """
        reason = self.overloaded(engine, session, now)
        if reason is None:
            return False
        policy = self.config.policy
        if policy == "defer":
            if now - session.launch_at < self.config.defer_deadline:
                self._defer(engine, session, now, reason)
                return True
        elif policy == "degrade":
            if self._degrade(engine, session, now, reason):
                return True
        self._shed(engine, session, now, reason)
        return True

    # ------------------------------------------------------------------
    # Policy outcomes
    # ------------------------------------------------------------------
    def _defer(self, engine, session, now: float, reason: str) -> None:
        from repro.service.session import QueryStatus

        self.defer_events += 1
        retries = self._deferred.get(session.qid, 0) + 1
        self._deferred[session.qid] = retries
        session.status = QueryStatus.DEFERRED
        session.extra["deferred_retries"] = retries
        session.extra["defer_reason"] = reason
        engine._queue.push(now + self.config.defer_retry,
                           EventKind.QUERY_START, data=session)
        if engine.tracer is not None:
            engine.tracer.session(now, session.qid, "defer",
                                  f"{reason} retry={retries}")

    def _degrade(self, engine, session, now: float, reason: str) -> bool:
        from repro.service.session import QueryStatus

        sharing = engine.sharing
        if sharing is None:
            return False
        hit = sharing.recent_answer(session.share_key, now,
                                    self.config.max_staleness)
        if hit is None:
            return False
        value, staleness, source = hit
        self.degraded += 1
        session.status = QueryStatus.DONE
        session.value = value
        session.declared_at = now
        session.extra["degraded"] = True
        session.extra["staleness"] = staleness
        session.extra["source_query"] = source
        session.extra["admission_reason"] = reason
        self._deferred.pop(session.qid, None)
        if engine.tracer is not None:
            engine.tracer.session(now, session.qid, "degrade",
                                  f"{reason} staleness={staleness:.3f}")
        return True

    def _shed(self, engine, session, now: float, reason: str) -> None:
        from repro.service.session import QueryStatus

        self.shed += 1
        session.status = QueryStatus.SHED
        session.declared_at = None
        session.extra["shed_reason"] = reason
        self._deferred.pop(session.qid, None)
        if engine.tracer is not None:
            engine.tracer.session(now, session.qid, "shed", reason)

    # ------------------------------------------------------------------
    # Accounting hooks
    # ------------------------------------------------------------------
    def note_admitted(self, time: float, session) -> None:
        """Record a launch for the rate window and close any deferral."""
        self._admit_times.append(time)
        retries = self._deferred.pop(session.qid, None)
        if retries is not None:
            session.extra["deferred_for"] = time - session.launch_at

    def charge(self, session) -> None:
        """Charge a retiring leader's flood cost to its tenant budget.

        Subscribers are not charged: their flood was already paid for.
        """
        if session.extra.get("cache_hit") or session.sink is None:
            return
        tenant = _tenant(session)
        self._spent[tenant] = (self._spent.get(tenant, 0)
                               + session.sink.messages_sent)

    @property
    def deferred_pending(self) -> int:
        """Queries currently waiting on a defer retry."""
        return len(self._deferred)
