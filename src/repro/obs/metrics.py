"""Metrics registry: counters, gauges, histograms, and pull collectors.

Unlike the trace layer (which observes individual events as they
happen), metrics are *pull-based*: every number the collectors report is
computed on demand from structures the engines already maintain -- the
cost sinks, the event queue's bucket table, the service's session
table -- so keeping metrics costs the hot loops nothing at all.

:class:`MetricsRegistry` is the common vocabulary: named counters,
gauges and histograms with a :meth:`~MetricsRegistry.snapshot` that
renders everything as one stable (sorted-key) dict, ready for JSON
artifacts, the ``repro serve --metrics-out`` flag, and the CI metrics
upload.  The ``collect_*`` functions wire the registry to the seams the
repo already has:

* :func:`collect_run_metrics` -- one solo run's :class:`CostAccounting`.
* :func:`collect_queue_metrics` -- event-queue depth and pending time
  window (:meth:`EventQueue.occupancy`).
* :func:`collect_service_metrics` -- the multi-tenant service: engine
  tallies, session residency, per-tenant late-delivery/message counts,
  per-tenant pending queue depth.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_run_metrics",
    "collect_queue_metrics",
    "collect_service_metrics",
    "collect_shard_metrics",
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed samples (count/sum/min/max/mean).

    O(1) per observation and O(1) resident -- the full sample list is
    never kept, matching the bounded-memory discipline of the cost
    sink.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
        }


class MetricsRegistry:
    """Create-or-get registry of named metrics with a stable snapshot."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Any]:
        """Every metric as one flat dict, keys sorted for stable JSON."""
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.as_dict()
            else:
                out[name] = metric.value
        return out


# ---------------------------------------------------------------------------
# Pull collectors
# ---------------------------------------------------------------------------
def collect_run_metrics(costs, registry: Optional[MetricsRegistry] = None,
                        prefix: str = "run") -> MetricsRegistry:
    """Fold one run's :class:`CostAccounting` into a registry.

    Accepts either a sink or anything with a ``.costs`` attribute (a
    :class:`SimulationResult` / :class:`ProtocolRunResult`).
    """
    sink = getattr(costs, "costs", costs)
    registry = registry if registry is not None else MetricsRegistry()
    registry.counter(f"{prefix}.messages_sent").inc(sink.messages_sent)
    registry.counter(f"{prefix}.wireless_transmissions").inc(
        sink.wireless_transmissions)
    registry.counter(f"{prefix}.dropped_messages").inc(sink.dropped_messages)
    registry.gauge(f"{prefix}.computation_cost").set(sink.computation_cost)
    registry.gauge(f"{prefix}.time_cost").set(sink.time_cost)
    registry.gauge(f"{prefix}.accounting_bytes").set(sink.footprint_bytes())
    return registry


def collect_queue_metrics(queue, registry: Optional[MetricsRegistry] = None,
                          prefix: str = "queue") -> MetricsRegistry:
    """Event-queue depth and pending-window gauges, one per
    :meth:`EventQueue.occupancy` field.

    ``occupancy()`` reports ``None`` for the horizon fields of an empty
    queue ("no next event" is not a number); those are skipped rather
    than gauged so snapshots stay numeric.
    """
    registry = registry if registry is not None else MetricsRegistry()
    occupancy = queue.occupancy()
    for key, value in occupancy.items():
        if value is None:
            continue
        registry.gauge(f"{prefix}.{key}").set(value)
    return registry


def collect_shard_metrics(result, registry: Optional[MetricsRegistry] = None,
                          prefix: str = "shard") -> MetricsRegistry:
    """Per-shard lane metrics from a sharded-lane run's result.

    Accepts a :class:`SimulationResult` / :class:`ProtocolRunResult`
    whose ``extra["sharded"]`` block the coordinator filled in; a result
    from any other lane folds nothing.  Emits one gauge per shard per
    numeric metric (``shard.2.barrier_wait_s``, ...) plus the shard
    count, so barrier skew and exchange volume show up next to the run
    metrics in the same snapshot.  When the block carries the per-epoch
    ``timeline``, aggregate health gauges ride along too: per-shard
    compute totals, barrier-overhead fractions, straggler counts, and
    the worst epoch's skew.
    """
    registry = registry if registry is not None else MetricsRegistry()
    info = getattr(result, "extra", None) or {}
    sharded = info.get("sharded")
    if not sharded:
        return registry
    registry.gauge(f"{prefix}.shards").set(sharded["shards"])
    for worker in sharded.get("workers", ()):
        shard = worker.get("shard")
        for key, value in sorted(worker.items()):
            if key == "shard" or not isinstance(value, (int, float)):
                continue
            registry.gauge(f"{prefix}.{shard}.{key}").set(value)
    timeline = sharded.get("timeline")
    if timeline:
        from repro.obs.timeline import ShardTimeline

        health = ShardTimeline(sharded["shards"], timeline).health()
        registry.gauge(f"{prefix}.epochs").set(health["epochs"])
        worst = health["worst_epoch"]
        if worst is not None:
            registry.gauge(f"{prefix}.worst_epoch").set(worst["epoch"])
            registry.gauge(f"{prefix}.worst_skew_s").set(worst["skew_s"])
        for k in range(health["shards"]):
            gauge = registry.gauge
            gauge(f"{prefix}.{k}.compute_s").set(health["compute_s"][k])
            gauge(f"{prefix}.{k}.barrier_overhead").set(
                health["barrier_overhead"][k])
            gauge(f"{prefix}.{k}.straggler_epochs").set(
                health["straggler_epochs"][k])
    return registry


def collect_service_metrics(service) -> Dict[str, Any]:
    """One self-describing metrics snapshot of a live QueryService.

    Includes the engine's cumulative tallies, calendar-queue occupancy,
    session residency (virtual time each session stays live) and the
    per-tenant breakdown -- pending queue depth, late deliveries and
    message counts per query id -- that the overload-control roadmap
    item needs as its admission signal.
    """
    engine = service.engine
    registry = MetricsRegistry()
    registry.counter("service.messages_sent").inc(engine.messages_sent)
    registry.counter("service.dropped_messages").inc(engine.dropped_messages)
    registry.counter("service.late_messages").inc(engine.late_messages)
    registry.counter("service.events_processed").inc(engine.events_processed)
    registry.gauge("service.active_sessions").set(engine.active_sessions)
    registry.gauge("service.peak_active_sessions").set(
        engine.max_active_sessions)
    registry.gauge("service.retired_sessions").set(len(engine.retired_order))
    registry.gauge("service.pending_queries").set(
        sum(1 for s in service._sessions.values()
            if s.status.value == "pending"))
    collect_queue_metrics(engine._queue, registry, prefix="service.queue")

    # Control-plane gauges (only when the hooks are installed, so
    # pre-sharing snapshots keep their exact key set).
    sharing = engine.sharing
    if sharing is not None:
        registry.counter("service.cache.hits").inc(sharing.hits)
        registry.counter("service.cache.leads").inc(sharing.leads)
        registry.gauge("service.cache.inflight").set(
            sharing.inflight_computations)
        registry.gauge("service.cache.recent_answers").set(
            sharing.recent_answers)
        registry.gauge("service.cache.hit_rate").set(
            round(sharing.hit_rate, 4))
    admission = engine.admission
    if admission is not None:
        registry.counter("service.admission.shed").inc(admission.shed)
        registry.counter("service.admission.degraded").inc(
            admission.degraded)
        registry.counter("service.admission.deferrals").inc(
            admission.defer_events)
        registry.gauge("service.admission.deferred_pending").set(
            admission.deferred_pending)

    residency = registry.histogram("service.session_residency")
    tenants: Dict[str, Dict[str, Any]] = {}
    pending_by_query = engine.queue_depth_by_session()
    late_by_query = engine.late_by_query
    for qid, session in sorted(service._sessions.items()):
        if session.status.value in ("running", "done"):
            residency.observe(session.termination)
        sink = session.sink
        tenants[str(qid)] = {
            "status": session.status.value,
            "protocol": session.protocol.name,
            "queue_depth": pending_by_query.get(qid, 0),
            "late_messages": late_by_query.get(qid, 0),
            "messages_sent": (sink.messages_sent
                              if sink is not None else 0),
            "residency": session.termination,
        }
    snapshot = registry.snapshot()
    snapshot["service.tenants"] = tenants
    snapshot["service.retired_order"] = list(engine.retired_order)
    return snapshot

