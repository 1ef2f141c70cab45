"""Concurrent query-mix experiment: drive the service with an open world.

This is the driver behind ``repro serve`` and the service benchmarks: it
builds one shared network, generates a Poisson query mix
(:mod:`repro.workloads.query_mix`), multiplexes every query over the
:class:`~repro.service.QueryService`, and reports per-query rows plus a
service-level summary (queries answered, wall-clock throughput, message
totals and a determinism digest over every per-query result).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict, List, Optional

from repro.obs.stream import current_rss_mb
from repro.service import QueryService
from repro.service.engine import merge_shard_summaries
from repro.simulation.churn import ChurnSchedule, uniform_failure_schedule
from repro.simulation.sharded import pool_context
from repro.simulation.stats import make_stats_sink
from repro.topology import Topology, topology_from_spec
from repro.workloads.query_mix import QueryMixConfig, generate_query_mix


def run_query_mix(
    num_hosts: int = 1000,
    topology: str = "gnutella",
    qps: float = 2.0,
    duration: float = 60.0,
    seed: int = 0,
    stats: Optional[str] = None,
    delay: Optional[str] = None,
    departures: int = 0,
    mix: Optional[QueryMixConfig] = None,
    prebuilt_topology: Optional[Topology] = None,
    tracer=None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    metrics_interval: Optional[float] = None,
    metrics_stream=None,
    shards: int = 1,
    share_floods: bool = False,
    admission=None,
    _session_slice: Optional[tuple] = None,
    **mix_overrides,
) -> Dict[str, Any]:
    """Run one open-world query mix over a shared service.

    Args:
        num_hosts: network size.
        topology: a :func:`~repro.topology.topology_from_spec` name.
        qps: mean Poisson arrival rate of query streams, when no ``mix``
            is passed.
        duration: arrival window, when no ``mix`` is passed; the service
            then runs to drain, so every launched query declares.
        seed: seeds topology generation, values, churn, the mix and the
            per-query seed streams.
        stats: ignored.  ``"full"`` / ``"streaming"`` used to pick between
            two cost sinks; the frozen ``benchmarks/perf`` still passes
            one, so the two names (and nothing else) are accepted.
        delay: link-delay model spec shared by all queries (each session
            samples its own stream).
        departures: number of hosts failed uniformly over the arrival
            window (0 = static network).
        mix: explicit :class:`QueryMixConfig`, built from ``qps`` and
            ``duration`` when omitted; ``mix_overrides`` tweak its fields
            (``continuous_fraction=...``, ``max_queries=...``).  The
            resulting mix is the one statement of the arrival rate and
            window: the churn window, the progress slice and the
            summary's ``qps`` / ``duration`` all read it.
        prebuilt_topology: reuse an existing topology.
        tracer: structured trace sink handed to the service's engine.
        progress: when given, the drive is sliced into simulated-time
            windows (``metrics_interval`` when given, else a tenth of
            the arrival window but at least 1) and ``progress(snapshot)``
            is called after each slice with live engine tallies.
            Horizon-bounded drives pop the exact same event sequence as
            one drain, so results are bit-identical with or without
            progress reporting.
        metrics_interval: simulated seconds between live metrics
            samples; enables the same sliced drive as ``progress``
            (bit-identical results) with a full
            :meth:`~repro.service.QueryService.metrics` snapshot
            appended to ``metrics_stream`` after every slice.  Sampling
            at slice boundaries -- never from a thread -- keeps the
            reads race-free against the engine's own mutation.
        metrics_stream: a
            :class:`~repro.obs.stream.MetricsStreamWriter` (anything
            with a ``sample(payload)`` method) receiving the live
            snapshots; required when ``metrics_interval`` is set.
        shards: partition the mix by query id across this many worker
            processes, each driving its own engine over an identically
            seeded copy of the network.  Sessions are private and churn
            is a fixed schedule, so every per-query row -- and therefore
            the recomputed determinism digest -- is bit-identical to the
            single-process run; service-level tallies are merged by
            :func:`repro.service.engine.merge_shard_summaries`.
        share_floods: enable the cross-tenant shared-flood cache.
            Content-derived seeds make every per-query result
            bit-identical with sharing on or off; only the message
            totals (and the digest-independent service tallies) shrink.
        admission: an :class:`~repro.service.AdmissionConfig` arming
            the overload control loop (picklable, so it ships to shard
            workers unchanged).  Note that admission decisions read
            live engine state, so a sharded drive -- where each worker
            sees only its slice of the load -- can shed a different set
            of queries than the single-process run.
        _session_slice: internal ``(worker, shards)`` filter -- submit
            only queries whose id lands on this worker (ids are pinned
            so per-session seeds match the unsharded run).

    Returns:
        ``{"rows": [...], "summary": {...}, "metrics": {...}}``.  The
        summary's ``determinism_digest`` hashes every query's declared
        value and cost fingerprint, so two identically seeded runs can be
        compared with one string; ``metrics`` is the service metrics
        snapshot (engine tallies, queue occupancy, per-tenant breakdown).
    """
    make_stats_sink(stats)  # validates the historical names, nothing more
    if mix is None:
        mix = QueryMixConfig(qps=qps, duration=duration)
    mix = mix.replace(**mix_overrides)
    if int(shards) < 1:
        raise ValueError("shards must be at least 1")
    if shards > 1:
        if _session_slice is not None:
            raise ValueError("worker slices cannot themselves shard")
        if (tracer is not None or progress is not None
                or metrics_stream is not None):
            raise ValueError(
                "sharded query mixes cannot carry a tracer, progress "
                "callback or metrics stream across process boundaries; "
                "run with shards=1")
        if prebuilt_topology is not None:
            raise ValueError(
                "sharded query mixes rebuild the topology per worker; "
                "pass the generator name instead of a prebuilt topology")
        return _run_sharded_query_mix(
            shards=int(shards), num_hosts=num_hosts, topology=topology,
            seed=seed, delay=delay, departures=departures, mix=mix,
            share_floods=share_floods, admission=admission)

    if prebuilt_topology is not None:
        topo = prebuilt_topology
    else:
        topo = topology_from_spec(topology, num_hosts, seed)
    rng = random.Random(seed)
    values = [rng.random() * 100.0 for _ in range(topo.num_hosts)]

    churn: Optional[ChurnSchedule] = None
    if departures > 0:
        churn = uniform_failure_schedule(
            candidates=list(range(topo.num_hosts)),
            num_failures=departures,
            start=mix.duration * 0.05,
            end=mix.duration * 0.95,
            seed=seed,
        )

    submissions = generate_query_mix(topo.num_hosts, mix, seed=seed)

    service = QueryService(
        topo, values, churn=churn, seed=seed, delay=delay, tracer=tracer,
        share_floods=share_floods, admission=admission)
    for index, submission in enumerate(submissions):
        # Ids are pinned explicitly (1-based submission order, exactly
        # what auto-assignment would hand out) so a shard worker that
        # skips every other submission still derives the same
        # per-session seeds as the single-process run.
        qid = index + 1
        if _session_slice is not None:
            worker, span = _session_slice
            if qid % span != worker:
                continue
        service.submit(
            submission.protocol,
            submission.aggregate,
            querying_host=submission.querying_host,
            at=submission.time,
            stream=submission.stream,
            extra={"continuous": submission.continuous,
                   "report_index": submission.report_index},
            query_id=qid,
        )
    if metrics_interval is not None and metrics_stream is None:
        raise ValueError("metrics_interval needs a metrics_stream to "
                         "write to")
    if progress is None and metrics_stream is None:
        report = service.run()
    else:
        engine = service.engine
        interval = metrics_interval or max(mix.duration / 10.0, 1.0)
        horizon = 0.0
        while engine.pending_events():
            horizon += interval
            service.run(until=horizon)
            snapshot = {
                "time": min(horizon, engine.clock.now),
                "active_sessions": engine.active_sessions,
                "pending_events": engine.pending_events(),
                "messages_sent": engine.messages_sent,
                "late_messages": engine.late_messages,
                "retired": len(engine.retired_order),
            }
            if progress is not None:
                progress(snapshot)
            if metrics_stream is not None:
                sample = service.metrics()
                sample["service.sim_time"] = snapshot["time"]
                rss = current_rss_mb()
                if rss is not None:
                    sample["process.rss_mb"] = rss
                metrics_stream.sample(sample)
        report = service.run()

    late_by_query = service.engine.late_by_query
    rows: List[Dict[str, Any]] = []
    for outcome in report.outcomes:
        row = outcome.as_row()
        row["late_messages"] = late_by_query.get(outcome.query_id, 0)
        if outcome.costs is not None:
            row["cost_fingerprint"] = outcome.costs.fingerprint()
        rows.append(row)

    summary = dict(report.summary())
    summary.update({
        "hosts": topo.num_hosts,
        "topology": topo.name if prebuilt_topology is not None else topology,
        "qps": mix.qps,
        "duration": mix.duration,
        "seed": seed,
        "delay": delay or "fixed",
        "departures": departures,
        "share_floods": bool(share_floods),
        "determinism_digest": _rows_digest(rows),
    })
    return {"rows": rows, "summary": summary,
            "metrics": service.metrics()}


def _rows_digest(rows: List[Dict[str, Any]]) -> str:
    """The determinism digest: sha256 over every row's cost fingerprint
    and ``(query_id, value)``, in row (query id) order."""
    digest = hashlib.sha256()
    for row in rows:
        fingerprint = row.get("cost_fingerprint")
        if fingerprint is not None:
            digest.update(fingerprint.encode())
        digest.update(repr((row["query_id"], row["value"])).encode())
    return digest.hexdigest()


def _mix_shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool entry point: one worker's slice of the sharded query mix."""
    return run_query_mix(**payload)


def _run_sharded_query_mix(
    shards: int,
    num_hosts: int,
    topology: str,
    seed: int,
    delay: Optional[str],
    departures: int,
    mix: QueryMixConfig,
    share_floods: bool,
    admission,
) -> Dict[str, Any]:
    """Partition the mix by query id over a worker pool and merge.

    Each worker rebuilds the identical topology/values/churn/mix from
    the shared seed and drives only the queries whose 1-based id is
    congruent to its index mod ``shards``.  Per-query rows come back
    bit-identical to the single-process run (sessions are private;
    churn is a fixed schedule), so the parent reassembles them in id
    order and *recomputes* the determinism digest with the exact
    single-process algorithm -- digest equality is the end-to-end proof
    that sharding changed nothing a tenant can observe.
    """
    payloads = [
        {
            "num_hosts": num_hosts, "topology": topology, "seed": seed,
            "delay": delay, "departures": departures, "mix": mix,
            "share_floods": share_floods, "admission": admission,
            "_session_slice": (worker, shards),
        }
        for worker in range(shards)
    ]
    with pool_context().Pool(processes=shards) as pool:
        shard_results = pool.map(_mix_shard_worker, payloads)

    rows = sorted(
        (row for result in shard_results for row in result["rows"]),
        key=lambda row: row["query_id"])
    summary = merge_shard_summaries(
        [result["summary"] for result in shard_results], rows)
    summary["determinism_digest"] = _rows_digest(rows)
    summary["shards"] = shards
    return {
        "rows": rows,
        "summary": summary,
        "metrics": {
            "service.shards": shards,
            "per_shard": [result["metrics"] for result in shard_results],
        },
    }
