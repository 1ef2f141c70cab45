"""CI smoke for distributed tracing on the sharded lane.

A fast end-to-end check that ``--lane sharded --trace-out`` really
produces ONE merged, Perfetto-loadable trace: one 500-host WILDFIRE
count cell with churn runs traced at 2 worker processes, and the test
asserts engagement, bit-identity against the untraced sharded run (the
tracer observes only, even across fork), one process track per shard,
epoch/barrier wall-clock spans, and monotone per-track timestamps (the
Perfetto loadability bar).  The merged trace is written next to the
committed benchmarks (``OBS_shard_trace.out.json``, gitignored) so CI
can upload it as an artifact; override the path with
``REPRO_OBS_SHARD_OUT``.
"""

from __future__ import annotations

import json
import os
import time

NUM_HOSTS = 500
SEED = 23
SHARDS = 2

OUT_PATH = os.environ.get(
    "REPRO_OBS_SHARD_OUT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "OBS_shard_trace.out.json"))


def _run(tracer):
    from repro.protocols.base import run_protocol
    from repro.protocols.wildfire import Wildfire
    from repro.simulation.churn import uniform_failure_schedule
    from repro.topology.random_graph import random_topology
    from repro.workloads.values import uniform_values

    topology = random_topology(NUM_HOSTS, avg_degree=4.0, seed=SEED)
    values = uniform_values(NUM_HOSTS, low=1, high=50, seed=SEED)
    churn = uniform_failure_schedule(
        candidates=list(range(NUM_HOSTS)), num_failures=10,
        start=0.5, end=6.0, seed=SEED, protect=[0])
    started = time.perf_counter()
    result = run_protocol(Wildfire(), topology, values, "count",
                          querying_host=0, churn=churn, seed=SEED,
                          tracer=tracer, lane="sharded", shards=SHARDS)
    elapsed = time.perf_counter() - started
    return result, {
        "value": result.value,
        "cost_fingerprint": result.costs.fingerprint(),
        "declared_at": result.finished_at,
        "messages": result.costs.messages_sent,
    }, round(elapsed, 4)


def test_sharded_trace_smoke():
    from repro.obs.timeline import ShardTimeline
    from repro.obs.trace import RingTracer
    untraced, untraced_digest, untraced_seconds = _run(None)
    tracer = RingTracer()
    result, traced_digest, traced_seconds = _run(tracer)
    for run in (untraced, result):
        assert run.fallback_reason is None, (
            f"sharded lane fell back: {run.fallback_reason}")

    # Tracing observes only, even across the fork boundary.
    assert traced_digest == untraced_digest

    # The merged ring carries one process track per shard, with records
    # in every track, and exact run-wide counts despite ring sampling.
    track_summaries = tracer.summary()["processes"]
    assert [p["label"] for p in track_summaries] == [
        f"shard {k}" for k in range(SHARDS)]
    assert all(p["recorded"] > 0 for p in track_summaries)
    assert tracer.counts["send"] == result.costs.messages_sent

    # ... and the epoch/barrier timeline rode back with the result.
    timeline = ShardTimeline.from_run(result)
    assert timeline is not None and timeline.epochs() > 0
    stragglers = timeline.skew_report()
    assert len(stragglers) == timeline.epochs()

    # Export the merged trace and re-load it the way Perfetto would:
    # named process metadata for every shard plus the barrier timeline,
    # epoch/barrier "X" spans, and monotone per-(pid, tid) timestamps.
    written = tracer.export_chrome(OUT_PATH)
    with open(OUT_PATH) as handle:
        payload = json.load(handle)
    events = payload["traceEvents"]
    assert len(events) == written > 0
    process_names = {e["args"]["name"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
    expected = {f"shard {k}" for k in range(SHARDS)}
    expected.add("epoch barriers (wall clock)")
    assert expected <= process_names
    span_cats = {e["cat"] for e in events
                 if e["ph"] == "X" and e["cat"] in ("barrier", "epoch")}
    assert span_cats == {"barrier", "epoch"}
    tracks = {}
    for event in events:
        if event["ph"] == "M":
            continue
        tracks.setdefault((event["pid"], event.get("tid")),
                          []).append(event["ts"])
    for stamps in tracks.values():
        assert stamps == sorted(stamps)
    assert payload["metadata"]["counts"] == dict(tracer.counts)

    worst = timeline.health()["worst_epoch"]
    print(f"\nshard trace smoke: {written} events across {len(tracks)} "
          f"tracks, {timeline.epochs()} epochs, untraced {untraced_seconds}s "
          f"vs traced {traced_seconds}s, worst epoch "
          f"{worst['epoch']} (skew {worst['skew_s']}s), bit-identical")
