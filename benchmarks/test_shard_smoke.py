"""CI smoke for the sharded execution lane.

A fast end-to-end differential of ``--lane sharded``: one 500-host
WILDFIRE count cell with churn, run on the executable-spec python lane
and on the sharded lane at 2 worker processes, asserting the full
bit-identity contract (declared value, cost fingerprint, declaration
time) plus actual engagement (a silent fallback to the spec loop would
pass the differential vacuously).  The comparison report is written
next to the committed benchmarks (``SHARD_smoke.out.json``, gitignored)
so CI can upload it as an artifact; override the path with
``REPRO_SHARD_OUT``.
"""

from __future__ import annotations

import json
import os
import time

NUM_HOSTS = 500
SEED = 23
SHARDS = 2

OUT_PATH = os.environ.get(
    "REPRO_SHARD_OUT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "SHARD_smoke.out.json"))


def _run(lane, shards=1):
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
                          lane=lane, shards=shards)
    elapsed = time.perf_counter() - started
    return result, {
        "value": result.value,
        "cost_fingerprint": result.costs.fingerprint(),
        "declared_at": result.finished_at,
        "messages": result.costs.messages_sent,
    }, round(elapsed, 4)


def test_sharded_smoke_differential():
    _, python_digest, python_seconds = _run("python")
    result, shard_digest, shard_seconds = _run("sharded", shards=SHARDS)
    assert result.fallback_reason is None, (
        f"sharded lane fell back: {result.fallback_reason}")
    assert shard_digest == python_digest

    info = result.extra["sharded"]
    assert info["shards"] == SHARDS
    assert len(info["workers"]) == SHARDS

    report = {
        "hosts": NUM_HOSTS,
        "seed": SEED,
        "shards": SHARDS,
        "python": dict(python_digest, run_seconds=python_seconds),
        "sharded": dict(shard_digest, run_seconds=shard_seconds),
        "bit_identical": shard_digest == python_digest,
        "worker_metrics": info["workers"],
        "bounds": info["bounds"],
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nshard smoke: value {shard_digest['value']:.2f}, "
          f"{shard_digest['messages']} messages, python "
          f"{python_seconds}s vs sharded x{SHARDS} {shard_seconds}s, "
          f"bit-identical across lanes")
