"""Tracing overhead guard: a traced 10k-host run stays within 1.15x.

The telemetry subsystem's enabled-path promise: with a `RingTracer` at
default sampling attached, the kernel pays one method call per event and
a bounded ring append per *sampled* event -- so a traced run must stay
within 15% of the untraced wall-clock.  The disabled path is locked
bit-identical by ``tests/obs/test_zero_cost.py``; this module locks the
enabled path's price and leaves the trace + metrics snapshot behind as
CI artifacts (``OBS_trace.out.json`` / ``OBS_metrics.out.json``,
gitignored, uploaded by the perf-smoke job).

Samples are paired (untraced then traced, back to back, five rounds)
for the same reason the kernel benchmark interleaves calibration and
workload: a load spike on a shared machine then inflates a whole
round's ratio, not one side of it, and the budget is judged on the
best paired round.  Set ``REPRO_BENCH_RELAX=1`` to record without
asserting.
"""

from __future__ import annotations

import json
import os
import time

import pytest

#: Traced wall-clock must stay within this factor of untraced.
TRACED_OVERHEAD_FACTOR = 1.15

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACE_OUT = os.path.join(BENCH_DIR, "OBS_trace.out.json")
METRICS_OUT = os.path.join(BENCH_DIR, "OBS_metrics.out.json")

_RELAX = os.environ.get("REPRO_BENCH_RELAX") == "1"

HOSTS = 10_000
SEED = 1


def test_traced_10k_run_within_overhead_budget():
    from repro.obs.trace import RingTracer
    from repro.protocols.base import run_protocol
    from repro.protocols.wildfire import Wildfire
    from repro.simulation.vector_lane import DEFAULT_LANE
    from repro.topology.gnutella import gnutella_like_topology

    topology = gnutella_like_topology(HOSTS, seed=SEED)
    values = [1.0] * topology.num_hosts

    def one_run(tracer, lane="python"):
        # The budget is a same-lane price, taken on the spec loop: the
        # hook costs the same on the default lane, but over a ~5x cheaper
        # delivery, so that lane's ratio is higher (1.2-1.3x) while its
        # traced wall-clock is far lower -- which is what the third run
        # of each round checks instead.
        start = time.perf_counter()
        result = run_protocol(Wildfire(), topology, values, "count",
                              seed=SEED, tracer=tracer, lane=lane)
        return time.perf_counter() - start, result

    # Five paired rounds; the budget is judged on the best *paired*
    # round.  Pairing untraced/traced back-to-back correlates machine
    # load across the two halves, so a CI neighbour's sustained spike
    # inflates a whole round's ratio rather than one side of a
    # cross-round min -- one clean round is enough to prove the price.
    rounds = []
    tracer = None
    traced_result = None
    untraced_result = None
    for _ in range(5):
        untraced_elapsed, untraced_result = one_run(None)
        round_tracer = RingTracer()       # fresh ring: no eviction skew
        traced_elapsed, traced_result = one_run(round_tracer)
        # The same traced run as a user runs it: the default lane
        # engages under the tracer and declares what the spec loop does.
        default_elapsed, default_result = one_run(RingTracer(),
                                                  DEFAULT_LANE)
        assert (default_result.lane_used, default_result.fallback_reason) \
            == (DEFAULT_LANE, None)
        assert default_result.value == traced_result.value
        assert (default_result.costs.fingerprint()
                == traced_result.costs.fingerprint()
                == untraced_result.costs.fingerprint())
        rounds.append((traced_elapsed / untraced_elapsed,
                       untraced_elapsed, traced_elapsed, default_elapsed,
                       round_tracer))

    ratio, best_untraced, best_traced, best_default, tracer = min(rounds)
    print(f"\n10k hosts, best paired round: untraced {best_untraced:.3f}s, "
          f"traced {best_traced:.3f}s -> {ratio:.3f}x "
          f"(budget {TRACED_OVERHEAD_FACTOR}x; all rounds "
          f"{[round(r[0], 3) for r in sorted(rounds)]}); traced on the "
          f"default lane {best_default:.3f}s")

    # Tracing observes only: identical results either way.
    assert traced_result.fallback_reason is None
    assert traced_result.value == untraced_result.value
    assert traced_result.costs.messages_sent == \
        untraced_result.costs.messages_sent
    assert tracer.counts["send"] == traced_result.costs.messages_sent

    # Leave the artifacts behind for the CI upload: the full sampled
    # trace (Perfetto-loadable) and a metrics snapshot beside it.
    trace_bytes = os.path.getsize(TRACE_OUT) \
        if tracer.export_chrome(TRACE_OUT) >= 0 else 0
    snapshot = dict(traced_result.costs.summary())
    snapshot["accounting_bytes"] = traced_result.costs.footprint_bytes()
    snapshot["obs.trace"] = tracer.summary()
    snapshot["obs.trace_bytes"] = trace_bytes
    snapshot["obs.untraced_seconds"] = round(best_untraced, 4)
    snapshot["obs.traced_seconds"] = round(best_traced, 4)
    snapshot["obs.overhead_ratio"] = round(ratio, 4)
    with open(METRICS_OUT, "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")

    # The exported trace must stay inside the documented 64 MiB bound.
    assert trace_bytes < 64 * 1024 * 1024

    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (measured {ratio:.3f}x)")
    assert ratio <= TRACED_OVERHEAD_FACTOR, (
        f"traced 10k-host run is {ratio:.3f}x the untraced wall-clock, "
        f"over the {TRACED_OVERHEAD_FACTOR}x budget "
        f"({best_traced:.3f}s vs {best_untraced:.3f}s)")
    assert best_default <= best_traced, (
        f"traced default-lane run took {best_default:.3f}s, longer than "
        f"the traced spec loop's {best_traced:.3f}s in the same round")


def test_traced_sharded_run_within_overhead_budget():
    """Per-worker tracing keeps the sharded lane inside the same 1.15x.

    Each worker pays the spec engine's price locally (one pointer check
    per hook, a ring append per sampled event) plus one raw-tuple ship
    over the result pipe at the end; the merged trace must not change
    the declared results at all.  Paired rounds, judged on the best
    pair, as above.
    """
    from repro.obs.trace import RingTracer
    from repro.protocols.base import run_protocol
    from repro.protocols.wildfire import Wildfire
    from repro.topology.random_graph import random_topology
    from repro.workloads.values import uniform_values

    hosts = 4_000
    shards = 2
    topology = random_topology(hosts, avg_degree=4.0, seed=SEED)
    values = uniform_values(hosts, low=1, high=50, seed=SEED)

    def one_run(tracer):
        start = time.perf_counter()
        result = run_protocol(Wildfire(), topology, values, "count",
                              querying_host=0, seed=SEED, tracer=tracer,
                              lane="sharded", shards=shards)
        elapsed = time.perf_counter() - start
        assert result.fallback_reason is None, (
            f"sharded lane fell back: {result.fallback_reason}")
        return elapsed, result

    rounds = []
    for _ in range(5):
        untraced_elapsed, untraced_result = one_run(None)
        round_tracer = RingTracer()
        traced_elapsed, traced_result = one_run(round_tracer)
        rounds.append((traced_elapsed / untraced_elapsed,
                       untraced_elapsed, traced_elapsed, round_tracer))

    ratio, best_untraced, best_traced, tracer = min(rounds)
    print(f"\n{hosts} hosts x{shards} shards, best paired round: "
          f"untraced {best_untraced:.3f}s, traced {best_traced:.3f}s "
          f"-> {ratio:.3f}x (budget {TRACED_OVERHEAD_FACTOR}x; all "
          f"rounds {[round(r[0], 3) for r in sorted(rounds)]})")

    # Observe-only across process boundaries: identical declared value
    # and cost accounting, one process track per shard, exact counts.
    assert traced_result.value == untraced_result.value
    assert (traced_result.costs.fingerprint()
            == untraced_result.costs.fingerprint())
    assert tracer.counts["send"] == traced_result.costs.messages_sent
    assert len(tracer.processes) == shards

    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (measured {ratio:.3f}x)")
    assert ratio <= TRACED_OVERHEAD_FACTOR, (
        f"traced sharded run is {ratio:.3f}x the untraced wall-clock, "
        f"over the {TRACED_OVERHEAD_FACTOR}x budget "
        f"({best_traced:.3f}s vs {best_untraced:.3f}s)")
