"""Coordinator for the sharded lane: gate, pre-pass, fork, merge.

The coordinator turns one :class:`~repro.simulation.engine.Simulator`
into ``K`` lockstep shard runs and folds their results back into a
single :class:`~repro.simulation.engine.SimulationResult` that is
bit-identical (value, cost fingerprint, declaration time) to the
single-process engine.  The sequence:

1. **Gate and plan** -- the checks only a multi-process run adds (an
   exact ``RingTracer`` or none, and the ``fork`` start method for
   ``K > 1`` since worker arguments reference the live simulator and
   must not be pickled),
   then the tick lanes' shared :func:`~repro.simulation.vector_lane.plan_run`
   (fixed delay, kernel-supported hosts -- here WILDFIRE's
   only: the pre-pass below and the canonical keys are derived from its
   Broadcast-first activation order), which names the reason, having
   touched nothing, or admits the run; the host range is then cut into
   ``K`` shards by edge count and the failure plan read off the churn
   schedule (the query start at time 0 is the lane's own
   first step).
2. **Activation pre-pass** -- compute every host's global activation
   rank content-independently on a throwaway network copy.  WILDFIRE
   activations are caused by Broadcast records only (any Convergecast
   reaching an inactive alive host is a dirty multicast whose Broadcast
   sibling reaches that host at the same instant, earlier in FIFO
   order), so a BFS-with-churn replay of the Broadcast wave yields the
   exact activation order without knowing any aggregate content.
3. **RNG pre-draw** -- replay ``combiner.initial`` against the shared
   run RNG in activation order, recording each host's draws; workers
   replay their partition's tape, so RNG consumption is bit-exact and
   the parent's RNG ends in the spec engine's post-run state.
4. **Run** -- ``K=1`` runs the shard lane in-process (an executable
   cross-check of the epoch protocol itself); ``K>1`` forks one worker
   per shard wired with a pipe matrix for the pairwise epoch barriers.
5. **Merge** -- fold the shards' commutative accounting into the stats
   sink (:func:`~repro.simulation.vector_lane.replay_accounting`),
   replicate the consumed churn onto the parent's own network, and
   stamp the declaration clock.
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_right
from multiprocessing import connection as mp_connection
from operator import itemgetter
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.protocols.wildfire import WildfireBatchKernel
from repro.simulation.clock import instant_after
from repro.simulation.sharded import pool_context
from repro.simulation.sharded.worker import (
    _RecordingRng,
    _ShardLane,
    _worker_main,
    local_exchange,
)
from repro.simulation.vector_lane import plan_run, replay_accounting

__all__ = ["run_sharded"]


def failure_plan(churn, horizon: float) -> List[Tuple[float, int]]:
    """The failures every shard applies itself: the churn schedule's,
    due by ``horizon``, as ``(time, host)`` in stable time order --
    exactly the calendar's ``(time, seq)`` drain order."""
    return sorted((fail for fail in churn.failures if fail[0] <= horizon),
                  key=itemgetter(0))


def run_sharded(simulator, horizon: float):
    """Try to run ``simulator`` on the sharded lane.

    Returns ``(result, None)`` on engagement or ``(None, reason)`` on
    fallback; a fallback consumes nothing, so the spec loop proceeds
    untouched.
    """
    from repro.obs.trace import RingTracer

    tracer = simulator.tracer
    shards = simulator.shards
    if tracer is not None and type(tracer) is not RingTracer:
        # Workers trace into fresh rings and the coordinator merges raw
        # ring tuples; a third-party tracer subclass could observe state
        # the result pipe cannot carry, so only the exact RingTracer is
        # supported (anything else falls back to the spec loop, which
        # calls every hook in-process).
        reason = "unsupported tracer (sharded tracing needs RingTracer)"
    elif (shards > 1
          and "fork" not in multiprocessing.get_all_start_methods()):
        reason = "fork start method unavailable"
    else:
        reason = None
    kernel, reason = plan_run(simulator, simulator.session, reason,
                              kernels=(WildfireBatchKernel,))
    if reason is not None:
        return None, reason
    bounds = simulator.network.partition_bounds(shards)
    fails = failure_plan(simulator._churn, horizon)

    act_rank, act_order = _activation_prepass(simulator, fails, horizon)
    draws_by_shard = _predraw(simulator.hosts, act_order, bounds, shards)

    # Tracing config travels as plain data: every worker (forked or the
    # K=1 in-process lane) builds a *fresh* RingTracer from it, so the
    # parent ring never sees partial per-shard state and the merged
    # output has one "shard k" track for every K.
    trace_conf = ((tracer.capacity, dict(tracer.sampling))
                  if tracer is not None else None)
    # One wall-clock origin for every shard's timeline/trace timestamps:
    # perf_counter() is CLOCK_MONOTONIC on Linux, comparable across
    # forked children.
    wall_base = perf_counter()

    if shards == 1:
        child_tracer = (RingTracer(trace_conf[0], trace_conf[1])
                        if trace_conf is not None else None)
        lane = _ShardLane(simulator, simulator.session, kernel, horizon,
                          fails, 0, bounds, act_rank, local_exchange,
                          tracer=child_tracer, wall_base=wall_base)
        lane.install_replay_rng(draws_by_shard[0])
        try:
            lane.run()
        finally:
            lane.restore_rng()
        results = [lane.collect_result()]
    else:
        results = _run_forked(simulator, kernel, shards, bounds, act_rank,
                              draws_by_shard, fails, horizon, trace_conf,
                              wall_base)
    return _merge(simulator, results, fails, bounds, shards), None


# ----------------------------------------------------------------------
# Content-independent activation pre-pass
# ----------------------------------------------------------------------
def _activation_prepass(simulator, fails: Sequence[Tuple[float, int]],
                        horizon: float):
    """Global activation ranks, computed before any shard runs.

    Replays the Broadcast wave (the only cause of activations) against
    the churn schedule on a throwaway network copy: a host activates the
    first instant a Broadcast from an already-activated neighbor reaches
    it alive before the global deadline, and activation order within an
    instant is (sender activation rank, destination ascending) -- the
    spec loop's delivery FIFO order.  Returns ``(act_rank, act_order)``
    where ``act_rank[h]`` is ``h``'s dense global rank (``None`` if it
    never activates) and ``act_order`` lists hosts in rank order.
    """
    qh = simulator.querying_host
    delta = simulator.delta
    gdl = simulator.hosts[qh].run.global_deadline
    net = simulator.network.copy()
    act_rank: List[Optional[int]] = [None] * net.num_hosts
    act_order: List[int] = []
    fail_index = 0
    num_fails = len(fails)

    # Instant 0.0: the query start precedes any time-0 failures.
    frontier: List[tuple] = []
    if net.is_alive(qh):
        act_rank[qh] = 0
        act_order.append(qh)
        targets = net.alive_neighbors_sorted(qh)
        if targets:
            frontier.append((qh, targets))
    while fail_index < num_fails and fails[fail_index][0] <= 0.0:
        time, host = fails[fail_index]
        if net.is_alive(host):
            net.fail_host(host, time)
        fail_index += 1

    t = 0.0
    while frontier:
        t_next = instant_after(t, delta, delta)
        if t_next > horizon:
            break
        while fail_index < num_fails and fails[fail_index][0] < t_next:
            time, host = fails[fail_index]
            if net.is_alive(host):
                net.fail_host(host, time)
            fail_index += 1
        t = t_next
        new_frontier: List[tuple] = []
        if t < gdl:
            for sender, dests in frontier:
                for dest in dests:
                    if act_rank[dest] is None and net.is_alive(dest):
                        act_rank[dest] = len(act_order)
                        act_order.append(dest)
                        # The fresh activee broadcasts onward to its
                        # alive neighbors minus its activator -- the
                        # next instant's Broadcast wave.
                        targets = tuple(
                            x for x in net.alive_neighbors_sorted(dest)
                            if x != sender)
                        if targets:
                            new_frontier.append((dest, targets))
        frontier = new_frontier
        while fail_index < num_fails and fails[fail_index][0] == t:
            time, host = fails[fail_index]
            if net.is_alive(host):
                net.fail_host(host, time)
            fail_index += 1
    return act_rank, act_order


def _predraw(hosts, act_order: Sequence[int], bounds: Sequence[int],
             shards: int) -> List[list]:
    """Record every activation's RNG draws, bucketed by owning shard.

    Runs ``combiner.initial`` for each activating host in global
    activation order against the *real* shared run RNG (so the parent's
    RNG ends in the exact post-run spec state) and segments the tagged
    draws per host.  A shard's tape is the concatenation of its own
    hosts' segments in global activation order -- which is exactly the
    order the shard's local activations occur in, since restriction
    preserves relative order.
    """
    per_shard: List[list] = [[] for _ in range(shards)]
    if not act_order:
        return per_shard
    combiner = hosts[act_order[0]].run.combiner
    recorder = _RecordingRng(hosts[act_order[0]].run.rng)
    draws = recorder.draws
    mark = 0
    for host_id in act_order:
        combiner.initial(hosts[host_id].value, recorder)
        if len(draws) > mark:
            per_shard[bisect_right(bounds, host_id) - 1].extend(
                draws[mark:])
            mark = len(draws)
    return per_shard


# ----------------------------------------------------------------------
# Forked execution (K > 1)
# ----------------------------------------------------------------------
def _run_forked(simulator, kernel, shards: int, bounds, act_rank,
                draws_by_shard, fails, horizon: float, trace_conf,
                wall_base: float) -> List[dict]:
    ctx = pool_context()
    # pipes[i][j] carries i -> j epoch blobs; result pipes carry one
    # final dict per worker.  All ends are created before the forks so
    # every worker inherits its wiring.
    pipes = [[None] * shards for _ in range(shards)]
    for i in range(shards):
        for j in range(shards):
            if i != j:
                pipes[i][j] = multiprocessing.Pipe(duplex=False)
    result_pipes = [multiprocessing.Pipe(duplex=False)
                    for _ in range(shards)]
    procs = []
    for shard in range(shards):
        senders = [pipes[shard][j][1] if j != shard else None
                   for j in range(shards)]
        receivers = [pipes[j][shard][0] if j != shard else None
                     for j in range(shards)]
        procs.append(ctx.Process(
            target=_worker_main,
            args=(simulator, kernel, shard, shards, bounds, act_rank,
                  draws_by_shard[shard], fails, horizon, trace_conf,
                  wall_base, senders, receivers, result_pipes[shard][1]),
            daemon=True,
        ))
    for proc in procs:
        proc.start()
    # Close the parent's copies so a worker crash surfaces as EOF on its
    # result pipe instead of a hang.
    for i in range(shards):
        for j in range(shards):
            if i != j:
                pipes[i][j][0].close()
                pipes[i][j][1].close()
    for shard in range(shards):
        result_pipes[shard][1].close()

    readers = {result_pipes[shard][0]: shard for shard in range(shards)}
    results: List[Optional[dict]] = [None] * shards
    error: Optional[dict] = None
    pending = set(readers)
    while pending and error is None:
        for conn in mp_connection.wait(list(pending)):
            shard = readers[conn]
            try:
                payload = conn.recv()
            except EOFError:
                payload = {"shard": shard,
                           "error": "worker exited without a result"}
            pending.discard(conn)
            if "error" in payload:
                error = payload
            else:
                results[payload["shard"]] = payload
    if error is not None:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
        raise RuntimeError(
            f"sharded worker {error['shard']} failed:\n{error['error']}")
    for proc in procs:
        proc.join()
    for conn in readers:
        conn.close()
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Result merge
# ----------------------------------------------------------------------
def _merge(simulator, results: Sequence[Dict[str, Any]],
           fails: Sequence[Tuple[float, int]], bounds, shards: int):
    """Fold shard results into the parent's sink, network and clock."""
    from repro.simulation.engine import SimulationResult

    costs = simulator.costs
    replay_accounting(costs, results)
    # Every lane's clock stops on the last instant it processed or the
    # last failure it applied, whichever is later.
    finished = max(res["finished_at"] for res in results)
    value = None
    worker_metrics = []
    timeline: List[Dict[str, Any]] = []
    for res in results:
        timeline.extend(res["timeline"])
        worker_metrics.append({"shard": res["shard"], **res["metrics"]})
        if res.get("has_value"):
            value = res["value"]

    # Churn parity: the run consumed these failures, but forked workers
    # applied them to process-private copies; mirror them onto the
    # parent's network and hosts so post-run state matches the spec
    # engine (a no-op after the in-process K=1 lane, which already did).
    network = simulator.network
    hosts = simulator.hosts
    for time, host in fails:
        if network.is_alive(host):
            network.fail_host(host, time)
            hosts[host].on_fail(time)

    simulator.clock._now = finished
    extra = {"sharded": {
        "shards": shards,
        "bounds": list(bounds),
        "workers": worker_metrics,
        "timeline": timeline,
    }}

    # Cross-shard trace merge: fold every worker's ring (raw tuples over
    # the result pipe) into the parent tracer as one process track per
    # shard, with its epoch/barrier wall-clock spans alongside.  Counts
    # merge into the parent's exact counters, so ``counts["send"]`` is
    # the run-wide total even for records the rings sampled away.
    tracer = simulator.tracer
    if tracer is not None:
        from repro.obs.timeline import ShardTimeline

        spans = ShardTimeline(shards, timeline).spans_by_shard()
        for res in results:
            trace = res.get("trace")
            if trace is None:
                continue
            tracer.ingest_process(
                f"shard {res['shard']}", trace["records"],
                counts=trace["counts"],
                spans=spans[res["shard"]])
    return SimulationResult(
        value=value,
        costs=costs,
        finished_at=finished,
        querying_host=simulator.querying_host,
        extra=extra,
    )
