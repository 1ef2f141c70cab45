"""Replay kernels: the hot layers the engine inlines, driven directly.

``Simulator.run`` inlines its queue, sketch and accounting calls, so no
wrapper can time them without costing more than they do.  Each kernel here
drives one such layer through its public API with a synthetic op stream
and reports nanoseconds per operation; ``share.<layer>`` = operations in
the workload x ns / ``run_s`` is then the ceiling on what a faster layer
can save there (one process, nothing contends).
"""

from __future__ import annotations

import functools
import random
import time

from repro.simulation.delay import delay_model_from_spec
from repro.simulation.events import EventQueue
from repro.simulation.messages import Message
from repro.simulation.stats import CostAccounting, StreamingCostAccounting
from repro.sketches.combiners import FMCountCombiner

#: Events filed per simulated tick, in the ratio ``flood_py`` files them at
#: seed 1 (per 1000 pops: 780 multicast destinations in batches of 6,
#: 36 unicasts, 184 timers).
_MULTICASTS, _FANOUT, _UNICASTS, _TIMERS = 130, 6, 36, 184
_PER_TICK = _MULTICASTS * _FANOUT + _UNICASTS + _TIMERS


def _events(ops: int, inputs, jitter: bool, by_tick: bool) -> float:
    """Push + pop cost of one event (``pop_due`` or ``pop_tick`` drain)."""
    ticks = max(1, ops // _PER_TICK)
    queue = EventQueue(width=1.0)
    message = Message(0, 1, "k", {}, 0.0, 1)
    dests = tuple(range(_FANOUT))
    rng = random.Random(0)
    # Uniform (0, 1] offsets, drawn before the clock starts.
    offsets = [1.0 - rng.random() for _ in range(_PER_TICK)]
    pop = queue.pop_tick if by_tick else queue.pop_due
    start = time.perf_counter()
    for tick in range(ticks):
        base = float(tick)
        if jitter:
            # Variable delay files one message per destination.
            for offset in offsets[:_PER_TICK - _TIMERS]:
                queue.push_deliver(base + offset, message)
        else:
            for sender in range(_MULTICASTS):
                queue.push_multicast(base + 1.0, sender, dests, "k", {},
                                     base, 1)
            for _ in range(_UNICASTS):
                queue.push_deliver(base + 1.0, message)
        for host in range(_TIMERS):
            queue.push_timer(base + 1.0, host, "t", None)
        while pop(base + 1.0) is not None:
            pass
    return (time.perf_counter() - start) / (ticks * _PER_TICK) * 1e9


events_fixed = functools.partial(_events, jitter=False, by_tick=False)
events_jitter = functools.partial(_events, jitter=True, by_tick=False)
events_tick = functools.partial(_events, jitter=False, by_tick=True)


def _sketches(repetitions: int, count: int = 64):
    combiner = FMCountCombiner(repetitions)
    rng = random.Random(0)
    return combiner, [combiner.initial(1.0, rng) for _ in range(count)]


def _pairwise(function, states, ops: int) -> float:
    rounds = max(1, ops // len(states))
    start = time.perf_counter()
    for _ in range(rounds):
        previous = states[-1]
        for state in states:
            function(previous, state)
            previous = state
    return (time.perf_counter() - start) / (rounds * len(states)) * 1e9


def sketch_absorbs(ops, inputs):
    combiner, states = _sketches(8)
    return _pairwise(combiner.absorbs, states, ops)


def sketch_combine(ops, inputs):
    combiner, states = _sketches(8)
    return _pairwise(combiner.combine, states, ops)


def sketch_initial(ops, inputs):
    combiner = FMCountCombiner(16)
    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(ops):
        combiner.initial(1.0, rng)
    return (time.perf_counter() - start) / ops * 1e9


def _records(sink, ops: int) -> float:
    """One processed delivery per record, one batched send per fan-out."""
    hosts = 1000
    start = time.perf_counter()
    for index in range(ops):
        sink.record_processed(index % hosts, 3)
        if index % _FANOUT == 0:
            sink.record_send_batch("k", float(index % 32), _FANOUT)
    return (time.perf_counter() - start) / ops * 1e9


def stats_streaming(ops, inputs):
    return _records(StreamingCostAccounting(num_hosts=1000), ops)


def stats_full(ops, inputs):
    return _records(CostAccounting(), ops)


def delay_sample(ops, inputs):
    model = delay_model_from_spec("uniform", 1.0, seed=0)
    start = time.perf_counter()
    for index in range(ops):
        model.sample(index, index + 1, 0.0)
    return (time.perf_counter() - start) / ops * 1e9


def neighbors_cold(ops, inputs):
    """``alive_neighbors_sorted`` on the views a ``fail_host`` just dropped."""
    topology = inputs.topology
    network = topology.to_network()
    victims = list(range(1, topology.num_hosts))
    random.Random(0).shuffle(victims)
    elapsed, calls = 0.0, 0
    for victim in victims[:topology.num_hosts // 2]:
        if calls >= ops:
            break
        stale = topology.adjacency[victim]
        network.fail_host(victim, 0.0)
        start = time.perf_counter()
        for host in stale:
            network.alive_neighbors_sorted(host)
        elapsed += time.perf_counter() - start
        calls += len(stale)
    return elapsed / calls * 1e9


#: ``layer -> (metric suffix, kernel, workloads it applies to, the layer
#: number that counts its operations in a rep)``.
KERNELS = {
    "simulation.events.fixed": (
        "_ns_per_event", events_fixed, ("flood_py", "churn_sweep"),
        "simulation.stats.messages"),
    "simulation.events.jitter": (
        "_ns_per_event", events_jitter, ("flood_jitter",),
        "simulation.stats.messages"),
    "simulation.events.tick": (
        "_ns_per_event", events_tick, ("flood_py", "flood_vec"),
        "simulation.stats.messages"),
    "sketches.absorbs": (
        "_ns", sketch_absorbs, ("flood_py", "flood_jitter"),
        "simulation.stats.messages"),
    "sketches.combine": (
        "_ns", sketch_combine, ("flood_py", "flood_jitter"),
        "simulation.stats.messages"),
    "sketches.initial": (
        "_ns", sketch_initial, ("churn_sweep",), "sketch_inits"),
    "simulation.stats.streaming": (
        "_ns_per_record", stats_streaming, ("flood_py",),
        "simulation.stats.messages"),
    "simulation.stats.full": (
        "_ns_per_record", stats_full, ("flood_jitter", "churn_sweep"),
        "simulation.stats.messages"),
    "simulation.delay.sample": (
        "_ns", delay_sample, ("flood_jitter",), "simulation.stats.messages"),
    "simulation.network.neighbors_cold": (
        "_ns", neighbors_cold, ("churn_sweep",), "stale_views"),
}
