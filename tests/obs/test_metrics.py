"""Tests for the metrics registry and its pull collectors.

Metrics are pull-based: every collector reads structures the engines
already maintain, so the tests here double as a contract that those
structures (queue occupancy, per-tenant demux state, session table)
stay consistent with the engine's own accounting.
"""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    collect_queue_metrics,
    collect_run_metrics,
    collect_service_metrics,
    collect_shard_metrics,
)
from repro.protocols.base import run_protocol
from repro.protocols.wildfire import Wildfire
from repro.service import QueryService
from repro.simulation.events import EventKind, EventQueue
from repro.topology.random_graph import random_topology
from repro.workloads.values import uniform_values

SEED = 17


@pytest.fixture
def topology():
    return random_topology(60, avg_degree=4, seed=SEED)


@pytest.fixture
def values(topology):
    return uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)


class TestRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(3)
        registry.counter("a.count").inc(4)
        registry.gauge("b.depth").set(12)
        hist = registry.histogram("c.residency")
        for sample in (2.0, 8.0, 5.0):
            hist.observe(sample)
        snapshot = registry.snapshot()
        assert snapshot["a.count"] == 7
        assert snapshot["b.depth"] == 12
        assert snapshot["c.residency"] == {
            "count": 3, "sum": 15.0, "min": 2.0, "max": 8.0, "mean": 5.0}
        assert list(snapshot) == sorted(snapshot)

    def test_counters_only_move_forward(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_name_collisions_across_types_are_errors(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestRunCollector:
    def test_collects_cost_sink_of_a_run(self, topology, values):
        result = run_protocol(Wildfire(), topology, values, "count",
                              seed=SEED)
        snapshot = collect_run_metrics(result).snapshot()
        assert snapshot["run.messages_sent"] == result.costs.messages_sent
        assert snapshot["run.computation_cost"] == \
            result.costs.computation_cost
        assert snapshot["run.accounting_bytes"] > 0


class TestQueueCollector:
    def test_occupancy_matches_pending_population(self):
        queue = EventQueue()
        for i in range(25):
            queue.push(float(i % 7), EventKind.TIMER, host=i,
                       timer_name="t")
        cancelled = queue.push(3.0, EventKind.TIMER, host=99,
                               timer_name="t")
        queue.cancel(cancelled)
        snapshot = collect_queue_metrics(queue).snapshot()
        assert snapshot["queue.pending"] == len(queue) == 25
        assert snapshot["queue.cancelled"] == 1
        assert snapshot["queue.slots"] == 7
        assert not any("day" in name for name in snapshot)

    def test_iter_pending_agrees_with_len(self):
        queue = EventQueue()
        for i in range(40):
            queue.push(float(i % 11), EventKind.TIMER, host=i,
                       timer_name="t")
        assert sum(w for _, w in queue.iter_pending()) == len(queue)

    def test_window_fields_gauge_when_live_and_skip_when_empty(self):
        queue = EventQueue(width=2.0)
        # Empty queue: the horizon fields are None ("no next event" is
        # not a number) and must be skipped, not gauged.
        empty = collect_queue_metrics(queue).snapshot()
        assert "queue.horizon" not in empty
        assert "queue.current_epoch" not in empty
        queue.push(5.0, EventKind.TIMER, host=0, timer_name="t")
        live = collect_queue_metrics(queue).snapshot()
        assert live["queue.horizon"] == 5.0
        assert live["queue.current_epoch"] == 2


class TestShardCollector:
    def test_collects_per_shard_lane_metrics(self, topology, values):
        result = run_protocol(Wildfire(), topology, values, "count",
                              seed=SEED, lane="sharded", shards=2)
        assert "sharded" in result.extra
        snapshot = collect_shard_metrics(result).snapshot()
        assert snapshot["shard.shards"] == 2
        for shard in (0, 1):
            assert snapshot[f"shard.{shard}.epochs"] >= 1
            assert f"shard.{shard}.barrier_wait_s" in snapshot

    def test_non_sharded_results_fold_nothing(self, topology, values):
        result = run_protocol(Wildfire(), topology, values, "count",
                              seed=SEED)
        assert collect_shard_metrics(result).snapshot() == {}


class TestServiceCollector:
    def test_final_snapshot_covers_every_tenant(self, topology, values):
        service = QueryService(topology, values, seed=SEED)
        qids = [service.submit("wildfire", "count"),
                service.submit("spanning-tree", "sum", at=1.0),
                service.submit("dag2", "min", at=2.0)]
        service.run()
        snapshot = collect_service_metrics(service)
        engine = service.engine
        assert snapshot["service.messages_sent"] == engine.messages_sent
        assert snapshot["service.peak_active_sessions"] >= 2
        assert snapshot["service.retired_order"] == sorted(qids)
        tenants = snapshot["service.tenants"]
        assert sorted(tenants) == [str(q) for q in sorted(qids)]
        for row in tenants.values():
            assert row["status"] == "done"
            assert row["queue_depth"] == 0
            assert row["messages_sent"] > 0
            assert row["residency"] > 0
        assert snapshot["service.session_residency"]["count"] == len(qids)

    def test_mid_run_queue_depth_demuxes_per_tenant(
            self, topology, values, pin_spec_loop):
        def mid_run():
            service = QueryService(topology, values, seed=SEED)
            first = service.submit("wildfire", "count")
            second = service.submit("spanning-tree", "sum", at=1.0)
            service.run(until=1.5)   # both launched, neither declared
            depths = service.engine.queue_depth_by_session()
            assert depths.get(first, 0) > 0
            assert depths.get(second, 0) > 0
            queued = sum(w for _, w in service.engine._queue.iter_pending())
            service.run()            # horizon-sliced drive still drains
            return depths, queued

        # Both sessions run on tick lanes, which hold their own work:
        # the calendar has one entry per session's next instant.
        depths, queued = mid_run()
        assert queued == 2 < sum(depths.values())
        # On the spec loop the same work sits in the calendar, message
        # by message, and the per-tenant depths are the same numbers.
        pin_spec_loop()
        spec_depths, spec_queued = mid_run()
        assert spec_depths == depths
        assert sum(spec_depths.values()) <= spec_queued
