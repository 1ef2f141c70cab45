"""Tests for the pull-based numbers a metrics snapshot reports.

Every number is read on demand from structures the engines already
maintain -- :meth:`EventQueue.occupancy`, the per-tenant demux state,
the service's session table -- so the tests here double as a contract
that those structures stay consistent with the engine's own accounting,
and pin the exact shape of :meth:`QueryService.metrics`.
"""

import pytest

from repro.service import AdmissionConfig, QueryService
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


class TestQueueCollector:
    def test_occupancy_matches_pending_population(self):
        queue = EventQueue()
        for i in range(25):
            queue.push_timer(float(i % 7), i, "t", None)
        occupancy = queue.occupancy()
        assert occupancy["pending"] == len(queue) == 25
        assert occupancy["slots"] == 7
        assert set(occupancy) == {"pending", "slots", "horizon",
                                  "current_epoch"}

    def test_iter_pending_agrees_with_len(self):
        queue = EventQueue()
        for i in range(40):
            queue.push_timer(float(i % 11), i, "t", None)
        assert sum(w for _, w in queue.iter_pending()) == len(queue)

    def test_window_fields_gauge_when_live_and_skip_when_empty(
            self, topology, values):
        queue = EventQueue(width=2.0)
        # Empty queue: the horizon fields are None ("no next event" is
        # not a number), and the service snapshot skips them.
        empty = queue.occupancy()
        assert empty["horizon"] is None
        assert empty["current_epoch"] is None
        snapshot = QueryService(topology, values, seed=SEED).metrics()
        assert snapshot["service.queue.pending"] == 0
        assert "service.queue.horizon" not in snapshot
        assert "service.queue.current_epoch" not in snapshot
        queue.push_timer(5.0, 0, "t", None)
        live = queue.occupancy()
        assert live["horizon"] == 5.0
        assert live["current_epoch"] == 2


class TestServiceCollector:
    def test_final_snapshot_covers_every_tenant(self, topology, values):
        service = QueryService(topology, values, seed=SEED)
        qids = [service.submit("wildfire", "count"),
                service.submit("spanning-tree", "sum", at=1.0),
                service.submit("dag2", "min", at=2.0)]
        service.run()
        snapshot = service.metrics()
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

    def test_snapshot_key_set_with_sharing_and_admission(
            self, topology, values):
        service = QueryService(
            topology, values, seed=SEED, share_floods=True,
            admission=AdmissionConfig(policy="defer",
                                      max_active_sessions=4))
        keys = {
            "service.messages_sent", "service.dropped_messages",
            "service.late_messages", "service.events_processed",
            "service.active_sessions", "service.peak_active_sessions",
            "service.retired_sessions", "service.pending_queries",
            "service.queue.pending", "service.queue.slots",
            "service.cache.hits", "service.cache.leads",
            "service.cache.inflight", "service.cache.recent_answers",
            "service.cache.hit_rate",
            "service.admission.shed", "service.admission.degraded",
            "service.admission.deferrals",
            "service.admission.deferred_pending",
            "service.session_residency", "service.tenants",
            "service.retired_order",
        }
        empty = service.metrics()
        assert set(empty) == keys
        residency = empty["service.session_residency"]
        assert residency == {"count": 0, "sum": 0.0, "min": None,
                             "max": None, "mean": None}
        assert type(residency["sum"]) is float
        service.submit("wildfire", "count", at=1.0)
        assert set(service.metrics()) == keys | {
            "service.queue.horizon", "service.queue.current_epoch"}
