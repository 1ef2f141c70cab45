"""Tests for the ORACLE observer."""

import pytest

from repro.protocols.base import protocol_from_spec
from repro.queries.query import AggregateQuery
from repro.semantics.oracle import Oracle, sketch_slack
from repro.simulation.churn import ChurnSchedule
from repro.topology.primitives import chain_topology, ring_topology


class TestOracle:
    def test_requires_values_for_every_host(self):
        topo = chain_topology(4)
        with pytest.raises(ValueError):
            Oracle(topo, [1, 2], querying_host=0)

    def test_requires_valid_querying_host(self):
        topo = chain_topology(4)
        with pytest.raises(ValueError):
            Oracle(topo, [1, 2, 3, 4], querying_host=9)

    def test_bounds_match_validity_module(self):
        topo = chain_topology(5)
        values = [1, 2, 3, 4, 5]
        oracle = Oracle(topo, values, querying_host=0)
        churn = ChurnSchedule(failures=[(1.0, 2)])
        bounds = oracle.bounds("sum", churn)
        assert bounds.lower_value == 3  # hosts 0, 1
        assert bounds.upper_value == 15

    def test_report_includes_failure_free_truth(self):
        topo = ring_topology(6)
        values = [2] * 6
        oracle = Oracle(topo, values, querying_host=0)
        report = oracle.report("sum", ChurnSchedule.empty())
        assert report.true_initial_value == 12
        assert report.lower == 12
        assert report.upper == 12

    def test_is_valid_exact_and_approximate(self):
        topo = chain_topology(4)
        values = [1, 1, 1, 1]
        oracle = Oracle(topo, values, querying_host=0)
        churn = ChurnSchedule(failures=[(1.0, 2)])
        # Core = {0, 1} -> count 2; union 4.
        assert oracle.is_valid(2, "count", churn)
        assert oracle.is_valid(4, "count", churn)
        assert not oracle.is_valid(1, "count", churn)
        assert oracle.is_valid(1.7, "count", churn, epsilon=0.2)

    def test_horizon_forwarded(self):
        topo = chain_topology(4)
        oracle = Oracle(topo, [1] * 4, querying_host=0)
        churn = ChurnSchedule(failures=[(10.0, 1)])
        assert oracle.is_valid(4, "count", churn, horizon=5.0)
        bounds_late = oracle.bounds("count", churn, horizon=20.0)
        assert bounds_late.lower_value == 1

    def test_completeness(self):
        topo = chain_topology(4)
        oracle = Oracle(topo, [1] * 4, querying_host=0)
        assert oracle.completeness_of([0, 1]) == pytest.approx(0.5)
        assert oracle.completeness_of([0, 0, 1]) == pytest.approx(0.5)
        assert oracle.completeness_of([]) == 0.0


@pytest.mark.parametrize("protocol,kind,slack", [
    ("wildfire", "count", 0.5),       # FM estimate
    ("wildfire", "average", 0.5),
    ("dag2", "sum", 0.5),             # several parents force FM too
    ("spanning-tree", "count", 0.0),  # exact addition
    ("wildfire", "min", 0.0),         # duplicate-insensitive yet exact
    ("dag2", "max", 0.0),
])
def test_sketch_slack_is_granted_to_fm_estimates_only(protocol, kind, slack):
    protocol = protocol_from_spec(protocol)
    query = AggregateQuery.of(kind)
    assert sketch_slack(protocol, query) == slack
    assert sketch_slack(protocol, query, 0.25) == slack / 2
