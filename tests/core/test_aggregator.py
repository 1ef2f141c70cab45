"""Tests for the ValidAggregator facade."""

import pytest

from repro.core.aggregator import ValidAggregator
from repro.core.config import ProtocolConfig, SimulationConfig
from repro.core.results import QueryResult
from repro.protocols.gossip import PushSumGossip
from repro.queries.query import AggregateQuery, QueryKind
from repro.simulation.churn import uniform_failure_schedule
from repro.topology.random_graph import random_topology
from repro.workloads.values import constant_values, zipf_values


@pytest.fixture
def aggregator():
    topo = random_topology(80, avg_degree=5, seed=13)
    values = zipf_values(80, seed=13)
    return ValidAggregator(topo, values, seed=13), topo, values


class TestConstruction:
    def test_validates_inputs(self):
        topo = random_topology(10, seed=1)
        with pytest.raises(ValueError):
            ValidAggregator(topo, [1, 2, 3])
        with pytest.raises(ValueError):
            ValidAggregator(topo, [1] * 10, querying_host=50)

    def test_available_protocols_listed(self, aggregator):
        agg, _, _ = aggregator
        protocols = agg.available_protocols()
        assert "wildfire" in protocols
        assert "spanning-tree" in protocols
        assert "allreport" in protocols


class TestQueries:
    def test_max_and_min_exact(self, aggregator):
        agg, _, values = aggregator
        assert agg.maximum().value == max(values)
        assert agg.minimum().value == min(values)

    def test_query_accepts_kind_objects(self, aggregator):
        agg, _, values = aggregator
        by_enum = agg.query(QueryKind.MAX)
        by_query = agg.query(AggregateQuery.of("max"))
        assert by_enum.value == by_query.value == max(values)

    def test_count_estimate_with_wildfire(self, aggregator):
        agg, topo, _ = aggregator
        result = agg.count()
        assert topo.num_hosts / 2.5 <= result.value <= topo.num_hosts * 2.5

    def test_spanning_tree_count_exact_without_churn(self, aggregator):
        agg, topo, _ = aggregator
        result = agg.count(protocol="spanning-tree")
        assert result.value == topo.num_hosts

    def test_unknown_protocol_rejected(self, aggregator):
        agg, _, _ = aggregator
        with pytest.raises(KeyError, match="unknown protocol 'teleportation'"):
            agg.query("max", protocol="teleportation")

    def test_true_value_helper(self, aggregator):
        agg, topo, values = aggregator
        assert agg.true_value("sum") == sum(values)
        assert agg.true_value(QueryKind.COUNT) == topo.num_hosts

    def test_summary_dictionary(self, aggregator):
        agg, _, _ = aggregator
        summary = agg.maximum().summary()
        assert summary["protocol"] == "wildfire"
        assert summary["kind"] == "max"
        assert summary["communication_cost"] > 0


class TestCertificates:
    def test_no_certificate_without_churn(self, aggregator):
        agg, _, _ = aggregator
        result = agg.maximum()
        assert result.certificate is None
        assert result.is_valid is None

    def test_certificate_issued_with_churn(self, aggregator):
        agg, topo, _ = aggregator
        churn = uniform_failure_schedule(range(topo.num_hosts), 8, 0.5, 10.0,
                                         seed=3, protect=[0])
        result = agg.maximum(churn=churn)
        assert result.certificate is not None
        assert result.is_valid is True
        assert result.certificate.lower_bound <= result.certificate.upper_bound

    def test_sketch_queries_get_approximate_certificates(self, aggregator):
        agg, topo, _ = aggregator
        churn = uniform_failure_schedule(range(topo.num_hosts), 8, 0.5, 10.0,
                                         seed=4, protect=[0])
        result = agg.count(churn=churn)
        assert result.certificate is not None
        assert result.certificate.epsilon > 0.0

    def test_epsilon_override(self, aggregator):
        agg, topo, _ = aggregator
        churn = uniform_failure_schedule(range(topo.num_hosts), 4, 0.5, 10.0,
                                         seed=5, protect=[0])
        result = agg.count(churn=churn, epsilon_for_certificate=0.9)
        assert result.certificate.epsilon == 0.9

    def test_exact_answers_are_certified_with_the_oracles_slack(self):
        """The default certificate grants what ``sketch_slack`` grants:
        none to the spanning tree's exact count, which falls short of
        ``q(H_C)`` here, and the sketch slack to WILDFIRE's FM count
        (``query.epsilon`` when the query names one)."""
        topo = random_topology(150, avg_degree=4, seed=21)
        agg = ValidAggregator(topo, constant_values(150, 1), seed=21)
        for seed in range(3):
            churn = uniform_failure_schedule(range(150), 30, 0.5, 12.0,
                                             seed=seed, protect=[0])
            tree = agg.count(protocol="spanning-tree", churn=churn)
            assert tree.certificate.epsilon == 0.0
            assert tree.value < tree.certificate.lower_bound
            assert tree.is_valid is False
            fm = agg.count(churn=churn)
            assert fm.certificate.epsilon == 0.5 and fm.is_valid is True
            tight = agg.query(AggregateQuery.of("count", epsilon=0.3),
                              churn=churn)
            assert tight.certificate.epsilon == 0.3


class TestBestEffortComparison:
    def test_spanning_tree_can_go_invalid_under_heavy_churn(self):
        topo = random_topology(150, avg_degree=4, seed=21)
        values = constant_values(150, 1)
        agg = ValidAggregator(topo, values, seed=21)
        invalid_seen = False
        for seed in range(6):
            churn = uniform_failure_schedule(range(150), 30, 0.5, 12.0,
                                             seed=seed, protect=[0])
            result = agg.count(protocol="spanning-tree", churn=churn)
            if result.is_valid is False:
                invalid_seen = True
                break
        assert invalid_seen

    def test_wildfire_min_max_always_valid_under_churn(self):
        topo = random_topology(120, avg_degree=5, seed=22)
        values = zipf_values(120, seed=22)
        agg = ValidAggregator(topo, values, seed=22)
        for seed in range(4):
            churn = uniform_failure_schedule(range(120), 20, 0.5, 12.0,
                                             seed=seed, protect=[0])
            assert agg.maximum(churn=churn).is_valid
            assert agg.minimum(churn=churn).is_valid


class TestConfiguration:
    def test_dag_parents_come_from_the_spec(self):
        topo = random_topology(60, avg_degree=5, seed=30)
        values = constant_values(60, 1)
        agg = ValidAggregator(topo, values, seed=30)
        assert agg.count(protocol="dag3").protocol == "dag-k3"
        assert agg.count(protocol="dag").protocol == "dag-k2"

    def test_wireless_config_reduces_costs_on_grid(self):
        from repro.topology.grid import grid_topology

        topo = grid_topology(7)
        values = constant_values(topo.num_hosts, 1)
        wired = ValidAggregator(topo, values, seed=31)
        wireless = ValidAggregator(topo, values, seed=31,
                                   simulation=SimulationConfig(wireless=True))
        assert (wireless.maximum().communication_cost
                < wired.maximum().communication_cost)

    def test_gossip_protocol_reachable_from_facade(self):
        topo = random_topology(50, avg_degree=6, seed=32)
        values = constant_values(50, 1)
        agg = ValidAggregator(topo, values, seed=32)
        result = agg.count(protocol=PushSumGossip(num_rounds=60))
        assert result.value == pytest.approx(50, rel=0.3)

    def test_delay_config_threads_through_and_keeps_min_exact(self):
        topo = random_topology(50, avg_degree=6, seed=33)
        values = constant_values(50, 1)
        agg = ValidAggregator(
            topo, values, seed=33,
            simulation=SimulationConfig(delay="uniform:0.25,1.0"))
        result = agg.minimum()
        assert result.value == 1.0
        # Variable delays can only arrive earlier than the fixed worst
        # case, so the run finishes no later.
        fixed = ValidAggregator(topo, values, seed=33).minimum()
        assert result.run.finished_at <= fixed.run.finished_at + 1e-9
