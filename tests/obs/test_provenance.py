"""Tests for per-estimate provenance (the contribution DAG, reduced).

The reverse temporal-reachability pass is checked against the paper's
semantics in the settings where its answer is exact:

* static flooding run: every host contributes, nothing is lost;
* churned flooding run: missing hosts are split into churn-excused
  (``lost_to_churn``) and alive-but-missing (``lost_alive``);
* a tracer observes only -- the result beside the provenance is
  bit-identical to an untraced run.
"""

import pytest

from repro.obs.provenance import (
    EstimateProvenance,
    ProvenanceTracer,
    run_protocol_with_provenance,
)
from repro.protocols.base import run_protocol
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.simulation.churn import ChurnSchedule
from repro.topology.random_graph import random_topology
from repro.workloads.values import uniform_values

SEED = 29


@pytest.fixture
def topology():
    return random_topology(80, avg_degree=4, seed=SEED)


@pytest.fixture
def values(topology):
    return uniform_values(topology.num_hosts, low=1, high=9, seed=SEED)


class TestStaticRuns:
    def test_convergecast_absorbs_every_host(self, topology, values):
        # The spanning tree folds every subtree response exactly once, so
        # on a static network the contribution set is the whole network.
        result, provenance = run_protocol_with_provenance(
            SpanningTree(), topology, values, "count", seed=SEED)
        assert result.value == float(topology.num_hosts)
        assert provenance.num_hosts == topology.num_hosts
        assert len(provenance.contributors) == topology.num_hosts
        assert provenance.lost == frozenset()
        assert provenance.lost_alive == frozenset()
        assert provenance.lost_to_churn == frozenset()

    def test_flooding_subsumption_never_drops_the_winner(self, topology,
                                                         values):
        # WILDFIRE re-floods only on state *change*, so for ``min`` most
        # hosts are subsumed (their value was not smaller) and correctly
        # fall out of the may-contribute set -- but the host holding the
        # minimum must always be attributed.
        result, provenance = run_protocol_with_provenance(
            Wildfire(), topology, values, "min", seed=SEED)
        assert result.value == float(min(values))
        holders = {h for h, v in enumerate(values) if v == min(values)}
        # Ties mean any holder's copy may have won; at least one of them
        # must be attributed.
        assert holders & provenance.contributors
        assert result.querying_host in provenance.contributors
        assert len(provenance.contributors) < topology.num_hosts
        # Static network: every missing host is a subsumed survivor.
        assert provenance.lost_to_churn == frozenset()
        assert provenance.lost_alive == provenance.lost

    def test_as_dict_is_json_ready(self, topology, values):
        _, provenance = run_protocol_with_provenance(
            SpanningTree(), topology, values, "count", seed=SEED)
        row = provenance.as_dict()
        assert row["contributors"] == topology.num_hosts
        assert row["lost"] == row["lost_alive"] == row["lost_to_churn"] == 0
        assert row["deliveries"] == provenance.deliveries > 0


class TestChurnedFlood:
    @pytest.fixture
    def churned(self, topology, values):
        churn = ChurnSchedule(failures=[(0.5, 11), (0.5, 23), (1.5, 37)])
        tracer = ProvenanceTracer()
        result = run_protocol(Wildfire(), topology, values, "count",
                              churn=churn, seed=SEED, tracer=tracer)
        return result, tracer.provenance(
            result.querying_host, result.termination_time,
            topology.num_hosts)

    def test_failed_hosts_are_recorded(self, churned):
        _, provenance = churned
        assert provenance.failed == frozenset({11, 23, 37})

    def test_lost_partition_is_exhaustive_and_disjoint(self, churned):
        _, provenance = churned
        assert provenance.lost_to_churn | provenance.lost_alive == \
            provenance.lost
        assert provenance.lost_to_churn & provenance.lost_alive == \
            frozenset()
        assert provenance.lost_to_churn <= provenance.failed

    def test_contributors_and_lost_cover_initial_hosts(self, churned):
        _, provenance = churned
        union = provenance.contributors | provenance.lost
        assert union == frozenset(range(provenance.num_hosts))


class TestObservationOnly:
    def test_result_identical_to_untraced_run(self, topology, values):
        plain = run_protocol(Wildfire(), topology, values, "count",
                             seed=SEED)
        traced, _ = run_protocol_with_provenance(
            Wildfire(), topology, values, "count", seed=SEED)
        assert traced.value == plain.value
        assert traced.finished_at == plain.finished_at
        assert sorted(traced.costs.messages_by_time.items()) == \
            sorted(plain.costs.messages_by_time.items())


    @pytest.mark.parametrize("delta", [1.0, 0.3])
    @pytest.mark.parametrize("protocol", [Wildfire, SpanningTree])
    def test_default_lane_runs_traced_and_attributes_like_the_spec_loop(
            self, topology, values, protocol, delta):
        # The provenance of an answer is taken from the run that produced
        # it: the default lane engages under the tracer, and its record
        # (send instants included, which the deadline pass compares
        # exactly) yields the spec loop's attribution.
        def attribute(**lane):
            churn = ChurnSchedule(failures=[(0.5 * delta, 11),
                                            (0.5 * delta, 23),
                                            (1.5 * delta, 37)])
            return run_protocol_with_provenance(
                protocol(), topology, values, "count", churn=churn,
                delta=delta, seed=SEED, **lane)

        default, provenance = attribute()
        spec, spec_provenance = attribute(lane="python")
        assert (default.lane_used, default.fallback_reason) == ("vector",
                                                                None)
        assert spec.lane_used == "python"
        assert provenance == spec_provenance
        assert provenance.failed == frozenset({11, 23, 37})
        assert provenance.deliveries > 0


class TestExperimentsOptIn:
    def test_badcase_attribution_tells_the_theorem_story(self):
        from repro.experiments.badcase import run_theorem_44_experiment

        base = [r.as_dict() for r in run_theorem_44_experiment(
            cycle_size=20)]
        attributed = run_theorem_44_experiment(cycle_size=20,
                                               provenance=True)
        # Opt-in columns appear only when asked; the pinned columns and
        # declared values are untouched.
        assert all("lost_alive" not in row for row in base)
        for plain, rich in zip(base, attributed):
            row = rich.as_dict()
            assert {key: row[key] for key in plain} == plain
            assert isinstance(rich.provenance, EstimateProvenance)
        wildfire = next(r for r in attributed
                        if r.protocol == "wildfire")
        # The surviving arc of the cycle carries every remaining host's
        # contribution, so WILDFIRE loses nothing it cannot excuse.
        assert wildfire.provenance.lost_alive == frozenset()

    def test_delay_sweep_columns_are_opt_in(self):
        from repro.experiments.validity_sweep import run_validity_sweep

        topology = random_topology(40, avg_degree=4, seed=SEED)
        plain = run_validity_sweep(topology, "count", departures=(0,),
                                   delay_specs=("fixed",), num_trials=1,
                                   seed=SEED)
        rich = run_validity_sweep(topology, "count", departures=(0,),
                                  delay_specs=("fixed",), num_trials=1,
                                  seed=SEED, provenance=True)
        for before, after in zip(plain, rich):
            stock = before.as_dict()
            extended = after.as_dict()
            assert "lost_alive_mean" not in stock
            assert {key: extended[key] for key in stock} == stock
            assert "lost_alive_mean" in extended
            assert "lost_churn_mean" in extended
