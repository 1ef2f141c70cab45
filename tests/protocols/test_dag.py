"""Tests for the DIRECTEDACYCLICGRAPH best-effort protocol."""

import pytest
from hypothesis import strategies as st

from repro.protocols.base import prepare_protocol_run, run_protocol
from repro.protocols.dag import DirectedAcyclicGraph
from repro.protocols.spanning_tree import SpanningTree
from repro.simulation.churn import ChurnSchedule, uniform_failure_schedule
from repro.sketches.combiners import FMCountCombiner, FMSumCombiner
from repro.sketches.fm import FMSketch
from repro.topology.primitives import chain_topology, ring_topology
from repro.topology.random_graph import random_topology
from repro.workloads.values import constant_values, zipf_values
from tests.drawn import drawn


class TestConstruction:
    def test_invalid_num_parents(self):
        with pytest.raises(ValueError):
            DirectedAcyclicGraph(num_parents=0)

    def test_name_includes_k(self):
        assert DirectedAcyclicGraph(num_parents=3).name == "dag-k3"

    def test_default_combiner_is_duplicate_insensitive(self):
        from repro.queries.query import AggregateQuery

        combiner = DirectedAcyclicGraph(2).default_combiner(AggregateQuery.of("count"))
        assert combiner.duplicate_insensitive


class TestFailureFreeCorrectness:
    def test_max_exact(self, small_random_topology, zipf_values_60):
        result = run_protocol(DirectedAcyclicGraph(2), small_random_topology,
                              zipf_values_60, "max", seed=1)
        assert result.value == max(zipf_values_60)

    def test_count_estimate_reasonable(self, small_random_topology):
        values = constant_values(small_random_topology.num_hosts, 1)
        result = run_protocol(DirectedAcyclicGraph(2), small_random_topology, values,
                              "count", combiner=FMCountCombiner(repetitions=24), seed=1)
        truth = small_random_topology.num_hosts
        assert truth / 2 <= result.value <= truth * 2

    def test_multiple_parents_do_not_inflate_duplicate_insensitive_count(self):
        """The same sketch reaching the root via several parents must not
        change the estimate -- the whole point of using FM operators."""
        topo = ring_topology(10)
        values = constant_values(10, 1)
        k1 = run_protocol(DirectedAcyclicGraph(1), topo, values, "count",
                          combiner=FMCountCombiner(repetitions=16), d_hat=6, seed=7)
        k3 = run_protocol(DirectedAcyclicGraph(3), topo, values, "count",
                          combiner=FMCountCombiner(repetitions=16), d_hat=6, seed=7)
        # Same seed -> same sketches; k3 folds them in along more paths but
        # the OR-combine keeps the estimate identical or very close.
        assert k3.value <= k1.value * 1.5


class TestRobustness:
    def test_dag_tolerates_single_parent_failure_better_than_tree(self):
        """With k = 2 parents, one parent failing does not lose the subtree."""
        topo = random_topology(120, avg_degree=6, seed=11)
        values = constant_values(120, 1)
        failures = [(3.0, h) for h in (5, 17, 29, 41, 53)]
        churn = ChurnSchedule(failures=list(failures))
        combiner = FMCountCombiner(repetitions=24)
        tree = run_protocol(SpanningTree(), topo, values, "count",
                            combiner=FMCountCombiner(repetitions=24),
                            churn=churn, seed=11)
        dag = run_protocol(DirectedAcyclicGraph(3), topo, values, "count",
                           combiner=combiner, churn=churn, seed=11)
        # Both are best-effort, but the DAG should not do worse than the tree.
        assert dag.value >= tree.value * 0.9

    def test_extra_parents_increase_report_traffic(self):
        topo = random_topology(100, avg_degree=6, seed=12)
        values = constant_values(100, 1)
        k1 = run_protocol(DirectedAcyclicGraph(1), topo, values, "count",
                          combiner=FMCountCombiner(repetitions=8), seed=12)
        k3 = run_protocol(DirectedAcyclicGraph(3), topo, values, "count",
                          combiner=FMCountCombiner(repetitions=8), seed=12)
        reports_k1 = k1.costs.messages_by_kind["dag-report"]
        reports_k3 = k3.costs.messages_by_kind["dag-report"]
        assert reports_k3 > reports_k1

    def test_chain_degenerates_to_tree(self):
        """On a chain every host has one possible parent, so k is irrelevant."""
        topo = chain_topology(12)
        values = constant_values(12, 1)
        churn = ChurnSchedule(failures=[(4.0, 1)])
        k3 = run_protocol(DirectedAcyclicGraph(3), topo, values, "count",
                          combiner=FMCountCombiner(repetitions=16), d_hat=14,
                          churn=churn, seed=3)
        tree = run_protocol(SpanningTree(), topo, values, "count", d_hat=14,
                            churn=churn, seed=3)
        assert tree.value == 1.0
        # The DAG's FM estimate of a single host is also tiny.
        assert k3.value <= 4.0


_PROTOCOLS = {"spanning-tree": SpanningTree, "dag2": lambda: DirectedAcyclicGraph(2),
              "dag3": lambda: DirectedAcyclicGraph(3)}
_COMBINERS = {"count": FMCountCombiner, "sum": FMSumCombiner}


def _spec_lane_run_equals_tick_lane_run(protocol, query, seed, failures,
                                        num_hosts, delta):
    """One FM count or sum on the spec loop and one on the tick lane,
    the packed int folded by the hosts' own ``take_report`` on both:
    equal value, cost fingerprint and declaration time."""
    topology = random_topology(num_hosts, avg_degree=4, seed=seed)
    values = zipf_values(num_hosts, seed=seed)
    combiner = _COMBINERS[query](repetitions=8)
    termination = prepare_protocol_run(
        _PROTOCOLS[protocol](), topology, values, query, combiner=combiner,
        delta=delta, seed=seed).termination
    # Failures over the whole run, the querying host spared.
    churn = uniform_failure_schedule(
        range(num_hosts), min(failures, num_hosts - 1), start=0.5 * delta,
        end=termination, seed=seed, protect=[0])
    seen = []
    for lane in ("python", "vector"):
        run = run_protocol(_PROTOCOLS[protocol](), topology, values, query,
                           combiner=combiner, delta=delta, churn=churn,
                           seed=seed, lane=lane)
        assert run.lane_used == lane
        seen.append((run.value, run.costs.fingerprint(), run.finished_at))
    assert seen[0] == seen[1]
    assert seen[0][0] is not None


class TestFMStateAlikeOnBothLanes:
    """A host of an FM count or sum keeps its partial as the packed int
    on either lane; the spec loop and the tick lane must run the tree
    and DAG protocols identically on it, static and under failures."""

    @pytest.mark.parametrize("failures", [0, 6])
    @pytest.mark.parametrize("query", ["count", "sum"])
    @pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
    def test_pinned_cells(self, protocol, query, failures):
        _spec_lane_run_equals_tick_lane_run(protocol, query, 5, failures, 40,
                                            1.0)

    def test_drawn_cells(self, request):
        drawn(request, _spec_lane_run_equals_tick_lane_run,
              protocol=st.sampled_from(sorted(_PROTOCOLS)),
              query=st.sampled_from(sorted(_COMBINERS)),
              seed=st.integers(0, 2 ** 16), failures=st.integers(0, 12),
              num_hosts=st.integers(5, 60),
              delta=st.sampled_from([1.0, 0.1, 0.3]))

    def test_a_host_keeps_the_int_and_declares_its_sketch(self):
        topology = random_topology(30, avg_degree=4, seed=2)
        prepared = prepare_protocol_run(
            DirectedAcyclicGraph(2), topology, [1.0] * 30, "count",
            combiner=FMCountCombiner(repetitions=4), d_hat=8, seed=2)
        host = prepared.hosts[3]
        assert host.local_result() is None
        host.adopt(0, 0, 0.0)
        assert type(host.partial) is int
        sketch = FMSketch._from_packed(host.partial, 4,
                                       prepared.combiner.num_bits)
        assert host.local_result() == sketch.estimate()
