"""Integration tests for the paper's headline quantitative claims.

The absolute numbers depend on the simulator, but the qualitative findings
must hold: WILDFIRE stays valid under churn where the best-effort protocols
do not, min/max cost about the same as (or less than) SPANNINGTREE, and
direct delivery makes a hotspot.  The count premium and the time cost are
claims of Figs. 10 and 13(a) in ``repro.experiments.figures.FIGURES``.
"""

import pytest

from repro.protocols.base import run_protocol
from repro.protocols.dag import DirectedAcyclicGraph
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.semantics.oracle import Oracle
from repro.simulation.churn import uniform_failure_schedule
from repro.sketches.combiners import FMCountCombiner
from repro.topology.gnutella import gnutella_like_topology
from repro.topology.random_graph import random_topology
from repro.workloads.values import constant_values, zipf_values


@pytest.fixture(scope="module")
def gnutella():
    topo = gnutella_like_topology(600, seed=17)
    values = zipf_values(600, seed=17)
    return topo, values


class TestValidityUnderChurn:
    def test_wildfire_count_within_bounds_tree_below(self, gnutella):
        topo, values = gnutella
        oracle = Oracle(topo, values, 0)
        churn = uniform_failure_schedule(range(topo.num_hosts),
                                         num_failures=60, start=0.5, end=14.0,
                                         seed=2, protect=[0])
        combiner = FMCountCombiner(repetitions=24)
        wildfire = run_protocol(Wildfire(), topo, values, "count",
                                combiner=combiner, churn=churn, seed=2)
        tree = run_protocol(SpanningTree(), topo, values, "count",
                            churn=churn, seed=2)
        bounds = oracle.bounds("count", churn, horizon=wildfire.termination_time)
        # WILDFIRE's estimate respects the (approximate) validity bounds.
        assert oracle.is_valid(wildfire.value, "count", churn,
                               horizon=wildfire.termination_time, epsilon=0.5)
        # The tree answer is an exact count of a strict subset of the core.
        assert tree.value < bounds.lower_value

    def test_dag_sits_between_tree_and_wildfire(self, gnutella):
        topo, values = gnutella
        churn = uniform_failure_schedule(range(topo.num_hosts),
                                         num_failures=60, start=0.5, end=14.0,
                                         seed=3, protect=[0])
        combiner = FMCountCombiner(repetitions=24)
        tree = run_protocol(SpanningTree(), topo, values, "count",
                            combiner=FMCountCombiner(repetitions=24),
                            churn=churn, seed=3)
        dag = run_protocol(DirectedAcyclicGraph(3), topo, values, "count",
                           combiner=combiner, churn=churn, seed=3)
        wildfire = run_protocol(Wildfire(), topo, values, "count",
                                combiner=combiner, churn=churn, seed=3)
        assert tree.value <= dag.value * 1.05
        assert dag.value <= wildfire.value * 1.05


class TestPriceOfValidity:
    def test_min_max_premium_is_small(self):
        topo = random_topology(400, avg_degree=5, seed=20)
        values = zipf_values(400, seed=20)
        wildfire_min = run_protocol(Wildfire(), topo, values, "min", seed=20)
        tree = run_protocol(SpanningTree(), topo, values, "min", seed=20)
        ratio = wildfire_min.costs.communication_cost / tree.costs.communication_cost
        assert ratio <= 2.5

    def test_allreport_hotspot_worse_than_wildfire(self):
        from repro.protocols.allreport import AllReport

        topo = random_topology(300, avg_degree=5, seed=22)
        values = constant_values(300, 1)
        allreport = run_protocol(AllReport(), topo, values, "count", seed=22)
        tree = run_protocol(SpanningTree(), topo, values, "count", seed=22)
        # Direct delivery concentrates messages near the querying host.
        assert allreport.costs.computation_cost > tree.costs.computation_cost
