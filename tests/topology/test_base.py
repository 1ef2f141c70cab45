"""Tests for the Topology container."""

import pytest

from repro.topology.base import Topology
from repro.topology.primitives import chain_topology, ring_topology


class TestTopologyValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(adjacency=[{0}])

    def test_rejects_unknown_host(self):
        with pytest.raises(ValueError):
            Topology(adjacency=[{5}, {0}])

    def test_rejects_asymmetric_edge(self):
        with pytest.raises(ValueError):
            Topology(adjacency=[{1}, set()])

    def test_from_edges_ignores_self_loops(self):
        topo = Topology.from_edges(3, [(0, 1), (1, 1), (1, 2)])
        assert topo.num_edges == 2


class TestTopologyMeasures:
    def test_counts_on_chain(self):
        topo = chain_topology(5)
        assert topo.num_hosts == 5
        assert topo.num_edges == 4
        assert topo.average_degree == pytest.approx(1.6)
        assert sorted(topo.degrees()) == [1, 1, 2, 2, 2]

    def test_edges_are_unique_and_ordered(self):
        topo = ring_topology(4)
        edges = list(topo.edges())
        assert len(edges) == 4
        assert all(a < b for a, b in edges)

    def test_bfs_distances(self):
        topo = chain_topology(4)
        assert topo.bfs_distances(0) == {0: 0, 1: 1, 2: 2, 3: 3}
        assert topo.bfs_distances(3)[0] == 3

    def test_connectivity(self):
        topo = chain_topology(4)
        assert topo.is_connected()
        disconnected = Topology(adjacency=[{1}, {0}, set()])
        assert not disconnected.is_connected()

    def test_diameter_estimate_exact_on_chain(self):
        assert chain_topology(9).diameter_estimate(samples=4) == 8

    def test_diameter_estimate_on_ring(self):
        # Ring of 10: diameter 5; double sweep finds it.
        assert ring_topology(10).diameter_estimate(samples=6) == 5

    def test_neighbors_returns_copy(self):
        topo = chain_topology(3)
        neighbors = topo.neighbors(1)
        neighbors.add(99)
        assert topo.neighbors(1) == {0, 2}


class TestConversions:
    def test_to_network_preserves_structure(self):
        topo = ring_topology(6)
        network = topo.to_network()
        assert network.num_hosts == 6
        for host in range(6):
            assert network.is_alive(host)
            assert network.neighbors(host) == topo.neighbors(host)
            assert network.alive_neighbors_sorted(host) \
                == tuple(sorted(topo.adjacency[host]))

    def test_to_network_is_independent_instance(self):
        topo = ring_topology(6)
        network = topo.to_network()
        network.fail_host(0, time=1.0)
        assert topo.neighbors(1) == {0, 2}

    def test_to_network_copies_of_the_memoised_pristine_network(self):
        """The CSR is packed once per topology; every result is private."""
        topo = ring_topology(6)
        first, second = topo.to_network(), topo.to_network()
        assert first is not second
        assert first._base_targets is second._base_targets
        first.fail_host(0, time=1.0)
        first.fail_host(2, time=2.0)
        assert first.neighbors(1) == frozenset()
        third = topo.to_network()
        for pristine in (second, third):
            assert pristine.num_hosts == 6
            assert all(pristine.is_alive(host) for host in range(6))
            assert pristine.neighbors(1) == {0, 2}
            assert pristine.alive_neighbors_sorted(1) == (0, 2)

    def test_copies_share_neighbor_views_copy_on_write(self):
        """Every copy starts from the pristine network's sorted views --
        the same tuple objects, not rebuilt ones -- and a failure on one
        copy drops views from that copy's own table only."""
        topo = ring_topology(6)
        first, sibling = topo.to_network(), topo.to_network()
        pristine = topo.__dict__["_pristine_network"]
        before = [pristine.alive_neighbors_sorted(host) for host in range(6)]
        assert before == [tuple(sorted(row)) for row in topo.adjacency]
        for host in range(6):
            assert first.alive_neighbors_sorted(host) is before[host]
            assert sibling.alive_neighbors_sorted(host) is before[host]
        first.fail_host(0, time=1.0)
        assert first.alive_neighbors_sorted(1) == (2,)
        assert first.neighbors(5) == {4}
        # A clone of the churned copy shares *its* views, the same way.
        second = first.copy()
        assert second.alive_neighbors_sorted(1) is first.alive_neighbors_sorted(1)
        second.fail_host(2, time=3.0)
        assert second.alive_neighbors_sorted(1) == ()
        assert first.alive_neighbors_sorted(1) == (2,)
        for untouched in (pristine, sibling, topo.to_network()):
            assert untouched.num_hosts == 6
            assert [untouched.alive_neighbors_sorted(host)
                    for host in range(6)] == before
            assert untouched.neighbors(1) == {0, 2}

    @pytest.mark.parametrize("lane", ["python", "vector"])
    def test_to_network_after_a_churned_run_is_still_pristine(self, lane):
        from repro.protocols.base import run_protocol
        from repro.protocols.wildfire import Wildfire
        from repro.simulation.churn import ChurnSchedule
        from repro.topology.random_graph import random_topology

        topo = random_topology(40, avg_degree=4, seed=3)
        churn = ChurnSchedule(failures=[(0.5, 7), (1.5, 11), (1.5, 2)])
        run = run_protocol(Wildfire(), topo, [1.0] * 40, "count", churn=churn,
                           seed=3, lane=lane)
        assert run.lane_used == lane and run.value is not None
        network = topo.to_network()
        assert network.num_hosts == 40
        assert all(network.is_alive(host) for host in range(40))
        assert [network.alive_neighbors_sorted(host) for host in range(40)] \
            == [tuple(sorted(row)) for row in topo.adjacency]
