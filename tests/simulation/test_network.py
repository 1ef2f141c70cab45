"""Tests for the dynamic network graph.

Each case runs on the packed core and on its set-based reference spec,
which the protocol matrix swaps in for whole runs.
"""

import pytest

from repro.simulation.network import DynamicNetwork
from repro.simulation.network_reference import ReferenceNetwork


@pytest.fixture(params=[DynamicNetwork, ReferenceNetwork],
                ids=["packed", "reference"])
def network_cls(request):
    return request.param


@pytest.fixture
def triangle_plus_tail(network_cls):
    """Hosts 0-1-2 form a triangle; host 3 hangs off host 2."""
    return lambda: network_cls([{1, 2}, {0, 2}, {0, 1, 3}, {2}])


class TestConstruction:
    @pytest.mark.parametrize("knob", ["validate", "copy"])
    def test_constructor_takes_no_knobs(self, network_cls, knob):
        """Rows are trusted: ``Topology`` checks untrusted ones once."""
        with pytest.raises(TypeError):
            network_cls([{1}, {0}], **{knob: False})

    def test_rows_become_alive_neighbor_views(self, triangle_plus_tail):
        network = triangle_plus_tail()
        assert network.num_hosts == 4
        assert network.neighbors(0) == {1, 2}
        assert network.alive_neighbors_sorted(2) == (0, 1, 3)
        assert network.has_alive_edge(3, 2)
        assert not network.has_alive_edge(3, 0)


class TestFailures:
    def test_fail_host_removes_edges_and_liveness(self, triangle_plus_tail):
        network = triangle_plus_tail()
        network.fail_host(2, time=1.0)
        assert not network.is_alive(2)
        assert network.neighbors(0) == {1}
        assert network.neighbors(3) == set()
        assert network.alive_neighbors_sorted(2) == ()
        assert not network.has_alive_edge(0, 2)
        assert not network.has_alive_edge(2, 0)

    def test_fail_host_twice_raises(self, triangle_plus_tail):
        network = triangle_plus_tail()
        network.fail_host(2, time=1.0)
        with pytest.raises(ValueError):
            network.fail_host(2, time=2.0)

    def test_failing_a_leaf_keeps_the_rest(self, triangle_plus_tail):
        network = triangle_plus_tail()
        network.fail_host(3, time=1.0)
        assert network.neighbors(2) == {0, 1}
        assert network.alive_neighbors_sorted(2) == (0, 1)
        assert network.has_alive_edge(0, 1)
        assert network.has_alive_edge(2, 0)
        assert not network.has_alive_edge(2, 3)
        assert all(network.is_alive(host) for host in (0, 1, 2))

    def test_views_read_before_a_failure_are_refreshed(
            self, triangle_plus_tail):
        network = triangle_plus_tail()
        # Read (and so build) every view before the failure.
        assert network.alive_neighbors_sorted(0) == (1, 2)
        assert network.neighbors(2) == {0, 1, 3}
        network.fail_host(1, time=1.0)
        assert network.alive_neighbors_sorted(0) == (2,)
        assert network.neighbors(2) == {0, 3}
        assert network.neighbors(1) == set()


class TestCopies:
    def test_copy_is_independent(self, triangle_plus_tail):
        network = triangle_plus_tail()
        clone = network.copy()
        network.fail_host(0, time=1.0)
        assert clone.is_alive(0)
        assert not network.is_alive(0)
        assert clone.neighbors(1) == {0, 2}

    def test_copy_keeps_earlier_failures(self, triangle_plus_tail):
        network = triangle_plus_tail()
        network.fail_host(2, time=1.0)
        clone = network.copy()
        assert not clone.is_alive(2)
        assert clone.alive_neighbors_sorted(0) == (1,)
        assert clone.neighbors(3) == set()
        with pytest.raises(ValueError):
            clone.fail_host(2, time=2.0)
        clone.fail_host(1, time=2.0)
        assert network.is_alive(1)
        assert network.alive_neighbors_sorted(0) == (1,)


class TestPartitionBounds:
    """The sharded lane's host ranges (packed core only)."""

    @staticmethod
    def star(leaves):
        return DynamicNetwork([set(range(1, leaves + 1))]
                              + [{0} for _ in range(leaves)])

    @pytest.mark.parametrize("shards", [1, 2, 5, 12])
    def test_bounds_cover_every_host_in_order(self, shards):
        bounds = self.star(9).partition_bounds(shards)
        assert len(bounds) == shards + 1
        assert bounds[0] == 0 and bounds[-1] == 10
        assert bounds == sorted(bounds)

    def test_cuts_balance_base_edges_not_hosts(self):
        """The hub carries half of the star's edge ends, so it is a shard
        of its own."""
        assert self.star(9).partition_bounds(2) == [0, 1, 10]

    def test_zero_shards_refused(self):
        with pytest.raises(ValueError):
            self.star(3).partition_bounds(0)
