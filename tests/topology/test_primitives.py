"""Tests for the deterministic topologies used in proofs and tests."""

import pytest

from repro.topology.primitives import (
    chain_topology,
    cycle_with_pendant_topology,
    ring_topology,
    star_topology,
    tree_topology,
)


class TestChain:
    def test_structure(self):
        topo = chain_topology(4)
        assert list(topo.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_single_host_chain(self):
        assert chain_topology(1).num_edges == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            chain_topology(0)


class TestRing:
    def test_structure(self):
        topo = ring_topology(5)
        assert topo.num_edges == 5
        assert all(len(topo.neighbors(h)) == 2 for h in range(5))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ring_topology(2)


class TestStar:
    def test_structure(self):
        topo = star_topology(6)
        assert topo.num_hosts == 7
        assert len(topo.neighbors(0)) == 6
        assert all(topo.neighbors(leaf) == {0} for leaf in range(1, 7))

    def test_invalid(self):
        with pytest.raises(ValueError):
            star_topology(0)


class TestTree:
    def test_complete_binary_tree_sizes(self):
        topo = tree_topology(depth=3, branching=2)
        assert topo.num_hosts == 15
        assert topo.num_edges == 14

    def test_depth_zero_is_single_host(self):
        topo = tree_topology(depth=0)
        assert topo.num_hosts == 1

    def test_ternary_tree(self):
        topo = tree_topology(depth=2, branching=3)
        assert topo.num_hosts == 13

    def test_invalid(self):
        with pytest.raises(ValueError):
            tree_topology(depth=-1)
        with pytest.raises(ValueError):
            tree_topology(depth=2, branching=0)


class TestCycleWithPendant:
    def test_structure(self):
        topo = cycle_with_pendant_topology(8)
        assert topo.num_hosts == 9
        pendant = 8
        assert topo.neighbors(pendant) == {4}
        assert len(topo.neighbors(4)) == 3

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            cycle_with_pendant_topology(3)
