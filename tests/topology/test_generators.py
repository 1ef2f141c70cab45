"""Tests for the random, power-law, grid, Gnutella-like and small-world generators."""

import pytest

from repro.topology.gnutella import gnutella_like_topology
from repro.topology.grid import grid_topology
from repro.topology.power_law import power_law_topology
from repro.topology.random_graph import random_topology
from repro.topology.small_world import small_world_topology


class TestRandomTopology:
    def test_size_and_connectivity(self):
        topo = random_topology(200, avg_degree=5, seed=1)
        assert topo.num_hosts == 200
        assert topo.is_connected()

    def test_average_degree_close_to_target(self):
        topo = random_topology(500, avg_degree=6, seed=2, connected=False)
        assert topo.average_degree == pytest.approx(6, rel=0.15)

    def test_deterministic_for_seed(self):
        a = random_topology(100, seed=9)
        b = random_topology(100, seed=9)
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        a = random_topology(100, seed=1)
        b = random_topology(100, seed=2)
        assert set(a.edges()) != set(b.edges())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            random_topology(0)
        with pytest.raises(ValueError):
            random_topology(10, avg_degree=-1)
        with pytest.raises(ValueError):
            random_topology(5, avg_degree=10)

    def test_metadata_recorded(self):
        topo = random_topology(50, avg_degree=4, seed=3)
        assert topo.metadata["generator"] == "random"
        assert topo.metadata["num_hosts"] == 50


class TestPowerLawTopology:
    def test_size_and_connectivity(self):
        topo = power_law_topology(300, seed=1)
        assert topo.num_hosts == 300
        assert topo.is_connected()

    def test_degree_distribution_is_heavy_tailed(self):
        topo = power_law_topology(800, seed=4)
        degrees = sorted(topo.degrees(), reverse=True)
        # A hub should exist with degree far above the median.
        median = degrees[len(degrees) // 2]
        assert degrees[0] >= 4 * max(1, median)

    def test_min_degree_respected(self):
        topo = power_law_topology(200, min_degree=3, seed=5)
        assert min(topo.degrees()) >= 1
        assert topo.average_degree >= 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            power_law_topology(0)
        with pytest.raises(ValueError):
            power_law_topology(10, min_degree=0)


class TestGridTopology:
    def test_moore_neighborhood_sizes(self):
        topo = grid_topology(5)
        degrees = topo.degrees()
        # Corners have 3 neighbors, edges 5, interior 8.
        assert degrees.count(3) == 4
        assert degrees.count(8) == 9
        assert topo.num_hosts == 25

    def test_von_neumann_neighborhood(self):
        topo = grid_topology(4, neighborhood="von_neumann")
        assert max(topo.degrees()) == 4
        assert min(topo.degrees()) == 2

    def test_rectangular_grid(self):
        topo = grid_topology(3, 7)
        assert topo.num_hosts == 21
        assert topo.is_connected()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            grid_topology(0)
        with pytest.raises(ValueError):
            grid_topology(3, neighborhood="hex")

    def test_diameter_of_grid_is_side_minus_one(self):
        # With Moore neighborhoods, diagonal moves make the diameter the
        # maximum of row and column distances.
        topo = grid_topology(6)
        assert topo.diameter_estimate(samples=6) == 5


class TestGnutellaLikeTopology:
    def test_size_and_connectivity(self):
        topo = gnutella_like_topology(1500, seed=1)
        assert topo.num_hosts == 1500
        assert topo.is_connected()

    def test_small_diameter(self):
        topo = gnutella_like_topology(2000, seed=2)
        assert topo.diameter_estimate(samples=4) <= 14

    def test_heavy_tail_present(self):
        topo = gnutella_like_topology(2000, seed=3)
        degrees = sorted(topo.degrees(), reverse=True)
        assert degrees[0] >= 20
        # Most hosts are low-degree leaves.
        low_degree = sum(1 for d in degrees if d <= 3)
        assert low_degree > topo.num_hosts * 0.4

    def test_metadata_mentions_substitution(self):
        topo = gnutella_like_topology(500, seed=0)
        assert "substitutes_for" in topo.metadata

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gnutella_like_topology(0)
        with pytest.raises(ValueError):
            gnutella_like_topology(10, core_fraction=0.0)
        with pytest.raises(ValueError):
            gnutella_like_topology(10, core_degree=0)


class TestSmallWorldTopology:
    def test_size_and_connectivity(self):
        topo = small_world_topology(200, nearest_neighbors=4, seed=1)
        assert topo.num_hosts == 200
        assert topo.is_connected()

    def test_rewiring_reduces_diameter(self):
        lattice = small_world_topology(300, nearest_neighbors=4,
                                       rewire_probability=0.0, seed=1)
        rewired = small_world_topology(300, nearest_neighbors=4,
                                       rewire_probability=0.2, seed=1)
        assert rewired.diameter_estimate(samples=4) < lattice.diameter_estimate(samples=4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            small_world_topology(0)
        with pytest.raises(ValueError):
            small_world_topology(10, nearest_neighbors=3)
        with pytest.raises(ValueError):
            small_world_topology(10, rewire_probability=1.5)
