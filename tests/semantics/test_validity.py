"""Tests for the Single-Site Validity host-set bounds and checks."""

import pytest

from repro.semantics.validity import (
    ValidityBounds,
    aggregate_over,
    check_approximate_single_site_validity,
    check_single_site_validity,
    compute_bounds,
    stable_core,
    union_set,
)
from repro.simulation.churn import ChurnSchedule
from repro.topology.primitives import chain_topology, ring_topology, star_topology


class TestStableCore:
    def test_no_churn_core_is_whole_component(self):
        topo = chain_topology(5)
        core = stable_core(topo, ChurnSchedule.empty(), querying_host=0)
        assert core == {0, 1, 2, 3, 4}

    def test_failure_cuts_chain(self):
        topo = chain_topology(5)
        churn = ChurnSchedule(failures=[(1.0, 2)])
        core = stable_core(topo, churn, querying_host=0)
        assert core == {0, 1}

    def test_ring_survives_single_failure(self):
        topo = ring_topology(6)
        churn = ChurnSchedule(failures=[(1.0, 3)])
        core = stable_core(topo, churn, querying_host=0)
        assert core == {0, 1, 2, 4, 5}

    def test_querying_host_failure_empties_core(self):
        topo = chain_topology(3)
        churn = ChurnSchedule(failures=[(1.0, 0)])
        assert stable_core(topo, churn, querying_host=0) == set()

    def test_horizon_ignores_later_failures(self):
        topo = chain_topology(5)
        churn = ChurnSchedule(failures=[(10.0, 2)])
        core = stable_core(topo, churn, querying_host=0, horizon=5.0)
        assert core == {0, 1, 2, 3, 4}

    def test_star_center_failure_isolates_querying_leaf(self):
        topo = star_topology(4)
        churn = ChurnSchedule(failures=[(1.0, 0)])
        assert stable_core(topo, churn, querying_host=1) == {1}


class TestUnionSet:
    """``H_U`` is every initial host: hosts only leave, and each was
    alive at time 0, so neither the failures nor the horizon move it."""

    @pytest.mark.parametrize("failures", [
        [], [(1.0, 2)], [(0.0, 0)], [(0.0, 3), (1.0, 1), (2.0, 2), (3.0, 0)],
    ], ids=["none", "one", "querying-host-at-0", "all"])
    @pytest.mark.parametrize("horizon", [None, 0.0, 1.5, 10.0])
    def test_union_is_every_initial_host(self, failures, horizon):
        topo = chain_topology(4)
        churn = ChurnSchedule(failures=failures)
        assert union_set(topo, churn, horizon=horizon) == {0, 1, 2, 3}
        bounds = compute_bounds(topo, [5, 1, 7, 3], churn, querying_host=0,
                                kind="sum", horizon=horizon)
        assert bounds.union == frozenset(range(4))
        assert bounds.upper_value == 16


class TestAggregateOver:
    def test_all_kinds(self):
        values = [10, 20, 30, 40]
        hosts = [0, 2, 3]
        assert aggregate_over("min", hosts, values) == 10
        assert aggregate_over("max", hosts, values) == 40
        assert aggregate_over("count", hosts, values) == 3
        assert aggregate_over("sum", hosts, values) == 80
        assert aggregate_over("avg", hosts, values) == pytest.approx(80 / 3)

    def test_empty_host_set(self):
        assert aggregate_over("sum", [], [1, 2]) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            aggregate_over("median", [0], [1])


class TestComputeBoundsAndChecks:
    def _bounds(self, kind="count"):
        topo = chain_topology(5)
        values = [5, 10, 15, 20, 25]
        churn = ChurnSchedule(failures=[(1.0, 3)])
        return compute_bounds(topo, values, churn, querying_host=0, kind=kind), values

    def test_bounds_structure(self):
        bounds, _ = self._bounds()
        assert bounds.stable_core == frozenset({0, 1, 2})
        assert bounds.union == frozenset({0, 1, 2, 3, 4})
        assert bounds.core_size == 3
        assert bounds.union_size == 5
        assert bounds.lower_value == 3
        assert bounds.upper_value == 5

    def test_admissible_host_sets(self):
        bounds, _ = self._bounds()
        assert bounds.admissible_host_sets_contain({0, 1, 2})
        assert bounds.admissible_host_sets_contain({0, 1, 2, 4})
        assert not bounds.admissible_host_sets_contain({0, 1})
        assert not bounds.admissible_host_sets_contain({0, 1, 2, 9})

    def test_count_validity_interval(self):
        bounds, values = self._bounds("count")
        assert check_single_site_validity(3, bounds, "count", values)
        assert check_single_site_validity(4, bounds, "count", values)
        assert check_single_site_validity(5, bounds, "count", values)
        assert not check_single_site_validity(2, bounds, "count", values)
        assert not check_single_site_validity(6, bounds, "count", values)

    def test_sum_validity_interval(self):
        bounds, values = self._bounds("sum")
        assert bounds.lower_value == 30
        assert bounds.upper_value == 75
        assert check_single_site_validity(50, bounds, "sum", values)
        assert not check_single_site_validity(29, bounds, "sum", values)

    def test_max_validity(self):
        bounds, values = self._bounds("max")
        # Core max is 15 (hosts 0..2); union max is 25.
        assert check_single_site_validity(15, bounds, "max", values)
        assert check_single_site_validity(25, bounds, "max", values)
        assert not check_single_site_validity(10, bounds, "max", values)

    def test_min_validity(self):
        topo = chain_topology(4)
        values = [50, 40, 5, 30]
        churn = ChurnSchedule(failures=[(1.0, 2)])
        bounds = compute_bounds(topo, values, churn, querying_host=0, kind="min")
        # Core = {0, 1}: min 40; union min 5.  Any subset between them gives
        # a min between 5 and 40.
        assert check_single_site_validity(40, bounds, "min", values)
        assert check_single_site_validity(5, bounds, "min", values)
        assert not check_single_site_validity(45, bounds, "min", values)

    def test_avg_validity(self):
        bounds, values = self._bounds("avg")
        # Core avg = 10, adding hosts 3 and 4 can raise it up to 15.
        assert check_single_site_validity(10, bounds, "avg", values)
        assert check_single_site_validity(15, bounds, "avg", values)
        assert check_single_site_validity(12.5, bounds, "avg", values)
        assert not check_single_site_validity(30, bounds, "avg", values)
        assert not check_single_site_validity(5, bounds, "avg", values)

    def test_unknown_kind_rejected(self):
        bounds, values = self._bounds("count")
        with pytest.raises(ValueError):
            check_single_site_validity(3, bounds, "median", values)


class TestApproximateValidity:
    def test_slack_widens_interval(self):
        topo = chain_topology(5)
        values = [1] * 5
        churn = ChurnSchedule(failures=[(1.0, 3)])
        bounds = compute_bounds(topo, values, churn, querying_host=0, kind="count")
        assert not check_single_site_validity(2.5, bounds, "count", values)
        assert check_approximate_single_site_validity(2.5, bounds, "count", values,
                                                      epsilon=0.2)
        assert not check_approximate_single_site_validity(1.0, bounds, "count",
                                                          values, epsilon=0.2)

    def test_invalid_epsilon(self):
        bounds = ValidityBounds(stable_core=frozenset(), union=frozenset(),
                                querying_host=0)
        with pytest.raises(ValueError):
            check_approximate_single_site_validity(1.0, bounds, "count", [], epsilon=1.5)
