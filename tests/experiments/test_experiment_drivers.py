"""Smoke and shape tests for the per-figure experiment drivers.

The class tests run the drivers at tiny scales so the whole suite stays
fast; their assertions check the *shape* of the results (who wins, what
stays within bounds) rather than absolute numbers.  The module-level tests
pin every ``FIGURES`` table at scale 0.3, seed 1, and assert each figure's
claims on those same rows.
"""

import functools
import hashlib
import json
import random

import pytest

from repro.experiments import accuracy
from repro.experiments.accuracy import run_accuracy_experiment
from repro.experiments.badcase import run_theorem_44_experiment
from repro.experiments.capture_recapture import (
    run_capture_recapture_experiment,
    run_ring_segment_experiment,
)
from repro.experiments.costs import (
    run_communication_cost_experiment,
    run_computation_cost_experiment,
    run_grid_communication_experiment,
    run_messages_per_instant_experiment,
    run_time_cost_experiment,
)
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.validity_sweep import run_validity_sweep
from repro.sketches.fm import SAMPLING_MODES, FMSketch, sampling_mode
from repro.topology.random_graph import random_topology


class TestAccuracyExperiment:
    def test_ratio_approaches_one_with_more_repetitions(self):
        rows = run_accuracy_experiment(set_sizes=(256,), repetitions_sweep=(1, 16),
                                       num_trials=4, include_sum=False, seed=1)
        by_reps = {row.repetitions: row.accuracy_ratio.mean for row in rows
                   if row.operator == "count"}
        assert abs(by_reps[16] - 1.0) <= abs(by_reps[1] - 1.0) + 0.35
        assert 0.4 <= by_reps[16] <= 1.8

    def test_sum_rows_present_when_enabled(self):
        rows = run_accuracy_experiment(set_sizes=(128,), repetitions_sweep=(4,),
                                       num_trials=2, include_sum=True, seed=1)
        assert {row.operator for row in rows} == {"count", "sum"}
        assert all("ratio_mean" in row.as_dict() for row in rows)

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    def test_one_sketch_per_estimate_draws_what_the_element_loop_draws(
            self, monkeypatch, mode):
        """Each estimate is one ``for_value`` sketch; the rows equal
        those of OR-ing one sketch per element (count) or per value
        (sum), in both sampling modes."""
        def count_loop(set_size, repetitions, rng):
            sketch = FMSketch.empty(repetitions)
            for _ in range(set_size):
                sketch = sketch.merge(
                    FMSketch.for_new_element(repetitions, rng))
            return sketch.estimate() / set_size

        def sum_loop(values, repetitions, rng):
            sketch = FMSketch.empty(repetitions)
            for value in values:
                sketch = sketch.merge(
                    FMSketch.for_value(value, repetitions, rng))
            truth = sum(values)
            return sketch.estimate() / truth if truth else 1.0

        config = dict(set_sizes=(64, 200), repetitions_sweep=(1, 8, 33),
                      num_trials=2, value_low=0, value_high=90, seed=4)
        with sampling_mode(mode):
            rows = run_accuracy_experiment(**config)
            monkeypatch.setattr(accuracy, "_count_estimate", count_loop)
            monkeypatch.setattr(accuracy, "_sum_estimate", sum_loop)
            assert rows == run_accuracy_experiment(**config)

    def test_a_negative_value_still_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            accuracy._sum_estimate([3, -0.5, 4], 8, random.Random(1))


class TestValiditySweep:
    def test_wildfire_valid_tree_degrades(self):
        topo = random_topology(200, avg_degree=4, seed=5)
        rows = run_validity_sweep(topo, "count", departures=[4, 40],
                                  num_trials=2, seed=5)
        wildfire = [r for r in rows if r.protocol == "wildfire"]
        tree = [r for r in rows if r.protocol == "spanning-tree"]
        assert all(r.fraction_valid == 1.0 for r in wildfire)
        # Heavy churn should hurt the tree's declared count.
        heavy_tree = [r for r in tree if r.departures == 40][0]
        light_tree = [r for r in tree if r.departures == 4][0]
        assert heavy_tree.value.mean <= light_tree.value.mean
        # Oracle bounds shrink as more hosts leave.
        heavy_wf = [r for r in wildfire if r.departures == 40][0]
        light_wf = [r for r in wildfire if r.departures == 4][0]
        assert heavy_wf.oracle_lower.mean <= light_wf.oracle_lower.mean

    def test_row_serialisation(self):
        topo = random_topology(80, avg_degree=4, seed=6)
        rows = run_validity_sweep(topo, "sum", departures=[4], num_trials=1, seed=6)
        payload = rows[0].as_dict()
        assert {"protocol", "R", "value_mean", "oracle_lower", "oracle_upper",
                "valid_fraction"} <= set(payload)


class TestCommunicationExperiments:
    def test_wildfire_costs_more_than_tree_on_random(self):
        rows = run_communication_cost_experiment(network_sizes=(150,),
                                                 d_hat_factors=(1.0, 2.0),
                                                 include_gnutella_point=False,
                                                 seed=2)
        messages = {r.label: r.messages for r in rows}
        assert messages["wildfire (D_hat=1x)"] > 1.5 * messages["spanning-tree"]

    def test_d_hat_overestimate_does_not_change_cost(self):
        rows = run_communication_cost_experiment(network_sizes=(150,),
                                                 d_hat_factors=(1.0, 2.0),
                                                 include_gnutella_point=False,
                                                 seed=2)
        wildfire_rows = [r for r in rows if r.label.startswith("wildfire")]
        messages = {r.messages for r in wildfire_rows}
        assert max(messages) <= min(messages) * 1.1

    def test_grid_min_max_cheaper_than_count(self):
        rows = run_grid_communication_experiment(grid_sides=(10,),
                                                 query_kinds=("count", "max", "min"),
                                                 seed=2)
        wf = {r.label: r.messages for r in rows if r.label.startswith("wildfire")}
        assert wf["wildfire/min"] < wf["wildfire/count"]
        assert wf["wildfire/max"] < wf["wildfire/count"]


class TestComputationExperiment:
    def test_wildfire_computation_cost_higher(self):
        rows = run_computation_cost_experiment(power_law_size=200, grid_side=8, seed=3)
        cost = {(r.result.protocol, r.topology): r.max_cost for r in rows}
        for topology in ("power-law", "grid"):
            assert cost["wildfire", topology] >= cost["spanning-tree", topology]
        grid_rows = [r for r in rows if r.topology == "grid"]
        assert grid_rows and all(r.histogram for r in grid_rows)

    def test_histogram_accounts_for_every_host(self):
        rows = run_computation_cost_experiment(power_law_size=150, grid_side=8, seed=3)
        for row in rows:
            assert sum(row.histogram.values()) <= row.num_hosts
            assert row.median_cost <= row.max_cost


class TestTimeCostExperiments:
    def test_declaration_time_scales_with_d_hat(self):
        rows = run_time_cost_experiment(network_sizes=(150,),
                                        d_hat_factors=(1.0, 2.0), seed=4)
        wf = [r for r in rows if r.label.startswith("wildfire")]
        small = min(r.declaration_time for r in wf)
        large = max(r.declaration_time for r in wf)
        assert large > small

    def test_message_profile_peaks_before_termination(self):
        rows = run_messages_per_instant_experiment(random_size=150,
                                                   power_law_size=150,
                                                   grid_side=8, seed=4)
        for row in rows:
            assert row.profile
            assert row.peak_time() <= 2 * row.diameter_estimate * 2
            assert row.last_active_time() <= 2 * (row.diameter_estimate * 2 + 1)


class TestTheorem44:
    def test_spanning_tree_halves_wildfire_valid(self):
        results = run_theorem_44_experiment(cycle_size=30, seed=1)
        by_name = {r.protocol: r for r in results}
        assert by_name["spanning-tree"].error_factor >= 1.8
        assert not by_name["spanning-tree"].is_valid
        assert by_name["wildfire"].is_valid


class TestCaptureRecaptureExperiment:
    def test_relative_error_stays_small(self):
        rows = run_capture_recapture_experiment(initial_size=800, num_intervals=8,
                                                sample_size=200, seed=2)
        assert rows
        mean_error = sum(r.relative_error for r in rows) / len(rows)
        assert mean_error < 0.35

    def test_static_population_estimates_its_size(self):
        """With no churn every interval after the first recaptures; each
        estimate is noisy (hypergeometric recapture counts) but within a
        factor of two, and their mean is much closer."""
        rows = run_capture_recapture_experiment(
            initial_size=500, num_intervals=8, departure_rate=0.0,
            arrival_rate=0.0, sample_size=150, seed=4)
        assert len(rows) >= 6
        assert all(row.true_size == 500 for row in rows)
        for row in rows:
            assert 250 <= row.estimate <= 1000
        mean = sum(row.estimate for row in rows) / len(rows)
        assert mean == pytest.approx(500, rel=0.3)

    def test_rejects_an_empty_or_oversized_sample(self):
        """A zero sample used to return no rows instead of an error."""
        for sample_size in (0, -3, 20):
            with pytest.raises(ValueError, match="sample_size"):
                run_capture_recapture_experiment(
                    initial_size=10, num_intervals=3,
                    sample_size=sample_size)

    def test_ring_segment_rows(self):
        rows = run_ring_segment_experiment(network_sizes=(300,), sample_size=80,
                                           num_trials=3, seed=2)
        assert rows[0]["|H|"] == 300
        assert rows[0]["mean_relative_error"] < 0.6


class TestFigureRegistry:
    def test_all_figures_registered(self):
        expected = {"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                    "fig13a", "fig13b", "thm4.4", "sec5.4"}
        assert expected <= set(FIGURES)
        # At least one claim per figure, no name twice, and the names
        # FIGURE_CLAIMS pins (so no claim is dropped silently).
        assert set(FIGURE_CLAIMS) == set(FIGURES)
        for figure_id, figure in FIGURES.items():
            names = [name for name, _ in figure.claims(pinned_rows(figure_id))]
            assert names and len(set(names)) == len(names), figure_id
            assert names == FIGURE_CLAIMS[figure_id]

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_small_figure_runs_end_to_end(self):
        rows = run_figure("thm4.4", scale=0.4, seed=1)
        assert rows and isinstance(rows[0], dict)


#: ``sha256(json.dumps(rows, sort_keys=True))[:16]`` of every figure table
#: at ``scale=0.3, seed=1`` -- a refactor of the drivers leaves each equal.
FIGURE_DIGESTS = {
    "fig6": "89219ad59c0631ff",
    "fig7": "0913d8a5bc5400bd",
    "fig8": "87afc51f4ab948a6",
    "fig9": "12a2cd524a9e79aa",
    "fig10": "90dfb78ec193efdf",
    "fig11": "6096aea858ba869e",
    "fig12": "741c341e4cb2fc2b",
    "fig13a": "12ef26d1f0d618e3",
    "fig13b": "3a0b3b2d2019f404",
    "thm4.4": "20355cf5a8e56ba2",
    "sec5.4": "bbf13a3578b4047c",
}


@functools.lru_cache(maxsize=None)
def pinned_rows(figure_id):
    """The rows ``FIGURE_DIGESTS`` pins, built once per session."""
    return run_figure(figure_id, scale=0.3, seed=1)


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure_table_is_pinned(figure_id):
    rows = pinned_rows(figure_id)
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == FIGURE_DIGESTS[figure_id]


#: Every figure's claim names, in the order ``repro run`` prints them: a
#: claim dropped or renamed must be a deliberate edit here too.
FIGURE_CLAIMS = {
    "fig6": ["fm-ratio-near-1-at-c16"],
    "fig7": ["wildfire-valid-on-average", "wildfire-value-flat",
             "tree-value-falls", "tree-ends-below-oracle"],
    "fig8": ["wildfire-valid-on-average", "wildfire-value-flat",
             "tree-value-falls"],
    "fig9": ["wildfire-valid-on-average", "wildfire-value-flat",
             "tree-ends-below-oracle"],
    "fig10": ["price-of-validity", "messages-flat-in-d-hat"],
    "fig11": ["count-costs-more-than-tree", "min-max-cheaper-than-count"],
    "fig12": ["hotspot-on-power-law", "hotspot-on-grid",
              "hotspot-worst-on-grid"],
    "fig13a": ["declared-at-grows-with-d-hat", "tree-declares-first",
               "messages-flat-in-d-hat", "wildfire-declares-at-2-d-hat",
               "chain-within-4-d-hat"],
    "fig13b": ["traffic-peaks-near-diameter", "traffic-ends-before-deadline"],
    "thm4.4": ["tree-loses-half-the-cycle", "tree-invalid", "wildfire-valid"],
    "sec5.4": ["capture-recapture-error", "ring-segment-error"],
}


@pytest.mark.parametrize("figure_id, claim", [
    (figure_id, claim) for figure_id in sorted(FIGURE_CLAIMS)
    for claim in FIGURE_CLAIMS[figure_id]])
def test_every_figure_claim_holds_on_the_pinned_table(figure_id, claim):
    verdicts = dict(FIGURES[figure_id].claims(pinned_rows(figure_id)))
    assert verdicts[claim]


def test_a_passed_mix_is_the_one_statement_of_rate_and_window():
    """``mix=`` names qps and duration; the summary and the churn window
    read it, not the ``qps=`` / ``duration=`` argument defaults (2.0 /
    60.0, which spread the failures out to t = 57 of a 6 s mix)."""
    from repro.experiments.query_mix import run_query_mix
    from repro.workloads.query_mix import QueryMixConfig

    summary = run_query_mix(
        num_hosts=60, mix=QueryMixConfig(qps=4, duration=6), seed=1,
        departures=10)["summary"]
    assert (summary["qps"], summary["duration"]) == (4.0, 6.0)
    assert summary["finished_at"] < 57.0


def test_submissions_take_ids_in_order_and_content_seeds():
    """Ids are 1, 2, ... in submission order.  Session seeds are
    content-derived, not id-derived: identical submissions agree, and
    each is the consensus seed of what was submitted."""
    from repro.service import QueryService
    from repro.service.sharing import consensus_seed

    topology = random_topology(30, avg_degree=3.0, seed=3)
    service = QueryService(topology, [1.0] * topology.num_hosts, seed=9)
    assert [service.submit("wildfire", "count") for _ in range(2)] == [1, 2]
    first, second = service._sessions[1], service._sessions[2]
    assert first.seed == second.seed == consensus_seed(
        9, first.protocol, first.query, 0,
        first.protocol.default_combiner(first.query, repetitions=8),
        service.d_hat)


def test_metrics_interval_without_a_stream_fails_before_any_work(
        monkeypatch):
    """The check used to run after the topology, the values, the mix and
    the service were built and every query submitted (0.29 s at 20 000
    hosts before the error)."""
    from repro.experiments import query_mix

    def no_build(*args, **kwargs):
        raise AssertionError("built a topology before checking arguments")

    monkeypatch.setattr(query_mix, "topology_from_spec", no_build)
    with pytest.raises(ValueError, match="metrics_stream"):
        query_mix.run_query_mix(num_hosts=20000, qps=5, duration=100,
                                metrics_interval=1.0)
