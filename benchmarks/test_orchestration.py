"""Orchestration-layer benchmarks: cold execution versus warm cache.

The cold benchmark measures a figure run routed through
:func:`~repro.orchestration.figures.run_figure_matrix` and the result
store; the warm benchmark re-runs the identical figure run against a
pre-populated cache and should complete in milliseconds while
returning bit-identical values.
"""

from conftest import BENCH_SEED, run_orchestrated

from repro.orchestration.store import ResultStore

#: A cheap figure keeps the cold run comparable to the other benchmarks.
FIGURE = "fig6"
SCALE = 0.1


def test_orchestrated_figure_cold(benchmark, tmp_path):
    store = ResultStore(tmp_path / "cache")
    report = run_orchestrated(benchmark, FIGURE, scale=SCALE, trials=2,
                              store=store)
    assert report.num_executed == 2
    assert report.num_cached == 0
    assert store.has(report.cache_key)


def test_orchestrated_figure_warm(benchmark, tmp_path):
    store = ResultStore(tmp_path / "cache")
    # Populate the cache outside the timed region.
    from repro.orchestration.figures import run_figure_matrix

    cold = run_figure_matrix([FIGURE], scale=SCALE, num_trials=2,
                             base_seed=BENCH_SEED, store=store)[FIGURE]

    report = run_orchestrated(benchmark, FIGURE, scale=SCALE, trials=2,
                              store=store)
    assert report.fully_cached
    assert report.values == cold.values
