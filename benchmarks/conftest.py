"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (``BENCH_SCALE`` times the sizes in ``experiments/figures.py``;
``repro run --scale`` runs larger ones).  Each benchmark prints the regenerated table so `pytest benchmarks/
--benchmark-only` output doubles as a reproduction report, and attaches key
numbers to the benchmark's ``extra_info``.
"""

from __future__ import annotations

import pytest

#: Scale factor applied to all benchmark experiment sizes.
BENCH_SCALE = 0.35

#: Seed shared by every benchmark so runs are reproducible.
BENCH_SEED = 1


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiment drivers take seconds, so calibrated multi-round timing
    would make the suite unreasonably slow; a single round still records the
    wall-clock cost of regenerating the figure.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_orchestrated(benchmark, figure_id, *, scale=BENCH_SCALE, trials=1,
                     workers=1, store=None, force=False):
    """Run a figure's trials the way ``python -m repro run`` does.

    Routes the benchmark through :func:`repro.orchestration.figures.
    run_figure_matrix` (seeded trials -> pool -> cache), so the harness
    measures the CLI's path.  Returns the figure's
    :class:`~repro.orchestration.figures.RunReport`.
    """
    from repro.orchestration.figures import run_figure_matrix

    def orchestrate():
        reports = run_figure_matrix(
            [figure_id], scale=scale, num_trials=trials,
            base_seed=BENCH_SEED, workers=workers, store=store, force=force,
        )
        return reports[figure_id]

    report = run_once(benchmark, orchestrate)
    benchmark.extra_info["cache_key"] = report.cache_key[:12]
    benchmark.extra_info["trials_cached"] = report.num_cached
    benchmark.extra_info["trials_executed"] = report.num_executed
    return report
