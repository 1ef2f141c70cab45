"""Shared helpers for the benchmark harness.

The files here time and smoke-test the kernel, the service, the sharded
lane, tracing overhead and the orchestration path, and validate the
artifacts those smokes write.  No file here regenerates a paper figure:
each figure's claims are stated once, beside its driver, in
``repro.experiments.figures.FIGURES``, and ``repro run`` prints their
verdicts.
"""

from __future__ import annotations

#: Seed shared by every benchmark so runs are reproducible.
BENCH_SEED = 1

#: The traced/untraced wall-clock ratio gates read the machine's load as
#: well as the code, on CPU seconds as on wall seconds, and the tick-lane
#: memory budgets run two 100k-host floods in subprocesses, so a
#: directory-wide run (tier-1) does not collect them.  The perf-smoke
#: job names both files, and a file named on the command line is
#: collected all the same.
collect_ignore = ["test_obs_overhead.py", "test_tick_lane_memory.py"]


def run_orchestrated(benchmark, figure_id, *, scale, trials=1,
                     workers=1, store=None, force=False):
    """Run a figure's trials the way ``python -m repro run`` does, once.

    Routes the benchmark through :func:`repro.orchestration.figures.
    run_figure_matrix` (seeded trials -> pool -> cache), so the harness
    measures the CLI's path.  A figure run takes seconds, so it is timed
    in a single round rather than calibrated multi-round timing.
    Returns the figure's :class:`~repro.orchestration.figures.RunReport`.
    """
    from repro.orchestration.figures import run_figure_matrix

    def orchestrate():
        reports = run_figure_matrix(
            [figure_id], scale=scale, num_trials=trials,
            base_seed=BENCH_SEED, workers=workers, store=store, force=force,
        )
        return reports[figure_id]

    report = benchmark.pedantic(orchestrate, rounds=1, iterations=1)
    benchmark.extra_info["cache_key"] = report.cache_key[:12]
    benchmark.extra_info["trials_cached"] = report.num_cached
    benchmark.extra_info["trials_executed"] = report.num_executed
    return report
