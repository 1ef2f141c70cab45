"""Parallel experiment orchestration: specs, execution, and result caching.

The subsystem separates *what* an experiment is from *how* it runs:

- :class:`ExperimentSpec` declares a trial matrix (axes x repetitions)
  with a stable content hash;
- :class:`ParallelExecutor` / :func:`run_spec` fan trials out over a
  process pool with per-trial seeds derived from the spec hash, so results
  are identical for any worker count;
- :class:`ResultStore` content-addresses results on disk for
  skip-if-cached resume and incremental re-runs;
- :func:`figure_spec` / :func:`run_figure_matrix` bridge the paper-figure
  registry of :mod:`repro.experiments.figures` to all of the above;
- :mod:`repro.orchestration.cli` exposes it all as ``python -m repro``.
"""

from repro.orchestration.executor import (
    ParallelExecutor,
    RunReport,
    TrialResult,
    run_spec,
    run_specs,
)
from repro.orchestration.figures import figure_spec, run_figure_matrix
from repro.orchestration.runners import (
    register_runner,
    resolve_runner,
)
from repro.orchestration.spec import ExperimentSpec, Trial, derive_trial_seed
from repro.orchestration.store import ResultStore, default_cache_root

__all__ = [
    "ExperimentSpec",
    "Trial",
    "derive_trial_seed",
    "ParallelExecutor",
    "RunReport",
    "TrialResult",
    "run_spec",
    "run_specs",
    "figure_spec",
    "run_figure_matrix",
    "register_runner",
    "resolve_runner",
    "ResultStore",
    "default_cache_root",
]
