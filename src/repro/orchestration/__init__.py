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

from repro import lazy_exports

_EXPORTS = {
    "ExperimentSpec": "spec",
    "Trial": "spec",
    "derive_trial_seed": "spec",
    "ParallelExecutor": "executor",
    "RunReport": "executor",
    "TrialResult": "executor",
    "run_spec": "executor",
    "run_specs": "executor",
    "figure_spec": "figures",
    "run_figure_matrix": "figures",
    "register_runner": "runners",
    "resolve_runner": "runners",
    "ResultStore": "store",
    "default_cache_root": "store",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
