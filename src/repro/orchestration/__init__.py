"""Figure runs: seeded trials over a process pool, with a result cache.

- :func:`run_figure_matrix` runs trials of the paper-figure registry of
  :mod:`repro.experiments.figures` over one shared pool, each trial's
  seed derived from the run's identity hash (:func:`derive_trial_seed`),
  so results are identical for any worker count;
- :class:`ResultStore` content-addresses results on disk for
  skip-if-cached resume and incremental re-runs;
- :mod:`repro.orchestration.cli` exposes it all as ``python -m repro``.
"""

from repro import lazy_exports

_EXPORTS = {
    "RunReport": "figures",
    "derive_trial_seed": "figures",
    "run_figure_matrix": "figures",
    "worker_utilisation": "figures",
    "ResultStore": "store",
    "default_cache_root": "store",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
