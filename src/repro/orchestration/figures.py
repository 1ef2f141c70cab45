"""The bridge from the figure registry to the orchestration subsystem.

A figure of :data:`repro.experiments.figures.FIGURES` becomes a declarative
:class:`~repro.orchestration.spec.ExperimentSpec` (:func:`figure_spec`)
that :func:`run_figure_matrix` fans out over a worker pool and caches
content-addressably -- the path ``repro run`` takes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.figures import lookup_figure
from repro.orchestration.executor import ProgressCallback, RunReport, run_specs
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore


def figure_spec(
    figure_id: str,
    scale: float = 0.5,
    num_trials: int = 1,
    base_seed: int = 0,
) -> ExperimentSpec:
    """Wrap a figure as a declarative spec for the orchestration layer."""
    description, _ = lookup_figure(figure_id)
    return ExperimentSpec.create(
        name=description,
        runner="figure",
        axes={"figure": [figure_id], "scale": [scale]},
        num_trials=num_trials,
        base_seed=base_seed,
    )


def run_figure_matrix(
    figure_ids: Sequence[str],
    scale: float = 0.5,
    num_trials: int = 1,
    base_seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, RunReport]:
    """Run several figures' trial matrices through the orchestration layer.

    All figures' pending trials share one worker pool, so ``workers``
    parallelism spans figures as well as trials (``run all --workers N``
    parallelises even at one trial per figure); a repeated figure id runs
    once.  Results are bit-identical for any worker count.  Note that
    each trial's driver seed is *derived* from the spec hash,
    ``base_seed``, and the trial index (see
    :func:`repro.orchestration.spec.derive_trial_seed`), not passed through
    verbatim -- to reproduce one trial with
    :func:`~repro.experiments.figures.run_figure` directly, take its seed
    from the report (or ``spec.trials()``).
    """
    figure_ids = list(dict.fromkeys(figure_ids))
    specs = [
        figure_spec(figure_id, scale=scale, num_trials=num_trials,
                    base_seed=base_seed)
        for figure_id in figure_ids
    ]
    reports = run_specs(specs, workers=workers, store=store, force=force,
                        progress=progress)
    return dict(zip(figure_ids, reports))
