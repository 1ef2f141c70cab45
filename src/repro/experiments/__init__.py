"""Experiment harness: one driver per table/figure of the paper.

Every driver accepts a scale/size parameter so the same code runs both the
fast, scaled-down configurations used in the benchmark suite and the
paper-scale configurations (see EXPERIMENTS.md for the recorded outputs).
"""

from repro.experiments.runner import TrialStats, aggregate_trials
from repro.experiments.tables import format_table
from repro.experiments.accuracy import run_accuracy_experiment
from repro.experiments.validity_sweep import ValiditySweepRow, run_validity_sweep
from repro.experiments.costs import (
    run_communication_cost_experiment,
    run_computation_cost_experiment,
    run_grid_communication_experiment,
    run_messages_per_instant_experiment,
    run_time_cost_experiment,
)
from repro.experiments.badcase import run_theorem_44_experiment
from repro.experiments.capture_recapture import run_capture_recapture_experiment
from repro.experiments.delay_sweep import run_delay_sweep
from repro.experiments.scale_bench import (
    run_scale_benchmark,
    run_service_benchmark,
)
from repro.experiments.query_mix import run_query_mix
from repro.experiments.figures import FIGURES, run_figure

__all__ = [
    "TrialStats",
    "aggregate_trials",
    "format_table",
    "run_accuracy_experiment",
    "run_validity_sweep",
    "ValiditySweepRow",
    "run_communication_cost_experiment",
    "run_grid_communication_experiment",
    "run_computation_cost_experiment",
    "run_time_cost_experiment",
    "run_messages_per_instant_experiment",
    "run_theorem_44_experiment",
    "run_capture_recapture_experiment",
    "run_delay_sweep",
    "run_scale_benchmark",
    "run_service_benchmark",
    "run_query_mix",
    "FIGURES",
    "run_figure",
]
