"""Experiment harness: one driver per table/figure of the paper.

Every driver accepts a scale/size parameter so the same code runs both the
fast, scaled-down configurations used in the benchmark suite and larger
ones; scale 1.0 is the sizes written in :mod:`.figures`.
"""

from repro import lazy_exports

_EXPORTS = {
    "TrialStats": "runner",
    "aggregate_trials": "runner",
    "format_table": "tables",
    "run_accuracy_experiment": "accuracy",
    "run_validity_sweep": "validity_sweep",
    "ValiditySweepRow": "validity_sweep",
    "run_communication_cost_experiment": "costs",
    "run_grid_communication_experiment": "costs",
    "run_computation_cost_experiment": "costs",
    "run_time_cost_experiment": "costs",
    "run_messages_per_instant_experiment": "costs",
    "run_theorem_44_experiment": "badcase",
    "run_capture_recapture_experiment": "capture_recapture",
    "run_scale_benchmark": "scale_bench",
    "run_service_benchmark": "scale_bench",
    "run_query_mix": "query_mix",
    "FIGURES": "figures",
    "run_figure": "figures",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
