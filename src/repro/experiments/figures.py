"""Registry mapping figure identifiers to their experiment drivers.

Each entry runs the corresponding paper figure at the sizes written here
times ``scale`` (below the paper's 40K-host networks even at scale 1.0) and
returns a list of dictionaries (one per table row).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Tuple

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
from repro.experiments.validity_sweep import run_validity_sweep
from repro.topology.base import Topology
from repro.topology.gnutella import gnutella_like_topology
from repro.topology.grid import grid_topology


def _fig06(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    sizes = [max(64, int(s * scale)) for s in (1024, 4096)]
    rows = run_accuracy_experiment(set_sizes=sizes, num_trials=3, seed=seed)
    return [row.as_dict() for row in rows]


def _gnutella(scale: float, seed: int) -> Topology:
    return gnutella_like_topology(max(200, int(1500 * scale)), seed=seed)


def _grid(scale: float, seed: int) -> Topology:
    return grid_topology(max(10, int(24 * scale)))


def _churn_figure(
    topology_at: Callable[[float, int], Topology],
    query_kind: str,
    scale: float = 1.0,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Figures 7-9: one query on one topology while 1 / 3 / 6 / 10 % of
    its hosts depart."""
    topology = topology_at(scale, seed)
    departures = [max(2, int(topology.num_hosts * f))
                  for f in (0.01, 0.03, 0.06, 0.10)]
    rows = run_validity_sweep(topology, query_kind, departures,
                              num_trials=3, seed=seed)
    return [row.as_dict() for row in rows]


def _fig10(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    sizes = [max(100, int(s * scale)) for s in (250, 500, 1000)]
    rows = run_communication_cost_experiment(network_sizes=sizes, seed=seed,
                                             gnutella_size=max(200, int(1000 * scale)))
    return [row.as_dict() for row in rows]


def _fig11(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    sides = [max(8, int(s * scale)) for s in (12, 16, 24)]
    rows = run_grid_communication_experiment(grid_sides=sides, seed=seed)
    return [row.as_dict() for row in rows]


def _fig12(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    rows = run_computation_cost_experiment(
        power_law_size=max(200, int(800 * scale)),
        grid_side=max(8, int(16 * scale)),
        seed=seed,
    )
    return [row.as_dict() for row in rows]


def _fig13a(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    sizes = [max(100, int(s * scale)) for s in (250, 500, 1000)]
    rows = run_time_cost_experiment(network_sizes=sizes, seed=seed)
    return [row.as_dict() for row in rows]


def _fig13b(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    rows = run_messages_per_instant_experiment(
        random_size=max(100, int(600 * scale)),
        power_law_size=max(100, int(600 * scale)),
        grid_side=max(8, int(16 * scale)),
        seed=seed,
    )
    return [row.as_dict() for row in rows]


def _thm44(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    cycle = max(10, int(42 * scale))
    if cycle % 2:
        cycle += 1
    return [row.as_dict() for row in run_theorem_44_experiment(cycle_size=cycle, seed=seed)]


def _sec54(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    rows = run_capture_recapture_experiment(
        initial_size=max(300, int(2000 * scale)),
        sample_size=max(60, int(200 * scale)),
        seed=seed,
    )
    ring = run_ring_segment_experiment(
        network_sizes=[max(200, int(s * scale)) for s in (500, 2000)],
        seed=seed,
    )
    return [row.as_dict() for row in rows] + ring


#: Figure id -> (description, driver)
FIGURES: Dict[str, Tuple[str, Callable]] = {
    "fig6": ("Accuracy of FM count and sum vs repetitions c", _fig06),
    "fig7": ("Count query vs churn on Gnutella-like topology",
             partial(_churn_figure, _gnutella, "count")),
    "fig8": ("Sum query vs churn on Gnutella-like topology",
             partial(_churn_figure, _gnutella, "sum")),
    "fig9": ("Count query vs churn on Grid topology",
             partial(_churn_figure, _grid, "count")),
    "fig10": ("Communication cost vs |H| on Random (+Gnutella)", _fig10),
    "fig11": ("Communication cost vs |H| on Grid (wireless)", _fig11),
    "fig12": ("Computation cost distribution on Power-law and Grid", _fig12),
    "fig13a": ("Time cost vs |H| on Random", _fig13a),
    "fig13b": ("Messages per time instant (WILDFIRE)", _fig13b),
    "thm4.4": ("Best-effort error construction (Theorem 4.4)", _thm44),
    "sec5.4": ("Continuous approximate size estimation", _sec54),
}


def lookup_figure(figure_id: str) -> Tuple[str, Callable]:
    """The ``(description, driver)`` entry of a figure id; an unknown id
    raises the one ``KeyError`` every surface reports."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        raise KeyError(f"unknown figure {figure_id!r}; known: "
                       f"{', '.join(sorted(FIGURES))}") from None


def run_figure(figure_id: str, scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    """Run one figure's experiment at the given scale and return its rows."""
    _, driver = lookup_figure(figure_id)
    return driver(scale=scale, seed=seed)
