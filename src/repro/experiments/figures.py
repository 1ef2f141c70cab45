"""Registry of the paper's figures: each one's driver and its claims.

Each :class:`Figure`'s driver runs the corresponding paper figure at the
sizes written here times ``scale`` (below the paper's 40K-host networks
even at scale 1.0) and returns a list of dictionaries (one per table row).
Its claims state, once, what the paper says that table shows: a function
of the rows alone, returning ``(name, holds)`` pairs, so a table read back
from the result cache gets the same verdicts as the run that wrote it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

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

Rows = List[Dict[str, Any]]
Verdicts = List[Tuple[str, bool]]


def _fig06(scale: float = 1.0, seed: int = 0) -> Rows:
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
) -> Rows:
    """Figures 7-9: one query on one topology while 1 / 3 / 6 / 10 % of
    its hosts depart."""
    topology = topology_at(scale, seed)
    departures = [max(2, int(topology.num_hosts * f))
                  for f in (0.01, 0.03, 0.06, 0.10)]
    rows = run_validity_sweep(topology, query_kind, departures,
                              num_trials=3, seed=seed)
    return [row.as_dict() for row in rows]


def _fig10(scale: float = 1.0, seed: int = 0) -> Rows:
    sizes = [max(100, int(s * scale)) for s in (250, 500, 1000)]
    rows = run_communication_cost_experiment(network_sizes=sizes, seed=seed,
                                             gnutella_size=max(200, int(1000 * scale)))
    return [row.as_dict() for row in rows]


def _fig11(scale: float = 1.0, seed: int = 0) -> Rows:
    sides = [max(8, int(s * scale)) for s in (12, 16, 24)]
    rows = run_grid_communication_experiment(grid_sides=sides, seed=seed)
    return [row.as_dict() for row in rows]


def _fig12(scale: float = 1.0, seed: int = 0) -> Rows:
    rows = run_computation_cost_experiment(
        power_law_size=max(200, int(800 * scale)),
        grid_side=max(8, int(16 * scale)),
        seed=seed,
    )
    return [row.as_dict() for row in rows]


def _fig13a(scale: float = 1.0, seed: int = 0) -> Rows:
    sizes = [max(100, int(s * scale)) for s in (250, 500, 1000)]
    rows = run_time_cost_experiment(network_sizes=sizes, seed=seed)
    return [row.as_dict() for row in rows]


def _fig13b(scale: float = 1.0, seed: int = 0) -> Rows:
    rows = run_messages_per_instant_experiment(
        random_size=max(100, int(600 * scale)),
        power_law_size=max(100, int(600 * scale)),
        grid_side=max(8, int(16 * scale)),
        seed=seed,
    )
    return [row.as_dict() for row in rows]


def _thm44(scale: float = 1.0, seed: int = 0) -> Rows:
    cycle = max(10, int(42 * scale))
    if cycle % 2:
        cycle += 1
    return [row.as_dict() for row in run_theorem_44_experiment(cycle_size=cycle, seed=seed)]


def _sec54(scale: float = 1.0, seed: int = 0) -> Rows:
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


def _groups(rows: Rows, *columns: str) -> List[Rows]:
    """``rows`` split by their values in ``columns``, in first-seen order."""
    groups: Dict[Tuple[Any, ...], Rows] = {}
    for row in rows:
        groups.setdefault(tuple(map(row.get, columns)), []).append(row)
    return list(groups.values())


def _fig06_claims(rows: Rows) -> Verdicts:
    return [("fm-ratio-near-1-at-c16", all(
        0.5 <= row["ratio_mean"] <= 1.7 for row in rows if row["c"] == 16))]


def _churn_claims(rows: Rows, tree_falls_within: Optional[float] = None,
                  tree_ends_below_oracle: bool = False) -> Verdicts:
    """Figures 7-9, whose rows run from the lightest churn to the heaviest."""
    wildfire = [row for row in rows if row["protocol"] == "wildfire"]
    tree = [row for row in rows if row["protocol"] == "spanning-tree"]
    valid = sum(row["valid_fraction"] for row in wildfire) / len(wildfire)
    # On average, not at every R: the FM estimate's noise (Lemma 5.1
    # bounds it only by a factor c) puts some trials outside the bounds.
    claims = [("wildfire-valid-on-average", valid >= 0.75),
              ("wildfire-value-flat", wildfire[-1]["value_mean"]
               >= 0.6 * wildfire[0]["value_mean"])]
    if tree_falls_within is not None:
        claims.append(("tree-value-falls", tree[-1]["value_mean"]
                       <= tree[0]["value_mean"] * tree_falls_within))
    if tree_ends_below_oracle:
        claims.append(("tree-ends-below-oracle",
                       tree[-1]["value_mean"] < tree[-1]["oracle_lower"]))
    return claims


def _fig10_claims(rows: Rows) -> Verdicts:
    price = d_hat_free = True
    for group in _groups(rows, "topology", "|H|"):
        first: Dict[str, int] = {}
        for row in group:
            first.setdefault(row["label"].split()[0], row["messages"])
        # A constant factor (the paper: about 4-5x), far below the
        # 2 * D_hat * |E| worst case.
        price &= 2 <= first["wildfire"] / first["spanning-tree"] <= 12
        swept = [row["messages"] for row in group if "D_hat" in row["label"]]
        d_hat_free &= not swept or max(swept) <= min(swept) * 1.1
    return [("price-of-validity", price),
            ("messages-flat-in-d-hat", d_hat_free)]


def _fig11_claims(rows: Rows) -> Verdicts:
    above_tree = min_max_cheaper = True
    for group in _groups(rows, "|H|"):
        cost = {row["label"]: row["messages"] for row in group}
        above_tree &= cost["wildfire/count"] > cost["spanning-tree/count"]
        min_max_cheaper &= max(cost["wildfire/min"], cost["wildfire/max"]) \
            < cost["wildfire/count"]
    return [("count-costs-more-than-tree", above_tree),
            ("min-max-cheaper-than-count", min_max_cheaper)]


def _fig12_claims(rows: Rows) -> Verdicts:
    cost = {(row["protocol"], row["topology"]): row["max_cost"]
            for row in rows}
    power_law, grid = (cost["wildfire", topology]
                       / cost["spanning-tree", topology]
                       for topology in ("power-law", "grid"))
    return [("hotspot-on-power-law", power_law >= 1.5),
            ("hotspot-on-grid", grid >= 4.0),
            ("hotspot-worst-on-grid", grid >= power_law)]


def _fig13a_claims(rows: Rows) -> Verdicts:
    grows = tree_first = flat = True
    for group in _groups(rows, "|H|"):
        wildfire = [row for row in group
                    if row["label"].startswith("wildfire")]
        declared = sorted(row["declared_at"] for row in wildfire)
        messages = [row["messages"] for row in wildfire]
        tree = next(row for row in group if row["label"] == "spanning-tree")
        grows &= declared[-1] > declared[0]
        tree_first &= tree["declared_at"] <= declared[0] + 1e-9
        flat &= max(messages) <= min(messages) * 1.1
    wildfire = [row for row in rows if row["label"].startswith("wildfire")]
    return [("declared-at-grows-with-d-hat", grows),
            ("tree-declares-first", tree_first),
            ("messages-flat-in-d-hat", flat),
            ("wildfire-declares-at-2-d-hat", all(
                row["declared_at"] == 2 * row["d_hat"] for row in wildfire)),
            ("chain-within-4-d-hat", all(
                row["chain_length"] <= 4 * row["d_hat"] for row in wildfire))]


def _fig13b_claims(rows: Rows) -> Verdicts:
    # Traffic peaks near the diameter and dies out well before the
    # 2 * D_hat deadline (D_hat is twice the diameter): overestimating
    # D_hat costs time, not messages.
    return [("traffic-peaks-near-diameter", all(
                row["peak_time"] <= 2.5 * max(1, row["diameter"])
                for row in rows)),
            ("traffic-ends-before-deadline", all(
                row["last_active"] <= 4 * row["diameter"] + 2
                for row in rows))]


def _thm44_claims(rows: Rows) -> Verdicts:
    tree, wildfire = (next(row for row in rows if row["protocol"] == name)
                      for name in ("spanning-tree", "wildfire"))
    return [("tree-loses-half-the-cycle", tree["error_factor"] >= 1.8),
            ("tree-invalid", not tree["valid"]),
            ("wildfire-valid", wildfire["valid"])]


def _sec54_claims(rows: Rows) -> Verdicts:
    errors = [row["relative_error"] for row in rows if "relative_error" in row]
    return [("capture-recapture-error",
             len(errors) >= 8 and sum(errors) / len(errors) < 0.25),
            ("ring-segment-error", all(
                row["mean_relative_error"] < 0.5
                for row in rows if "mean_relative_error" in row))]


class Figure(NamedTuple):
    """One paper figure: its title, its driver ``(scale, seed) -> rows``
    and its claims ``rows -> [(name, holds), ...]``."""

    description: str
    driver: Callable[..., Rows]
    claims: Callable[[Rows], Verdicts]


FIGURES: Dict[str, Figure] = {
    "fig6": Figure("Accuracy of FM count and sum vs repetitions c", _fig06,
                   _fig06_claims),
    "fig7": Figure("Count query vs churn on Gnutella-like topology",
                   partial(_churn_figure, _gnutella, "count"),
                   partial(_churn_claims, tree_falls_within=1.0,
                           tree_ends_below_oracle=True)),
    "fig8": Figure("Sum query vs churn on Gnutella-like topology",
                   partial(_churn_figure, _gnutella, "sum"),
                   partial(_churn_claims, tree_falls_within=1.05)),
    "fig9": Figure("Count query vs churn on Grid topology",
                   partial(_churn_figure, _grid, "count"),
                   partial(_churn_claims, tree_ends_below_oracle=True)),
    "fig10": Figure("Communication cost vs |H| on Random (+Gnutella)", _fig10,
                    _fig10_claims),
    "fig11": Figure("Communication cost vs |H| on Grid (wireless)", _fig11,
                    _fig11_claims),
    "fig12": Figure("Computation cost distribution on Power-law and Grid",
                    _fig12, _fig12_claims),
    "fig13a": Figure("Time cost vs |H| on Random", _fig13a, _fig13a_claims),
    "fig13b": Figure("Messages per time instant (WILDFIRE)", _fig13b,
                     _fig13b_claims),
    "thm4.4": Figure("Best-effort error construction (Theorem 4.4)", _thm44,
                     _thm44_claims),
    "sec5.4": Figure("Continuous approximate size estimation", _sec54,
                     _sec54_claims),
}


def lookup_figure(figure_id: str) -> Figure:
    """The :class:`Figure` of a figure id; an unknown id raises the one
    ``KeyError`` every surface reports."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        raise KeyError(f"unknown figure {figure_id!r}; known: "
                       f"{', '.join(sorted(FIGURES))}") from None


def run_figure(figure_id: str, scale: float = 1.0, seed: int = 0) -> Rows:
    """Run one figure's experiment at the given scale and return its rows."""
    return lookup_figure(figure_id).driver(scale=scale, seed=seed)
