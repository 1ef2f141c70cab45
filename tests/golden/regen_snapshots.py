"""Regenerate the golden seeded-equivalence snapshots.

The golden harness pins the simulation kernel's observable behaviour at
fixed seeds: the declared values, the full :class:`CostAccounting` (every
counter, not just the summary), and the per-figure experiment rows.  Any
kernel refactor must reproduce these snapshots bit-identically.

Two snapshot families exist, one per FM sampling mode:

* ``*.legacy.json`` -- captured with the coin-toss geometric sampler that
  shipped in the seed implementation.  These files were generated *before*
  the batched-ring kernel rewrite and must never be regenerated: they prove
  the rewritten engine/network/protocol stack replays the pre-rewrite
  event order and RNG stream exactly.
* ``*.fast.json`` -- captured with the default ``getrandbits`` sampler.
  These pin the current kernel for future refactors; regenerate them only
  when a deliberate, documented behaviour change is made.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen_snapshots.py --mode fast
    PYTHONPATH=src python tests/golden/regen_snapshots.py --mode legacy  # pre-rewrite capture only

See README.md ("Golden snapshots") for when regeneration is legitimate.
"""

from __future__ import annotations

import argparse
import json
import os
from contextlib import contextmanager
from typing import Any, Dict, List

#: Scale factor / seed used by every figure snapshot.  Small enough that the
#: whole golden suite replays in seconds, large enough that every protocol
#: code path (flood, convergecast, churn recovery) is exercised.
GOLDEN_SCALE = 0.1
GOLDEN_SEED = 3

#: Seed for the protocol-matrix snapshots.
MATRIX_SEED = 11

SNAPSHOT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshots")

#: Figures pinned by the golden harness (all registered figure experiments).
GOLDEN_FIGURES = [
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13a", "fig13b", "thm4.4", "sec5.4",
]


@contextmanager
def sampling_mode(mode: str):
    """Run with the given FM sampling mode; no-op on pre-rewrite trees."""
    try:
        from repro.sketches.fm import sampling_mode as fm_sampling_mode
    except ImportError:  # pre-rewrite fm.py: only the legacy sampler exists
        yield
        return
    with fm_sampling_mode(mode):
        yield


def canonical(obj: Any) -> Any:
    """Round-trip through JSON so snapshots and live results compare equal."""
    return json.loads(json.dumps(obj))


def counter_pairs(counter) -> List[List[Any]]:
    """A Counter as a sorted [key, value] list (JSON keys must be strings)."""
    return [[key, counter[key]] for key in sorted(counter)]


def costs_as_dict(costs) -> Dict[str, Any]:
    """Serialise every field of a CostAccounting, not just the summary."""
    return {
        "messages_sent": costs.messages_sent,
        "wireless_transmissions": costs.wireless_transmissions,
        "dropped_messages": costs.dropped_messages,
        "max_chain_depth": costs.max_chain_depth,
        "messages_processed": counter_pairs(costs.messages_processed),
        "messages_by_time": counter_pairs(costs.messages_by_time),
        "messages_by_kind": counter_pairs(costs.messages_by_kind),
    }


def matrix_cases() -> List[Dict[str, Any]]:
    """The protocol x topology x query x churn grid pinned by the harness."""
    cases = []
    for protocol in ("wildfire", "spanning-tree", "dag2"):
        for topology in ("random-48", "grid-7", "power-law-48"):
            for query in ("count", "sum", "min"):
                for churned in (False, True):
                    cases.append({
                        "protocol": protocol,
                        "topology": topology,
                        "query": query,
                        "churn": churned,
                    })
    return cases


def _build_topology(name: str):
    from repro.topology.grid import grid_topology
    from repro.topology.power_law import power_law_topology
    from repro.topology.random_graph import random_topology

    if name == "random-48":
        return random_topology(48, seed=MATRIX_SEED)
    if name == "grid-7":
        return grid_topology(7)
    if name == "power-law-48":
        return power_law_topology(48, seed=MATRIX_SEED)
    raise KeyError(name)


def _build_protocol(name: str):
    from repro.protocols.dag import DirectedAcyclicGraph
    from repro.protocols.spanning_tree import SpanningTree
    from repro.protocols.wildfire import Wildfire

    if name == "wildfire":
        return Wildfire()
    if name == "spanning-tree":
        return SpanningTree()
    if name == "dag2":
        return DirectedAcyclicGraph(num_parents=2)
    raise KeyError(name)


def run_matrix_case(case: Dict[str, Any], tracer=None) -> Dict[str, Any]:
    """Execute one matrix cell and serialise its full run result
    (``tracer``, when given, observes the run)."""
    from repro.protocols.base import run_protocol
    from repro.simulation.churn import uniform_failure_schedule
    from repro.workloads.values import uniform_values

    topology = _build_topology(case["topology"])
    values = uniform_values(topology.num_hosts, low=1, high=9,
                            seed=MATRIX_SEED)
    churn = None
    if case["churn"]:
        churn = uniform_failure_schedule(
            candidates=list(range(topology.num_hosts)),
            num_failures=5,
            start=0.5,
            end=6.0,
            seed=MATRIX_SEED,
            protect=[0],
        )
    result = run_protocol(
        _build_protocol(case["protocol"]),
        topology,
        values,
        case["query"],
        querying_host=0,
        churn=churn,
        seed=MATRIX_SEED,
        tracer=tracer,
    )
    return {
        "params": dict(case),
        "value": result.value,
        "finished_at": result.finished_at,
        "querying_host": result.querying_host,
        "d_hat": result.d_hat,
        "termination_time": result.termination_time,
        "extra": canonical(result.extra),
        "costs": costs_as_dict(result.costs),
    }


def capture_figures() -> Dict[str, Any]:
    from repro.experiments.figures import run_figure

    return {
        figure_id: canonical(
            run_figure(figure_id, scale=GOLDEN_SCALE, seed=GOLDEN_SEED))
        for figure_id in GOLDEN_FIGURES
    }


def capture_matrix() -> List[Dict[str, Any]]:
    return [canonical(run_matrix_case(case)) for case in matrix_cases()]


def write_snapshot(name: str, mode: str, payload: Any) -> str:
    os.makedirs(SNAPSHOT_DIR, exist_ok=True)
    path = os.path.join(SNAPSHOT_DIR, f"{name}.{mode}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("legacy", "fast"), required=True,
                        help="FM sampling mode to capture snapshots under")
    args = parser.parse_args()

    with sampling_mode(args.mode):
        figures = capture_figures()
        matrix = capture_matrix()
    print(write_snapshot("figures", args.mode, figures))
    print(write_snapshot("protocol_matrix", args.mode, matrix))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
