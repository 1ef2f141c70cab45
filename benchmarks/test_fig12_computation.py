"""Figure 12 benchmark: computation-cost distribution on Power-law and Grid."""

from conftest import BENCH_SEED, run_once

from repro.experiments.costs import (
    computation_cost_ratio,
    run_computation_cost_experiment,
)
from repro.experiments.tables import format_table


def test_fig12_computation_cost_distribution(benchmark):
    rows = run_once(
        benchmark,
        run_computation_cost_experiment,
        power_law_size=600,
        grid_side=16,
        query_kind="count",
        seed=BENCH_SEED,
    )
    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Figure 12: per-host computation cost (count query)"))

    ratios = computation_cost_ratio(rows)
    print("WILDFIRE / SPANNINGTREE max computation-cost ratio:",
          {k: round(v, 1) for k, v in ratios.items()})

    # WILDFIRE's hottest host processes several times more messages than the
    # spanning tree's, and the effect is strongest on the dense grid.
    assert ratios["power-law"] >= 1.5
    assert ratios["grid"] >= 4.0
    assert ratios["grid"] >= ratios["power-law"]
    benchmark.extra_info["ratios"] = {k: round(v, 1) for k, v in ratios.items()}
