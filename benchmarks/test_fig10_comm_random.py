"""Figure 10 benchmark: communication cost vs network size on Random."""

from conftest import BENCH_SEED, run_once

from repro.experiments.costs import (
    run_communication_cost_experiment,
    wildfire_to_tree_ratio,
)
from repro.experiments.tables import format_table


def test_fig10_communication_cost_random(benchmark):
    rows = run_once(
        benchmark,
        run_communication_cost_experiment,
        network_sizes=(200, 400, 800),
        d_hat_factors=(1.0, 1.5, 2.0),
        include_gnutella_point=True,
        gnutella_size=600,
        seed=BENCH_SEED,
    )
    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Figure 10: communication cost on Random (+Gnutella)"))

    ratios = wildfire_to_tree_ratio(rows)
    print("WILDFIRE / SPANNINGTREE message ratio by |H|:",
          {size: round(ratio, 2) for size, ratio in sorted(ratios.items())})

    # The paper's price of validity: a constant factor (about 4-5x), clearly
    # above 1 and far below the worst case, at every network size.
    assert all(1.5 <= ratio <= 15 for ratio in ratios.values())

    # Overestimating D_hat does not change WILDFIRE's traffic.
    for size in (200, 400, 800):
        wildfire_msgs = {r.messages for r in rows
                         if r.num_hosts == size and r.label.startswith("wildfire (D_hat")}
        assert max(wildfire_msgs) <= min(wildfire_msgs) * 1.1

    benchmark.extra_info["ratio_by_size"] = {str(k): round(v, 2)
                                             for k, v in ratios.items()}
