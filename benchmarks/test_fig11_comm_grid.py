"""Figure 11 benchmark: communication cost on the wireless sensor grid."""

from conftest import BENCH_SEED, run_once

from repro.experiments.costs import run_grid_communication_experiment
from repro.experiments.tables import format_table


def test_fig11_communication_cost_grid(benchmark):
    rows = run_once(
        benchmark,
        run_grid_communication_experiment,
        grid_sides=(12, 16, 20),
        query_kinds=("count", "max", "min"),
        seed=BENCH_SEED,
    )
    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Figure 11: communication cost on Grid (wireless)"))

    for side in (12, 16, 20):
        size = side * side
        by_label = {r.label: r.messages for r in rows if r.num_hosts == size}
        # Count pays the full price of validity...
        assert by_label["wildfire/count"] > by_label["spanning-tree/count"]
        # ...while early aggregation makes min/max much cheaper than count,
        # in line with the paper's observation that min can even undercut
        # the spanning tree.
        assert by_label["wildfire/min"] < by_label["wildfire/count"]
        assert by_label["wildfire/max"] < by_label["wildfire/count"]

    largest = {r.label: r.messages for r in rows if r.num_hosts == 400}
    benchmark.extra_info["count_ratio_at_400"] = round(
        largest["wildfire/count"] / largest["spanning-tree/count"], 2)
    benchmark.extra_info["min_ratio_at_400"] = round(
        largest["wildfire/min"] / largest["spanning-tree/count"], 2)
