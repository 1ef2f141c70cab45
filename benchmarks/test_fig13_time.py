"""Figure 13 benchmark: time cost and the per-instant message profile."""

from conftest import BENCH_SEED, run_once

from repro.experiments.tables import format_table
from repro.experiments.costs import (
    run_messages_per_instant_experiment,
    run_time_cost_experiment,
)


def test_fig13a_time_cost(benchmark):
    rows = run_once(
        benchmark,
        run_time_cost_experiment,
        network_sizes=(200, 400, 800),
        d_hat_factors=(1.0, 1.5, 2.0),
        seed=BENCH_SEED,
    )
    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Figure 13(a): time cost vs |H| on Random"))

    for size in (200, 400, 800):
        wildfire = [r for r in rows if r.num_hosts == size and r.label.startswith("wildfire")]
        tree = [r for r in rows if r.num_hosts == size and r.label == "spanning-tree"]
        # Declaration time grows proportionally with the D_hat overestimate...
        declared = sorted(r.declaration_time for r in wildfire)
        assert declared[-1] > declared[0]
        # ...and the spanning tree declares no later than WILDFIRE's earliest.
        assert tree[0].declaration_time <= declared[0] + 1e-9
        # Messages stay flat across D_hat despite the longer wait.
        messages = {r.messages for r in wildfire}
        assert max(messages) <= min(messages) * 1.1

    benchmark.extra_info["sizes"] = [200, 400, 800]


def test_fig13b_messages_per_instant(benchmark):
    rows = run_once(
        benchmark,
        run_messages_per_instant_experiment,
        random_size=500,
        power_law_size=500,
        grid_side=14,
        d_hat_factor=2.0,
        seed=BENCH_SEED,
    )
    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Figure 13(b): WILDFIRE message profile (peak vs diameter)"))

    for row in rows:
        # Traffic peaks around the network diameter and dies out well before
        # the 2 * D_hat deadline (D_hat is twice the diameter here), which is
        # why overestimating D_hat costs time but not messages.
        assert row.peak_time() <= 2.5 * max(1, row.diameter_estimate)
        assert row.last_active_time() <= 2 * 2 * row.diameter_estimate + 2
    benchmark.extra_info["profiles"] = {
        row.topology: {"peak": row.peak_time(), "last": row.last_active_time()}
        for row in rows
    }
