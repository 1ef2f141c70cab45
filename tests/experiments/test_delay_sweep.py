"""Tests for the churn sweep under variable delay (``repro delay-sweep``)."""

import pytest

from repro.experiments.validity_sweep import (DEFAULT_DELAY_SPECS,
                                              run_validity_sweep)
from repro.topology.random_graph import random_topology


def test_sweep_covers_every_delay_protocol_churn_cell():
    topology = random_topology(40, seed=9)
    rows = run_validity_sweep(topology, "count", departures=(0, 5),
                              delay_specs=DEFAULT_DELAY_SPECS,
                              num_trials=2, seed=9)
    # 2 R values x 3 default delay specs x 4 default protocols.
    assert len(rows) == 2 * len(DEFAULT_DELAY_SPECS) * 4
    cells = {(r.delay, r.protocol, r.departures) for r in rows}
    assert len(cells) == len(rows)
    for row in rows:
        as_dict = row.as_dict()
        for key in ("delay", "protocol", "R", "value_mean", "oracle_lower",
                    "oracle_upper", "valid_fraction", "finished_at"):
            assert key in as_dict
        assert 0.0 <= row.fraction_valid <= 1.0


def test_wildfire_keeps_validity_under_every_delay_model():
    """The headline beyond-paper curve: WILDFIRE's valid fraction stays
    1.0 on every delay model even under churn."""
    topology = random_topology(40, seed=9)
    rows = run_validity_sweep(topology, "count", departures=(0, 5),
                              delay_specs=DEFAULT_DELAY_SPECS,
                              num_trials=2, seed=9)
    for row in rows:
        if row.protocol == "wildfire":
            assert row.fraction_valid == 1.0, (
                f"WILDFIRE lost validity under {row.delay} at R={row.departures}"
            )


def test_variable_delay_never_finishes_later_than_fixed():
    """Realised delays at most the bound can only give messages more
    slack, so runs finish no later than the fixed worst case."""
    topology = random_topology(40, seed=9)
    rows = run_validity_sweep(topology, "count", departures=(0,),
                              delay_specs=("fixed", "uniform:0.25,1.0"),
                              num_trials=2, seed=9)
    by_delay = {}
    for row in rows:
        by_delay.setdefault(row.protocol, {})[row.delay] = row.finished_at.mean
    for protocol, finishes in by_delay.items():
        assert finishes["uniform:0.25,1.0"] <= finishes["fixed"] + 1e-9, (
            f"{protocol} finished later under variable delay"
        )



@pytest.mark.parametrize("departures", [(20,), (0, 50), (-1,)])
def test_departures_outside_the_network_are_refused(departures):
    """R = 50 on 20 hosts used to run 19 failures under an ``R = 50``
    label: the querying host never fails, so R must stay below n."""
    topology = random_topology(20, seed=9)
    with pytest.raises(ValueError, match=r"R must be in \[0, 19\]"):
        run_validity_sweep(topology, "count", departures=departures,
                           delay_specs=("fixed",), num_trials=1, seed=9)


def test_the_largest_departure_count_fails_all_but_the_querier():
    topology = random_topology(20, seed=9)
    rows = run_validity_sweep(topology, "count", departures=(19,),
                              num_trials=1, seed=9)
    assert {row.departures for row in rows} == {19}
    assert all(row.oracle_lower.mean == 1.0 for row in rows)
