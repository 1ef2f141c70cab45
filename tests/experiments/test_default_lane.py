"""The default lane through every driver that calls ``run_protocol``.

No figure driver names a lane, so each takes ``DEFAULT_LANE`` and the
``plan_run`` gate decides per run.  Each driver is run twice on one small
configuration -- once as shipped, once with its ``run_protocol`` pinned to
``lane="python"`` -- and every protocol run inside it must agree bit for
bit (value, cost fingerprint, finish time), with the lane the gate chose
and the reason it gave being the documented ones: WILDFIRE, SPANNINGTREE
and DAG-k engage their batch kernels at fixed delay, variable delay falls
back.
"""

import pytest

from repro.core import aggregator
from repro.core.aggregator import ValidAggregator
from repro.experiments import badcase, costs, validity_sweep
from repro.simulation.churn import ChurnSchedule
from repro.simulation.vector_lane import DEFAULT_LANE
from repro.topology.random_graph import random_topology


def _aggregator_queries():
    topology = random_topology(60, avg_degree=4, seed=3)
    values = [float(1 + host % 7) for host in range(60)]
    agg = ValidAggregator(topology, values, seed=3)
    churn = ChurnSchedule(failures=[(1.0, 7), (2.5, 11)])
    for kind, protocol in (("count", "wildfire"), ("min", "wildfire"),
                           ("count", "spanning-tree"), ("sum", "dag")):
        agg.query(kind, protocol=protocol, churn=churn)


TREE = {"wildfire", "spanning-tree"}
DAG2 = TREE | {"dag-k2"}
LINE_UP = DAG2 | {"dag-k3"}

#: driver -> (module whose ``run_protocol`` it calls, one small run, the
#: protocols it runs at fixed delay -- exactly those must engage).
DRIVERS = {
    "validity_sweep": (validity_sweep, lambda: validity_sweep.run_validity_sweep(
        random_topology(80, avg_degree=4, seed=5), "count",
        departures=[0, 12], num_trials=2, seed=5), LINE_UP),
    "costs": (costs, lambda: (
        costs.run_communication_cost_experiment(
            network_sizes=(60,), d_hat_factors=(1.0, 1.5),
            include_gnutella_point=False, seed=2),
        costs.run_computation_cost_experiment(
            power_law_size=80, grid_side=6, seed=2),
        costs.run_time_cost_experiment(
            network_sizes=(60,), d_hat_factors=(1.0, 2.0), seed=2),
        costs.run_messages_per_instant_experiment(
            random_size=60, power_law_size=60, grid_side=5, seed=2)),
        DAG2),
    "badcase": (badcase, lambda: badcase.run_theorem_44_experiment(
        cycle_size=12, seed=4), TREE),
    "delay_sweep": (validity_sweep, lambda: validity_sweep.run_validity_sweep(
        random_topology(60, avg_degree=4, seed=7), "count",
        departures=(0, 8), delay_specs=validity_sweep.DEFAULT_DELAY_SPECS,
        num_trials=1, seed=7), LINE_UP),
    "core.aggregator": (aggregator, _aggregator_queries, DAG2),
}


def _record_runs(monkeypatch, module, drive, **pinned):
    """Drive once; returns one digest per ``run_protocol`` call made."""
    runs = []
    real = module.run_protocol

    def recording(*args, **kwargs):
        kwargs.update(pinned)
        result = real(*args, **kwargs)
        runs.append({
            "protocol": result.protocol,
            "delay": kwargs.get("delay") or "fixed",
            "digest": (result.value, result.costs.fingerprint(),
                       result.finished_at),
            "lane_used": result.lane_used,
            "fallback_reason": result.fallback_reason,
        })
        return result

    with monkeypatch.context() as patch:
        patch.setattr(module, "run_protocol", recording)
        drive()
    return runs


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_default_lane_is_bit_identical_and_says_what_ran(driver, monkeypatch):
    module, drive, engages = DRIVERS[driver]
    default = _record_runs(monkeypatch, module, drive)
    spec = _record_runs(monkeypatch, module, drive, lane="python")
    assert default, "the driver made no run_protocol call"
    assert ([run["digest"] for run in default]
            == [run["digest"] for run in spec])
    assert all(run["lane_used"] == "python"
               and run["fallback_reason"] is None for run in spec)
    for run in default:
        if run["delay"] != "fixed":
            expected = ("python", "variable delay model")
        else:
            expected = (DEFAULT_LANE, None)
        assert (run["lane_used"], run["fallback_reason"]) == expected, run
    engaged = {run["protocol"] for run in default
               if run["fallback_reason"] is None}
    assert engaged == engages
