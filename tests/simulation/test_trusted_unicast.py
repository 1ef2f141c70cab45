"""The tick lane's trusted unicast.

``_TickLane.submit_unicast`` checks only that both ends are alive where
the spec's ``EventEngine.session_send`` also looks the edge up: every
lane unicast goes back to a former sender (WILDFIRE's catch-up reply, a
DAG Report to a parent) and the gate refuses joins, so the edge exists
structurally for the whole run.  This holds the shortcut to the spec's
answer on every call, across WILDFIRE's three folds, the tree and DAG-k,
with hosts failing mid-run.  Drawn a few times in tier-1, the named
profile's count in CI.
"""

import pytest
from hypothesis import strategies as st

from repro.protocols.base import protocol_from_spec, run_protocol
from repro.simulation.churn import uniform_failure_schedule
from repro.simulation.vector_lane import _TickLane
from repro.topology.random_graph import random_topology
from repro.workloads.values import zipf_values
from tests.drawn import drawn

CASES = [("wildfire", "count"), ("wildfire", "min"), ("wildfire", "max"),
         ("spanning-tree", "sum"), ("dag2", "count"), ("dag3", "sum")]


@pytest.fixture
def verdicts(monkeypatch):
    """Every lane unicast's outcome, each checked against the spec's
    ``has_alive_edge`` as it is submitted."""
    verdicts = []
    submit = _TickLane.submit_unicast

    def checked(self, sender, dest, *args):
        expected = self.network.has_alive_edge(sender, dest)
        sent = submit(self, sender, dest, *args)
        assert sent == expected, (sender, dest)
        verdicts.append(sent)
        return sent

    monkeypatch.setattr(_TickLane, "submit_unicast", checked)
    return verdicts


def test_every_lane_unicast_agrees_with_the_alive_edge_check(request,
                                                             verdicts):
    def law(case, topology_seed, failures):
        protocol, query = case
        topology = random_topology(40, avg_degree=4, seed=topology_seed)
        churn = uniform_failure_schedule(
            range(topology.num_hosts), failures, start=0.5, end=12.0,
            seed=topology_seed, protect=[0])
        result = run_protocol(protocol_from_spec(protocol), topology,
                              zipf_values(40, seed=topology_seed), query,
                              churn=churn, seed=topology_seed, lane="vector")
        assert result.lane_used == "vector"

    drawn(request, law, plain=12, case=st.sampled_from(CASES),
          topology_seed=st.integers(0, 10_000),
          failures=st.integers(0, 12))
    assert True in verdicts


def test_refused_unicasts_are_exercised(verdicts):
    """The pinned cell behind the drawn one: failures that land between
    a unicast's cause and its send make the lane refuse some, and each
    refusal is one the spec refuses too."""
    topology = random_topology(80, avg_degree=4, seed=5)
    for protocol, query in CASES:
        churn = uniform_failure_schedule(range(80), 30, start=0.5, end=14.0,
                                         seed=5, protect=[0])
        run_protocol(protocol_from_spec(protocol), topology,
                     zipf_values(80, seed=5), query, churn=churn, seed=5,
                     lane="vector")
    assert True in verdicts and False in verdicts
