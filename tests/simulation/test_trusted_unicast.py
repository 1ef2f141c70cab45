"""The tick lanes' trusted sends.

A batch kernel files every send after the query start itself: the
record onto the lane's out list, one tally per instant and kind, and the
spec loop's ``send`` trace record.  A unicast checks only that both ends
are alive where the spec's ``EventEngine.session_send`` also looks the
edge up: every lane unicast goes back to a former sender (WILDFIRE's
catch-up reply, a DAG Report to a parent) and the gate refuses joins,
so the edge exists structurally for the whole run.  This holds the
lane's sends to the spec's, record for record -- a multicast as one
record with dest -1 and its width as the count, a unicast as one record
of count 1, each refused one as none -- across WILDFIRE's three folds,
the tree and DAG-k, point-to-point and wireless, with hosts failing
mid-run.  Drawn a few times in tier-1, the named profile's count in CI.
"""

import pytest
from hypothesis import strategies as st

from repro.obs.trace import RingTracer
from repro.protocols.base import protocol_from_spec, run_protocol
from repro.simulation.churn import uniform_failure_schedule
from repro.simulation.network import DynamicNetwork
from repro.topology.random_graph import random_topology
from repro.workloads.values import zipf_values
from tests.drawn import drawn

CASES = [("wildfire", "count"), ("wildfire", "min"), ("wildfire", "max"),
         ("spanning-tree", "sum"), ("dag2", "count"), ("dag3", "sum")]


@pytest.fixture
def verdicts(monkeypatch):
    """Every spec unicast's alive-edge verdict, in call order."""
    verdicts = []
    has_alive_edge = DynamicNetwork.has_alive_edge

    def checked(self, sender, dest):
        verdict = has_alive_edge(self, sender, dest)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(DynamicNetwork, "has_alive_edge", checked)
    return verdicts


def _sends(case, hosts, topology_seed, failures, wireless, lane):
    """The ``send`` records of one traced run on ``lane``."""
    protocol, query = case
    topology = random_topology(hosts, avg_degree=4, seed=topology_seed)
    churn = uniform_failure_schedule(
        range(topology.num_hosts), failures, start=0.5, end=14.0,
        seed=topology_seed, protect=[0])
    tracer = RingTracer(capacity=200_000, sampling={})
    result = run_protocol(protocol_from_spec(protocol), topology,
                          zipf_values(hosts, seed=topology_seed), query,
                          churn=churn, seed=topology_seed, wireless=wireless,
                          tracer=tracer, lane=lane)
    assert result.lane_used == lane
    return [record for record in tracer.raw_records() if record[0] == "send"]


def _same_sends_on_both_lanes(*run):
    lane = _sends(*run, lane="vector")
    assert lane == _sends(*run, lane="python")
    # A unicast is one record of count 1; a multicast is dest -1.
    assert all(count == 1 for _, _, _, dest, _, count, _ in lane
               if dest != -1)
    return lane


def test_every_lane_unicast_agrees_with_the_alive_edge_check(request,
                                                             verdicts):
    def law(case, topology_seed, failures, wireless):
        _same_sends_on_both_lanes(case, 40, topology_seed, failures,
                                  wireless)

    drawn(request, law, plain=12, case=st.sampled_from(CASES),
          topology_seed=st.integers(0, 10_000),
          failures=st.integers(0, 12), wireless=st.booleans())
    assert True in verdicts


def test_refused_unicasts_are_exercised(verdicts):
    """The pinned cell behind the drawn one: failures that land between
    a unicast's cause and its send make the spec refuse some, and the
    lane files exactly the sends the spec files -- unicasts and
    multicasts both."""
    for case in CASES:
        sends = _same_sends_on_both_lanes(case, 80, 5, 30, False)
        assert any(dest == -1 and count > 1
                   for _, _, _, dest, _, count, _ in sends)
        assert any(dest != -1 for _, _, _, dest, _, _, _ in sends)
    assert True in verdicts and False in verdicts
