"""A fixed-delay multicast is one :class:`Message` from send to delivery.

``EventEngine._drain`` hands the multicast's one object to each
destination in turn with ``dest`` rebound to it, and counts every
delivery straight into the session sink's processed array -- which must
therefore cover every host, even in a caller's sink of size 0.  Flood probes (every host forwards the first
message it hears to all alive neighbors but its sender) log each
delivery they get.
"""

from collections import Counter

import pytest

from repro.protocols.base import Protocol
from repro.simulation.churn import ChurnSchedule
from repro.simulation.engine import Simulator
from repro.simulation.host import ProtocolHost
from repro.simulation.stats import CostAccounting
from repro.topology.random_graph import random_topology


class _Probe(ProtocolHost):
    """Logs ``(host_id, message.dest, message.sender, id(message))`` per
    delivery.  It also keeps every message it is handed -- which a real
    handler must not -- so that no id is recycled while the log is read."""

    __slots__ = ("log", "kept", "forwarded")

    def __init__(self, host_id, log, kept):
        super().__init__(host_id, value=1.0)
        self.log = log
        self.kept = kept
        self.forwarded = False

    def on_query_start(self, ctx):
        self.forwarded = True
        ctx.send_to_neighbors("FLOOD", {})

    def on_message(self, message, ctx):
        self.log.append((ctx.host_id, message.dest, message.sender,
                         id(message)))
        self.kept.append(message)
        if not self.forwarded:
            self.forwarded = True
            ctx.send_to_neighbors("FLOOD", {}, exclude=(message.sender,))

    def local_result(self):
        return 1.0


class _ProbeFlood(Protocol):
    name = "probe-flood"

    def __init__(self):
        self.log, self.kept = [], []

    def probe(self, host_id):
        return _Probe(host_id, self.log, self.kept)

    def create_hosts(self, topology, values, querying_host, query, combiner,
                     d_hat, delta, rng):
        return [self.probe(host_id) for host_id in range(topology.num_hosts)]


@pytest.fixture
def topology():
    return random_topology(40, avg_degree=4, seed=5)


@pytest.mark.parametrize("wireless", [False, True], ids=["p2p", "wireless"])
def test_every_destination_gets_the_multicasts_one_message(topology,
                                                           wireless):
    root_dests = sorted(topology.adjacency[0])
    victim = root_dests[1]
    flood = _ProbeFlood()
    simulator = Simulator(
        topology.to_network(),
        [flood.probe(host_id) for host_id in range(topology.num_hosts)], 0,
        churn=ChurnSchedule(failures=[(0.5, victim)]), wireless=wireless,
        lane="python")
    simulator.run()
    log = flood.log
    assert all(host == dest for host, dest, _, _ in log)
    # The victim failed while the root's multicast was in flight: its
    # siblings, on both sides of it, still got that same message.
    assert [host for host, _, sender, _ in log if sender == 0] == [
        dest for dest in root_dests if dest != victim]
    assert victim not in {host for host, _, _, _ in log}
    # Each host multicasts once, so a sender names one multicast: one
    # object for all of its destinations, a different one per multicast.
    objects = {}
    for _, _, sender, identity in log:
        objects.setdefault(sender, set()).add(identity)
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(set().union(*objects.values())) == len(objects)
    assert simulator.costs.messages_processed == Counter(
        host for host, _, _, _ in log)


def test_every_host_is_counted_into_an_empty_sink(topology):
    """A caller's ``CostAccounting()`` has no slot for any host; the
    engine grows it to the whole network at the query start."""
    flood = _ProbeFlood()
    sink = CostAccounting()
    simulator = Simulator(
        topology.to_network(),
        [flood.probe(host_id) for host_id in range(topology.num_hosts)], 0,
        stats=sink, lane="python")
    result = simulator.run()
    counted = Counter(host for host, _, _, _ in flood.log)
    assert len(counted) > 1
    assert result.costs is sink
    assert sink.messages_processed == counted
    assert sink.computation_cost == max(counted.values())

