"""At fixed delay the spec loop pops an instant's traffic as a few batches.

Every send of an instant lands at one instant with one key, and every
WILDFIRE flush of an instant is a zero-delay timer with one key, so the
calendar files each run as one entry.  These locks count entries, not
seconds: a change that splits the runs again fails here, on any box.
"""

from collections import Counter

from repro.protocols.base import run_protocol
from repro.protocols.wildfire import Wildfire
from repro.simulation.engine import Simulator
from repro.simulation.events import EventQueue, _DeliverBatch, _TimerBatch
from repro.simulation.host import ProtocolHost
from repro.topology import gnutella_like_topology
from repro.topology.primitives import star_topology


def _spy_pops(monkeypatch):
    """Count what every queue's ``pop_due`` hands out, per instant and
    per class; also keep the entries."""
    per_instant, per_class, entries = Counter(), Counter(), []
    pop_due = EventQueue.pop_due

    def spying(self, horizon):
        front = pop_due(self, horizon)
        if front is not None:
            per_instant[front[0]] += 1
            per_class[front[1].__class__] += 1
            entries.append(front[1])
        return front
    monkeypatch.setattr(EventQueue, "pop_due", spying)
    return per_instant, per_class, entries


def test_a_wildfire_flood_pops_a_few_entries_per_instant(monkeypatch):
    """A 500-host count flood delivers thousands of messages and fires
    hundreds of flushes, yet no instant pops more than four entries: at
    most two send batches, the instant's first flush (a lone timer
    tuple) and one batch of the flushes behind it.  Filed one entry per
    send and per timer, the same flood pops 6 971 entries, up to 1 073
    at one instant."""
    per_instant, per_class, _ = _spy_pops(monkeypatch)
    topology = gnutella_like_topology(500, seed=1)
    run = run_protocol(Wildfire(), topology, [1.0] * 500, "count", seed=7,
                       lane="python")
    assert run.lane_used == "python"
    assert sum(run.costs.messages_processed.values()) > 5000
    assert max(per_instant.values()) <= 4
    assert sum(per_instant.values()) <= 4 * len(per_instant)
    assert per_class[_DeliverBatch] and per_class[_TimerBatch]


class _Sleeper(ProtocolHost):
    """The querying host sets one timer; nothing else happens."""

    __slots__ = ("fired",)

    def __init__(self, host_id, value):
        super().__init__(host_id, value)
        self.fired = []

    def on_query_start(self, ctx):
        ctx.set_timer(2.0, "wake", "data")

    def on_message(self, message, ctx):
        pass

    def on_timer(self, name, data, ctx):
        self.fired.append((ctx.host_id, name, data, ctx.now))


def test_a_timer_alone_at_its_time_pops_as_its_tuple(monkeypatch):
    _, per_class, entries = _spy_pops(monkeypatch)
    hosts = [_Sleeper(host, 1.0) for host in range(4)]
    simulator = Simulator(star_topology(3).to_network(), hosts, 0,
                          lane="python")
    simulator.run()
    [timer] = [entry for entry in entries if entry.__class__ is tuple]
    host, name, (data, depth, session, vfire) = timer
    assert (host, name, data, depth, vfire) == (0, "wake", "data", 0, 2.0)
    assert per_class[_TimerBatch] == 0
    assert hosts[0].fired == [(0, "wake", "data", 2.0)]
