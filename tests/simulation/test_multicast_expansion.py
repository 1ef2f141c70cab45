"""A fixed-delay multicast is one calendar entry; ``EventEngine._drain``
expands it.

The queue no longer promises that a multicast drains like its
per-destination deliveries -- the engine does.  The differential below
runs the same query twice on the spec loop: once as shipped (one
``_DeliverBatch`` per multicast, popped whole) and once with
``EventQueue.push_multicast`` patched to file what the variable-delay
path files, one :class:`Message` per destination.  Everything a run can
show must be equal: raw trace records (drop and deliver records
interleaved in ``dests`` order), declared value, cost fingerprint, finish
time, and the engine's own tallies -- under :class:`Simulator` and, with
late deliveries and non-zero launch instants, under ``MuxEngine``.
"""

import pytest

from repro.obs.trace import RingTracer
from repro.protocols.base import prepare_protocol_run, protocol_from_spec
from repro.service import QueryService
from repro.simulation.churn import ChurnSchedule
from repro.simulation.engine import Simulator
from repro.simulation.events import EventQueue, _DeliverBatch
from repro.simulation.host import ProtocolHost
from repro.simulation.messages import Message
from repro.topology.primitives import star_topology
from repro.topology.random_graph import random_topology

SEED = 13
PROTOCOLS = ("wildfire", "spanning-tree", "dag2")


@pytest.fixture
def topology():
    return random_topology(60, avg_degree=4, seed=7)


@pytest.fixture
def materialise(monkeypatch):
    """Returns a switch: from the call on, every multicast is filed as
    one fast-path delivery per destination, in ``dests`` order."""
    def switch():
        def push_multicast(self, time, sender, dests, kind, payload, sent_at,
                           chain_depth, wireless=False, query_id=0,
                           vtime=0.0):
            for dest in dests:
                self.push_deliver(time, Message(
                    sender, dest, kind, payload, sent_at, chain_depth,
                    wireless, query_id, vtime))
        monkeypatch.setattr(EventQueue, "push_multicast", push_multicast)
    return switch


def _spy(queue):
    """Record the class of everything ``queue`` hands the drain."""
    popped = set()
    pop_due = queue.pop_due

    def spying(horizon):
        front = pop_due(horizon)
        if front is not None:
            popped.add(front[1].__class__)
        return front
    queue.pop_due = spying
    return popped


def _ring():
    return RingTracer(capacity=200_000, sampling={})


@pytest.mark.parametrize("wireless", [False, True], ids=["p2p", "wireless"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_solo_run_equals_its_per_destination_filing(
        topology, materialise, protocol, wireless):
    """The root's first multicast is in flight when its second
    destination fails: that delivery is dropped *between* its siblings'."""
    root_dests = sorted(topology.adjacency[0])
    victim = root_dests[1]
    churn = ChurnSchedule(failures=[(0.5, victim), (2.5, 31), (2.5, 8)])

    def run():
        prepared = prepare_protocol_run(
            protocol_from_spec(protocol), topology, [1.0] * 60, "count",
            seed=SEED)
        tracer = _ring()
        simulator = Simulator(
            topology.to_network(), prepared.hosts, 0, churn=churn,
            wireless=wireless, tracer=tracer, lane="python")
        popped = _spy(simulator._queue)
        result = simulator.run(until=prepared.termination)
        return popped, (
            tracer.raw_records(), result.value, result.costs.fingerprint(),
            result.finished_at, simulator.messages_sent,
            simulator.dropped_messages, simulator.events_processed)

    popped, batched = run()
    assert _DeliverBatch in popped
    first_wave = [(record[0], record[2] if record[0] == "drop" else record[3])
                  for record in batched[0]
                  if record[0] in ("deliver", "drop") and record[1] == 1.0]
    assert first_wave == [("drop" if dest == victim else "deliver", dest)
                          for dest in root_dests]
    assert batched[5] > 0  # dropped_messages
    materialise()
    popped, materialised = run()
    assert _DeliverBatch not in popped
    assert materialised == batched


@pytest.mark.parametrize("pinned", [True, False], ids=["spec-loop", "lanes"])
def test_service_sessions_equal_their_per_destination_filing(
        topology, materialise, pin_spec_loop, pinned):
    """Sessions launched at non-zero, non-dyadic instants with ``D_hat``
    far too small: each is still flooding at its deadline, so multicasts
    land while the session is past it and after it has retired -- late,
    once per destination.  On the spec loop every multicast takes the
    path under test; on the tick lanes only what a lane still holds in
    flight at its deadline does."""
    if pinned:
        pin_spec_loop()
    at = 1.234567891
    churn = ChurnSchedule(failures=[(at + 1.5, 3), (at + 2.0, 9)])

    def run():
        tracer = _ring()
        service = QueryService(topology, [1.0] * 60, seed=SEED, churn=churn,
                               tracer=tracer)
        ids = [service.submit(protocol, "count", at=at, d_hat=1,
                              querying_host=4) for protocol in PROTOCOLS]
        ids.append(service.submit("wildfire", "min", at=at + 0.25, d_hat=2,
                                  querying_host=8))
        # One with the horizon it needs: declares the full count.
        ids.append(service.submit("wildfire", "count", at=0.75))
        engine = service.engine
        popped = _spy(engine._queue)
        service.run()
        outcomes = [service.poll(qid) for qid in ids]
        return popped, (
            tracer.raw_records(),
            [(o.value, o.costs.fingerprint(), o.declared_at)
             for o in outcomes],
            engine.clock.now, engine.messages_sent, engine.dropped_messages,
            engine.events_processed, engine.late_messages,
            dict(engine.late_by_query), list(engine.retired_order), ids)

    popped, batched = run()
    assert _DeliverBatch in popped
    *_, dropped, _, late, late_by_query, _, ids = batched
    assert dropped > 0 and late == sum(late_by_query.values())
    assert set(late_by_query) == set(ids[:3])
    materialise()
    popped, materialised = run()
    assert _DeliverBatch not in popped
    assert materialised == batched


class _Fragile(ProtocolHost):
    """Floods once from the hub; host 2 raises on what it receives."""

    __slots__ = ()

    def on_query_start(self, ctx):
        ctx.send_to_neighbors("PING", {})

    def on_message(self, message, ctx):
        if self.host_id == 2:
            raise RuntimeError("host 2 cannot take it")
        ctx.set_timer(3.0, "later")


def test_a_raising_handler_abandons_the_rest_of_its_multicast():
    """The multicast left the queue whole, so ``len(queue)`` counts what
    is actually still filed: the timer the first destination set.  The
    deliveries behind the one that raised (hosts 3, 4 and 5) are gone
    with it; a per-destination queue would have kept them."""
    topology = star_topology(5)  # hub 0, leaves 1..5
    simulator = Simulator(
        topology.to_network(),
        [_Fragile(host, 1.0) for host in range(6)], 0, lane="python")
    with pytest.raises(RuntimeError, match="host 2"):
        simulator.run()
    queue = simulator._queue
    assert len(queue) == queue.occupancy()["pending"] == 1
    assert [(entry[:2], weight) for entry, weight in queue.iter_pending()
            ] == [((1, "later"), 1)]
    # A resumed run finds only that timer: hosts 3, 4 and 5 never hear.
    simulator.run()
    assert simulator.costs.messages_processed == {1: 1, 2: 1}
    assert len(queue) == 0
