"""Tests for the message model."""

import types

import pytest

from repro.simulation.messages import Message


class TestMessage:
    def test_defaults(self):
        message = Message(sender=1, dest=2, kind="broadcast")
        assert message.payload == {}
        assert message.sent_at == 0.0
        assert message.chain_depth == 1
        assert not message.wireless

    def test_immutable_by_convention(self):
        # No __setattr__ guard, for hot-path speed: messages are
        # immutable by convention.  The practical contract is that the
        # slotted class rejects ad-hoc attribute invention.
        message = Message(sender=1, dest=2, kind="k")
        try:
            message.brand_new_attribute = 1
            grew = True
        except AttributeError:
            grew = False
        assert not grew

    def test_query_id_and_vtime_default_to_zero_and_round_trip(self):
        # Single-query simulations never set the session fields; the
        # service layer stamps them.
        message = Message(sender=1, dest=2, kind="k")
        assert message.query_id == 0 and message.vtime == 0.0
        tagged = Message(sender=1, dest=2, kind="k", query_id=7, vtime=3.5)
        assert tagged.query_id == 7
        assert tagged.vtime == 3.5


#: Protocol x query cells for the shared-payload mutation check: every
#: registered protocol that multicasts, on its natural query kind.
_MULTICAST_CELLS = [
    ("wildfire", "min"),
    ("wildfire", "count"),
    ("spanning-tree", "count"),
    ("dag2", "count"),
    ("allreport", "count"),
    ("randomized-report", "count"),
    ("gossip", "count"),
]


@pytest.fixture
def frozen_payloads(monkeypatch):
    """Freeze every delivered payload with a read-only mapping proxy.

    Patched at the event-queue seam so the *exact* mapping objects handed
    to receivers are frozen (the engine's submit paths re-snapshot
    payloads internally, so patching those would freeze the wrong dict).
    A multicast's deliveries share one snapshot, so all of its proxies
    wrap the same underlying dict -- any receiver mutation raises
    TypeError instead of silently corrupting sibling deliveries.
    """
    from repro.simulation.events import EventQueue

    original_push = EventQueue.push_deliver
    original_multicast = EventQueue.push_multicast

    def freezing_push(self, time, message):
        message.payload = types.MappingProxyType(message.payload)
        original_push(self, time, message)

    def freezing_multicast(self, time, sender, dests, kind, payload,
                           *args, **kwargs):
        # The batch's one snapshot becomes every minted delivery's payload,
        # so freezing it here freezes the whole multicast.
        original_multicast(self, time, sender, dests, kind,
                           types.MappingProxyType(payload), *args, **kwargs)

    monkeypatch.setattr(EventQueue, "push_deliver", freezing_push)
    monkeypatch.setattr(EventQueue, "push_multicast", freezing_multicast)


class TestSharedMulticastPayloadsAreNeverMutated:
    """Defensive lock on the multicast fast path.

    ``Message`` lost ``frozen=True`` for hot-path speed, and a multicast
    shares ONE payload snapshot between all of its deliveries -- so a
    receiver mutating a payload would silently corrupt the copies its
    siblings have not received yet.  This became load-bearing once the
    query service multiplexes many tenants over one substrate: a single
    misbehaving protocol could corrupt another query's in-flight state.
    """

    @pytest.mark.parametrize("protocol_name,query", _MULTICAST_CELLS)
    def test_protocols_never_mutate_shared_payloads(
            self, protocol_name, query, frozen_payloads,
            small_random_topology, zipf_values_60):
        from repro.protocols.base import protocol_from_spec, run_protocol

        result = run_protocol(
            protocol_from_spec(protocol_name), small_random_topology,
            zipf_values_60, query, querying_host=0, seed=11)
        assert result.value is not None
        assert result.costs.messages_sent > 0

    def test_frozen_payloads_also_hold_inside_the_query_service(
            self, frozen_payloads, small_random_topology, zipf_values_60):
        # The service's session multicast shares payload snapshots the
        # same way; a mutating receiver would corrupt another tenant.
        from repro.service import QueryService, QueryStatus

        service = QueryService(small_random_topology, zipf_values_60, seed=4)
        ids = [service.submit("wildfire", "count", at=0.0),
               service.submit("spanning-tree", "sum", at=1.0,
                              querying_host=7)]
        service.run()
        for query_id in ids:
            assert service.poll(query_id).status is QueryStatus.DONE

    def test_a_mutating_receiver_would_be_caught(self, frozen_payloads):
        # Sanity-check the harness itself: a deliberately misbehaving
        # receiver must raise, proving mutations cannot slip through.
        from repro.simulation.engine import Simulator
        from repro.simulation.host import HostContext, ProtocolHost
        from repro.simulation.network import DynamicNetwork

        class Mutator(ProtocolHost):
            def on_query_start(self, ctx: HostContext) -> None:
                ctx.send_to_neighbors("evil", {"x": 1})

            def on_message(self, message, ctx: HostContext) -> None:
                message.payload["x"] = 999  # must raise

        network = DynamicNetwork([{1}, {0, 2}, {1}])
        simulator = Simulator(network, [Mutator(i, 0.0) for i in range(3)],
                              querying_host=1)
        with pytest.raises(TypeError):
            simulator.run()
