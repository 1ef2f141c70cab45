"""Tests for the discrete-event simulation engine."""

from typing import Any, Optional

import pytest

from repro.obs.trace import RingTracer
from repro.protocols.base import prepare_protocol_run, protocol_from_spec
from repro.simulation.churn import ChurnSchedule
from repro.simulation.engine import Simulator
from repro.simulation.events import EventKind
from repro.simulation.host import HostContext, ProtocolHost
from repro.simulation.messages import Message
from repro.simulation.network import DynamicNetwork
from repro.topology import topology_from_spec
from repro.topology.primitives import (chain_topology, ring_topology,
                                      star_topology)
from repro.topology.random_graph import random_topology


class FloodHost(ProtocolHost):
    """Minimal protocol: flood a token once, remember when it arrived."""

    def __init__(self, host_id: int, value: float = 0.0) -> None:
        super().__init__(host_id, value)
        self.received_at: Optional[float] = None
        self.seen = False

    def on_query_start(self, ctx: HostContext) -> None:
        self.seen = True
        self.received_at = ctx.now
        ctx.send_to_neighbors("token", {})

    def on_message(self, message: Message, ctx: HostContext) -> None:
        if self.seen:
            return
        self.seen = True
        self.received_at = ctx.now
        ctx.send_to_neighbors("token", {}, exclude=(message.sender,))

    def local_result(self):
        return self.received_at


class TimerHost(ProtocolHost):
    """Host that fires a sequence of timers."""

    def __init__(self, host_id: int) -> None:
        super().__init__(host_id, 0.0)
        self.fired = []

    def on_query_start(self, ctx: HostContext) -> None:
        ctx.set_timer(1.5, "a", data="first")
        ctx.set_timer(3.0, "b", data="second")

    def on_message(self, message: Message, ctx: HostContext) -> None:
        pass

    def on_timer(self, name: str, data: Any, ctx: HostContext) -> None:
        self.fired.append((ctx.now, name, data))


class QuietHost(ProtocolHost):
    """Sends nothing; records the payload of every message it handles."""

    def __init__(self, host_id: int) -> None:
        super().__init__(host_id, 0.0)
        self.received = []

    def on_query_start(self, ctx: HostContext) -> None:
        pass

    def on_message(self, message: Message, ctx: HostContext) -> None:
        self.received.append(message.payload)


def build_simulator(topology, hosts=None, **kwargs):
    network = topology.to_network()
    if hosts is None:
        hosts = [FloodHost(i) for i in range(topology.num_hosts)]
    return Simulator(network=network, hosts=hosts, querying_host=0, **kwargs), hosts


class TestFlooding:
    def test_flood_reaches_every_host_on_chain(self):
        topo = chain_topology(6)
        simulator, hosts = build_simulator(topo)
        simulator.run(until=50)
        assert all(h.seen for h in hosts)
        # Host i is i hops away and delta defaults to 1.
        assert [h.received_at for h in hosts] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_flood_on_star_takes_two_hops_max(self):
        topo = star_topology(5)
        simulator, hosts = build_simulator(topo)
        simulator.run(until=50)
        assert hosts[0].received_at == 0.0
        assert all(h.received_at == 1.0 for h in hosts[1:])

    def test_communication_cost_counts_every_link_message(self):
        topo = chain_topology(4)
        simulator, _ = build_simulator(topo)
        result = simulator.run(until=50)
        # 0->1, 1->2, 2->3 plus the backward echo exclusions: FloodHost
        # excludes only the sender, so host 1 sends to 2, host 2 sends to 3.
        assert result.costs.communication_cost == 3

    def test_wireless_mode_counts_multicast_once(self):
        topo = star_topology(4)
        simulator, _ = build_simulator(topo, wireless=True)
        result = simulator.run(until=50)
        # The centre's multicast to 4 leaves counts once.
        assert result.costs.communication_cost == 1
        assert result.costs.wireless_transmissions == 3

    def test_time_cost_matches_chain_depth(self):
        topo = chain_topology(5)
        simulator, _ = build_simulator(topo)
        result = simulator.run(until=50)
        assert result.costs.time_cost == 4


class TestTimers:
    def test_timers_fire_in_order_with_data(self):
        topo = chain_topology(1)
        host = TimerHost(0)
        simulator, _ = build_simulator(topo, hosts=[host])
        simulator.run(until=10)
        assert host.fired == [(1.5, "a", "first"), (3.0, "b", "second")]

    def test_negative_timer_delay_rejected(self):
        topo = chain_topology(2)

        class BadHost(FloodHost):
            def on_query_start(self, ctx):
                ctx.set_timer(-1.0, "oops")

        simulator, _ = build_simulator(topo, hosts=[BadHost(0), FloodHost(1)])
        with pytest.raises(ValueError):
            simulator.run(until=5)

    @pytest.mark.parametrize("instant", [
        2.5, float("inf"), float("nan")], ids=str)
    def test_a_timer_is_set_at_a_finite_instant_not_in_the_past(
            self, instant):
        """``set_timer_at`` shares ``set_timer``'s one range check: no
        instant before the session's ``now``, none that never comes."""
        fired = []

        class LateHost(FloodHost):
            def on_query_start(self, ctx):
                ctx.set_timer_at(3.0, "due")

            def on_timer(self, name, data, ctx):
                fired.append((ctx.now, name))
                if name == "due":
                    ctx.set_timer_at(ctx.now, "at once")  # now is legal
                else:
                    ctx.set_timer_at(instant, "oops")

        simulator, _ = build_simulator(chain_topology(1), hosts=[LateHost(0)])
        with pytest.raises(ValueError):
            simulator.run(until=5)
        assert fired == [(3.0, "due"), (3.0, "at once")]

    def test_a_non_finite_delay_is_rejected_like_a_negative_one(self):
        class BadHost(FloodHost):
            def on_query_start(self, ctx):
                ctx.set_timer(float("inf"), "never")

        simulator, _ = build_simulator(chain_topology(1), hosts=[BadHost(0)])
        with pytest.raises(ValueError):
            simulator.run(until=5)


class TestFailures:
    def test_failed_host_stops_forwarding(self):
        topo = chain_topology(5)
        churn = ChurnSchedule(failures=[(1.5, 2)])
        simulator, hosts = build_simulator(topo, churn=churn)
        simulator.run(until=50)
        # Host 2 fails after receiving (t=2 would be its receive time) --
        # it fails at 1.5 so it never receives; hosts 3, 4 stay unreached.
        assert hosts[1].seen
        assert not hosts[3].seen
        assert not hosts[4].seen

    def test_message_to_failed_host_is_dropped_and_counted(self):
        topo = chain_topology(3)
        churn = ChurnSchedule(failures=[(0.5, 1)])
        simulator, _ = build_simulator(topo, churn=churn)
        result = simulator.run(until=50)
        assert result.costs.dropped_messages >= 1

    def test_failures_are_observed_through_the_tracer(self):
        topo = chain_topology(3)
        churn = ChurnSchedule(failures=[(2.0, 2)])
        tracer = RingTracer()
        simulator, _ = build_simulator(topo, churn=churn, tracer=tracer)
        simulator.run(until=10)
        assert [record for record in tracer.raw_records()
                if record[0] == "fail"] == [("fail", 2.0, 2)]

    def test_querying_host_must_be_alive(self):
        topo = chain_topology(3)
        network = topo.to_network()
        network.fail_host(0, time=0.0)
        with pytest.raises(ValueError):
            Simulator(network=network, hosts=[FloodHost(i) for i in range(3)],
                      querying_host=0)


#: Every engine that takes a churn schedule: the three solo lanes and the
#: query service's multiplexed engine.
_CHURN_SURFACES = ["python", "vector", "sharded", "service"]


def _start_with_churn(surface, churn):
    from repro.protocols.base import run_protocol
    from repro.protocols.wildfire import Wildfire
    from repro.service import QueryService

    topo = random_topology(20, seed=1)
    if surface == "service":
        return QueryService(topo, [1.0] * 20, churn=churn)
    return run_protocol(Wildfire(), topo, [float(h) for h in range(20)],
                        "max", churn=churn, lane=surface,
                        shards=2 if surface == "sharded" else 1)


class TestChurnIdsOutsideTheNetwork:
    """A churn id past the network's 20 hosts is refused up front: a
    negative one used to fail a host counted from the bitmap's end, a
    large one to raise a bare IndexError mid-drain."""

    @pytest.mark.parametrize("host", [-1, 20, 25],
                             ids=["negative", "at_end", "past_end"])
    @pytest.mark.parametrize("surface", _CHURN_SURFACES)
    def test_failure_host_is_refused(self, surface, host):
        churn = ChurnSchedule(failures=[(0.5, host)])
        with pytest.raises(ValueError, match=f"churn fails host {host},"):
            _start_with_churn(surface, churn)

    @pytest.mark.parametrize("surface", _CHURN_SURFACES)
    def test_the_last_host_may_fail(self, surface):
        # Host 19 carries the largest value and fails before anything
        # reaches it, so the max the solo lanes declare is the next one.
        churn = ChurnSchedule(failures=[(0.5, 19)])
        run = _start_with_churn(surface, churn)
        if surface == "service":
            qid = run.submit("wildfire", "count", at=0.0)
            run.run()
            assert run.poll(qid).value is not None
            assert not run.engine.network.is_alive(19)
        else:
            assert run.value == 18.0


class TestRunControl:
    def test_run_stops_at_horizon(self):
        topo = chain_topology(50)
        simulator, hosts = build_simulator(topo)
        simulator.run(until=5)
        assert hosts[4].seen
        assert not hosts[20].seen

    def test_invalid_parameters_rejected(self):
        topo = chain_topology(3)
        network = topo.to_network()
        hosts = [FloodHost(i) for i in range(3)]
        with pytest.raises(ValueError):
            Simulator(network=network, hosts=hosts[:2], querying_host=0)
        with pytest.raises(ValueError):
            Simulator(network=network, hosts=hosts, querying_host=0, delta=0.0)
        for bad in ({"delta": float("nan")}, {"max_time": float("nan")},
                    {"max_time": -1.0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                Simulator(network=network, hosts=hosts, querying_host=0,
                          **bad)

    @pytest.mark.parametrize("kind", [EventKind.DELIVER, EventKind.TIMER])
    def test_a_delivery_or_timer_event_is_refused_when_pushed(self, kind):
        """Deliveries are filed as bare messages and timers as
        ``push_timer`` tuples: a DELIVER or TIMER ``Event`` is refused at
        the ``push``, before the run starts, naming the call to use."""
        hosts = [QuietHost(i) for i in range(4)]
        simulator = Simulator(network=ring_topology(4).to_network(),
                              hosts=hosts, querying_host=0, lane="python")
        with pytest.raises(ValueError, match="push_timer"):
            simulator._queue.push(0.5, kind, host=3)
        simulator.run()  # nothing was filed: the run is clean
        assert hosts[1].received == []

    def test_an_event_no_branch_handles_raises(self):
        """A CUSTOM event with nothing to call names itself when it comes
        due instead of vanishing from the run."""
        hosts = [QuietHost(i) for i in range(4)]
        simulator = Simulator(network=ring_topology(4).to_network(),
                              hosts=hosts, querying_host=0, lane="python")
        simulator._queue.push(0.5, EventKind.CUSTOM, data="not callable")
        with pytest.raises(ValueError, match="CUSTOM event at t=0.5"):
            simulator.run()
        assert hosts[1].received == []

    def test_result_reports_querying_host_value(self):
        topo = chain_topology(4)
        simulator, _ = build_simulator(topo)
        result = simulator.run(until=20)
        assert result.value == 0.0  # querying host received at time 0
        assert result.querying_host == 0

    @staticmethod
    def _count(lane, protocol="wildfire", **kwargs):
        """A 40-host count with one failure past instant 3."""
        topology = random_topology(40, seed=3)
        prepared = prepare_protocol_run(
            protocol_from_spec(protocol), topology, [1.0] * len(topology),
            "count", seed=1)
        simulator = Simulator(
            network=topology.to_network(), hosts=prepared.hosts,
            querying_host=0, churn=ChurnSchedule(failures=[(4.5, 7)]),
            lane=lane, **kwargs)
        return simulator, prepared.termination

    @staticmethod
    def _digest(simulator, result):
        network = simulator.network
        return (result.value, result.costs.fingerprint(), result.finished_at,
                [network.is_alive(host) for host in range(network.num_hosts)])

    @pytest.mark.parametrize("protocol", ["wildfire", "spanning-tree",
                                          "dag-k2"])
    @pytest.mark.parametrize("lane", ["python", "vector"])
    def test_a_resumed_run_equals_the_one_shot_run(self, lane, protocol):
        one_shot, horizon = self._count(lane, protocol)
        expected = one_shot.run(until=horizon)
        resumed, _ = self._count(lane, protocol)
        resumed.run(until=3.0)
        # Primed once: no second query start behind the clock, the churn
        # schedule filed once and the failure past the first horizon kept.
        result = resumed.run(until=horizon)
        assert (self._digest(resumed, result)
                == self._digest(one_shot, expected))
        assert not resumed.network.is_alive(7)
        assert (result.lane_used, result.fallback_reason) == (lane, None)

    def test_a_second_run_after_an_engaged_lane_changes_nothing(self):
        simulator, horizon = self._count("vector")
        first = self._digest(simulator, simulator.run(until=horizon))
        again = simulator.run(until=horizon)
        assert (again.lane_used, again.fallback_reason) == ("vector", None)
        assert self._digest(simulator, again) == first
        spec, _ = self._count("python")
        spec.run(until=horizon)
        assert len(simulator._queue) == len(spec._queue)

    @staticmethod
    def _gnutella_tree(lane, **kwargs):
        """A 300-host spanning-tree count on the Gnutella-like graph."""
        topology = topology_from_spec("gnutella", 300, 7)
        prepared = prepare_protocol_run(
            protocol_from_spec("spanning-tree"), topology, [1.0] * 300,
            "count", seed=7)
        simulator = Simulator(
            network=topology.to_network(), hosts=prepared.hosts,
            querying_host=0, lane=lane, **kwargs)
        return simulator, prepared.termination

    @pytest.mark.parametrize("lane", ["python", "vector"])
    def test_a_run_sliced_at_half_its_horizon_declares_in_full(self, lane):
        simulator, horizon = self._gnutella_tree(lane)
        simulator.run(until=horizon / 2)
        result = simulator.run(until=horizon)
        assert (result.value, result.finished_at) == (300.0, 18.0)
        assert result.lane_used == lane

    @pytest.mark.parametrize("lane", ["python", "vector"])
    def test_max_time_stops_every_lane_with_work_pending(self, lane):
        _, horizon = self._gnutella_tree(lane)
        simulator, _ = self._gnutella_tree(lane, max_time=horizon / 2)
        with pytest.raises(RuntimeError,
                           match=r"max_time=9\.0 with \d+ events still "
                                 r"pending; the protocol did not terminate"):
            simulator.run()
        assert simulator.lane_used == lane

    @pytest.mark.parametrize("protocol", ["wildfire", "spanning-tree",
                                          "dag-k2"])
    def test_an_engaged_run_keeps_the_engine_tallies(self, protocol):
        """``messages_sent`` / ``dropped_messages`` move on the lane as
        they do on the spec loop, instant by instant."""
        tallies = {}
        for lane in ("python", "vector"):
            simulator, horizon = self._count(lane, protocol)
            seen = []
            for until in (2.0, 4.5, horizon):
                result = simulator.run(until=until)
                seen.append((simulator.messages_sent,
                             simulator.dropped_messages,
                             result.costs.messages_sent,
                             result.costs.dropped_messages))
            assert result.lane_used == lane
            tallies[lane] = seen
        assert tallies["vector"] == tallies["python"]
        assert tallies["vector"][-1][0] > 0
