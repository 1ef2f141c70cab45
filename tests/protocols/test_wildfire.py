"""Tests for the WILDFIRE protocol."""

import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from repro.protocols.base import run_protocol
from repro.protocols.wildfire import (
    BROADCAST,
    CONVERGECAST,
    FLUSH,
    Wildfire,
    WildfireBatchKernel,
    WildfireHost,
    WildfireRun,
)
from repro.semantics.oracle import Oracle
from repro.simulation.churn import ChurnSchedule, uniform_failure_schedule
from repro.simulation.messages import Message
from repro.sketches.combiners import (
    FMCountCombiner,
    FMSumCombiner,
    MaxCombiner,
    MinCombiner,
)
from repro.sketches.fm import FMSketch
from repro.topology.primitives import chain_topology, ring_topology, star_topology
from repro.topology.random_graph import random_topology
from repro.workloads.values import constant_values, zipf_values
from tests.drawn import drawn


class TestFailureFreeCorrectness:
    def test_max_on_chain(self):
        topo = chain_topology(8)
        values = [3, 9, 1, 7, 20, 5, 2, 11]
        result = run_protocol(Wildfire(), topo, values, "max", d_hat=10, seed=1)
        assert result.value == 20.0

    def test_min_on_ring(self):
        topo = ring_topology(9)
        values = [30, 9, 12, 7, 20, 5, 25, 11, 40]
        result = run_protocol(Wildfire(), topo, values, "min", d_hat=6, seed=1)
        assert result.value == 5.0

    def test_max_value_at_farthest_host_still_found(self):
        topo = chain_topology(10)
        values = [1] * 9 + [99]
        result = run_protocol(Wildfire(), topo, values, "max", d_hat=11, seed=1)
        assert result.value == 99.0

    def test_count_estimate_reasonable(self, small_random_topology):
        values = constant_values(small_random_topology.num_hosts, 1)
        result = run_protocol(Wildfire(), small_random_topology, values, "count",
                              combiner=FMCountCombiner(repetitions=24), seed=3)
        truth = small_random_topology.num_hosts
        assert truth / 2 <= result.value <= truth * 2

    def test_sum_estimate_reasonable(self, small_random_topology, zipf_values_60):
        result = run_protocol(Wildfire(), small_random_topology, zipf_values_60, "sum",
                              combiner=FMSumCombiner(repetitions=24), seed=3)
        truth = sum(zipf_values_60)
        assert truth / 2.5 <= result.value <= truth * 2.5

    def test_single_host_network(self):
        topo = chain_topology(1)
        result = run_protocol(Wildfire(), topo, [42], "max", d_hat=1, seed=1)
        assert result.value == 42.0


class TestValidityUnderChurn:
    def test_max_single_site_valid_with_failures(self, small_random_topology,
                                                  zipf_values_60):
        topo = small_random_topology
        oracle = Oracle(topo, zipf_values_60, 0)
        for seed in range(4):
            churn = uniform_failure_schedule(range(topo.num_hosts), 10,
                                             start=0.5, end=10.0, seed=seed,
                                             protect=[0])
            result = run_protocol(Wildfire(), topo, zipf_values_60, "max",
                                  churn=churn, seed=seed)
            assert oracle.is_valid(result.value, "max", churn,
                                   horizon=result.termination_time)

    def test_min_single_site_valid_with_failures(self, small_random_topology,
                                                  zipf_values_60):
        topo = small_random_topology
        oracle = Oracle(topo, zipf_values_60, 0)
        churn = uniform_failure_schedule(range(topo.num_hosts), 15,
                                         start=0.5, end=10.0, seed=9, protect=[0])
        result = run_protocol(Wildfire(), topo, zipf_values_60, "min",
                              churn=churn, seed=9)
        assert oracle.is_valid(result.value, "min", churn,
                               horizon=result.termination_time)

    def test_ring_survives_single_failure(self):
        """On a ring there are two paths; one failure cannot hide the max."""
        topo = ring_topology(12)
        values = [1] * 12
        values[6] = 77  # host opposite the querying host
        churn = ChurnSchedule(failures=[(1.5, 1)])
        result = run_protocol(Wildfire(), topo, values, "max", d_hat=12,
                              churn=churn, seed=2)
        assert result.value == 77.0

    def test_partitioned_host_does_not_block_result(self):
        """Failing the star centre isolates everyone; the querying host still
        declares a value based on its own attribute (H_C = {hq})."""
        topo = star_topology(6)
        values = [5] + [50] * 6
        churn = ChurnSchedule(failures=[(0.5, 0)])
        # Query from a leaf; the centre dies before forwarding anything.
        result = run_protocol(Wildfire(), topo, values, "max", querying_host=1,
                              d_hat=4, churn=churn, seed=1)
        assert result.value == 50.0 or result.value == values[1]


class TestCostBehaviour:
    def test_communication_bounded_by_worst_case(self, small_random_topology):
        topo = small_random_topology
        values = constant_values(topo.num_hosts, 1)
        d_hat = 10
        result = run_protocol(Wildfire(), topo, values, "count",
                              combiner=FMCountCombiner(repetitions=8),
                              d_hat=d_hat, seed=4)
        worst_case = 2 * d_hat * 2 * topo.num_edges  # both directions
        assert 0 < result.costs.communication_cost <= worst_case

    def test_early_termination_does_not_change_result(self):
        topo = random_topology(50, avg_degree=4, seed=5)
        values = zipf_values(50, seed=5)
        with_opt = run_protocol(Wildfire(early_termination=True), topo, values,
                                "max", d_hat=12, seed=5)
        without_opt = run_protocol(Wildfire(early_termination=False), topo, values,
                                   "max", d_hat=12, seed=5)
        assert with_opt.value == without_opt.value == max(values)
        assert with_opt.costs.communication_cost <= without_opt.costs.communication_cost

    def test_d_hat_overestimate_does_not_change_communication(self):
        topo = random_topology(80, avg_degree=5, seed=6)
        values = zipf_values(80, seed=6)
        tight = run_protocol(Wildfire(), topo, values, "max", d_hat=8, seed=6)
        loose = run_protocol(Wildfire(), topo, values, "max", d_hat=16, seed=6)
        assert tight.value == loose.value
        # Messages stop flowing once aggregates converge, so the overestimate
        # changes the declaration time but not the traffic.
        assert loose.costs.communication_cost == tight.costs.communication_cost
        assert loose.termination_time > tight.termination_time

    def test_min_query_cheaper_than_count(self, small_random_topology):
        """Early aggregation: order-statistic queries quiesce quickly."""
        topo = small_random_topology
        values = zipf_values(topo.num_hosts, seed=8)
        min_run = run_protocol(Wildfire(), topo, values, "min", d_hat=10, seed=8)
        count_run = run_protocol(Wildfire(), topo, values, "count",
                                 combiner=FMCountCombiner(repetitions=8),
                                 d_hat=10, seed=8)
        assert min_run.costs.communication_cost < count_run.costs.communication_cost

    def test_wireless_medium_reduces_message_count(self):
        from repro.topology.grid import grid_topology

        topo = grid_topology(6)
        values = constant_values(topo.num_hosts, 1)
        wired = run_protocol(Wildfire(), topo, values, "max", d_hat=8,
                             wireless=False, seed=9)
        wireless = run_protocol(Wildfire(), topo, values, "max", d_hat=8,
                                wireless=True, seed=9)
        assert wireless.costs.communication_cost < wired.costs.communication_cost
        assert wired.value == wireless.value


# ----------------------------------------------------------------------
# The one protocol body that is stated twice: spec host vs batch kernel
# ----------------------------------------------------------------------
class _CapturingContext:
    """The slice of ``HostContext`` a WILDFIRE delivery touches."""

    def __init__(self, now):
        self.now = now
        self.timers = []
        self.multicasts = []
        self.unicasts = []

    def set_timer_at(self, instant, name, data=None):
        self.timers.append((instant - self.now, name))

    def send_to_neighbors(self, kind, payload, exclude=()):
        self.multicasts.append((kind, payload["agg"], payload["dist"],
                                tuple(exclude)))

    def send(self, dest, kind, payload):
        self.unicasts.append((dest, kind, payload["agg"], payload["dist"]))


class _CapturingLane:
    """The slice of ``_TickLane`` one ``process_instant`` or
    ``process_timer_bucket`` call touches (it is its own ``network``:
    host 1's neighbors are 0, 2 and 3; ``view_cleared`` leaves host 1's
    row of the view table as a failure leaves it, for the network to
    rebuild).  It has no alive bitmap: the kernel reads liveness from
    its own deadline mirror.  The kernel files every send itself, onto
    ``out_records``; ``multicasts`` reads the onward Broadcasts back."""

    tracer = None
    qid = 0
    sent_at = 0.0
    wireless = False
    wireless_groups = 0

    def __init__(self, now, view_cleared):
        self.now = now
        self.lands_at = now + 1.0
        self.alive_sorted = [(1,), None if view_cleared else (0, 2, 3),
                             (1,), (1,)]
        self.counts = [0, 0, 0, 0]
        self.dropped = self.max_depth = 0
        self.bucket = []
        self.timers = {now: self.bucket}
        self.out_records = []
        self.send_acc = Counter()
        self.network = self

    def alive_neighbors_sorted(self, host_id):
        assert host_id == 1 and self.alive_sorted[1] is None
        return (0, 2, 3)

    @property
    def multicasts(self):
        """``(kind, agg, dist, targets)`` of every onward Broadcast."""
        return [(kind, agg, dist, tuple(dests))
                for _, sender, dests, kind, agg, dist, _ in self.out_records
                if kind == BROADCAST and sender == 1]


def _slots(host):
    """Every slot a delivery may move (``run`` is each table's own
    record)."""
    return {name: getattr(host, name, None) for cls in type(host).__mro__
            for name in getattr(cls, "__slots__", ()) if name != "run"}


def _table(combiner, state, reply_to=(), flush_pending=False, dirty=False):
    """A 4-host WILDFIRE table; host 1 active at distance 2 holding
    ``state`` (a combiner state: the packed bitmask for the FM count)
    unless that is ``None``.  A ``dirty`` host has its flush pending, as
    only the flush clears either."""
    run = WildfireRun(0, None, combiner, 4, 1.0, random.Random(11),
                      early_termination=True)
    hosts = [WildfireHost(host_id, 3.0, run) for host_id in range(4)]
    host = hosts[1]
    if state is not None:
        host._activate(2)
        host.partial = state
        host._dirty = dirty
    host._reply_to = set(reply_to) or None
    host._flush_pending = flush_pending or host._dirty
    return hosts


def _kernel(hosts, alive=None):
    """The batch kernel over ``hosts`` and the alive bitmap ``alive``
    (every host alive unless given)."""
    if alive is None:
        alive = bytearray([1] * len(hosts))
    kernel = WildfireBatchKernel.try_build(hosts, alive, 0)
    assert kernel is not None
    return kernel


def _one_delivery_both_ways(combiner, state, incoming, sender, reply_to,
                            flush_pending, dirty, now, view_cleared):
    """Deliver one message to host 1 of two identical 4-host tables, once
    through ``WildfireHost.on_message`` and once as a single-record batch
    through ``WildfireBatchKernel.process_instant``; ``state is None``
    leaves the host inactive, so the delivery is its first contact.
    Returns both tables' host 1, spec first."""
    spec_hosts, lane_hosts = [
        _table(combiner, state, reply_to, flush_pending, dirty)
        for _ in range(2)]
    ctx = _CapturingContext(now)
    payload = {"agg": incoming, "dist": 1}
    spec_hosts[1].on_message(
        Message(sender, 1, CONVERGECAST, payload, now - 1.0, 3), ctx)

    kernel = _kernel(lane_hosts)
    lane = _CapturingLane(now, view_cleared)
    kernel.process_instant(
        now, [(5, sender, (1,), CONVERGECAST) + kernel.flatten(payload) + (3,)],
        lane)

    assert _slots(lane_hosts[1]) == _slots(spec_hosts[1])
    assert kernel.deadlines[1] == (
        spec_hosts[1]._deadline if spec_hosts[1].active else None)
    # The flush: the same decision, due at once, tagged with the cause.
    assert ctx.timers == ([(0.0, FLUSH)] if lane.bucket else [])
    assert lane.bucket in ([], [(1, 3, 5)])
    # A first contact forwards the same Broadcast to everyone but the
    # sender (the lane names the targets, the spec the exclusion).
    assert ([record[:3] for record in lane.multicasts]
            == [record[:3] for record in ctx.multicasts])
    for (_, _, _, targets), (_, _, _, exclude) in zip(lane.multicasts,
                                                      ctx.multicasts):
        assert exclude == (sender,)
        assert targets == tuple(t for t in (0, 2, 3) if t != sender)
    # Filed by the kernel: one tally for the instant's Broadcast sends.
    assert lane.send_acc == (
        Counter({(now, BROADCAST): len(lane.multicasts[0][3])})
        if lane.multicasts else Counter())
    assert lane.counts == [0, 1, 0, 0] and lane.max_depth == 3
    return spec_hosts[1], lane_hosts[1]


class TestFoldStatedTwice:
    """``WildfireHost.on_message``'s active-host fold is the one protocol
    body the batch kernel repeats (both test settled before any merge,
    then merge, then note a stale sender only while clean; the kernel
    writes the merge inline for its three folds, the spec calls
    ``combine``); first contact is shared.  One delivery through each
    must leave the host in the same state and agree on the flush.  A
    payload carries ``agg`` as both send it: the packed int for the FM
    sketch, the float for min and max.  Drawn 300 times in tier-1, ten
    times the named profile's count in CI."""

    _common = dict(
        sender=st.sampled_from([0, 2, 3]),
        reply_to=st.sets(st.sampled_from([0, 2, 3])),
        flush_pending=st.booleans(),
        dirty=st.booleans(),
        # Inside the window, on and past the participation deadline
        # (distance 2: 7.0) and the global one (8.0).
        now=st.sampled_from([3.0, 7.0, 7.5, 8.0, 8.5]),
        view_cleared=st.booleans(),
    )

    def test_packed_sketch_delivery(self, request):
        combiner = FMCountCombiner(repetitions=2)

        def law(state, incoming, **delivery):
            _one_delivery_both_ways(combiner, state, incoming, **delivery)

        drawn(request, law, plain=300, wide=10,
              state=st.none() | st.integers(0, 15),
              incoming=st.none() | st.integers(0, 15), **self._common)

    def test_min_max_float_delivery(self, request):
        """Every float, NaN, the infinities and both zeros included: the
        state kept is the very object the spec keeps, which is the one
        ``combiner.combine`` returns whenever the fold runs."""
        def law(state, incoming, maximum, **delivery):
            combiner = MaxCombiner() if maximum else MinCombiner()
            spec, lane = _one_delivery_both_ways(
                combiner, state, incoming, **delivery)
            assert lane.partial is spec.partial
            if (state is not None and incoming is not None
                    and delivery["now"] <= spec._deadline):
                assert lane.partial is combiner.combine(state, incoming)

        floats = st.none() | st.floats() | st.sampled_from(
            [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1.0])
        drawn(request, law, plain=300, wide=10, state=floats,
              incoming=floats, maximum=st.booleans(), **self._common)

    @pytest.mark.parametrize("combiner, state, stale, growth", [
        (FMCountCombiner(repetitions=2), 0b0011, 0b0001, 0b0100),
        (FMCountCombiner(repetitions=2), 0b0011, 0b0001, 0b0111),
        (MinCombiner(), 2.0, 5.0, 1.0),
        (MaxCombiner(), 5.0, 2.0, 7.0),
    ], ids=["sketch-grows-past-sender", "sketch-grows-to-sender",
            "min", "max"])
    def test_stale_then_growth_from_one_sender_then_flush(
            self, combiner, state, stale, growth):
        """A stale delivery from host 2 owes it a reply; a growth from
        host 2 in the same instant leaves that reply owed (nothing
        withdraws it) and makes the host dirty; the flush then sends the
        one multicast -- to host 2 too unless the merge equals what host
        2 sent -- and no reply, through both bodies alike."""
        now, sender = 3.0, 2
        spec_hosts = _table(combiner, state)
        lane_hosts = _table(combiner, state)
        kernel = _kernel(lane_hosts)
        ctx = _CapturingContext(now)
        lane = _CapturingLane(now, view_cleared=False)
        for rank, incoming in enumerate((stale, growth)):
            payload = {"agg": incoming, "dist": 1}
            spec_hosts[1].on_message(
                Message(sender, 1, CONVERGECAST, payload, now - 1.0, 3), ctx)
            kernel.process_instant(
                now, [(rank, sender, (1,), CONVERGECAST)
                      + kernel.flatten(payload) + (3,)], lane)
            assert _slots(lane_hosts[1]) == _slots(spec_hosts[1])
        assert spec_hosts[1]._reply_to == {sender} and spec_hosts[1]._dirty
        assert ctx.timers == [(0.0, FLUSH)] and lane.bucket == [(1, 3, 0)]

        spec_hosts[1].on_timer(FLUSH, None, ctx)
        kernel.process_timer_bucket(now, lane.bucket, lane)
        assert _slots(lane_hosts[1]) == _slots(spec_hosts[1])
        assert spec_hosts[1]._reply_to is None
        assert ctx.unicasts == []
        merged = spec_hosts[1].partial
        skip = (sender,) if merged == growth else ()
        assert ctx.multicasts == [(CONVERGECAST, merged, 2, skip)]
        assert [(record[1], tuple(record[2])) + record[3:6]
                for record in lane.out_records] == [
            (1, tuple(t for t in (0, 2, 3) if t not in skip), CONVERGECAST,
             merged, 2)]

    #: ``(combiner, state, growth, stale)``: ``growth`` is what the
    #: merge comes to, so its sender becomes the skip neighbor.
    GROWTH_THEN_STALE = [
        (FMCountCombiner(repetitions=2), 0b0011, 0b0111, 0b0001),
        (MinCombiner(), 2.0, 1.0, 5.0),
        (MaxCombiner(), 5.0, 7.0, 2.0),
    ]

    @pytest.mark.parametrize("stale_sender", [3, 2],
                             ids=["another-sender", "the-skip-neighbor"])
    @pytest.mark.parametrize("combiner, state, growth, stale",
                             GROWTH_THEN_STALE, ids=["sketch", "min", "max"])
    def test_growth_then_stale_owes_no_reply_and_flushes_one_multicast(
            self, combiner, state, growth, stale, stale_sender):
        """Host 2's growth makes the host dirty and host 2 its skip
        neighbor; a stale delivery after it in the same instant -- from
        host 3, or from host 2 itself -- notes no reply, because the
        dirty flush discards every reply.  The flush sends the one
        multicast, past host 2, through both bodies alike."""
        now = 3.0
        spec_hosts = _table(combiner, state)
        lane_hosts = _table(combiner, state)
        kernel = _kernel(lane_hosts)
        ctx = _CapturingContext(now)
        lane = _CapturingLane(now, view_cleared=False)
        for rank, (sender, incoming) in enumerate(
                ((2, growth), (stale_sender, stale))):
            payload = {"agg": incoming, "dist": 1}
            spec_hosts[1].on_message(
                Message(sender, 1, CONVERGECAST, payload, now - 1.0, 3), ctx)
            kernel.process_instant(
                now, [(rank, sender, (1,), CONVERGECAST)
                      + kernel.flatten(payload) + (3,)], lane)
            assert _slots(lane_hosts[1]) == _slots(spec_hosts[1])
            assert spec_hosts[1]._reply_to is None
        assert spec_hosts[1]._dirty and spec_hosts[1]._skip_neighbor == 2
        assert ctx.timers == [(0.0, FLUSH)] and lane.bucket == [(1, 3, 0)]

        spec_hosts[1].on_timer(FLUSH, None, ctx)
        kernel.process_timer_bucket(now, lane.bucket, lane)
        assert _slots(lane_hosts[1]) == _slots(spec_hosts[1])
        assert ctx.unicasts == []
        assert ctx.multicasts == [(CONVERGECAST, growth, 2, (2,))]
        assert [(record[1], tuple(record[2])) + record[3:6]
                for record in lane.out_records] == [
            (1, (0, 3), CONVERGECAST, growth, 2)]

    @pytest.mark.parametrize("combiner, state, incoming", [
        (FMCountCombiner(repetitions=2), 0b0110, 0b0110),
        (MinCombiner(), 2.0, float("2.0")),
        (MaxCombiner(), -0.0, 0.0),
    ], ids=["sketch", "min", "max"])
    def test_a_settled_delivery_calls_no_combine(self, combiner, state,
                                                 incoming):
        """A delivery equal to the host's aggregate returns before any
        merge: the spec host never calls ``combine`` for it, and neither
        body moves a slot, owes a reply or asks for a flush."""
        calls = []
        spec_hosts = _table(combiner, state)
        lane_hosts = _table(combiner, state)
        combine = spec_hosts[1].run.combine
        spec_hosts[1].run.combine = lambda *args: (calls.append(args),
                                                   combine(*args))[1]
        before = _slots(spec_hosts[1])
        ctx = _CapturingContext(3.0)
        spec_hosts[1].on_message(
            Message(2, 1, CONVERGECAST, {"agg": incoming, "dist": 1}, 2.0, 3),
            ctx)
        kernel = _kernel(lane_hosts)
        lane = _CapturingLane(3.0, view_cleared=False)
        kernel.process_instant(
            3.0, [(0, 2, (1,), CONVERGECAST, incoming, 1, 3)], lane)
        assert calls == []
        assert _slots(spec_hosts[1]) == _slots(lane_hosts[1]) == before
        assert spec_hosts[1].partial is state
        assert ctx.timers == lane.bucket == []
        assert lane.counts == [0, 1, 0, 0]


class TestDeadlineMirrorCarriesDeath:
    """The kernel's deadline mirror holds a dead host as ``-inf``, which
    no instant is inside: built from the alive bitmap, re-mirrored by
    ``refresh_host`` after a failure, and read instead of the bitmap."""

    def test_built_over_a_dead_host_and_refreshed_after_a_failure(self):
        hosts = _table(MinCombiner(), 2.0)
        alive = bytearray([1, 1, 0, 1])
        kernel = _kernel(hosts, alive)
        assert kernel.deadlines == [None, hosts[1]._deadline,
                                    float("-inf"), None]
        alive[1] = 0
        kernel.refresh_host(1)
        assert kernel.deadlines[1] == float("-inf")

    def test_deliveries_to_a_dead_host_are_drops_and_its_flush_never_fires(
            self):
        """Host 1 is active and dirty with a flush pending when it
        fails: a delivery still addressed to it is a drop, and its
        registration firing is a broken lane invariant -- a flush fires
        in the instant that registered it and failures land between
        instants, so no lane run reaches it.  It raises before any slot
        moves or anything is sent."""
        hosts = _table(MinCombiner(), 2.0, flush_pending=True, dirty=True)
        alive = bytearray([1, 1, 1, 1])
        kernel = _kernel(hosts, alive)
        alive[1] = 0
        kernel.refresh_host(1)
        before = _slots(hosts[1])
        lane = _CapturingLane(3.0, view_cleared=False)
        kernel.process_instant(
            3.0, [(0, 2, (1,), CONVERGECAST, 1.0, 1, 3)], lane)
        # A record with no live destination leaves the chain depth.
        assert lane.dropped == 1 and lane.counts == [0, 0, 0, 0]
        assert lane.max_depth == 0
        with pytest.raises(RuntimeError, match="dead host"):
            kernel.process_timer_bucket(3.0, [(1, 2, 0)], lane)
        assert _slots(hosts[1]) == before
        assert lane.out_records == [] and not lane.send_acc
        assert lane.bucket == []


def test_the_lane_fold_calls_no_combiner_hook(monkeypatch):
    """On the vector lane the combiner is called per host, never per
    delivery -- a draw per activation, a ``combine`` per first contact,
    the declaration's ``finalize`` -- while the spec loop calls
    ``combine`` on every delivery to an active host."""
    calls = []
    for name in ("initial", "combine", "finalize", "absorbs"):
        method = getattr(MinCombiner, name)
        monkeypatch.setattr(
            MinCombiner, name,
            lambda self, *args, method=method, name=name: (
                calls.append(name), method(self, *args))[1])
    topo = random_topology(60, avg_degree=5, seed=3)
    values = zipf_values(60, seed=3)
    tallies = {}
    for lane in ("python", "vector"):
        calls.clear()
        result = run_protocol(Wildfire(), topo, values, "min", seed=3,
                              lane=lane)
        assert result.lane_used == lane and result.value == min(values)
        tallies[lane] = Counter(calls)
    vector = tallies["vector"]
    assert set(vector) == {"initial", "combine", "finalize"}
    assert vector["initial"] == topo.num_hosts
    assert 0 < vector["combine"] <= topo.num_hosts - 1
    assert vector["finalize"] == tallies["python"]["finalize"]
    assert tallies["python"]["combine"] > 3 * vector["combine"]


@pytest.mark.parametrize("combiner, state_type", [
    (FMCountCombiner(repetitions=2), int),
    (FMSumCombiner(repetitions=2), int),
    (MinCombiner(), float),
])
def test_a_host_keeps_one_aggregate_slot_and_sends_it_as_is(
        combiner, state_type):
    """``partial`` is the one aggregate slot, in the run's own
    representation, and the query start's Broadcast carries that very
    object."""
    assert [name for name in WildfireHost.__slots__
            if "partial" in name or "packed" in name] == ["partial"]
    host = _table(combiner, None)[0]
    ctx = _CapturingContext(0.0)
    host.on_query_start(ctx)
    assert type(host.partial) is state_type
    assert ctx.multicasts == [(BROADCAST, host.partial, 0, ())]
    assert type(host.local_result()) is float


def test_a_packed_spec_run_builds_one_sketch_and_requests_each_flush_once(
        monkeypatch):
    """On the spec lane a packed host draws, folds and sends the bare
    int: the one :class:`FMSketch` of a run is the querying host's
    declaration.  A flush is requested only while none is pending, so
    every request is a flush that fires."""
    built, requested, fired = [], [], []
    from_packed = FMSketch._from_packed.__func__
    monkeypatch.setattr(FMSketch, "_from_packed", classmethod(
        lambda cls, *args: (built.append(args), from_packed(cls, *args))[1]))
    init = FMSketch.__init__
    monkeypatch.setattr(FMSketch, "__init__", lambda self, *args, **kw: (
        built.append(args), init(self, *args, **kw))[1])
    schedule, on_timer = WildfireHost._schedule_flush, WildfireHost.on_timer
    monkeypatch.setattr(WildfireHost, "_schedule_flush", lambda self, ctx: (
        requested.append(self.host_id), schedule(self, ctx))[1])
    monkeypatch.setattr(WildfireHost, "on_timer", lambda self, *args: (
        fired.append(self.host_id), on_timer(self, *args))[1])
    topo = random_topology(120, avg_degree=5, seed=4)
    result = run_protocol(Wildfire(), topo, [1.0] * 120, "count",
                          combiner=FMCountCombiner(repetitions=8), seed=4,
                          lane="python")
    assert result.lane_used == "python"
    assert len(built) == 1
    assert len(fired) > topo.num_hosts
    assert Counter(requested) == Counter(fired)
