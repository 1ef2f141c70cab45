"""The tick lanes: engagement, fallback, bit-identity.

The vector lane and the sharded lane (at 1, 2 and 4 shards) are one
batch kernel under two drivers, so their contract is pinned once, over
every ``(lane, shards)`` case: a supported run engages the lane and is
bit-identical to the executable-spec loop (value, cost fingerprint,
declaration time, post-run liveness and RNG state); an unsupported run
falls back to the spec loop and says why on the result it returns.  The
convergecast kernel (SPANNINGTREE, DAG-k) runs on the in-process driver
only and is pinned the same way, on the inputs its timer calendar
exists for.  The heavyweight locks live in the integration matrix and
the perf smokes.
"""

import multiprocessing
import weakref

import pytest
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.obs.trace import RingTracer, Tracer
from repro.protocols.allreport import AllReport
from repro.protocols.base import prepare_protocol_run
from repro.protocols.dag import DagHost, DirectedAcyclicGraph
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.simulation.churn import ChurnSchedule, JoinSpec
from repro.simulation.engine import Simulator
from repro.simulation.host import HostContext
from repro.simulation.vector_lane import DEFAULT_LANE, LANES, validate_lane
from repro.topology.grid import grid_topology
from repro.topology.random_graph import random_topology
from repro.workloads.values import uniform_values
from tests.drawn import drawn

SEED = 11

#: Every driver of the batch kernel: ``(lane, shards)``.
LANE_CASES = [("vector", 1), ("sharded", 1), ("sharded", 2), ("sharded", 4)]
lane_cases = pytest.mark.parametrize(
    "lane,shards", LANE_CASES, ids=lambda v: str(v))


def _simulate(lane, shards=1, query="count", churn=None, wireless=False,
              delay=None, tracer=None, protocol=None,
              querying_host=0, num_hosts=30, prime=None, topology=None,
              delta=1.0, d_hat=None):
    """One run; returns ``(snapshot, simulator, result)``.

    ``prime`` is called with the built simulator before ``run`` (to
    register callbacks or pre-queue events).
    """
    if topology is None:
        topology = random_topology(num_hosts, avg_degree=3.0, seed=SEED)
    values = uniform_values(len(topology), low=1, high=50, seed=SEED)
    prepared = prepare_protocol_run(
        protocol or Wildfire(), topology, values, query,
        querying_host=querying_host, seed=SEED, delay=delay, delta=delta,
        d_hat=d_hat)
    simulator = Simulator(
        network=topology.to_network(), hosts=prepared.hosts,
        querying_host=querying_host, delta=delta, churn=churn,
        wireless=wireless,
        max_time=prepared.termination * 4 + 16,
        delay_model=prepared.delay_model, tracer=tracer, lane=lane,
        shards=shards)
    if prime is not None:
        prime(simulator)
    assert simulator.lane_used is None
    result = simulator.run(until=prepared.termination)
    snapshot = {
        "value": result.value,
        "fingerprint": result.costs.fingerprint(),
        "declared_at": result.finished_at,
        "clock": simulator.clock.now,
        "alive": bytes(simulator.network._alive),
        "rng_next": prepared.rng.random(),
    }
    return snapshot, simulator, result


def _spec(**kwargs):
    snapshot, simulator, result = _simulate("python", **kwargs)
    assert simulator.lane_used == result.lane_used == "python"
    assert result.fallback_reason is None
    return snapshot


def _engaged(lane, shards, **kwargs):
    """Run on the lane, prove it engaged, return the snapshot."""
    snapshot, simulator, result = _simulate(lane, shards, **kwargs)
    assert result.fallback_reason is None
    assert simulator.lane_used == result.lane_used == lane
    assert ("sharded" in result.extra) == (lane == "sharded")
    return snapshot


# ----------------------------------------------------------------------
# Lane validation / plumbing
# ----------------------------------------------------------------------
def test_validate_lane_accepts_known_lanes():
    assert LANES == ("python", "vector", "sharded")
    for lane in LANES:
        assert validate_lane(lane) == lane


def test_validate_lane_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel lane"):
        validate_lane("turbo")


def test_the_default_lane_is_the_vector_lane_everywhere():
    assert DEFAULT_LANE == "vector"
    assert SimulationConfig().lane == DEFAULT_LANE
    topology = grid_topology(3)
    prepared = prepare_protocol_run(
        Wildfire(), topology, [1.0] * len(topology), "min",
        querying_host=0, seed=SEED)
    simulator = Simulator(network=topology.to_network(),
                          hosts=prepared.hosts, querying_host=0)
    assert simulator.lane == DEFAULT_LANE
    result = simulator.run(until=prepared.termination)
    assert result.lane_used == DEFAULT_LANE
    assert result.fallback_reason is None


def test_simulation_config_validates_lane():
    assert SimulationConfig(lane="vector").lane == "vector"
    with pytest.raises(ValueError, match="unknown kernel lane"):
        SimulationConfig(lane="turbo")


def test_simulator_rejects_unknown_lane_and_non_positive_shards():
    topology = grid_topology(3)
    prepared = prepare_protocol_run(
        Wildfire(), topology, [1.0] * len(topology), "min",
        querying_host=0, seed=SEED)
    with pytest.raises(ValueError, match="unknown kernel lane"):
        Simulator(network=topology.to_network(), hosts=prepared.hosts,
                  querying_host=0, lane="turbo")
    with pytest.raises(ValueError, match="shards must be at least 1"):
        Simulator(network=topology.to_network(), hosts=prepared.hosts,
                  querying_host=0, shards=0)


# ----------------------------------------------------------------------
# Engagement and bit-identity, every driver
# ----------------------------------------------------------------------
@lane_cases
@pytest.mark.parametrize("query", ["min", "max", "count", "sum"])
def test_lane_is_bit_identical(lane, shards, query):
    churn = ChurnSchedule(failures=[(1.0, 7), (2.0, 3), (3.0, 11)])
    assert (_engaged(lane, shards, query=query, churn=churn)
            == _spec(query=query, churn=churn))


@lane_cases
def test_identical_under_wireless(lane, shards):
    assert _engaged(lane, shards, wireless=True) == _spec(wireless=True)


@lane_cases
def test_identical_with_failure_at_time_zero(lane, shards):
    # QUERY_START outranks FAIL at time 0: the query still floods out of
    # host 0 before host 5 (a neighbor-to-be) dies.
    churn = ChurnSchedule(failures=[(0.0, 5)])
    assert (_engaged(lane, shards, query="min", churn=churn)
            == _spec(query="min", churn=churn))


@lane_cases
def test_identical_when_querying_host_dies(lane, shards):
    # The declared value must still match the spec loop's, which reads
    # the dead host's frozen partial.
    churn = ChurnSchedule(failures=[(2.0, 0)])
    assert _engaged(lane, shards, churn=churn) == _spec(churn=churn)


@lane_cases
def test_identical_with_off_grid_failures(lane, shards):
    # Failures between delivery instants (1.5 and 2.25 delta) and one
    # after the flood has died out but before the horizon: each happens
    # at its own instant, the clock ends on the last one.
    churn = ChurnSchedule(failures=[(1.5, 7), (2.25, 3), (2.25, 12),
                                    (3.0, 9), (3.5, 20), (19.5, 4)])
    spec = _spec(churn=churn)
    assert spec["declared_at"] == 19.5
    assert _engaged(lane, shards, churn=churn) == spec


@lane_cases
def test_identical_when_failures_were_appended_out_of_time_order(
        lane, shards):
    # The schedule sorts at construction only.  The spec calendar drains
    # whatever it was handed by (time, push order); the lanes' failure
    # plan must be that same stable time sort, not the list as it stands.
    def churn():
        schedule = ChurnSchedule(failures=[(2.0, 3)])
        schedule.failures += [(1.0, 7), (2.0, 11), (1.0, 9), (0.5, 12)]
        return schedule

    assert _engaged(lane, shards, churn=churn()) == _spec(churn=churn())


@pytest.mark.parametrize("lane,shards", LANE_CASES + [("sharded", 12)],
                         ids=lambda v: str(v))
def test_identical_on_a_network_smaller_than_the_shard_count(lane, shards):
    # Empty shards participate in every barrier and own no hosts.
    assert (_engaged(lane, shards, num_hosts=8, query="sum")
            == _spec(num_hosts=8, query="sum"))


# ----------------------------------------------------------------------
# The convergecast kernel (in-process driver only)
# ----------------------------------------------------------------------
CONVERGECAST = {
    "spanning-tree": SpanningTree,
    "dag-k2": lambda: DirectedAcyclicGraph(num_parents=2),
    "dag-k3": lambda: DirectedAcyclicGraph(num_parents=3),
}
convergecast = pytest.mark.parametrize("protocol", sorted(CONVERGECAST))


def _convergecast_pair(protocol, **kwargs):
    """The engaged vector-lane snapshot and the spec snapshot."""
    return (_engaged("vector", 1, protocol=CONVERGECAST[protocol](), **kwargs),
            _spec(protocol=CONVERGECAST[protocol](), **kwargs))


@convergecast
@pytest.mark.parametrize("query", ["count", "sum", "min"])
def test_convergecast_is_bit_identical(protocol, query):
    churn = ChurnSchedule(failures=[(1.0, 7), (2.0, 3), (3.0, 11)])
    vector, spec = _convergecast_pair(protocol, query=query, churn=churn)
    assert vector == spec


@convergecast
@pytest.mark.parametrize("delta", [0.1, 0.3])
def test_convergecast_folds_the_same_reports_at_a_non_dyadic_delta(
        protocol, delta):
    # A Report is due one ``delta`` before its parent's own deadline: a
    # statement about ticks, which the floats must keep at any ``delta``
    # (accumulated ``t + delta`` instants used to sit an ulp off the
    # ``(2 * d_hat - depth) * delta`` deadlines and lose Reports).
    def observe(lane, delta):
        churn = ChurnSchedule(failures=[(4.5 * delta, 7), (9.25 * delta, 3)])
        snapshot, simulator, _ = _simulate(
            lane, protocol=CONVERGECAST[protocol](), delta=delta, churn=churn)
        assert simulator.lane_used == lane
        return snapshot, [host.reports_received for host in simulator.hosts]

    spec, spec_folded = observe("python", delta)
    vector, vector_folded = observe("vector", delta)
    assert vector == spec
    assert vector_folded == spec_folded
    # Host for host, the Reports the exact grid (delta = 1) folds in.
    _, exact_folded = observe("python", 1.0)
    assert spec_folded == exact_folded


@convergecast
@pytest.mark.parametrize("d_hat", [2, 3])
def test_convergecast_identical_when_d_hat_is_underestimated(protocol, d_hat):
    # Hosts deeper than 2 * d_hat - depth <= now clamp their report delay
    # to zero: the timer fires in the instant that registered it.
    vector, spec = _convergecast_pair(protocol, d_hat=d_hat)
    assert vector == spec


@convergecast
def test_convergecast_identical_when_an_interior_parent_dies_before_reporting(
        protocol):
    _, static, _ = _simulate("python", protocol=CONVERGECAST[protocol]())
    victim = next(host for host in static.hosts[1:]
                  if any(other.parents and other.parents[0] == host.host_id
                         for other in static.hosts))
    # After the Broadcast passed it (at ``depth``), before its report is
    # due, and between two delivery instants.
    churn = ChurnSchedule(failures=[(victim.depth + 1.5, victim.host_id)])
    vector, simulator, result = _simulate(
        "vector", protocol=CONVERGECAST[protocol](), churn=churn)
    assert (result.lane_used, result.fallback_reason) == ("vector", None)
    died = simulator.hosts[victim.host_id]
    assert died.active and not died.reported
    assert vector == _spec(protocol=CONVERGECAST[protocol](), churn=churn)


@convergecast
def test_convergecast_identical_when_the_querying_host_dies(protocol):
    vector, spec = _convergecast_pair(
        protocol, churn=ChurnSchedule(failures=[(2.0, 0)]))
    assert vector == spec


@convergecast
def test_convergecast_identical_on_a_wireless_grid(protocol):
    kwargs = dict(topology=grid_topology(5), wireless=True,
                  churn=ChurnSchedule(failures=[(2.5, 12), (6.0, 7)]))
    vector, spec = _convergecast_pair(protocol, **kwargs)
    assert vector == spec


@convergecast
def test_convergecast_identical_with_a_failure_after_the_last_report(protocol):
    # On a static network the root's children report into the horizon
    # itself; with the root dead their reports are never sent, so the
    # run is idle -- nothing in flight, no timer pending -- one delta
    # early.  The late failure still happens and ends the clock.
    horizon = _spec(protocol=CONVERGECAST[protocol]())["declared_at"]
    churn = ChurnSchedule(failures=[(2.0, 0), (horizon - 0.5, 4)])
    vector, spec = _convergecast_pair(protocol, churn=churn)
    assert spec["declared_at"] == horizon - 0.5
    assert vector == spec


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_result_carries_workers_and_epoch_timeline(shards):
    from repro.obs.timeline import SAMPLE_FIELDS, ShardTimeline

    _, _, result = _simulate("sharded", shards)
    info = result.extra["sharded"]
    assert info["shards"] == shards
    assert [w["shard"] for w in info["workers"]] == list(range(shards))
    assert all(w["epochs"] >= 1 for w in info["workers"])
    samples = info["timeline"]
    assert samples, "an engaged run records at least one epoch sample"
    for sample in samples:
        assert set(sample) == set(SAMPLE_FIELDS)
        assert sample["exchange_s"] >= 0.0
        assert sample["compute_s"] >= 0.0
        assert sample["barrier_wait_s"] >= 0.0
    # Each shard's samples cover the same epochs (lockstep barriers),
    # and wall starts are monotone within a shard.
    by_shard = {}
    for sample in samples:
        by_shard.setdefault(sample["shard"], []).append(sample)
    assert set(by_shard) == set(range(shards))
    epoch_sets = [sorted(s["epoch"] for s in group)
                  for group in by_shard.values()]
    assert all(epochs == epoch_sets[0] for epochs in epoch_sets)
    for group in by_shard.values():
        starts = [s["wall_start"] for s in group]
        assert starts == sorted(starts)
    timeline = ShardTimeline.from_run(result)
    assert timeline is not None
    assert timeline.epochs() == len(epoch_sets[0])
    report = timeline.skew_report()
    assert all(row["straggler"] in range(shards) for row in report)


#: Every traced driver: WILDFIRE on every lane case, convergecast on the
#: in-process lane.
TRACED_CASES = ([("wildfire", lane, shards) for lane, shards in LANE_CASES]
                + [(protocol, "vector", 1)
                   for protocol in sorted(CONVERGECAST)])


class _FailureLog(Tracer):
    """Observes failures the way any caller does: through ``Tracer.fail``."""

    __slots__ = ("seen", "clock")

    def __init__(self):
        self.seen = []
        self.clock = None

    def fail(self, time, host):
        self.seen.append((host, time, self.clock.now))


@pytest.mark.parametrize("protocol,lane,shards", TRACED_CASES,
                         ids=lambda v: str(v))
def test_failures_reach_the_tracer_as_the_spec_loop_applies_them(
        protocol, lane, shards):
    make = CONVERGECAST.get(protocol, Wildfire)
    churn = ChurnSchedule(failures=[(0.0, 5), (1.5, 7), (2.0, 3),
                                    (2.25, 12), (19.5, 4)])

    def observe(lane, shards, tracer):
        def prime(simulator):
            if isinstance(tracer, _FailureLog):
                tracer.clock = simulator.clock

        snapshot, simulator, _ = _simulate(
            lane, shards, churn=churn, prime=prime, tracer=tracer,
            protocol=make())
        assert simulator.lane_used == lane
        return snapshot

    spec_log = _FailureLog()
    spec = observe("python", 1, spec_log)
    assert spec_log.seen == [(5, 0.0, 0.0), (7, 1.5, 1.5), (3, 2.0, 2.0),
                             (12, 2.25, 2.25), (4, 19.5, 19.5)]
    if lane == "vector":
        log = _FailureLog()
        assert observe(lane, shards, log) == spec
        assert log.seen == spec_log.seen
        return
    # Forked workers report into rings; the owning shard records each
    # failure once, so the merged tracks hold the same sequence.
    ring = RingTracer(sampling={})
    assert observe(lane, shards, ring) == spec
    fails = sorted((time, host) for track in ring.processes
                   for kind, time, host, *_ in track["records"]
                   if kind == "fail")
    assert fails == [(time, host) for host, time, _ in spec_log.seen]


@pytest.mark.parametrize("delta", [1.0, 0.1, 0.3])
@pytest.mark.parametrize("protocol,lane,shards", TRACED_CASES,
                         ids=lambda v: str(v))
def test_ring_tracer_engages_the_lane_and_records_the_spec_trace(
        protocol, lane, shards, delta):
    # A traced run engages the lane it asked for, its digests stay
    # bit-identical to the untraced run and to the spec loop, and its
    # unsampled ring holds the spec loop's records -- every send instant
    # included, which for a non-dyadic delta is not ``now - delta`` --
    # under a time-0 failure, two failures at one instant and one late
    # in the run (after a flood has died out; a tree reports to the end).
    make = CONVERGECAST.get(protocol, Wildfire)
    churn = ChurnSchedule(failures=[(0.0, 5), (1.5 * delta, 7),
                                    (1.5 * delta, 3), (19.5 * delta, 4)])

    def ring():
        return RingTracer(capacity=100_000, sampling={})

    spec_tracer = ring()
    spec = _spec(protocol=make(), delta=delta, churn=churn,
                 tracer=spec_tracer)
    if protocol == "wildfire":
        assert spec["declared_at"] == 19.5 * delta
    tracer = ring()
    traced = _engaged(lane, shards, protocol=make(), delta=delta,
                      churn=churn, tracer=tracer)
    assert traced == spec
    assert traced == _engaged(lane, shards, protocol=make(), delta=delta,
                              churn=churn)
    assert dict(tracer.counts) == dict(spec_tracer.counts)
    if lane == "vector":
        assert tracer.raw_records() == spec_tracer.raw_records()
        return
    # One process track per shard; one shard sees the whole run in spec
    # order, several see a partition of it.
    assert ([p["label"] for p in tracer.processes]
            == [f"shard {k}" for k in range(shards)])
    assert all(p["records"] for p in tracer.processes)
    if shards == 1:
        assert tracer.processes[0]["records"] == spec_tracer.raw_records()
    else:
        merged = [r for p in tracer.processes for r in p["records"]]
        assert sorted(merged) == sorted(spec_tracer.raw_records())


def _full_ring():
    return RingTracer(capacity=100_000, sampling={})


def _same_trace_as_the_spec(lane, shards, churn):
    """Run WILDFIRE under ``churn`` on the spec loop and on the lane, each
    under an unsampled ring; assert the snapshots equal and the lane's
    records are the spec loop's (a multiset across shards).  Returns
    the records."""
    spec_ring, ring = _full_ring(), _full_ring()
    spec = _spec(churn=churn, tracer=spec_ring)
    assert _engaged(lane, shards, churn=churn, tracer=ring) == spec
    if lane == "vector":
        records = ring.raw_records()
    else:
        records = [r for p in ring.processes for r in p["records"]]
    assert sorted(records) == sorted(spec_ring.raw_records())
    return records


def _after_its_failure(records, host, failed_at):
    """What ``host`` did after ``failed_at``: ``(drops, acts)`` -- the
    deliveries dropped at it, and any delivery, fired timer or send."""
    later = [r for r in records if r[1] > failed_at]
    drops = [r for r in later if r[0] == "drop" and r[2] == host]
    acts = [r for r in later
            if (r[0] == "deliver" and r[3] == host)
            or (r[0] in ("timer", "send") and r[2] == host)]
    return drops, acts


#: The drivers whose failure path the deadline mirror rides: the
#: engine's FAIL branch, and a shard's own failure plan.
FAILURE_DRIVERS = pytest.mark.parametrize(
    "lane,shards", [("vector", 1), ("sharded", 2)], ids=lambda v: str(v))


@FAILURE_DRIVERS
def test_a_host_failing_between_instants_drops_what_is_in_flight_to_it(
        lane, shards):
    # Host 14 folds four deliveries and flushes at instant 3; eight more
    # are in flight to it when it fails at 3.5.  They are drops, its
    # window never reopens, and the run is the spec loop's.
    records = _same_trace_as_the_spec(
        lane, shards, ChurnSchedule(failures=[(3.5, 14)]))
    drops, acts = _after_its_failure(records, 14, 3.5)
    assert [r[:3] for r in drops] == [("drop", 4.0, 14)] * 8
    assert acts == []


@FAILURE_DRIVERS
def test_a_drawn_failure_between_instants_is_the_spec_loops(
        request, lane, shards):
    # Any host, querying host 0 included, failing between any two
    # instants of the flood.
    def law(host, instant, offset):
        failed_at = instant + offset
        records = _same_trace_as_the_spec(
            lane, shards, ChurnSchedule(failures=[(failed_at, host)]))
        assert _after_its_failure(records, host, failed_at)[1] == []

    drawn(request, law, plain=3, host=st.integers(0, 29),
          instant=st.integers(0, 7), offset=st.sampled_from([0.25, 0.5]))


@convergecast
def test_a_drawn_convergecast_under_drawn_failures_is_the_spec_loops(
        request, protocol):
    # A parent (a tree parent, or any of a DAG host's parents) failing
    # after the Broadcast passed it and before its children report, and
    # up to two more hosts failing between any two instants: the vector
    # lane's deliveries (chain depth included), fired timers and sends
    # are the spec loop's record for record, and so are the value and
    # the cost fingerprint.
    make = CONVERGECAST[protocol]
    _, static, _ = _simulate("python", protocol=make())
    parents = sorted({parent for host in static.hosts
                      for parent in host.parents if parent != 0})

    def law(parent, offset, others):
        failed_at = static.hosts[parent].depth + offset
        churn = ChurnSchedule(failures=[(failed_at, parent)] + [
            (time, host) for time, host in others if host != parent])
        spec_ring, ring = _full_ring(), _full_ring()
        spec = _spec(protocol=make(), churn=churn, tracer=spec_ring)
        vector, simulator, result = _simulate(
            "vector", protocol=make(), churn=churn, tracer=ring)
        assert (result.lane_used, result.fallback_reason) == ("vector", None)
        assert not simulator.hosts[parent].reported
        assert vector == spec
        assert ring.raw_records() == spec_ring.raw_records()

    drawn(request, law, plain=3, parent=st.sampled_from(parents),
          offset=st.sampled_from([0.5, 1.5]),
          others=st.lists(st.tuples(
              st.sampled_from([0.5, 1.5, 2.5, 4.5, 7.5]),
              st.integers(0, 29)), max_size=2, unique_by=lambda f: f[1]))


class _Agg:
    """A record's aggregate, weakly referenceable."""


class _HoldsNothing:
    """A stub batch kernel noting, at each record it handles, which of
    the batch's aggregates are still alive."""

    def __init__(self, refs):
        self.refs = refs
        self.alive = []

    def process_instant(self, now, entries, lane):
        for record in entries:
            self.alive.append([ref() is not None for ref in self.refs])

    def process_timer_bucket(self, now, bucket, lane):
        raise AssertionError("no timer was registered")


def test_the_lane_frees_each_record_once_it_is_delivered():
    # While the kernel handles record k, records 0 .. k-1 and their
    # aggregates are gone: the batch is consumed as it is delivered,
    # not held until the instant ends.
    from types import SimpleNamespace

    from repro.simulation.vector_lane import _TickLane

    network = SimpleNamespace(num_hosts=4, _alive=bytearray(b"\1" * 4),
                              _alive_sorted=[None] * 4)
    engine = SimpleNamespace(network=network, delta=1.0, wireless=False,
                             tracer=None)
    session = SimpleNamespace(qid=0, querying_host=0, hosts=[None] * 4)
    refs = []

    def record(rank):
        agg = _Agg()
        refs.append(weakref.ref(agg))
        return (rank, 0, [1, 2, 3], "kind", agg, None, 1)

    kernel = _HoldsNothing(refs)
    lane = _TickLane(engine, session, kernel)
    lane.in_flight = (1.0, [record(rank) for rank in range(5)], 0.0)
    assert lane.step() == float("inf")
    assert kernel.alive == [[rank >= k for rank in range(5)]
                            for k in range(5)]
    assert all(ref() is None for ref in refs)


# ----------------------------------------------------------------------
# Fallback gating: unsupported runs use the spec loop, with a reason
# ----------------------------------------------------------------------
def _push_foreign_timer(simulator):
    # A driver-pushed timer the lanes have no transcription for.
    HostContext(simulator, simulator.session, 0, 0.0, 0).set_timer(
        1.0, "custom-probe")


class _DeafDagHost(DagHost):
    """Inherits ``batch_kernel`` without naming it: the gate cannot know
    the subclass kept the branch the kernel inlines."""

    __slots__ = ()

    def take_report(self, agg):
        pass


def _rebrand_hosts(simulator):
    for host in simulator.hosts:
        host.__class__ = _DeafDagHost


#: gate -> (fallback reason, run arguments, lanes it applies to).  Fresh
#: tracers are built per run: identity is about value/costs, not traces.
GATES = {
    "variable delay": (
        "variable delay model",
        lambda: dict(delay="uniform:0.25,1.0"), ("vector", "sharded")),
    "foreign tracer on the sharded lane": (
        "unsupported tracer (sharded tracing needs RingTracer)",
        lambda: dict(tracer=Tracer()), ("sharded",)),
    "join churn": (
        "join churn scheduled",
        lambda: dict(churn=ChurnSchedule(failures=[(2.0, 4)],
                                         joins=[JoinSpec(3.0, (0, 1))])),
        ("vector", "sharded")),
    # FM average carries pair state; the kernel only handles packed
    # bitmask and bare-float states.
    "pair-state combiner": (
        "unsupported protocol hosts or combiner",
        lambda: dict(query="avg"), ("vector", "sharded")),
    "foreign protocol hosts": (
        "unsupported protocol hosts or combiner",
        lambda: dict(protocol=AllReport()), ("vector", "sharded")),
    # The activation pre-pass and the canonical keys are WILDFIRE's.
    "convergecast hosts on the sharded lane": (
        "unsupported protocol hosts or combiner",
        lambda: dict(protocol=SpanningTree()), ("sharded",)),
    # A subclass inherits the kernel's name but may override a handler
    # the kernel inlines; only the class that names it is admitted.
    "subclassed convergecast hosts": (
        "unsupported protocol hosts or combiner",
        lambda: dict(protocol=DirectedAcyclicGraph(),
                     prime=_rebrand_hosts), ("vector",)),
    "pre-queued foreign event": (
        "unexpected pre-queued events",
        lambda: dict(churn=ChurnSchedule(failures=[(2.0, 4)]),
                     prime=_push_foreign_timer), ("vector", "sharded")),
}


@pytest.mark.parametrize(
    "gate,lane,shards",
    [(gate, lane, shards) for gate in sorted(GATES)
     for lane, shards in LANE_CASES if lane in GATES[gate][2]],
    ids=lambda v: str(v))
def test_falls_back_with_a_reason(gate, lane, shards):
    reason, make_kwargs, _ = GATES[gate]
    snapshot, simulator, result = _simulate(lane, shards, **make_kwargs())
    assert result.fallback_reason == reason
    assert simulator.lane_used == result.lane_used == "python"
    assert "sharded" not in result.extra
    # The fallback consumed nothing: the spec loop ran the whole plan.
    spec, _, _ = _simulate("python", **make_kwargs())
    assert snapshot == spec


def test_gate_reasons_follow_one_order():
    # Delay, the lane's own checks, joins, pre-queued events, hosts: a
    # run refused on several counts names the first.
    joins = ChurnSchedule(joins=[JoinSpec(3.0, (0, 1))])
    refused = [
        ("unsupported protocol hosts or combiner",
         dict(protocol=AllReport())),
        ("unexpected pre-queued events", dict(prime=_push_foreign_timer)),
        ("join churn scheduled", dict(churn=joins)),
        ("unsupported tracer (sharded tracing needs RingTracer)",
         dict(tracer=Tracer())),
        ("variable delay model", dict(delay="uniform:0.25,1.0")),
    ]
    kwargs = {}
    for reason, more in refused:
        kwargs.update(more)
        _, _, result = _simulate("sharded", 2, **kwargs)
        assert result.fallback_reason == reason
    # The vector lane has no checks of its own.
    kwargs.pop("delay")
    _, _, result = _simulate("vector", **kwargs)
    assert result.fallback_reason == "join churn scheduled"


def test_sharded_falls_back_without_the_fork_start_method(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    _, simulator, result = _simulate("sharded", 2)
    assert result.fallback_reason == "fork start method unavailable"
    assert simulator.lane_used == "python"
    # One in-process shard forks nothing.
    _engaged("sharded", 1)
