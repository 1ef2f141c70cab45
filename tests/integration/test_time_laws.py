"""Three metamorphic laws of simulated time.

The paper folds every timing bound into one per-hop ``delta`` and argues
over *ticks*: a Report is due one ``delta`` before its parent's own
deadline, a flood dies out by ``2 * D_hat * delta``.  Nothing in those
arguments depends on what ``delta`` is or on when the query was issued,
so nothing a run reports may either:

* **time-scale invariance** -- a fixed-delay run at any ``delta`` is the
  ``delta = 1`` run with every instant multiplied by ``delta``: same
  value, same costs tick for tick, same Reports folded host for host;
* **launch-offset invariance** -- a service session launched at any
  instant equals its solo run, whether the event loop steps it on its
  own tick lane or delivers it message by message;
* **slicing invariance** -- a run driven in slices, ``run(until=a)``
  then ``run(until=b)`` and so on, reads at each boundary what a run
  driven once to that boundary reads, and ends where one run to the
  last boundary ends: solo or as a service session, on the tick lane or
  on the spec loop.

The first two hold because a fixed-delay instant is ``k * delta``,
stated once in ``repro.simulation.clock``; when instants were
accumulated (``t + delta``) beside deadlines stated as products, a
non-dyadic ``delta`` put the two an ulp apart and tree / DAG runs lost
Reports on a static network.  The third holds because every in-process
tick lane is stepped by the engine's calendar, which stops at a horizon
and resumes; when a solo lane ran on its own clock it filed nothing past
the first horizon, and a resumed spanning-tree run declared 1 of 300.

Churn is written as ``(tick, sixteenths, host)`` and realised as
``(tick + sixteenths / 16) * delta``, so a failure *on* a tick boundary
is stated rather than re-derived by a float multiply, and one between
two boundaries stays strictly between them at every ``delta``.  Slice
boundaries are written the same way, ``(tick, sixteenths)``.

The pinned cells below are the fast tier; each law is also drawn by
hypothesis -- a handful of examples in a plain run, the active profile's
count when the command line names a profile (CI's perf-smoke job names
``default``).
"""

from collections import Counter

import pytest
from hypothesis import strategies as st

from repro.protocols.base import (prepare_protocol_run, protocol_from_spec,
                                  run_protocol)
from repro.service import QueryService
from repro.simulation.churn import ChurnSchedule
from repro.simulation.engine import Simulator
from repro.topology.random_graph import random_topology
from repro.workloads.values import uniform_values
from tests.drawn import drawn

SEED = 5
#: The pinned tier's topology: one on which, when instants were
#: accumulated, tree / DAG sessions on the spec loop differed from their
#: solo runs at a non-dyadic launch offset (20 of its 192 cells).
TOPOLOGY_SEED = 2
NUM_HOSTS = 40

PROTOCOLS = ("wildfire", "spanning-tree", "dag-k2", "dag-k3", "allreport",
             "gossip")
#: Protocols the lane gate admits: a ``"vector"`` request must engage.
KERNEL_PROTOCOLS = ("wildfire", "spanning-tree", "dag-k2", "dag-k3")
#: ``(tick, sixteenths, host)``: on a boundary, between two, at the launch
#: instant, and late enough to hit a tree parent waiting to report.
CHURN = {
    "static": (),
    "churn": ((0, 0, 9), (1, 8, 17), (3, 0, 11), (4, 13, 23), (9, 4, 3)),
}
SCALE_DELTAS = (0.1, 0.2, 0.3, 0.7, 3.3, 1e-3)
OFFSET_DELTAS = (1.0, 0.1, 0.3, 0.7)
OFFSETS = (0.0, 0.5, 1.234567891, 1000.1)
#: ``(tick, sixteenths)`` slice boundaries: on the grid, on a failure
#: instant and between two ticks.
SLICES = ((1, 0), (1, 8), (3, 0), (4, 13), (6, 5), (9, 0))


def _network(topology_seed):
    topology = random_topology(NUM_HOSTS, avg_degree=4.0, seed=topology_seed)
    return topology, uniform_values(NUM_HOSTS, low=1, high=50,
                                    seed=topology_seed)


def _failures(ticks, delta, at=0.0):
    return ChurnSchedule(failures=[
        (at + (tick + sixteenths / 16) * delta, host)
        for tick, sixteenths, host in ticks])


def _instants(cuts, delta, at=0.0):
    return [at + (tick + sixteenths / 16) * delta
            for tick, sixteenths in cuts]


def _solo(protocol, topology, values, query, ticks, delta, lane):
    """A solo run, not started yet, and its termination instant."""
    prepared = prepare_protocol_run(
        protocol_from_spec(protocol), topology, values, query, seed=SEED,
        delta=delta)
    simulator = Simulator(
        network=topology.to_network(), hosts=prepared.hosts, querying_host=0,
        delta=delta, churn=_failures(ticks, delta),
        max_time=prepared.termination * 4 + 16, lane=lane)
    return simulator, prepared.termination


def _observe(protocol, topology, values, query, ticks, delta, lane):
    """Everything a run reports, with every time expressed in ticks --
    except ``finished_at``, compared as the float it is."""
    simulator, termination = _solo(protocol, topology, values, query, ticks,
                                   delta, lane)
    result = simulator.run(until=termination)
    if protocol in KERNEL_PROTOCOLS:
        assert (result.lane_used, result.fallback_reason) == (lane, None)
    costs = result.costs
    per_tick = Counter()
    for time, count in costs.messages_per_instant().items():
        per_tick[round(time / delta)] += count
    return result.finished_at, {
        "value": result.value,
        "summary": dict(costs.summary()),
        "by_kind": dict(costs.messages_by_kind),
        "computation": costs.computation_histogram(),
        "per_tick": dict(per_tick),
        "reports": [getattr(host, "reports_received", None)
                    for host in simulator.hosts],
    }


def _check_time_scale(protocol, topology_seed, query, ticks, lane, deltas):
    topology, values = _network(topology_seed)
    finished, reference = _observe(protocol, topology, values, query, ticks,
                                   1.0, lane)
    for delta in deltas:
        scaled_finish, scaled = _observe(protocol, topology, values, query,
                                         ticks, delta, lane)
        assert scaled == reference, delta
        # The run stops on a tick (or on a stated failure instant):
        # exactly that many ``delta``, not approximately.
        assert scaled_finish == finished * delta, delta


def _check_launch_offset(protocol, topology_seed, query, ticks, delta, at,
                         on_tick_path):
    topology, values = _network(topology_seed)
    service = QueryService(topology, values, seed=SEED, delta=delta,
                           churn=_failures(ticks, delta, at))
    qid = service.submit(protocol, query, at=at)
    service.run()
    outcome = service.poll(qid)
    if on_tick_path and protocol in KERNEL_PROTOCOLS:
        assert (outcome.lane_used, outcome.fallback_reason) == ("vector", None)
    else:
        assert outcome.lane_used == "python"
    solo = run_protocol(
        protocol_from_spec(protocol), topology, values, query,
        seed=outcome.seed, d_hat=service.d_hat, delta=delta,
        churn=_failures(ticks, delta), lane="python")
    where = (delta, at)
    assert outcome.value == solo.value, where
    assert outcome.costs.fingerprint() == solo.costs.fingerprint(), where
    assert outcome.declared_at == at + solo.termination_time, where


def _check_slicing_solo(protocol, topology_seed, query, ticks, delta, cuts,
                        on_tick_path):
    topology, values = _network(topology_seed)
    lane = "vector" if on_tick_path else "python"

    def build():
        return _solo(protocol, topology, values, query, ticks, delta, lane)

    def digest(simulator, result):
        network = simulator.network
        return (result.value, result.costs.fingerprint(), result.finished_at,
                result.lane_used, simulator.messages_sent,
                simulator.dropped_messages,
                [network.is_alive(h) for h in range(network.num_hosts)])

    sliced, termination = build()
    horizons = sorted({instant for instant in _instants(cuts, delta)
                       if instant < termination}) + [termination]
    seen = [digest(sliced, sliced.run(until=h)) for h in horizons]
    if protocol in KERNEL_PROTOCOLS or not on_tick_path:
        assert seen[-1][3] == lane
    for horizon, got in zip(horizons, seen):
        once, _ = build()
        assert digest(once, once.run(until=horizon)) == got, (delta, horizon)


def _check_slicing_service(protocol, topology_seed, query, ticks, delta, at,
                           cuts, on_tick_path):
    topology, values = _network(topology_seed)

    def build():
        service = QueryService(topology, values, seed=SEED, delta=delta,
                               churn=_failures(ticks, delta, at))
        return service, service.submit(protocol, query, at=at)

    def digest(service, qid):
        outcome = service.poll(qid)
        engine = service.engine
        return (outcome.status, outcome.value, outcome.declared_at,
                outcome.lane_used,
                None if outcome.costs is None else outcome.costs.fingerprint(),
                engine.messages_sent, engine.dropped_messages,
                engine.late_messages)

    sliced, qid = build()
    # ``None``: the last slice drains the calendar, as one ``run()`` does.
    horizons = sorted(set(_instants(cuts, delta, at))) + [None]
    seen = []
    for horizon in horizons:
        sliced.run(until=horizon)
        seen.append(digest(sliced, qid))
    engaged = on_tick_path and protocol in KERNEL_PROTOCOLS
    assert seen[-1][3] == ("vector" if engaged else "python")
    for horizon, got in zip(horizons, seen):
        once, qid = build()
        once.run(until=horizon)
        assert digest(once, qid) == got, (delta, at, horizon)


def _check_slicing(driver, protocol, topology_seed, query, ticks, delta, at,
                   cuts, on_tick_path):
    if driver == "solo":
        _check_slicing_solo(protocol, topology_seed, query, ticks, delta,
                            cuts, on_tick_path)
    else:
        _check_slicing_service(protocol, topology_seed, query, ticks, delta,
                               at, cuts, on_tick_path)


# ----------------------------------------------------------------------
# The pinned tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lane", ["python", "vector"])
@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("query", ["count", "min"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_run_at_any_delta_is_the_unit_run_rescaled(
        protocol, query, churn, lane):
    _check_time_scale(protocol, TOPOLOGY_SEED, query, CHURN[churn], lane,
                      SCALE_DELTAS)


@pytest.mark.parametrize("path", ["tick lane", "spec loop"])
@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_session_launched_at_any_instant_equals_its_solo_run(
        protocol, churn, path, pin_spec_loop):
    if path == "spec loop":
        pin_spec_loop()
    for delta in OFFSET_DELTAS:
        for at in OFFSETS:
            _check_launch_offset(protocol, TOPOLOGY_SEED, "count",
                                 CHURN[churn], delta, at, path == "tick lane")


@pytest.mark.parametrize("driver", ["solo", "service"])
@pytest.mark.parametrize("path", ["tick lane", "spec loop"])
@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_run_driven_in_slices_equals_one_run_to_each_boundary(
        protocol, churn, path, driver, pin_spec_loop):
    if path == "spec loop":
        pin_spec_loop()
    _check_slicing(driver, protocol, TOPOLOGY_SEED, "count", CHURN[churn],
                   0.3, OFFSETS[2], SLICES, path == "tick lane")


# ----------------------------------------------------------------------
# The drawn tier
# ----------------------------------------------------------------------
_cells = dict(
    protocol=st.sampled_from(PROTOCOLS),
    topology_seed=st.integers(0, 10_000),
    query=st.sampled_from(["count", "sum", "min", "max"]),
    ticks=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 15),
                  st.integers(1, NUM_HOSTS - 1)),
        max_size=8, unique_by=lambda fail: fail[2]).map(tuple),
    delta=st.floats(1e-3, 1e3, allow_subnormal=False),
)


def test_time_scale_invariance_over_drawn_cells(request):
    def law(protocol, topology_seed, query, ticks, delta, lane):
        _check_time_scale(protocol, topology_seed, query, ticks, lane,
                          [delta])

    drawn(request, law, lane=st.sampled_from(["python", "vector"]), **_cells)


@pytest.mark.parametrize("path", ["tick lane", "spec loop"])
def test_launch_offset_invariance_over_drawn_cells(request, path,
                                                   pin_spec_loop):
    def law(protocol, topology_seed, query, ticks, delta, at):
        _check_launch_offset(protocol, topology_seed, query, ticks, delta, at,
                             path == "tick lane")

    if path == "spec loop":
        pin_spec_loop()
    drawn(request, law, at=st.floats(0.0, 2000.0), **_cells)


@pytest.mark.parametrize("path", ["tick lane", "spec loop"])
def test_slicing_invariance_over_drawn_cells(request, path, pin_spec_loop):
    def law(driver, protocol, topology_seed, query, ticks, delta, at, cuts):
        _check_slicing(driver, protocol, topology_seed, query, ticks, delta,
                       at, cuts, path == "tick lane")

    if path == "spec loop":
        pin_spec_loop()
    drawn(request, law, driver=st.sampled_from(["solo", "service"]),
          at=st.floats(0.0, 2000.0),
          cuts=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 15)),
                        min_size=1, max_size=5),
          **_cells)
