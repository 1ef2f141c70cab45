"""Tests for the multi-tenant query service.

The contract under test (the reason the subsystem exists):

* one shared calendar-queue event loop drives N concurrent queries;
* per-query results and cost attribution are bit-identical across
  re-runs with the same seed, regardless of interleaving;
* a query multiplexed with other tenants is bit-identical to a solo
  :func:`~repro.protocols.base.run_protocol` execution with the same
  session seed (on the same schedule, where no cross-query churn
  interferes);
* sessions retire after declaring, so resident state tracks the number
  of *concurrently active* queries, not the total served.
"""

import ast
import gc
import pathlib
import weakref

import pytest

from repro.obs.trace import RingTracer
from repro.protocols.base import (prepare_protocol_run, protocol_from_spec,
                                  run_protocol)
from repro.queries.query import AggregateQuery
from repro.service import QueryService, QueryStatus
from repro.service import engine as service_engine
from repro.simulation.churn import ChurnSchedule, JoinSpec, uniform_failure_schedule
from repro.simulation.engine import Simulator
from repro.topology.random_graph import random_topology
from repro.workloads.values import uniform_values

SEED = 13


@pytest.fixture
def topology():
    return random_topology(60, avg_degree=4, seed=7)


@pytest.fixture
def values(topology):
    return uniform_values(topology.num_hosts, low=1, high=50, seed=7)


#: A small heterogeneous tenant mix covering every protocol family.
MIX = [
    ("wildfire", "count", 0.0, 0),
    ("spanning-tree", "sum", 1.5, 5),
    ("wildfire", "min", 2.0, 9),
    ("dag2", "count", 2.0, 17),
    ("allreport", "count", 3.25, 3),
    ("gossip", "count", 4.0, 11),
]


#: Churn axis of the mux-vs-solo identity: every event falls after the
#: last launch of ``MIX`` (a solo run cannot start on a network that
#: already churned) at dyadic instants, so shifting by a launch instant
#: is exact.  The second join attaches to the first joined host (id 60).
_FAILURES = [(4.5, 21), (6.0, 30), (7.25, 42), (9.5, 8)]
CHURN_AXIS = {
    "none": ChurnSchedule.empty(),
    "failures": ChurnSchedule(failures=_FAILURES),
    "failures+joins": ChurnSchedule(
        failures=_FAILURES,
        joins=[JoinSpec(5.0, (2, 21, 33)), JoinSpec(8.75, (60, 14))]),
}


def _as_seen_from(churn, at):
    """``churn`` on the clock of a query launched at engine time ``at``."""
    return ChurnSchedule(
        failures=[(time - at, host) for time, host in churn.failures],
        joins=[JoinSpec(join.time - at, join.neighbors)
               for join in churn.joins])


def _launched_at(local, at):
    """The inverse of :func:`_as_seen_from`: a failure schedule written
    on the query's own clock, filed on the engine's.  Shifting forward
    is the exact direction: the engine orders ``at + v`` against the
    session's instants ``at + k * delta`` the way the solo run orders
    ``v`` against ``k * delta`` (IEEE addition is monotone), whereas
    ``(at + v) - at`` need not give ``v`` back for a non-dyadic ``at``."""
    return ChurnSchedule(
        failures=[(at + time, host) for time, host in local.failures])


def _digest(outcome):
    return (outcome.value, outcome.costs.fingerprint(), outcome.declared_at)


def _submit_mix(service):
    return [
        service.submit(protocol, query, at=at, querying_host=host)
        for protocol, query, at, host in MIX
    ]


class TestLifecycle:
    def test_submit_poll_retire(self, topology, values):
        service = QueryService(topology, values, seed=SEED)
        qid = service.submit("wildfire", "count")
        assert service.poll(qid).status is QueryStatus.PENDING
        report = service.run()
        outcome = service.poll(qid)
        assert outcome.status is QueryStatus.DONE
        assert outcome.value is not None
        assert outcome.declared_at == outcome.termination
        assert report.answered == 1
        retired = service.retire(qid)
        assert retired.query_id == qid
        with pytest.raises(KeyError):
            service.poll(qid)

    def test_query_accepts_aggregate_query_objects(self, topology, values):
        service = QueryService(topology, values, seed=SEED)
        qid = service.submit("spanning-tree", AggregateQuery.of("max"))
        service.run()
        assert service.poll(qid).value == float(max(values))

    def test_rejects_bad_submissions(self, topology, values):
        service = QueryService(topology, values, seed=SEED)
        with pytest.raises(ValueError):
            service.submit("wildfire", "count", at=-1.0)
        with pytest.raises(ValueError):
            service.submit("wildfire", "count", querying_host=10_000)
        with pytest.raises(KeyError):
            service.submit("no-such-protocol", "count")

    def test_rejects_launches_behind_the_service_clock(
            self, topology, values):
        # After a horizon-bounded drive the network has already lived
        # through [0, horizon]; a query "launched" earlier would run on
        # a future network state, matching no consistent schedule.
        service = QueryService(topology, values, seed=SEED)
        service.submit("spanning-tree", "count", at=0.0)
        service.run(until=10.0)
        with pytest.raises(ValueError):
            service.submit("wildfire", "count", at=2.0)
        late = service.submit("wildfire", "min",
                              at=service.engine.clock.now + 1.0)
        service.run()
        assert service.poll(late).status is QueryStatus.DONE

    def test_retire_refuses_unfinished_queries(self, topology, values):
        service = QueryService(topology, values, seed=SEED)
        qid = service.submit("wildfire", "count")
        with pytest.raises(ValueError):
            service.retire(qid)      # still pending: nobody could ever
        service.run()                # read the answer after retirement
        assert service.retire(qid).status is QueryStatus.DONE

    def test_querying_host_dead_at_launch_fails_the_query(
            self, topology, values):
        churn = ChurnSchedule(failures=[(1.0, 9)])
        service = QueryService(topology, values, churn=churn, seed=SEED)
        qid = service.submit("wildfire", "min", at=5.0, querying_host=9)
        other = service.submit("wildfire", "min", at=5.0, querying_host=0)
        report = service.run()
        outcome = service.poll(qid)
        assert outcome.status is QueryStatus.FAILED
        assert outcome.value is None
        # The fast-fail path still reports the horizon arithmetic.
        assert outcome.d_hat == service.d_hat
        assert outcome.termination > 0
        assert service.poll(other).status is QueryStatus.DONE
        assert report.answered == 1

    def test_sessions_retire_after_declaring(self, topology, values):
        service = QueryService(topology, values, seed=SEED)
        _submit_mix(service)
        service.run()
        # After the drain every session declared and released its per-host
        # protocol state; the demux table is empty.
        assert service.engine.active_sessions == 0
        for outcome in service.outcomes():
            assert outcome.status is QueryStatus.DONE


class TestOneEventLoop:
    """A solo run and the service drive the same loop."""

    def test_one_definition_of_the_drain(self):
        """``pop_due`` is called from exactly one function outside the
        queue's own module, and the second context class is gone."""
        import repro
        import repro.service

        package = pathlib.Path(repro.__file__).parent
        callers = []
        for path in sorted(package.rglob("*.py")):
            if path.name == "events.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and any(
                        isinstance(call, ast.Call)
                        and getattr(call.func, "id",
                                    getattr(call.func, "attr", None))
                        == "pop_due"
                        for call in ast.walk(node)):
                    callers.append(f"{path.stem}.{node.name}")
        assert callers == ["engine._drain"]
        assert not hasattr(repro.service, "SessionContext")

    def test_the_lane_gate_reads_the_queue_only_through_len(self):
        """No drain/ingest round trip is left anywhere under ``src/``,
        and ``plan_run`` -- consulted before the queue is primed --
        touches ``_queue`` solely as the argument of ``len()``."""
        import repro

        package = pathlib.Path(repro.__file__).parent
        plan_run = None
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                # An attribute access or a definition, by either name
                # (spelled in halves: a grep for them stays empty too).
                name = getattr(node, "attr", getattr(node, "name", None))
                assert name not in ("drain" "_until",
                                    "ingest" "_events"), path
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "plan_run"):
                    plan_run = node
        reads = [node for node in ast.walk(plan_run)
                 if isinstance(node, ast.Attribute)
                 and node.attr == "_queue"]
        measured = [call.args[0] for call in ast.walk(plan_run)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "len"]
        assert reads and all(read in measured for read in reads)

    def test_finished_service_is_collectable_without_the_cyclic_gc(
            self, topology, values):
        """The engine holds no back-reference cycle: dropping the last
        reference to a service frees the engine -- and with it the
        network (slotted, so not itself weakly referenceable), the queue
        and the sessions -- at once."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            service = QueryService(topology, values, seed=SEED)
            service.submit("wildfire", "count")
            service.run()
            engine = weakref.ref(service.engine)
            del service
            assert engine() is None
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("driver", ["solo", "service"])
    def test_drain_to_empty_run_raises_at_max_time(
            self, topology, values, driver):
        """``max_time`` is a backstop, not a horizon: a run asked to drain
        that reaches it with live events pending says so; a run bounded by
        ``until`` just stops."""
        def build():
            if driver == "service":
                service = QueryService(topology, values, seed=SEED,
                                       max_time=5.0)
                service.submit("wildfire", "count")
                return service
            prepared = prepare_protocol_run(
                protocol_from_spec("wildfire"), topology, values, "count",
                seed=SEED)
            return Simulator(topology.to_network(), prepared.hosts, 0,
                             max_time=5.0, lane="python")

        with pytest.raises(RuntimeError, match=r"max_time=5\.0 with \d+ events"):
            build().run()
        build().run(until=50.0)


class TestDeterminismAndIsolation:
    def test_rerun_is_bit_identical(self, topology, values):
        def run_once():
            service = QueryService(topology, values, seed=SEED)
            ids = _submit_mix(service)
            service.run()
            return [(service.poll(i).value,
                     service.poll(i).costs.fingerprint()) for i in ids]

        assert run_once() == run_once()

    def test_solo_service_run_matches_multiplexed_run(
            self, topology, values):
        multi = QueryService(topology, values, seed=SEED)
        ids = _submit_mix(multi)
        multi.run()
        for (protocol, query, at, host), qid in zip(MIX, ids):
            outcome = multi.poll(qid)
            solo = QueryService(topology, values, seed=SEED)
            solo_qid = solo.submit(protocol, query, at=at,
                                   querying_host=host, seed=outcome.seed)
            solo.run()
            solo_outcome = solo.poll(solo_qid)
            assert solo_outcome.value == outcome.value, protocol
            assert (solo_outcome.costs.fingerprint()
                    == outcome.costs.fingerprint()), protocol

    @pytest.mark.parametrize("churn", sorted(CHURN_AXIS))
    @pytest.mark.parametrize("delay", [None, "uniform:0.25,1.0",
                                       "heavy_tail:1.2", "per_edge"])
    def test_multiplexed_query_matches_run_protocol(
            self, topology, values, delay, churn):
        """The acceptance contract: a service session is bit-identical to
        a solo run_protocol execution (the spec loop) with the session's
        seed, the service's d_hat and the service's churn as the session
        sees it (shifted to its launch instant), for every delay model --
        value, cost fingerprint and declaration time.  Joined hosts are
        inert on both sides.

        One carve-out: push-sum gossip under ``per_edge``.  A share sent
        at a round instant over an edge with fixed latency ``d`` arrives
        as ``(a + k) + d`` while the receiver's round timer fires at
        ``(a + d) + k`` -- the same real number, one ulp apart in float
        arithmetic.  A run launched at 0 keeps the artificial ulp gap; a
        launch offset collapses it into one slot where the
        deliver-before-timer priority (the model's actual simultaneity
        rule) applies.  Gossip's order-sensitive float sums then differ
        in the last digits, so that single structurally tie-prone cell is
        excluded; every other protocol/model cell must match exactly.
        """
        schedule = CHURN_AXIS[churn]
        service = QueryService(topology, values, seed=SEED, delay=delay,
                               churn=schedule)
        ids = _submit_mix(service)
        service.run()
        for (protocol, _, at, _), qid in zip(MIX, ids):
            if delay == "per_edge" and protocol == "gossip":
                continue
            outcome = service.poll(qid)
            solo = run_protocol(
                protocol_from_spec(outcome.protocol), topology, values,
                outcome.query.kind.value,
                querying_host=outcome.querying_host,
                seed=outcome.seed, d_hat=service.d_hat, delay=delay,
                churn=_as_seen_from(schedule, at), lane="python")
            assert solo.value == outcome.value, outcome.protocol
            assert (solo.costs.fingerprint()
                    == outcome.costs.fingerprint()), outcome.protocol
            # The solo run stops at its last event; it declares at T.
            assert (solo.finished_at <= solo.termination_time
                    == outcome.declared_at - outcome.submitted_at)
            # The row names the path: the gate's reasons in its order.
            if delay is not None:
                expected = ("python", "variable delay model")
            elif schedule.joins:
                expected = ("python", "join churn scheduled")
            elif protocol in ("allreport", "gossip"):
                expected = ("python", "unsupported protocol hosts or combiner")
            else:
                expected = ("vector", None)
            assert (outcome.lane_used,
                    outcome.fallback_reason) == expected, outcome.protocol

    def test_lone_session_trace_equals_the_solo_trace(
            self, topology, values):
        """One loop: a session launched at 0 produces the traced solo
        run's records, record for record, up to the query id and the
        service's own lifecycle records."""
        def masked(tracer):
            return [{**row, "query_id": 0} for row in tracer.records()
                    if row["type"] != "session"]

        # The failures-only cells run the traced tick lane (joins and a
        # variable delay send the other two to the spec loop), one of
        # them at a delta whose instants are not exact in binary.
        for protocol, delay, churn, delta, lane in (
                ("wildfire", None, "failures+joins", 1.0, "python"),
                ("dag2", "uniform", "failures+joins", 1.0, "python"),
                ("wildfire", None, "failures", 1.0, "vector"),
                ("spanning-tree", None, "failures", 1.0, "vector"),
                ("dag2", None, "failures", 0.3, "vector")):
            schedule = CHURN_AXIS[churn]
            mux_tracer = RingTracer(capacity=200_000, sampling={})
            service = QueryService(topology, values, seed=SEED, delay=delay,
                                   churn=schedule, delta=delta,
                                   tracer=mux_tracer)
            qid = service.submit(protocol, "count", at=0.0)
            # Bounded at the solo horizon: a drained service would go on
            # to record late deliveries and post-declaration churn.
            service.run(until=protocol_from_spec(protocol).termination_time(
                service.d_hat, service.delta))
            assert service.poll(qid).lane_used == lane
            solo_tracer = RingTracer(capacity=200_000, sampling={})
            run_protocol(
                protocol_from_spec(protocol), topology, values, "count",
                seed=service.poll(qid).seed, d_hat=service.d_hat,
                delay=delay, churn=schedule, delta=delta,
                tracer=solo_tracer, lane="python")
            records = masked(mux_tracer)
            assert records and records == masked(solo_tracer)

    def test_adding_a_tenant_does_not_perturb_existing_ones(
            self, topology, values):
        """Per-query streams mean more load never changes other answers:
        explicit seeds keep sessions comparable across services with
        different tenant counts."""
        base = QueryService(topology, values, seed=SEED)
        base_qid = base.submit("wildfire", "count", at=1.0, seed=12345)
        base.run()
        loaded = QueryService(topology, values, seed=SEED)
        loaded_qid = loaded.submit("wildfire", "count", at=1.0, seed=12345)
        for extra_seed in range(4):
            loaded.submit("wildfire", "count", at=0.5 * extra_seed,
                          querying_host=extra_seed + 1)
        loaded.run()
        assert (loaded.poll(loaded_qid).value
                == base.poll(base_qid).value)
        assert (loaded.poll(loaded_qid).costs.fingerprint()
                == base.poll(base_qid).costs.fingerprint())


class TestSessionsOnTheTickLane:
    """An admitted session runs on its own tick lane, stepped by the one
    event loop -- and stays what it was: its solo spec run."""

    #: Launch offsets: none, a dyadic one, and one that is not (a
    #: ``round(x, 9)``), so ``t0 + v`` rounds and query-local instants
    #: an ulp apart can collapse onto one engine instant.
    OFFSETS = (0.0, 0.5, 1.234567891)

    @staticmethod
    def _failure_cells(d_hat, delta):
        """Failure schedules on the query's own clock, one per way a
        FAIL can fall against the lane's instants (hosts by their BFS
        depth from querying host 0 in the fixture topology: 6, 18 and 31
        are its neighbors, 11 and 23 sit at depth 2)."""
        return {
            "none": [],
            "at the launch instant": [(0.0, 6)],
            "on an instant": [(3 * delta, 11)],  # tick 3, as the engine states it
            "off the grid": [(2.37 * delta, 23), (4.81 * delta, 31)],
            "after the flood died out": [((2.0 * d_hat - 0.25) * delta, 30)],
            "the querying host": [(1.5 * delta, 0)],
            "a tree parent between Broadcast and Report":
                [((d_hat + 0.5) * delta, 18)],
        }

    @pytest.mark.parametrize("delta", [1.0, 0.1, 0.3])
    @pytest.mark.parametrize("protocol",
                             ["wildfire", "spanning-tree", "dag2", "dag3"])
    def test_a_session_equals_its_solo_spec_run(
            self, topology, values, protocol, delta):
        """Value, cost fingerprint and declaration time of a tick-path
        session equal ``run_protocol(lane="python")`` on the churn as
        the session sees it, for every launch offset, every way a
        failure can fall against its instants, and with the shared-flood
        cache on (the duplicate subscribes on a quiet window, floods
        beside its twin otherwise) and off."""
        d_hat = QueryService(topology, values, seed=SEED).d_hat
        for cell, failures in self._failure_cells(d_hat, delta).items():
            local = ChurnSchedule(failures=failures)
            solo = None
            for at in self.OFFSETS:
                for sharing in (False, True):
                    service = QueryService(
                        topology, values, seed=SEED, delta=delta,
                        churn=_launched_at(local, at), share_floods=sharing)
                    ids = [service.submit(protocol, "count", at=at)
                           for _ in range(2)]
                    service.run()
                    where = (cell, at, sharing)
                    for qid in ids:
                        outcome = service.poll(qid)
                        if solo is None:
                            solo = run_protocol(
                                protocol_from_spec(protocol), topology,
                                values, "count", seed=outcome.seed,
                                d_hat=d_hat, delta=delta, churn=local,
                                lane="python")
                        assert outcome.lane_used == "vector", where
                        assert outcome.fallback_reason is None, where
                        assert outcome.value == solo.value, where
                        assert (outcome.costs.fingerprint()
                                == solo.costs.fingerprint()), where
                        assert (outcome.declared_at
                                == at + solo.termination_time), where
                    rode = service.poll(ids[1]).extra.get("cache_hit", False)
                    assert rode == (sharing and not failures), where

    def test_a_session_launched_after_a_failure_mirrors_the_dead_host(
            self, topology, values, monkeypatch):
        """Hosts 6 (a neighbor of querying host 0) and 23 fail before the
        session launches, so no hook tells its kernel: the WILDFIRE
        deadline mirror is built dead from the alive bitmap.  The row
        equals the solo spec run on a network where both are already
        dead."""
        built = []
        gate = service_engine.plan_run

        def recording_gate(*args, **kwargs):
            kernel, reason = gate(*args, **kwargs)
            built.append(kernel)
            return kernel, reason

        monkeypatch.setattr(service_engine, "plan_run", recording_gate)
        at = 2.0
        service = QueryService(
            topology, values, seed=SEED,
            churn=ChurnSchedule(failures=[(0.5, 6), (1.25, 23)]))
        qid = service.submit("wildfire", "count", at=at)
        service.run()
        outcome = service.poll(qid)
        [kernel] = built
        assert kernel.deadlines[6] == kernel.deadlines[23] == float("-inf")
        assert (outcome.lane_used, outcome.fallback_reason) == (
            "vector", None)

        prepared = prepare_protocol_run(
            protocol_from_spec("wildfire"), topology, values, "count",
            seed=outcome.seed, d_hat=service.d_hat)
        network = topology.to_network()
        network.fail_host(6, 0.0)
        network.fail_host(23, 0.0)
        solo = Simulator(
            network=network, hosts=prepared.hosts, querying_host=0,
            max_time=prepared.termination * 4 + 16, lane="python").run(
                until=prepared.termination)
        assert solo.lane_used == "python"
        assert _digest(outcome) == (
            solo.value, solo.costs.fingerprint(), at + prepared.termination)

    #: Sessions the gate refuses: what makes them unsupported, and the
    #: reason their row must carry.
    GATES = {
        "variable delay": (
            "variable delay model",
            dict(service=dict(delay="uniform:0.25,1.0"))),
        "join churn": (
            "join churn scheduled",
            dict(service=dict(churn=ChurnSchedule(
                failures=[(2.0, 4)], joins=[JoinSpec(3.0, (0, 1))])))),
        "pair-state combiner": (
            "unsupported protocol hosts or combiner",
            dict(submit=dict(query="avg"))),
        "ALLREPORT hosts": (
            "unsupported protocol hosts or combiner",
            dict(submit=dict(protocol="allreport"))),
        "gossip hosts": (
            "unsupported protocol hosts or combiner",
            dict(submit=dict(protocol="gossip"))),
        # The network outgrew the topology before the launch, so the
        # host table is padded with what the join factory builds.
        "a padded host table": (
            "unsupported protocol hosts or combiner",
            dict(grow=True)),
    }

    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_a_refused_session_keeps_the_spec_loop(
            self, topology, values, gate, pin_spec_loop):
        reason, setup = self.GATES[gate]

        def drive():
            service = QueryService(topology, values, seed=SEED,
                                   **setup.get("service", {}))
            if setup.get("grow"):
                service.engine.network.join_host([0, 1], 0.0)
            submit = {"protocol": "wildfire", "query": "count",
                      **setup.get("submit", {})}
            refused = service.submit(submit["protocol"], submit["query"],
                                     at=0.5)
            admitted = service.submit("spanning-tree", "count", at=0.5)
            service.run()
            return service.poll(refused), service.poll(admitted)

        refused, admitted = drive()
        assert (refused.lane_used, refused.fallback_reason) == (
            "python", reason)
        row = refused.as_row()
        assert (row["lane_used"], row["fallback_reason"]) == ("python", reason)
        # Nothing else forks: the tenant beside it is judged on its own
        # (a service-wide cause refuses it for the same reason).
        if "submit" in setup:
            assert (admitted.lane_used, admitted.fallback_reason) == (
                "vector", None)
        else:
            assert admitted.fallback_reason == reason
        # The refused session ran the spec loop it would have run with
        # every session pinned to it.
        pin_spec_loop()
        pinned_refused, pinned_admitted = drive()
        assert _digest(refused) == _digest(pinned_refused)
        assert _digest(admitted) == _digest(pinned_admitted)
        assert pinned_admitted.fallback_reason == "pinned to the spec loop"

    def test_sessions_that_never_launch_name_no_path(self, topology, values):
        from repro.service import AdmissionConfig

        churn = ChurnSchedule(failures=[(1.0, 9)])
        service = QueryService(
            topology, values, churn=churn, seed=SEED,
            admission=AdmissionConfig(policy="shed", max_active_sessions=1))
        dead = service.submit("wildfire", "min", at=5.0, querying_host=9)
        leader = service.submit("wildfire", "count", at=30.0)
        shed = service.submit("spanning-tree", "count", at=30.5)
        service.run()
        assert service.poll(leader).lane_used == "vector"
        for qid, status in ((dead, QueryStatus.FAILED),
                            (shed, QueryStatus.SHED)):
            outcome = service.poll(qid)
            assert outcome.status is status
            assert outcome.lane_used is None
            assert outcome.fallback_reason is None

    def test_sliced_drive_equals_one_drain_slice_by_slice(
            self, topology, values, pin_spec_loop):
        """``run(until=)`` in slices reads, at every boundary, the
        tallies the spec loop reads there -- engine-wide and per tenant
        -- and ends where one drain ends."""
        churn = ChurnSchedule(failures=[(2.0, 11), (3.5, 6), (7.0, 30)])

        def drive(sliced):
            service = QueryService(topology, values, seed=SEED, churn=churn)
            ids = [service.submit(protocol, "count", at=at, d_hat=d_hat)
                   for protocol, at, d_hat in (
                       ("wildfire", 0.0, None), ("spanning-tree", 0.5, None),
                       # Too small a D_hat: still flooding at its
                       # deadline, so some of it lands late.
                       ("wildfire", 1.25, 2), ("dag2", 1.25, None))]
            engine = service.engine
            snapshots = []
            horizon = 0.0
            while sliced and engine.pending_events():
                horizon += 1.5
                service.run(until=horizon)
                snapshots.append((
                    engine.messages_sent, engine.dropped_messages,
                    engine.late_messages, list(engine.retired_order),
                    [service.poll(qid).costs.messages_sent
                     if service.poll(qid).costs is not None else None
                     for qid in ids]))
            service.run()
            final = ([_digest(service.poll(qid)) for qid in ids],
                     engine.messages_sent, engine.dropped_messages,
                     engine.late_messages, dict(engine.late_by_query),
                     list(engine.retired_order))
            return snapshots, final, engine.events_processed

        lane_slices, lane_final, lane_events = drive(sliced=True)
        assert lane_slices and lane_final[3] > 0
        assert drive(sliced=False)[1] == lane_final
        pin_spec_loop()
        spec_slices, spec_final, spec_events = drive(sliced=True)
        assert lane_slices == spec_slices
        assert lane_final == spec_final
        # One calendar entry per session instant against one per message.
        assert lane_events * 10 < spec_events

    def test_mid_run_costs_read_what_the_spec_loop_reads(
            self, topology, values, pin_spec_loop):
        """Between two drains a tick-path session's sink holds every
        measure the spec loop's holds there -- receive counts, chain
        depth and wireless groups included, not only the sends."""
        churn = ChurnSchedule(failures=[(2.0, 11), (3.5, 6)])

        def drive():
            service = QueryService(topology, values, seed=SEED, churn=churn,
                                   wireless=True)
            ids = [service.submit(protocol, "count", at=at)
                   for protocol, at in (("wildfire", 0.0),
                                        ("spanning-tree", 0.5),
                                        ("dag2", 1.25))]
            seen = []
            for until in (2.0, 3.5, 5.0, 8.25):
                service.run(until=until)
                costs = [service.poll(qid).costs for qid in ids]
                seen.append([(c.fingerprint(), c.computation_cost,
                              c.time_cost, c.wireless_transmissions)
                             for c in costs])
            lanes = [service.poll(qid).lane_used for qid in ids]
            return seen, lanes

        lane_seen, lanes = drive()
        assert lanes == ["vector"] * 3
        # WILDFIRE's flood has reached hosts by the first boundary.
        assert lane_seen[0][0][1] > 0
        pin_spec_loop()
        spec_seen, lanes = drive()
        assert lanes == ["python"] * 3
        assert lane_seen == spec_seen

    @pytest.mark.parametrize("delta", [1.0, 0.3])
    def test_late_deliveries_land_when_they_would_have(
            self, topology, values, delta, pin_spec_loop):
        """With ``D_hat`` far too small a flood is still spreading at
        its deadline.  What a lane holds in flight then is tallied and
        traced as the spec loop tallies it -- per query the same
        records, ``("late", landing instant, dest, qid)`` included --
        and each tenant's own record sequence is the spec loop's."""
        at = 1.234567891
        churn = ChurnSchedule(failures=[(at + 1.5 * delta, 3),
                                        (at + 2.0 * delta, 9)])

        def drive():
            tracer = RingTracer(sampling={})
            service = QueryService(topology, values, seed=SEED, delta=delta,
                                   churn=churn, tracer=tracer)
            ids = [service.submit(protocol, "count", at=at, d_hat=1,
                                  querying_host=4)
                   for protocol in ("wildfire", "spanning-tree", "dag2")]
            ids.append(service.submit("wildfire", "min", at=at + 0.25,
                                      d_hat=2, querying_host=8))
            service.run()
            per_tenant = {qid: [] for qid in ids}
            for record in tracer.raw_records():
                if record[0] not in ("session", "fail"):
                    per_tenant[record[-1]].append(record)
            engine = service.engine
            return (per_tenant, engine.late_messages,
                    dict(engine.late_by_query),
                    [_digest(service.poll(qid)) for qid in ids],
                    {qid: service.poll(qid).termination for qid in ids})

        lanes = drive()
        per_tenant, late, late_by_query, _, termination = lanes
        assert late == sum(late_by_query.values()) > 0
        for qid, records in per_tenant.items():
            landed_late = [r for r in records if r[0] == "late"]
            assert len(landed_late) == late_by_query.get(qid, 0)
            assert all(r[1] > termination[qid] for r in landed_late)
        pin_spec_loop()
        assert drive() == lanes

    def test_queue_depth_per_tenant_at_every_query_start(
            self, monkeypatch, pin_spec_loop):
        """The admission signal: at each QUERY_START of an overload mix
        -- where the controller reads it -- a lane-held session weighs
        what its messages and timers weigh in the calendar."""
        from repro.experiments.query_mix import run_query_mix
        from repro.service import AdmissionConfig
        from repro.workloads.query_mix import adversarial_overload_mix

        seen = []
        real = service_engine.MuxEngine._on_query_start

        def recording(self, time, event, ctx):
            seen.append((time, event.data.qid, self.queue_depth_by_session()))
            real(self, time, event, ctx)

        monkeypatch.setattr(service_engine.MuxEngine, "_on_query_start",
                            recording)

        def drive():
            del seen[:]
            result = run_query_mix(
                num_hosts=80, topology="random", qps=2.0, duration=12.0,
                seed=11, departures=6,
                mix=adversarial_overload_mix(qps=2.0, duration=12.0),
                admission=AdmissionConfig(
                    policy="defer", max_queue_depth=600,
                    max_tenant_queue_depth=200, defer_retry=1.0,
                    defer_deadline=6.0))
            return list(seen), result["summary"]

        lane_depths, lane_summary = drive()
        assert any(depths for _, _, depths in lane_depths)
        assert lane_summary["deferrals"] > 0
        pin_spec_loop()
        spec_depths, spec_summary = drive()
        assert lane_depths == spec_depths
        for key in ("determinism_digest", "deferrals", "shed", "answered",
                    "retired_order", "messages_sent"):
            assert lane_summary[key] == spec_summary[key], key

    def test_batch_kernels_are_driven_from_one_function(self):
        """No second loop: the kernels' two entry points are called from
        ``_TickLane.step`` and nowhere else -- not from the service,
        which only files and pops that step's calendar entries."""
        import repro

        package = pathlib.Path(repro.__file__).parent
        callers = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and any(
                        isinstance(call, ast.Call)
                        and getattr(call.func, "attr", None)
                        in ("process_instant", "process_timer_bucket")
                        for call in ast.walk(node)):
                    callers.append(
                        f"{path.relative_to(package).as_posix()}:{node.name}")
        assert callers == ["simulation/vector_lane.py:step"]
        # And the service grew no way to ask for a path.
        import inspect

        from repro.experiments.query_mix import run_query_mix

        for callable_ in (QueryService.__init__, QueryService.submit,
                          run_query_mix):
            assert "lane" not in inspect.signature(callable_).parameters


class TestSharedSubstrate:
    def test_churn_hits_every_overlapping_session(self, topology, values):
        churn = uniform_failure_schedule(
            candidates=list(range(topology.num_hosts)), num_failures=10,
            start=0.5, end=10.0, seed=SEED, protect=[0, 5])
        service = QueryService(topology, values, churn=churn, seed=SEED)
        wf = service.submit("wildfire", "min", at=0.0, querying_host=0)
        tree = service.submit("spanning-tree", "count", at=2.0,
                              querying_host=5)
        report = service.run()
        assert report.answered == 2
        # The tree count can only miss hosts (best-effort under churn).
        assert 1.0 <= service.poll(tree).value <= float(topology.num_hosts)
        # WILDFIRE min stays Single-Site Valid on the shared substrate.
        from repro.semantics.oracle import Oracle

        oracle = Oracle(topology, values, 0)
        outcome = service.poll(wf)
        assert oracle.is_valid(outcome.value, "min", churn,
                               horizon=outcome.termination)

    def test_joins_extend_active_sessions(self, topology, values):
        churn = ChurnSchedule(joins=[JoinSpec(time=1.0, neighbors=(0, 3))])
        service = QueryService(topology, values, churn=churn, seed=SEED)
        early = service.submit("wildfire", "min", at=0.0)
        late = service.submit("wildfire", "min", at=5.0)
        service.run()
        # Both sessions completed on the grown network: the early one was
        # extended mid-flight, the late one padded its table at launch.
        assert service.poll(early).value == float(min(values))
        assert service.poll(late).value == float(min(values))
        assert service.engine.network.num_hosts == topology.num_hosts + 1

    def test_late_messages_are_counted_not_delivered(self, topology, values):
        """Traffic still in flight at the declaration instant is tallied
        per query and traced, and never wakes the retired session's
        protocol state."""
        from repro.protocols.base import Protocol
        from repro.simulation.host import ProtocolHost

        class LastWordHost(ProtocolHost):
            """Silent until the deadline, at which the querying host
            multicasts: every copy lands one ``delta`` too late."""

            __slots__ = ("deadline", "woken")

            def __init__(self, host_id, deadline):
                super().__init__(host_id, value=0.0)
                self.deadline = deadline
                self.woken = 0

            def on_query_start(self, ctx):
                ctx.set_timer(self.deadline, "last-word")

            def on_timer(self, name, data, ctx):
                assert ctx.now == self.deadline
                ctx.send_to_neighbors("last-word", {})

            def on_message(self, message, ctx):
                self.woken += 1

            def local_result(self):
                return 1.0

        class LastWord(Protocol):
            name = "last-word"

            def termination_time(self, d_hat, delta):
                return 2.0 * d_hat * delta

            def create_hosts(self, topology, values, querying_host, query,
                             combiner, d_hat, delta, rng):
                self.hosts = [
                    LastWordHost(host_id, self.termination_time(d_hat, delta))
                    for host_id in range(topology.num_hosts)]
                return self.hosts

        tracer = RingTracer(sampling={})
        service = QueryService(topology, values, seed=SEED, tracer=tracer)
        protocol = LastWord()
        qid = service.submit(protocol, "count", at=2.5, querying_host=4)
        bystander = service.submit("wildfire", "min", at=0.0)
        report = service.run()

        outcome = service.poll(qid)
        assert outcome.status is QueryStatus.DONE and outcome.value == 1.0
        neighbors = sorted(topology.adjacency[4])
        assert neighbors
        # Sent (and accounted to the query) at the deadline ...
        assert outcome.costs.messages_sent == len(neighbors)
        assert outcome.costs.messages_per_instant() == {
            outcome.termination: len(neighbors)}
        # ... tallied late on the engine, per query and in the trace ...
        engine = service.engine
        assert report.late_messages == engine.late_messages == len(neighbors)
        assert report.late_by_query == engine.late_by_query == {
            qid: len(neighbors)}
        landing = outcome.termination + service.delta
        assert [record for record in tracer.raw_records()
                if record[0] == "late"] == [
            ("late", landing, dest, qid) for dest in neighbors]
        # ... and never delivered: no host woke, nothing was processed.
        assert all(host.woken == 0 for host in protocol.hosts)
        assert outcome.costs.computation_cost == 0
        assert service.poll(bystander).value == float(min(values))

    def test_horizon_past_deadline_finalizes_without_later_events(
            self, topology, values):
        """A horizon-bounded drive must leave poll() accurate: a query
        whose deadline lies inside the horizon declares even when the
        only remaining queued events belong to a far-future tenant."""
        service = QueryService(topology, values, seed=SEED)
        near = service.submit("spanning-tree", "count", at=0.0)
        far = service.submit("spanning-tree", "count", at=500.0)
        service.run(until=100.0)
        outcome = service.poll(near)
        assert outcome.status is QueryStatus.DONE
        assert outcome.value == float(topology.num_hosts)
        assert service.poll(far).status is QueryStatus.PENDING
        # The finished session released its protocol state too.
        assert service.engine.active_sessions == 0
        service.run()
        assert service.poll(far).status is QueryStatus.DONE

    def test_incompatible_combiner_is_rejected_at_submit(
            self, topology, values):
        from repro.sketches.combiners import combiner_for_query

        service = QueryService(topology, values, seed=SEED)
        healthy = service.submit("wildfire", "count", at=0.0)
        with pytest.raises(ValueError):
            service.submit("wildfire", "count",
                           combiner=combiner_for_query("count", exact=True))
        service.run()
        assert service.poll(healthy).status is QueryStatus.DONE

    def test_a_session_that_cannot_launch_fails_alone(
            self, topology, values):
        """A launch-time blow-up (broken protocol object) must strand
        only its own tenant, never abort the shared drain."""
        from repro.protocols.wildfire import Wildfire

        class BrokenProtocol(Wildfire):
            name = "broken"

            def create_hosts(self, *args, **kwargs):
                raise RuntimeError("exploding host factory")

        service = QueryService(topology, values, seed=SEED)
        broken = service.submit(BrokenProtocol(), "count", at=1.0)
        healthy = service.submit("wildfire", "count", at=0.0)
        report = service.run()
        assert service.poll(broken).status is QueryStatus.FAILED
        assert "exploding" in service.poll(broken).extra["error"]
        assert service.poll(healthy).status is QueryStatus.DONE
        assert report.answered == 1

    def test_horizon_bounded_run_resumes(self, topology, values):
        service = QueryService(topology, values, seed=SEED)
        qid = service.submit("wildfire", "count", at=0.0)
        service.run(until=1.0)
        assert service.poll(qid).status is QueryStatus.RUNNING
        service.run()
        assert service.poll(qid).status is QueryStatus.DONE
        # A later run() continues where the bounded one stopped; the
        # result matches an unbounded single drive.
        reference = QueryService(topology, values, seed=SEED)
        ref_qid = reference.submit("wildfire", "count", at=0.0)
        reference.run()
        assert service.poll(qid).value == reference.poll(ref_qid).value
        assert (service.poll(qid).costs.fingerprint()
                == reference.poll(ref_qid).costs.fingerprint())
