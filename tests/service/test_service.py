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

    def test_lone_session_trace_equals_the_solo_trace(
            self, topology, values):
        """One loop: a session launched at 0 produces the traced solo
        run's records, record for record, up to the query id and the
        service's own lifecycle records."""
        def masked(tracer):
            return [{**row, "query_id": 0} for row in tracer.records()
                    if row["type"] != "session"]

        schedule = CHURN_AXIS["failures+joins"]
        for protocol, delay in (("wildfire", None), ("dag2", "uniform")):
            mux_tracer = RingTracer(capacity=200_000)
            service = QueryService(topology, values, seed=SEED, delay=delay,
                                   churn=schedule, tracer=mux_tracer)
            qid = service.submit(protocol, "count", at=0.0)
            # Bounded at the solo horizon: a drained service would go on
            # to record late deliveries and post-declaration churn.
            service.run(until=protocol_from_spec(protocol).termination_time(
                service.d_hat, service.delta))
            solo_tracer = RingTracer(capacity=200_000)
            run_protocol(
                protocol_from_spec(protocol), topology, values, "count",
                seed=service.poll(qid).seed, d_hat=service.d_hat,
                delay=delay, churn=schedule, tracer=solo_tracer,
                lane="python")
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
