"""Parametrized protocol x topology x churn invariant matrix.

Every registered aggregation protocol must, on every paper topology
family, with and without churn:

* terminate before the simulator's ``max_time`` backstop (the run loop
  stops at the protocol's nominal horizon, never at the runaway guard),
* declare a value at the querying host, and
* respect its validity semantics from :mod:`repro.semantics.validity`:
  WILDFIRE's exact duplicate-insensitive aggregates (min/max) are
  Single-Site Valid on any failure pattern sparing the querying host,
  and every best-effort protocol's exact count/sum answer is ``q(S)``
  for some host set ``S`` between {querying host} and the union bound
  ``H_U``.

This is the semantics lock on the batched kernel: any future fast path
that breaks delivery ordering, deadline handling, or churn processing
fails this matrix before it can corrupt an experiment.
"""

import pytest

from repro.protocols.allreport import AllReport
from repro.protocols.base import prepare_protocol_run, run_protocol
from repro.protocols.dag import DirectedAcyclicGraph
from repro.protocols.gossip import PushSumGossip
from repro.protocols.randomized_report import RandomizedReport
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.obs.trace import RingTracer
from repro.queries.query import AggregateQuery
from repro.semantics.oracle import Oracle, sketch_slack
from repro.semantics.validity import aggregate_over, stable_core, union_set
from repro.simulation.churn import ChurnSchedule, uniform_failure_schedule
from repro.simulation.engine import Simulator
from repro.topology.grid import grid_topology
from repro.topology.power_law import power_law_topology
from repro.topology.random_graph import random_topology
from repro.topology.primitives import ring_topology
from repro.workloads.values import uniform_values

SEED = 23

TOPOLOGIES = {
    "random": lambda: random_topology(36, avg_degree=3.0, seed=SEED),
    "grid": lambda: grid_topology(6),
    "power-law": lambda: power_law_topology(36, seed=SEED),
    "ring": lambda: ring_topology(20),
}

PROTOCOLS = {
    "wildfire": lambda: Wildfire(),
    "spanning-tree": lambda: SpanningTree(),
    "dag2": lambda: DirectedAcyclicGraph(num_parents=2),
    "allreport": lambda: AllReport(),
    "randomized-report": lambda: RandomizedReport(),
    "push-sum-gossip": lambda: PushSumGossip(),
}

#: Protocols whose count/sum answers are exact sub-aggregates (single-path
#: trees and report-style protocols).  WILDFIRE's count/sum use FM
#: estimates, push-sum converges to an approximation, and the DAG protocol
#: splits partial aggregates fractionally across parents (so its count is
#: approximate even on static networks) -- those are checked for sanity,
#: not exactness.
EXACT_SUBSET_PROTOCOLS = {"spanning-tree", "allreport"}


def _make_churn(topology, churned: bool):
    if not churned:
        return None
    return uniform_failure_schedule(
        candidates=list(range(topology.num_hosts)),
        num_failures=max(2, topology.num_hosts // 8),
        start=0.5,
        end=5.0,
        seed=SEED,
        protect=[0],
    )


@pytest.mark.parametrize("churned", [False, True], ids=["static", "churn"])
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_protocol_terminates_declares_and_respects_validity(
        protocol_name, topology_name, churned):
    topology = TOPOLOGIES[topology_name]()
    values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
    churn = _make_churn(topology, churned)
    protocol = PROTOCOLS[protocol_name]()
    query = "min" if protocol_name == "wildfire" else "count"

    result = run_protocol(protocol, topology, values, query,
                          querying_host=0, churn=churn, seed=SEED)

    # Termination: the run stopped at (or before) the protocol's nominal
    # horizon, far below the simulator's runaway backstop.
    backstop = result.termination_time * 4 + 16
    assert result.finished_at <= result.termination_time + 1e-9
    assert result.finished_at < backstop

    # Declaration: the querying host produced an answer.
    assert result.value is not None

    # Validity semantics.
    if protocol_name == "wildfire":
        oracle = Oracle(topology, values, 0)
        assert oracle.is_valid(
            result.value, query, churn or ChurnSchedule.empty(),
            horizon=result.termination_time,
        )
    elif protocol_name in EXACT_SUBSET_PROTOCOLS:
        # Best-effort exact count: q(S) for some S with
        # {querying host} <= S <= H_U, i.e. an integer in [1, |H_U|].
        union = union_set(topology, churn or ChurnSchedule.empty(),
                          horizon=result.termination_time)
        upper = aggregate_over("count", union, values)
        assert 1.0 <= result.value <= upper + 1e-9
        assert float(result.value).is_integer()
        if not churned and sketch_slack(protocol,
                                        AggregateQuery.of(query)) == 0.0:
            # A static network has one admissible host set, H_C = H_U = H,
            # so an answer granted no sketch slack is q(H) itself, at any
            # ``delta`` -- the bound above alone admits a run that lost
            # most of its Reports.
            for delta in (1.0, 0.1, 0.3):
                static = run_protocol(
                    PROTOCOLS[protocol_name](), topology, values, query,
                    querying_host=0, seed=SEED, delta=delta)
                assert static.value == upper, delta


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol_name",
                         sorted(EXACT_SUBSET_PROTOCOLS | {"wildfire"}))
def test_static_runs_answer_exactly(protocol_name, topology_name):
    """Without churn, exact protocols count every host; WILDFIRE's min
    equals the true minimum."""
    topology = TOPOLOGIES[topology_name]()
    values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
    protocol = PROTOCOLS[protocol_name]()
    if protocol_name == "wildfire":
        result = run_protocol(protocol, topology, values, "min",
                              querying_host=0, seed=SEED)
        assert result.value == float(min(values))
    else:
        result = run_protocol(protocol, topology, values, "count",
                              querying_host=0, seed=SEED)
        assert result.value == float(topology.num_hosts)


#: Variable-delay axis: realised per-hop delays in (0, delta] drawn from
#: each family the delay layer implements.  Protocol deadlines are
#: computed from the bound, so everything proven for the fixed worst case
#: must keep holding here.
DELAY_MODELS = ("uniform:0.25,1.0", "heavy_tail:1.2", "per_edge")


@pytest.mark.parametrize("delay", DELAY_MODELS)
@pytest.mark.parametrize("topology_name", ["grid", "random"])
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_protocols_terminate_and_declare_under_variable_delay(
        protocol_name, topology_name, delay):
    """All protocols still terminate before their nominal horizon and
    declare a value when message delays vary under the bound."""
    topology = TOPOLOGIES[topology_name]()
    values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
    protocol = PROTOCOLS[protocol_name]()
    query = "min" if protocol_name == "wildfire" else "count"

    result = run_protocol(protocol, topology, values, query,
                          querying_host=0, seed=SEED, delay=delay)

    assert result.finished_at <= result.termination_time + 1e-9
    assert result.value is not None
    if protocol_name == "wildfire":
        # Single-Site Validity on a static network: the exact minimum.
        assert result.value == float(min(values))
    elif protocol_name in EXACT_SUBSET_PROTOCOLS:
        # On a static network every host has a stable path, so the
        # best-effort exact protocols must still count everyone.
        assert result.value == float(topology.num_hosts)


@pytest.mark.parametrize("delay", DELAY_MODELS)
@pytest.mark.parametrize("protocol_name", ["spanning-tree", "dag2"])
def test_tree_and_dag_preserve_validity_under_variable_delay(
        protocol_name, delay):
    """Tree and DAG deadlines are computed from the delay *bound*, so on
    static networks their duplicate-insensitive min answer keeps
    Single-Site Validity under every realised delay model: each child's
    report still arrives by its parent's deadline."""
    for topology_name in ("random", "power-law"):
        topology = TOPOLOGIES[topology_name]()
        values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
        result = run_protocol(PROTOCOLS[protocol_name](), topology, values,
                              "min", querying_host=0, seed=SEED, delay=delay)
        assert result.value == float(min(values)), (
            f"{protocol_name} lost Single-Site Validity on "
            f"{topology_name} under {delay} delay"
        )


#: Failure axis through the calendar queue, with and without variable
#: realised delays.  ``None`` is the fixed-delay fast path (failures must
#: interleave correctly with batched ring slots); the model specs
#: exercise failures landing between arbitrary float-time deliveries.
_CALENDAR_DELAYS = [None, "uniform:0.25,1.0", "heavy_tail:1.2", "per_edge"]


def _run_with_failures(delay, failures):
    """One traced WILDFIRE min run over ``failures`` on the random graph."""
    topology = TOPOLOGIES["random"]()
    values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
    prepared = prepare_protocol_run(
        Wildfire(), topology, values, "min", querying_host=0, seed=SEED,
        delay=delay)
    churn = ChurnSchedule(failures=failures)
    network = topology.to_network()
    simulator = Simulator(
        network=network, hosts=prepared.hosts, querying_host=0,
        churn=churn, delay_model=prepared.delay_model,
        max_time=prepared.termination * 4 + 16, tracer=RingTracer(),
    )
    result = simulator.run(until=prepared.termination)
    return network, simulator, result, prepared.termination


@pytest.mark.parametrize("delay", _CALENDAR_DELAYS,
                         ids=["fixed" if d is None else d.split(":")[0]
                              for d in _CALENDAR_DELAYS])
class TestFailuresThroughCalendarQueue:
    def test_failures_are_applied_and_logged(self, delay):
        topology = TOPOLOGIES["random"]()
        values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
        failures = [(2.5, 7), (4.0, 19)]
        network, simulator, result, termination = _run_with_failures(
            delay, failures)
        # Both failures landed: the trace records them at their scheduled
        # instants, and neither host is left in any alive view.
        assert [record for record in simulator.tracer.raw_records()
                if record[0] == "fail"] == [("fail", 2.5, 7),
                                            ("fail", 4.0, 19)]
        assert network.num_hosts == len(values)
        for host in (7, 19):
            assert not network.is_alive(host)
            assert network.alive_neighbors_sorted(host) == ()
            for neighbor in topology.adjacency[host]:
                assert host not in network.alive_neighbors_sorted(neighbor)
        oracle = Oracle(topology, values, 0)
        assert oracle.is_valid(result.value, "min",
                               ChurnSchedule(failures=failures),
                               horizon=termination)

    def test_a_host_failed_at_the_launch_is_never_counted(self, delay):
        topology = TOPOLOGIES["random"]()
        values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
        smallest = min(range(1, len(values)), key=values.__getitem__)
        assert values[smallest] < values[0]
        failures = [(0.0, smallest)]
        _, _, result, _ = _run_with_failures(delay, failures)
        # The query starts before a failure filed at the same instant,
        # but nothing reaches the failed host before it goes: its value
        # never leaves it, and the rest of the network is static, so the
        # declared minimum is exactly the stable core's.
        core = stable_core(topology, ChurnSchedule(failures=failures), 0)
        assert smallest not in core
        assert result.value == aggregate_over("min", core, values)
        assert result.value > values[smallest]


#: Packed-vs-reference axis: the CSR network core against the retained
#: set-based reference implementation, one seeded run per protocol x
#: topology x churn x delay cell.  Event-for-event equality is asserted
#: through the declared value, the full cost-accounting fingerprint
#: (per-kind sends, per-instant histogram, computation histogram -- any
#: reordered or extra event changes it), and the declaration time.
_PACKED_AXIS_DELAYS = [None, "uniform:0.25,1.0"]


def _run_cell(protocol_name, topology_name, churned, delay, monkeypatch,
              reference: bool):
    from repro.simulation.network_reference import ReferenceNetwork

    topology = TOPOLOGIES[topology_name]()
    values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
    churn = _make_churn(topology, churned)
    protocol = PROTOCOLS[protocol_name]()
    query = "min" if protocol_name == "wildfire" else "count"
    if reference:
        # ``Topology.to_network`` resolves the class through its module
        # global, so this swaps the substrate under the whole run without
        # touching any other seam.
        monkeypatch.setattr("repro.topology.base.DynamicNetwork",
                            ReferenceNetwork)
    result = run_protocol(protocol, topology, values, query,
                          querying_host=0, churn=churn, seed=SEED,
                          delay=delay)
    return {
        "value": result.value,
        "cost_fingerprint": result.costs.fingerprint(),
        "declared_at": result.finished_at,
        "d_hat": result.d_hat,
        "termination": result.termination_time,
    }


@pytest.mark.parametrize("delay", _PACKED_AXIS_DELAYS,
                         ids=["fixed", "uniform"])
@pytest.mark.parametrize("churned", [False, True], ids=["static", "churn"])
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_packed_core_is_event_identical_to_reference_network(
        protocol_name, topology_name, churned, delay, monkeypatch):
    packed = _run_cell(protocol_name, topology_name, churned, delay,
                       monkeypatch, reference=False)
    reference = _run_cell(protocol_name, topology_name, churned, delay,
                          monkeypatch, reference=True)
    assert packed == reference, (
        f"packed CSR core diverged from the set-based reference on "
        f"{protocol_name}/{topology_name}/"
        f"{'churn' if churned else 'static'}/{delay or 'fixed'}"
    )


# ----------------------------------------------------------------------
# Kernel-lane differential: the vector lane (the default) must be event-
# identical to the executable-spec python loop on every cell it engages
# for -- WILDFIRE and the convergecast protocols -- same declared value,
# same full cost-accounting fingerprint, same declaration time.
# ----------------------------------------------------------------------
#: ``(protocol, delta)`` cells of the vector-lane axis.  The convergecast
#: protocols also run at a non-dyadic delta, where a report deadline
#: ``(2 * d_hat - depth) * delta`` must still be a delivery instant.
LANE_PROTOCOLS = {**PROTOCOLS,
                  "dag3": lambda: DirectedAcyclicGraph(num_parents=3)}
LANE_CELLS = [("wildfire", 1.0)] + [
    (name, delta) for name in ("spanning-tree", "dag2", "dag3")
    for delta in (1.0, 0.3)]


def _run_lane_cell(topology_name, query, churned, lane, shards=1,
                   protocol_name="wildfire", delta=1.0):
    topology = TOPOLOGIES[topology_name]()
    values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
    churn = _make_churn(topology, churned)
    result = run_protocol(LANE_PROTOCOLS[protocol_name](), topology, values,
                          query, querying_host=0, churn=churn, seed=SEED,
                          delta=delta, lane=lane, shards=shards)
    assert result.fallback_reason is None, (
        f"{lane} lane fell back: {result.fallback_reason}")
    return {
        "value": result.value,
        "cost_fingerprint": result.costs.fingerprint(),
        "declared_at": result.finished_at,
    }


@pytest.mark.parametrize("churned", [False, True], ids=["static", "churn"])
@pytest.mark.parametrize("query", ["min", "max", "count", "sum"])
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol_name,delta", LANE_CELLS)
def test_vector_lane_is_event_identical_to_spec_lane(
        protocol_name, delta, topology_name, query, churned):
    python = _run_lane_cell(topology_name, query, churned, "python",
                            protocol_name=protocol_name, delta=delta)
    vector = _run_lane_cell(topology_name, query, churned, "vector",
                            protocol_name=protocol_name, delta=delta)
    assert vector == python, (
        f"vector lane diverged from the spec loop on {protocol_name}/"
        f"delta={delta}/{topology_name}/{query}/"
        f"{'churn' if churned else 'static'}"
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("churned", [False, True], ids=["static", "churn"])
@pytest.mark.parametrize("query", ["min", "max", "count", "sum"])
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_sharded_lane_is_event_identical_to_spec_lane(
        topology_name, query, churned, shards):
    """The epoch-synchronous sharded lane must reproduce the spec loop
    event-for-event at every shard count -- K=1 exercises the epoch
    protocol in-process, K>1 adds the fork/pipe exchange on top."""
    python = _run_lane_cell(topology_name, query, churned, "python")
    result = _run_lane_cell(topology_name, query, churned, "sharded",
                            shards=shards)
    assert result == python, (
        f"sharded lane (K={shards}) diverged from the spec loop on "
        f"wildfire/{topology_name}/{query}/"
        f"{'churn' if churned else 'static'}"
    )


@pytest.mark.parametrize("delay", ["uniform:0.25,1.0", "heavy_tail:1.2"])
def test_wildfire_stays_oracle_valid_under_churn_and_variable_delay(delay):
    """WILDFIRE's Single-Site Validity claim is stated for any delay at
    most delta; the oracle must keep certifying it when churn and
    variable delay interact."""
    topology = TOPOLOGIES["random"]()
    values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
    churn = _make_churn(topology, True)
    result = run_protocol(Wildfire(), topology, values, "min",
                          querying_host=0, churn=churn, seed=SEED,
                          delay=delay)
    assert result.value is not None
    oracle = Oracle(topology, values, 0)
    assert oracle.is_valid(result.value, "min", churn,
                           horizon=result.termination_time)


@pytest.mark.parametrize("churned", [False, True], ids=["static", "churn"])
def test_wildfire_fm_count_estimates_are_sane_at_scale(churned):
    """The sketch-based count declares a positive, finite estimate whose
    set-level guarantee is anchored by the stable core."""
    topology = random_topology(64, avg_degree=3.0, seed=SEED)
    values = uniform_values(topology.num_hosts, low=1, high=50, seed=SEED)
    churn = _make_churn(topology, churned)
    result = run_protocol(Wildfire(), topology, values, "count",
                          querying_host=0, churn=churn, seed=SEED,
                          repetitions=16)
    assert result.value is not None
    assert 0.0 < result.value < float("inf")
