"""Differential tests: the packed CSR network against the set-based spec.

:class:`~repro.simulation.network.DynamicNetwork` stores adjacency in
packed CSR arrays with an alive bitmap;
:class:`~repro.simulation.network_reference.ReferenceNetwork` is the
retained pre-rewrite set-based implementation.  These tests replay
hypothesis-generated failure and copy sequences against both and require
every observable of the surface a run reads to agree at every step --
the packed core must be *indistinguishable*, not merely equivalent on
happy paths.  They are the whole contract between the packed core and
its spec.

The module also carries the calendar-queue fuzz: departures drained
through a real ``Simulator`` run, with the network copied between them.
"""

import random

import pytest
from hypothesis import strategies as st

from repro.simulation.network import DynamicNetwork
from repro.simulation.network_reference import ReferenceNetwork
from tests.drawn import drawn


# ---------------------------------------------------------------------------
# Sequence generation
# ---------------------------------------------------------------------------

def _random_edges(n: int, rng: random.Random):
    """A connected-ish random symmetric edge list on ``n`` hosts."""
    edges = set()
    for host in range(1, n):
        other = rng.randrange(host)  # spanning tree: keeps things reachable
        edges.add((other, host))
    extra = rng.randrange(0, 2 * n)
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


@st.composite
def churn_scripts(draw):
    """(num_hosts, edge list, operations) with ops valid by construction.

    An operation fails a host still alive (resolved against the evolving
    alive set, so every script replays on both implementations without
    hitting their errors) or copies the network.
    """
    n = draw(st.integers(min_value=2, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    edges = _random_edges(n, rng)
    num_ops = draw(st.integers(min_value=0, max_value=12))
    ops = []
    alive = list(range(n))
    for step in range(num_ops):
        kind = draw(st.sampled_from(["fail", "fail", "copy"]))
        if kind == "copy":
            ops.append(("copy",))
        elif alive:
            victim = draw(st.sampled_from(alive))
            alive.remove(victim)
            ops.append(("fail", victim, float(step)))
    return n, edges, ops


def _from_edges(cls, n, edges):
    adjacency = [set() for _ in range(n)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return cls(adjacency)


def _pair(n, edges):
    """The packed core and its spec, built from one edge list."""
    return (_from_edges(DynamicNetwork, n, edges),
            _from_edges(ReferenceNetwork, n, edges))


def _fail(networks, host, time):
    """Fail ``host`` on every network."""
    for network in networks:
        network.fail_host(host, time)


def _observe(network):
    """Every observable of the kept surface, as one comparable structure."""
    n = network.num_hosts
    return {
        "num_hosts": n,
        "alive": [network.is_alive(h) for h in range(n)],
        "neighbors": [network.neighbors(h) for h in range(n)],
        "sorted_views": [network.alive_neighbors_sorted(h) for h in range(n)],
    }


def _assert_identical(packed, reference):
    obs_p, obs_r = _observe(packed), _observe(reference)
    for key in obs_r:
        assert obs_p[key] == obs_r[key], f"packed core diverged on {key}"
    n = packed.num_hosts
    # Pairwise edge predicate over every (a, b), failed hosts and one id
    # past the end included.
    for a in range(n):
        for b in range(n + 1):
            assert (packed.has_alive_edge(a, b)
                    == reference.has_alive_edge(a, b)), (a, b)


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_the_spec_has_the_packed_core_public_surface():
    """The protocol matrix swaps one class for the other under whole runs,
    so their public names must agree; only the sharded lane's
    ``partition_bounds`` is packed-only (it cuts the CSR offsets)."""
    assert _public(DynamicNetwork) - {"partition_bounds"} \
        == _public(ReferenceNetwork)


class TestDifferentialChurnReplay:
    def test_every_observable_matches_the_reference_at_every_step(
            self, request):
        """A copy op carries on from the copies; every left-behind
        original must still read as it did when it was copied, whatever
        the copies fail afterwards (they share its cached views)."""
        def law(script):
            n, edges, ops = script
            packed, reference = _pair(n, edges)
            _assert_identical(packed, reference)
            left_behind = []
            for op in ops:
                if op[0] == "copy":
                    left_behind.append((packed, _observe(reference)))
                    packed, reference = packed.copy(), reference.copy()
                else:
                    _fail((packed, reference), op[1], op[2])
                _assert_identical(packed, reference)
            for original, observed in left_behind:
                assert _observe(original) == observed

        drawn(request, law, plain=120, wide=5, script=churn_scripts())

    def test_copies_stay_identical_and_independent(self, request):
        def law(script):
            n, edges, ops = script
            packed, reference = _pair(n, edges)
            for op in ops:
                if op[0] == "fail":
                    _fail((packed, reference), op[1], op[2])
            clone = packed.copy()
            spec_clone = reference.copy()
            _assert_identical(clone, reference)
            _assert_identical(spec_clone, reference)
            # Failing a host on either side must not leak into the other
            # (the clones share the immutable base CSR and the cached
            # views, but nothing mutable).
            survivors = [h for h in range(n) if clone.is_alive(h)]
            if survivors:
                victim = survivors.pop()
                _fail((clone, spec_clone), victim, 99.0)
                assert packed.is_alive(victim)
                _assert_identical(packed, reference)
                _assert_identical(clone, spec_clone)
            if survivors:
                victim = survivors.pop()
                _fail((packed, reference), victim, 99.0)
                assert clone.is_alive(victim)
                _assert_identical(packed, reference)
                _assert_identical(clone, spec_clone)

        drawn(request, law, plain=40, wide=2, script=churn_scripts())

    def test_duplicate_trusted_input_rows_are_normalised_like_reference(self):
        # Every row passes through set(): a duplicated entry must not
        # reach the CSR buffers, or it would double-deliver multicasts.
        raw = [[1, 1, 2], (0, 2, 2), {0, 1}]
        packed = DynamicNetwork(raw)
        reference = ReferenceNetwork(raw)
        _assert_identical(packed, reference)
        assert packed.alive_neighbors_sorted(0) == (1, 2)
        assert packed.alive_neighbors_sorted(1) == (0, 2)

    def test_rejections_match_the_reference(self):
        packed, reference = _pair(3, [(0, 1), (1, 2)])
        for network in (packed, reference):
            network.fail_host(2, 1.0)
            with pytest.raises(ValueError, match="host 2 is already failed"):
                network.fail_host(2, 2.0)       # double failure
            clone = network.copy()
            with pytest.raises(ValueError, match="host 2 is already failed"):
                clone.fail_host(2, 2.0)         # ... seen by a copy too
            clone.fail_host(1, 2.0)
            with pytest.raises(ValueError, match="host 1 is already failed"):
                clone.fail_host(1, 3.0)
            network.fail_host(1, 3.0)           # the original never saw it
        _assert_identical(packed, reference)


# ---------------------------------------------------------------------------
# Failure fuzz through the calendar queue
# ---------------------------------------------------------------------------

class _ProbeHost:
    """Minimal inert protocol host (dict-based on purpose: tests may)."""

    def __init__(self, host_id, value=0.0):
        self.host_id = host_id
        self.value = value

    def on_query_start(self, ctx):
        pass

    def on_message(self, message, ctx):
        pass

    def on_timer(self, name, data, ctx):
        pass

    def on_fail(self, time):
        pass

    def local_result(self):
        return None


def _fuzz_run(seed: int, delay):
    """Drain a schedule of departures through one Simulator run.

    A CUSTOM probe fires between every pair of churn instants, snapshots
    the packed core and copies it, for the caller to check against a
    reference replayed from the schedule:

    * no alive-neighbor view ever yields a departed host;
    * a failure drops its edges exactly at (not before) its scheduled
      tick;
    * a copy taken mid-run keeps reading what it copied while the run
      fails further hosts on the original.

    Returns the reference, the scheduled failures as ``(tick, host)`` in
    drain order, the probe snapshots ``(now, observed, copy)`` and the
    run's fail trace records.
    """
    from repro.obs.trace import RingTracer
    from repro.simulation.churn import ChurnSchedule
    from repro.simulation.engine import Simulator
    from repro.simulation.events import EventKind

    rng = random.Random(seed)
    n = rng.randrange(8, 16)
    network, reference = _pair(n, _random_edges(n, rng))

    # Host 0 queries, so it stays; a tick may fail several hosts, which
    # the calendar drains in filing order.
    victims = rng.sample(range(1, n), rng.randrange(4, n - 1))
    failures = []
    for step in range(rng.randrange(4, 10)):
        for _ in range(rng.randrange(1, 3)):
            if victims:
                failures.append((float(step + 1), victims.pop()))

    churn = ChurnSchedule(failures=failures)
    hosts = [_ProbeHost(h) for h in range(n)]
    tracer = RingTracer()
    simulator = Simulator(network=network, hosts=hosts, querying_host=0,
                          churn=churn, delay_model=delay, max_time=100.0,
                          tracer=tracer)

    observations = []

    def probe(sim):
        observations.append(
            (sim.clock.now, _observe(sim.network), sim.network.copy()))

    horizon = failures[-1][0] + 1.0
    for step in range(int(horizon) + 1):
        # +0.5 puts the probe strictly between churn instants; churn at
        # tick t must be visible at t + 0.5 and not at t - 0.5.
        simulator._queue.push(step + 0.5, EventKind.CUSTOM, data=probe)
    simulator.run(until=horizon)
    churn_records = [record for record in tracer.raw_records()
                     if record[0] == "fail"]
    return reference, failures, observations, churn_records


@pytest.mark.parametrize("delay", [None, "uniform:0.25,1.0", "per_edge"],
                         ids=["fixed", "uniform", "per_edge"])
@pytest.mark.parametrize("seed", range(6))
def test_failure_fuzz_through_calendar_queue(seed, delay):
    from repro.simulation.delay import delay_model_from_spec

    model = delay_model_from_spec(delay, 1.0, seed=seed)
    reference, failures, observations, churn_records = _fuzz_run(seed, model)

    # Replay the schedule onto the reference implementation step by
    # step, checking each probe snapshot against it.
    cursor = 0
    for now, observed, _ in observations:
        while cursor < len(failures) and failures[cursor][0] <= now:
            tick, host = failures[cursor]
            _fail((reference,), host, tick)
            cursor += 1
        assert observed == _observe(reference), (
            f"t={now}: packed core diverged from replayed reference")
        # No view may ever contain a departed host.
        dead = [h for h, a in enumerate(observed["alive"]) if not a]
        for h, view in enumerate(observed["sorted_views"]):
            for d in dead:
                assert d not in view, (
                    f"t={now}: departed host {d} served in host {h}'s view")
    assert cursor == len(failures)
    # Each mid-run copy still reads its instant: the failures the run
    # applied to the original afterwards did not reach it.
    for now, observed, copy in observations:
        assert _observe(copy) == observed, f"copy taken at t={now} moved"

    # The run applied exactly the scheduled failures, at exactly their
    # scheduled ticks, in the schedule's order.
    assert churn_records == [("fail", tick, host) for tick, host in failures]
