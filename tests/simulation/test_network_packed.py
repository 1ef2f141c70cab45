"""Differential tests: the packed CSR network against the set-based spec.

:class:`~repro.simulation.network.DynamicNetwork` stores adjacency in
packed CSR arrays with an alive bitmap and a join-overflow table;
:class:`~repro.simulation.network_reference.ReferenceNetwork` is the
retained pre-rewrite set-based implementation.  These tests replay
hypothesis-generated churn/join sequences against both and require every
observable of the surface a run reads to agree at every step -- the
packed core must be *indistinguishable*, not merely equivalent on happy
paths.  They are the whole contract between the packed core and its spec.

The module also carries the calendar-queue fuzz for the join overflow
table (joins and departures interleaved through a real ``Simulator``
run).
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

    Operations are drawn as abstract choices and resolved against the
    evolving alive set, so every script is replayable on both
    implementations without hitting their validation errors.
    """
    n = draw(st.integers(min_value=2, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    edges = _random_edges(n, rng)
    num_ops = draw(st.integers(min_value=0, max_value=12))
    ops = []
    alive = list(range(n))
    next_id = n
    for step in range(num_ops):
        kind = draw(st.sampled_from(["fail", "join", "join", "fail"]))
        if kind == "fail" and len(alive) > 1:
            victim = draw(st.sampled_from(sorted(alive)))
            alive.remove(victim)
            ops.append(("fail", victim, float(step)))
        elif kind == "join" and alive:
            k = draw(st.integers(min_value=0, max_value=min(3, len(alive))))
            neighbors = draw(st.permutations(sorted(alive)))[:k]
            ops.append(("join", tuple(neighbors), float(step)))
            alive.append(next_id)
            next_id += 1
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


def _apply(networks, op):
    """Apply one scripted operation to every network; the new join ids."""
    if op[0] == "fail":
        for network in networks:
            network.fail_host(op[1], op[2])
        return None
    return [network.join_host(op[1], op[2]) for network in networks]


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
        def law(script):
            n, edges, ops = script
            packed, reference = _pair(n, edges)
            _assert_identical(packed, reference)
            for op in ops:
                new_ids = _apply((packed, reference), op)
                if new_ids is not None:
                    assert new_ids[0] == new_ids[1]
                _assert_identical(packed, reference)

        drawn(request, law, plain=120, wide=5, script=churn_scripts())

    def test_copies_stay_identical_and_independent(self, request):
        def law(script):
            n, edges, ops = script
            packed, reference = _pair(n, edges)
            for op in ops:
                _apply((packed, reference), op)
            clone = packed.copy()
            spec_clone = reference.copy()
            _assert_identical(clone, reference)
            _assert_identical(spec_clone, reference)
            # Mutating a clone must not leak into its original (the clones
            # share the immutable base CSR but nothing mutable).
            survivors = [h for h in range(clone.num_hosts)
                         if clone.is_alive(h)]
            if len(survivors) > 1:
                victim = survivors.pop()
                _apply((clone, spec_clone), ("fail", victim, 99.0))
                assert packed.is_alive(victim)
                _assert_identical(packed, reference)
                _assert_identical(clone, spec_clone)
            joined = _apply((clone, spec_clone), ("join", survivors[:2], 99.0))
            assert joined == [packed.num_hosts] * 2
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
            with pytest.raises(ValueError):
                network.fail_host(2, 2.0)       # double failure
            with pytest.raises(ValueError):
                network.join_host([2], 3.0)     # join at failed host
            with pytest.raises(ValueError):
                network.join_host([17], 3.0)    # unknown neighbor
        _assert_identical(packed, reference)


# ---------------------------------------------------------------------------
# Join-overflow fuzz through the calendar queue
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
    """Interleave joins and departures through one Simulator run.

    A CUSTOM probe fires between every pair of churn instants and
    snapshots the packed core, for the caller to check against a
    reference replayed from the schedule:

    * no alive-neighbor view ever yields a departed host;
    * a join's edges appear exactly at (not before) its scheduled tick;
    * the overflow table stays consistent with the reference adjacency.

    Returns the network, the reference, the scheduled churn as
    ``(tick, op)`` in drain order, the probe snapshots and the run's
    fail / join trace records.
    """
    from repro.obs.trace import RingTracer
    from repro.simulation.churn import ChurnSchedule, JoinSpec
    from repro.simulation.engine import Simulator
    from repro.simulation.events import EventKind

    rng = random.Random(seed)
    n = rng.randrange(8, 16)
    network, reference = _pair(n, _random_edges(n, rng))

    alive = list(range(n))
    next_id = n
    failures, joins = [], []
    scheduled = []
    for step in range(rng.randrange(4, 10)):
        tick = float(step + 1)
        ops = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5 and len(alive) > 2:
                victim = alive.pop(rng.randrange(1, len(alive)))
                failures.append((tick, victim))
                ops.append(("fail", victim, tick))
            else:
                k = rng.randrange(1, min(3, len(alive)) + 1)
                neighbors = tuple(sorted(rng.sample(alive, k)))
                joins.append(JoinSpec(time=tick, neighbors=neighbors))
                ops.append(("join", neighbors, tick))
                alive.append(next_id)
                next_id += 1
        # Within one instant the calendar drains JOIN before FAIL (the
        # engine's kind priorities), so expectations are ordered so too.
        scheduled.extend(sorted(ops, key=lambda op: op[0] != "join"))

    churn = ChurnSchedule(failures=failures, joins=joins)
    hosts = [_ProbeHost(h) for h in range(n)]
    tracer = RingTracer()
    simulator = Simulator(network=network, hosts=hosts, querying_host=0,
                          churn=churn, delay_model=delay, max_time=100.0,
                          tracer=tracer)

    observations = []

    def probe(sim, tick=None):
        observations.append((sim.clock.now, _observe(sim.network)))

    horizon = scheduled[-1][2] + 1.0
    for step in range(int(horizon) + 1):
        # +0.5 puts the probe strictly between churn instants; churn at
        # tick t must be visible at t + 0.5 and not at t - 0.5.
        simulator._queue.push(step + 0.5, EventKind.CUSTOM, data=probe)
    simulator.run(until=horizon)
    churn_records = [record for record in tracer.raw_records()
                     if record[0] in ("fail", "join")]
    return network, reference, scheduled, observations, churn_records


@pytest.mark.parametrize("delay", [None, "uniform:0.25,1.0", "per_edge"],
                         ids=["fixed", "uniform", "per_edge"])
@pytest.mark.parametrize("seed", range(6))
def test_join_overflow_fuzz_through_calendar_queue(seed, delay):
    from repro.simulation.delay import delay_model_from_spec

    model = delay_model_from_spec(delay, 1.0, seed=seed)
    network, reference, scheduled, observations, churn_records = _fuzz_run(
        seed, model)

    # Replay the schedule onto the reference implementation step by
    # step, checking each probe snapshot against it.
    cursor = 0
    for now, observed in observations:
        while cursor < len(scheduled) and scheduled[cursor][2] <= now:
            _apply((reference,), scheduled[cursor])
            cursor += 1
        ref_obs = _observe(reference)
        for key in ref_obs:
            assert observed[key] == ref_obs[key], (
                f"t={now}: packed core diverged from replayed reference "
                f"on {key}")
        # No view may ever contain a departed host.
        dead = [h for h, a in enumerate(observed["alive"]) if not a]
        for h, view in enumerate(observed["sorted_views"]):
            for d in dead:
                assert d not in view, (
                    f"t={now}: departed host {d} served in host {h}'s view")
    assert cursor == len(scheduled)

    # The run applied exactly the scheduled churn, at exactly its
    # scheduled ticks (joins appear at their tick, never earlier), and
    # handed the joined hosts consecutive ids past the initial ones.
    expected_records = []
    next_id = len(observations[0][1]["alive"])
    joined = []
    for kind, subject, tick in scheduled:
        if kind == "fail":
            expected_records.append(("fail", tick, subject))
        else:
            expected_records.append(("join", tick, next_id))
            joined.append((next_id, subject))
            next_id += 1
    assert churn_records == expected_records
    # And every join's edges are present (symmetrically) afterwards, for
    # neighbors that survived to the end.
    for host, neighbors in joined:
        for neighbor in neighbors:
            if network.is_alive(neighbor) and network.is_alive(host):
                assert network.has_alive_edge(host, neighbor)
                assert network.has_alive_edge(neighbor, host)
