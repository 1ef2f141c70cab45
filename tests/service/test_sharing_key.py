"""The cache-correctness invariant of the shared-flood cache.

Two sessions may share a computation key **iff** their solo
:func:`~repro.protocols.base.run_protocol` executions declare
bit-identical results (value and cost fingerprint):

* **if** -- whenever two submissions derive the same key, their solo
  digests must match bit for bit, across protocols, aggregates,
  querying hosts, delay models and seeds (hypothesis sweeps the pair
  space).  This is the direction that makes subscription *sound*: a
  subscriber's reported answer is exactly the answer it would have
  computed alone.
* **only if** -- the key must not over-merge.  The delicate axis is the
  seed: a run that consumes randomness (an FM sketch combiner, a
  coin-flipping protocol, a stochastic delay model) folds its seed into
  the key, because different seeds produce different digests; a fully
  deterministic run leaves the seed out, because every seed produces
  the identical digest and splitting on it would defeat sharing.  Both
  halves are locked per dimension below (digest *values* of two
  structurally different runs can coincide by accident, so the only-if
  direction is exact per-axis, not pointwise).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocols.allreport import AllReport
from repro.protocols.base import protocol_from_spec, run_protocol
from repro.protocols.gossip import PushSumGossip
from repro.queries.query import AggregateQuery
from repro.service import QueryService
from repro.service.sharing import (canonical_delay_spec, computation_key,
                                   seed_sensitive)
from repro.topology.random_graph import random_topology
from repro.workloads.values import uniform_values
from tests.drawn import drawn

#: One fixed small network: the invariant quantifies over submissions,
#: not topologies (the key never contains the network -- both sessions
#: live on the same service substrate by construction).
TOPOLOGY = random_topology(40, avg_degree=4.0, seed=7)
VALUES = uniform_values(TOPOLOGY.num_hosts, low=1, high=50, seed=7)
D_HAT = TOPOLOGY.num_hosts

PROTOCOLS = ["wildfire", "spanning-tree", "dag2"]
AGGREGATES = ["count", "min", "max"]
HOSTS = [0, 9, 23]
DELAYS = [None, "uniform:0.25,1.0"]
SEEDS = [0, 1, 2]


def _resolve(protocol, aggregate):
    proto = protocol_from_spec(protocol)
    query = AggregateQuery.of(aggregate)
    return proto, query, proto.default_combiner(query, repetitions=8)


def _key(spec):
    proto, query, combiner = _resolve(spec["protocol"], spec["aggregate"])
    return computation_key(proto, query, spec["host"], combiner, D_HAT,
                           spec["delay"], spec["seed"])


def _solo_digest(spec):
    result = run_protocol(
        protocol_from_spec(spec["protocol"]), TOPOLOGY, VALUES,
        spec["aggregate"], querying_host=spec["host"],
        seed=spec["seed"], d_hat=D_HAT, delay=spec["delay"])
    return result.value, result.costs.fingerprint()


@st.composite
def submission_pairs(draw):
    """A random submission plus a second one mutated on one dimension.

    Mutating a single axis (or none) keeps key-equal pairs frequent --
    drawing two independent submissions would almost never collide, and
    the soundness direction would go untested.
    """
    base = {
        "protocol": draw(st.sampled_from(PROTOCOLS)),
        "aggregate": draw(st.sampled_from(AGGREGATES)),
        "host": draw(st.sampled_from(HOSTS)),
        "delay": draw(st.sampled_from(DELAYS)),
        "seed": draw(st.sampled_from(SEEDS)),
    }
    axis = draw(st.sampled_from(
        ["none", "seed", "host", "aggregate", "protocol", "delay"]))
    other = dict(base)
    if axis != "none":
        pool = {"seed": SEEDS, "host": HOSTS, "aggregate": AGGREGATES,
                "protocol": PROTOCOLS, "delay": DELAYS}[axis]
        other[axis] = draw(st.sampled_from(
            [choice for choice in pool if choice != base[axis]]))
    return base, other


@given(submission_pairs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_key_match_implies_bit_identical_solo_runs(pair):
    """Soundness: same key => same solo (value, cost fingerprint)."""
    first, second = pair
    if _key(first) == _key(second):
        assert _solo_digest(first) == _solo_digest(second)


#: Fully deterministic submissions: exact combiner (min/max are always
#: exact; spanning-tree count resolves exact), deterministic protocol,
#: fixed delay.  Their digests cannot depend on the seed.  ALLREPORT at
#: its default p = 1.0 belongs here: every host reports regardless of
#: its coin flips.
DETERMINISTIC = [
    ("wildfire", "min"),
    ("wildfire", "max"),
    ("spanning-tree", "count"),
    ("dag2", "min"),
    ("allreport", "count"),
]

#: Seed-consuming submissions, one per randomness source the key must
#: split on: an FM sketch combiner, a stochastic delay model, and a
#: protocol whose schedule flips coins (ALLREPORT with true sampling).
SEED_SENSITIVE = [
    ("wildfire", "count", None),
    ("spanning-tree", "count", "uniform:0.25,1.0"),
    (AllReport(report_probability=0.5), "count", None),
]


@pytest.mark.parametrize("protocol,aggregate", DETERMINISTIC)
def test_deterministic_runs_share_across_seeds(protocol, aggregate):
    """Only-if, seed axis: a seed-free digest means a seed-free key."""
    proto, query, combiner = _resolve(protocol, aggregate)
    assert not seed_sensitive(proto, combiner, delay_stochastic=False)
    specs = [{"protocol": protocol, "aggregate": aggregate, "host": 9,
              "delay": None, "seed": seed} for seed in (0, 1, 7)]
    keys = {_key(spec) for spec in specs}
    assert len(keys) == 1
    digests = {_solo_digest(spec) for spec in specs}
    assert len(digests) == 1


@pytest.mark.parametrize("protocol,aggregate,delay", SEED_SENSITIVE)
def test_seed_consuming_runs_never_share_across_seeds(
        protocol, aggregate, delay):
    """If, seed axis: a seed-dependent digest forces the seed into the
    key -- and the dependence is real (some seed pair disagrees)."""
    specs = [{"protocol": protocol, "aggregate": aggregate, "host": 9,
              "delay": delay, "seed": seed} for seed in range(6)]
    keys = [_key(spec) for spec in specs]
    assert len(set(keys)) == len(keys)
    # The split is justified: sharing across seeds would have merged
    # runs that declare different results.
    digests = {_solo_digest(spec) for spec in specs[:4]}
    assert len(digests) > 1


def test_protocol_configuration_splits_keys():
    """Same-name protocols configured differently never share: the key
    folds ``config_spec()`` in, and true sampling flips seed-sensitivity."""
    query = AggregateQuery.of("count")
    sampled, full = AllReport(report_probability=0.5), AllReport()
    combiner = full.default_combiner(query, repetitions=8)
    assert (computation_key(sampled, query, 0, combiner, D_HAT, None, 0)
            != computation_key(full, query, 0, combiner, D_HAT, None, 0))
    assert seed_sensitive(sampled, combiner, delay_stochastic=False)
    assert not seed_sensitive(full, combiner, delay_stochastic=False)
    brief, lengthy = PushSumGossip(num_rounds=30), PushSumGossip(num_rounds=60)
    combiner = brief.default_combiner(query, repetitions=8)
    assert (computation_key(brief, query, 0, combiner, D_HAT, None, 0)
            != computation_key(lengthy, query, 0, combiner, D_HAT, None, 0))


def test_delay_model_splits_keys():
    spec = {"protocol": "spanning-tree", "aggregate": "min", "host": 0,
            "seed": 0}
    fixed = _key({**spec, "delay": None})
    uniform = _key({**spec, "delay": "uniform:0.25,1.0"})
    assert fixed != uniform
    # ...but only the *model* matters, not the spelling: None and
    # "fixed" name the same delay configuration.
    assert canonical_delay_spec(None) == canonical_delay_spec(" Fixed ")
    assert fixed == _key({**spec, "delay": "fixed"})


def test_sketch_shape_splits_keys_only_for_sketch_combiners():
    proto, query, _ = _resolve("wildfire", "count")
    narrow = computation_key(proto, query, 0,
                             proto.default_combiner(query, repetitions=4),
                             D_HAT, None, 0)
    wide = computation_key(proto, query, 0,
                           proto.default_combiner(query, repetitions=16),
                           D_HAT, None, 0)
    assert narrow != wide
    # Exact combiners ignore repetitions, so the key does too.
    proto, query, _ = _resolve("spanning-tree", "sum")
    assert (computation_key(proto, query, 0,
                            proto.default_combiner(query, repetitions=4),
                            D_HAT, None, 0)
            == computation_key(proto, query, 0,
                               proto.default_combiner(query, repetitions=16),
                               D_HAT, None, 0))


@pytest.mark.parametrize("delay", [None, "uniform:0.25,1.0"])
def test_subscriber_outcome_is_bit_identical_to_its_solo_run(delay):
    """End to end: a cache hit reports exactly the solo digest.

    Two tenants submit the identical query inside one execution window;
    with sharing on the second subscribes (one flood), and *both*
    outcomes still match the solo run_protocol execution with the
    session's own seed -- the invariant the key construction exists for.
    """
    service = QueryService(TOPOLOGY, VALUES, seed=3, delay=delay,
                           share_floods=True)
    first = service.submit("wildfire", "count", querying_host=9, at=0.0)
    second = service.submit("wildfire", "count", querying_host=9, at=1.0)
    service.run()
    assert service.engine.sharing.hits == 1
    leader = service.poll(first)
    assert not leader.extra.get("cache_hit")
    assert service.poll(second).extra.get("cache_hit") is True
    for qid in (first, second):
        outcome = service.poll(qid)
        solo = run_protocol(
            protocol_from_spec("wildfire"), TOPOLOGY, VALUES, "count",
            querying_host=9, seed=outcome.seed, d_hat=service.d_hat,
            delay=delay)
        assert outcome.value == solo.value
        assert outcome.costs.fingerprint() == solo.costs.fingerprint()
    assert service.poll(second).extra["shared_with"] == first
    assert service.poll(second).value == leader.value


# ----------------------------------------------------------------------
# One declaration per flood, one seed and one key per distinct content
# ----------------------------------------------------------------------
def _outcome_digest(outcome):
    """What a tenant reads of a declared outcome; the declaration time
    relative to the launch."""
    return (outcome.value, dict(outcome.summary), outcome.fingerprint,
            outcome.declared_at - outcome.submitted_at)


def test_a_subscriber_declares_its_solo_run_and_its_leaders(request):
    """Two tenants ride one leader's flood: each subscriber's outcome is
    its solo ``run_protocol``'s and its leader's -- value, cost summary,
    fingerprint and declaration time after launch -- and its summary and
    fingerprint are those of its own sink.  Drawn a few times in tier-1,
    the named profile's count in CI."""
    def law(protocol, aggregate, host, delay, lags):
        service = QueryService(TOPOLOGY, VALUES, seed=3, delay=delay,
                               share_floods=True)
        leader = service.submit(protocol, aggregate, querying_host=host)
        riders = [service.submit(protocol, aggregate, querying_host=host,
                                 at=lag) for lag in lags]
        service.run()
        assert service.engine.sharing.hits == len(riders)
        lead = service.poll(leader)
        proto = protocol_from_spec(protocol)
        solo = run_protocol(proto, TOPOLOGY, VALUES, aggregate,
                            querying_host=host, seed=lead.seed,
                            d_hat=service.d_hat, delay=delay)
        # A solo run declares at its termination time T.
        want = (solo.value, solo.costs.summary(), solo.costs.fingerprint(),
                proto.termination_time(service.d_hat, 1.0))
        assert _outcome_digest(lead) == want
        for rider in riders:
            outcome = service.poll(rider)
            assert outcome.extra["shared_with"] == leader
            assert _outcome_digest(outcome) == want
            assert outcome.fingerprint == outcome.costs.fingerprint()
            assert dict(outcome.summary) == outcome.costs.summary()
            assert outcome.costs is not lead.costs

    drawn(request, law, plain=6, protocol=st.sampled_from(PROTOCOLS),
          aggregate=st.sampled_from(AGGREGATES + ["sum"]),
          host=st.sampled_from(HOSTS), delay=st.sampled_from(DELAYS),
          lags=st.lists(st.sampled_from([0.0, 0.5, 1.0, 4.0]), min_size=1,
                        max_size=3))


def test_a_subscribers_costs_are_a_private_copy():
    """Driving one subscriber's sink moves neither its leader's nor
    another subscriber's, and no outcome's frozen summary."""
    service = QueryService(TOPOLOGY, VALUES, seed=3, share_floods=True)
    qids = [service.submit("wildfire", "count", querying_host=9, at=at)
            for at in (0.0, 1.0, 2.0)]
    service.run()
    leader, first, second = (service.poll(qid) for qid in qids)
    assert not leader.extra.get("cache_hit")
    reading = [(o.costs.fingerprint(), o.costs.summary()) for o in
               (leader, first, second)]
    first.costs.record_send_batch("x", 1.0, 5)
    first.costs.record_processed(3, 99)
    first.costs.reserve(TOPOLOGY.num_hosts + 10)
    assert first.costs.fingerprint() != reading[1][0]
    for outcome, (fingerprint, summary) in zip((leader, second),
                                               reading[::2]):
        assert (outcome.costs.fingerprint(),
                outcome.costs.summary()) == (fingerprint, summary)
    assert first.fingerprint == leader.fingerprint == reading[0][0]
    assert dict(first.summary) == reading[0][1]
    with pytest.raises(TypeError):
        first.summary["communication_cost"] = 0


def test_one_seed_and_one_key_per_distinct_content(monkeypatch):
    """Identical submissions derive the consensus seed and the
    computation key once; a different host, kind, combiner shape or
    ``d_hat`` derives fresh ones, and a caller's own seed is its own
    content."""
    from repro.service import service as service_module

    calls = []
    for name in ("consensus_seed", "computation_key"):
        wrapped = getattr(service_module, name)
        monkeypatch.setattr(service_module, name, lambda *args, _f=wrapped,
                            _n=name, **kw: (calls.append(_n),
                                            _f(*args, **kw))[1])
    service = QueryService(TOPOLOGY, VALUES, seed=3, share_floods=True)

    def derived(**submission):
        calls.clear()
        qid = service.submit("wildfire", submission.pop("kind", "count"),
                             **submission)
        session = service._sessions[qid]
        return session.seed, session.share_key, sorted(calls)

    both = ["computation_key", "consensus_seed"]
    seed, key, made = derived(querying_host=9)
    assert made == both
    for at in (0.0, 2.0, 5.0):
        assert derived(querying_host=9, at=at) == (seed, key, [])
    fresh = [derived(querying_host=23), derived(kind="sum", querying_host=9),
             derived(querying_host=9, repetitions=16),
             derived(querying_host=9, d_hat=D_HAT + 1)]
    for other_seed, other_key, other_made in fresh:
        assert other_made == both
        assert other_seed != seed and other_key != key
    assert derived(querying_host=9, seed=seed) == (
        seed, key, ["computation_key"])
    assert derived(querying_host=9, seed=seed)[2] == []
    assert derived(querying_host=9, seed=seed + 1)[1] != key


def test_a_mix_fingerprints_each_flood_once_and_deep_copies_nothing(
        monkeypatch):
    """Through ``run_query_mix``, which ``repro serve`` runs: one
    ``fingerprint()`` per session that flooded (every subscriber reads
    its leader's), no ``copy.deepcopy``, and the determinism digest of
    the same mix with sharing off."""
    import copy

    from repro.experiments.query_mix import run_query_mix
    from repro.simulation.stats import CostAccounting
    from repro.workloads.query_mix import duplicate_heavy_mix

    mix = duplicate_heavy_mix(qps=6, duration=4)
    unshared = run_query_mix(num_hosts=60, topology="random", mix=mix,
                             seed=2)["summary"]["determinism_digest"]
    fingerprints = []
    fingerprint = CostAccounting.fingerprint
    monkeypatch.setattr(CostAccounting, "fingerprint", lambda self: (
        fingerprints.append(self), fingerprint(self))[1])
    monkeypatch.setattr(copy, "deepcopy", None)
    result = run_query_mix(num_hosts=60, topology="random", mix=mix, seed=2,
                           share_floods=True)
    floods = [row for row in result["rows"] if not row.get("cache_hit")]
    assert result["summary"]["cache_hits"] > len(floods) / 2
    assert len(fingerprints) == len(floods)
    assert result["summary"]["determinism_digest"] == unshared
