"""Cross-tenant shared-flood cache: compute one flood, answer many tenants.

The PR 4 benchmark showed the service's mix cost is dominated by
WILDFIRE floods that identical concurrent queries each pay again.  This
module is the sharing layer of ROADMAP item 4: sessions whose *derived
computation key* matches an in-flight computation **subscribe** to it
instead of flooding, forking only per-tenant accounting, clocks and
outcome records -- each subscriber's reported result stays bit-identical
to the run it would have executed alone.  The leader freezes what it
declared once -- value, cost summary, fingerprint and final sink -- and
a subscriber declares that record with a private copy of the sink, so
one flood is summarised and fingerprinted once however many tenants
ride it.

The correctness invariant, locked by ``tests/service/test_sharing_key.py``:

    two sessions may share a computation key **iff** their solo
    ``run_protocol`` executions declare bit-identical results
    (value and cost fingerprint).

The key therefore contains exactly the digest-relevant inputs of a run:

* protocol name and configuration, the full aggregate query (kind /
  attribute / epsilon / confidence -- the paper's predicate/value
  model), querying host;
* the combiner spec -- name, plus ``(repetitions, num_bits)`` only for
  the sketch-based combiners (exact combiners ignore both);
* the resolved stable-diameter overestimate ``d_hat`` and the canonical
  delay-model spec;
* the session seed, **only when the run consumes randomness** -- a
  stochastic combiner (FM sketches), a coin-flipping protocol, or a
  stochastic delay model.  A spanning-tree exact count under fixed
  delay declares the identical value with identical costs for every
  seed, so two such sessions share regardless of their seeds; folding
  the seed in unconditionally would break the *only-if* direction.

Subscription is additionally gated on the **network epoch**: the shared
answer is only bit-identical to the subscriber's own run when no churn
event falls inside the union of the leader's and the subscriber's
execution windows (results are launch-time-translation-invariant on a
quiet network; churn breaks the symmetry).  The gate is exact because
the service's churn schedule is fixed at construction.

Completed leaders additionally feed a small **recent-answer store**
(keyed by the same computation key) that the admission controller's
``degrade`` policy serves from, tagged with staleness.
"""

from __future__ import annotations

import bisect
import random
from collections import OrderedDict
from typing import Any, List, Optional, Tuple

from repro.protocols.base import Protocol
from repro.queries.query import AggregateQuery
from repro.simulation.churn import ChurnSchedule
from repro.simulation.delay import delay_model_from_spec
from repro.sketches.combiners import Combiner

__all__ = [
    "STOCHASTIC_PROTOCOLS",
    "SharedFloodCache",
    "canonical_delay_spec",
    "computation_key",
    "consensus_material",
    "consensus_seed",
    "delay_is_stochastic",
    "protocol_is_stochastic",
    "seed_sensitive",
]

#: Fallback classification for duck-typed protocol objects that lack the
#: ``Protocol.stochastic`` trait: names whose message schedule may consume
#: the run RNG under some configuration.  Repo protocols carry the trait
#: (configuration-aware: ALLREPORT at p = 1.0 is deterministic, at p < 1
#: it samples), so this set only decides for foreign objects.
STOCHASTIC_PROTOCOLS = frozenset({
    "allreport", "randomized-report", "push-sum-gossip",
})


def protocol_is_stochastic(protocol: Protocol) -> bool:
    """Whether the protocol's schedule consumes the run RNG."""
    flag = getattr(protocol, "stochastic", None)
    if flag is None:
        return protocol.name in STOCHASTIC_PROTOCOLS
    return bool(flag)


def _protocol_spec(protocol: Protocol) -> Tuple:
    """The protocol's digest-relevant identity: name plus configuration.

    Two same-name protocol objects configured differently (ALLREPORT at
    different report probabilities, gossip with different round counts)
    declare different results, so the configuration belongs in the key.
    """
    config = getattr(protocol, "config_spec", None)
    return (protocol.name,) + (tuple(config()) if config else ())


def canonical_delay_spec(delay: Any) -> Any:
    """One hashable token per distinct delay model configuration.

    ``None`` and ``"fixed"`` are the same model (the paper's exact-delta
    worst case); spec strings canonicalise to themselves; a ready-made
    model object is identified by identity -- the service shares one
    spec object across every session, so identity is exactly
    "same realised-delay configuration" there, and two *different*
    model objects are conservatively never key-equal.
    """
    if delay is None:
        return "fixed"
    if isinstance(delay, str):
        spec = delay.strip().lower()
        return spec or "fixed"
    return ("model", id(delay))


def delay_is_stochastic(delay: Any, delta: float = 1.0) -> bool:
    """Whether the delay spec samples randomness (seed-sensitive timing)."""
    if delay is None:
        return False
    if isinstance(delay, str):
        model = delay_model_from_spec(delay, float(delta), seed=0)
        return model is not None and model.stochastic
    return bool(getattr(delay, "stochastic", True))


def _combiner_spec(combiner: Combiner) -> Tuple:
    """The combiner's digest-relevant identity.

    Sketch shape parameters are folded in only for the sketch-based
    (stochastic) combiners: ``repetitions`` never reaches an exact
    combiner, so keying on it there would split shareable sessions.
    """
    if combiner.stochastic:
        return (combiner.name,
                getattr(combiner, "repetitions", None),
                getattr(combiner, "num_bits", None))
    return (combiner.name,)


def seed_sensitive(protocol: Protocol, combiner: Combiner,
                   delay_stochastic: bool) -> bool:
    """Whether a run's declared result can depend on its seed."""
    return (combiner.stochastic
            or protocol_is_stochastic(protocol)
            or delay_stochastic)


def consensus_material(protocol: Protocol, query: AggregateQuery,
                       querying_host: int, combiner: Combiner,
                       d_hat: int) -> Tuple:
    """The submission content :func:`consensus_seed` derives a seed from.

    Everything the computation key holds but the delay spec and the seed
    itself (see :func:`consensus_seed` for why the delay is left out), so
    two submissions with equal material get the same consensus seed and,
    on one service, the same key: the service derives both once per
    distinct material.
    """
    return (
        _protocol_spec(protocol),
        (query.kind.value, query.attribute, query.epsilon,
         query.confidence),
        querying_host,
        _combiner_spec(combiner),
        int(d_hat),
    )


def consensus_seed(service_seed, protocol: Protocol, query: AggregateQuery,
                   querying_host: int, combiner: Combiner,
                   d_hat: int) -> int:
    """The *content-derived* session seed (the submit-path default).

    Deriving seeds from the query's content rather than its session id
    is what the consensus-answers framing calls serving one best shared
    answer: two tenants submitting the same FM count draw the same
    sketch stream, declare the same estimate, and -- because the seed
    lands in both computation keys -- can share one flood, with results
    unchanged whether sharing is on or off.  Unlike the cache key, this
    derivation must be stable across processes and runs, so it uses no
    object identities;
    the delay spec is deliberately left out -- it cannot be stably
    tokenised when passed as a model object, and seed *collisions*
    between different-delay submissions are harmless (their cache keys
    still differ).

    The ``consensus-v2`` tag pins the derivation version.  Changing it
    re-draws every session's stochastic-delay latencies, and the
    mux-vs-solo equivalence under variable-delay models holds only when
    no session's absolute launch offset collides a ``(t0 + k) + d`` sum
    with a ``t0 + (k + d)`` one (the float-tie collapse
    ``test_multiplexed_query_matches_run_protocol`` documents for its
    gossip/per-edge carve-out) -- so any retag must clear that test's
    full delay matrix.
    """
    material = consensus_material(protocol, query, querying_host,
                                  combiner, d_hat)
    return random.Random(
        f"{service_seed}:consensus-v2:{material!r}").getrandbits(64)


def computation_key(
    protocol: Protocol,
    query: AggregateQuery,
    querying_host: int,
    combiner: Combiner,
    d_hat: int,
    delay: Any,
    seed: int,
    delay_stochastic: Optional[bool] = None,
) -> Tuple:
    """Derive one session's computation key (see the module invariant).

    ``combiner`` must be the resolved combiner the run will actually use
    (pass ``protocol.default_combiner(query, repetitions=...)`` when the
    submission did not name one); ``d_hat`` the resolved overestimate.
    """
    if delay_stochastic is None:
        delay_stochastic = delay_is_stochastic(delay)
    key: Tuple = (
        _protocol_spec(protocol),
        (query.kind.value, query.attribute, query.epsilon,
         query.confidence),
        querying_host,
        _combiner_spec(combiner),
        int(d_hat),
        canonical_delay_spec(delay),
    )
    if seed_sensitive(protocol, combiner, delay_stochastic):
        key += (("seed", seed),)
    return key


class SharedFloodCache:
    """In-flight computation registry plus the recent-answer store.

    Args:
        churn: the service's fixed churn schedule; its event times gate
            subscription (see :meth:`quiet_window`).
        subscribe: whether sessions may attach to in-flight computations
            (``False`` keeps only the recent-answer store alive, for an
            admission controller running the ``degrade`` policy with
            flood sharing off).
        recent_capacity: bound on the recent-answer store.
    """

    __slots__ = ("subscribe_enabled", "hits", "leads",
                 "_churn_times", "_inflight", "_recent",
                 "_recent_capacity")

    def __init__(self, churn: Optional[ChurnSchedule] = None,
                 subscribe: bool = True,
                 recent_capacity: int = 256) -> None:
        times: List[float] = []
        if churn is not None:
            times.extend(time for time, _ in churn.failures)
            times.extend(join.time for join in churn.joins)
        self._churn_times = sorted(times)
        self.subscribe_enabled = bool(subscribe)
        self.hits = 0
        self.leads = 0
        #: share key -> the leader session of the flood in flight.
        self._inflight: dict = {}
        self._recent: "OrderedDict[Tuple, Tuple[float, float, int]]" = (
            OrderedDict())
        self._recent_capacity = int(recent_capacity)

    # ------------------------------------------------------------------
    # In-flight sharing
    # ------------------------------------------------------------------
    def quiet_window(self, start: float, end: float) -> bool:
        """No churn event in ``[start, end]`` (endpoints included).

        Endpoint inclusion is deliberately conservative: a failure at
        the leader's exact launch instant is applied *after* the
        QUERY_START (FAIL has the lowest same-instant priority), so it
        is inside the leader's window but might not be inside a later
        subscriber's.
        """
        index = bisect.bisect_left(self._churn_times, start)
        return not (index < len(self._churn_times)
                    and self._churn_times[index] <= end)

    def try_subscribe(self, session, now: float):
        """The leader of the in-flight flood ``session`` may ride, if any."""
        key = session.share_key
        if not self.subscribe_enabled or key is None:
            return None
        leader = self._inflight.get(key)
        if leader is None:
            return None
        if not self.quiet_window(leader.t0, now + leader.termination):
            return None
        return leader

    def register(self, session) -> None:
        """Record a freshly launched session as a leader for its key."""
        if session.share_key is None:
            return
        self.leads += 1
        # A same-key leader can already be registered when subscription
        # is disabled, or when churn between the launches forced a fresh
        # flood; the newer computation reflects the newer network epoch.
        self._inflight[session.share_key] = session

    def on_retired(self, session) -> None:
        """Migrate a retiring leader's answer into the recent store."""
        key = session.share_key
        if key is None or session.extra.get("cache_hit"):
            return
        if self._inflight.get(key) is session:
            del self._inflight[key]
        if session.value is None or session.declared_at is None:
            return
        recent = self._recent
        recent[key] = (session.value, session.declared_at, session.qid)
        recent.move_to_end(key)
        while len(recent) > self._recent_capacity:
            recent.popitem(last=False)

    # ------------------------------------------------------------------
    # Recent-answer store (the degrade policy's source)
    # ------------------------------------------------------------------
    def recent_answer(self, key: Optional[Tuple], now: float,
                      max_staleness: float):
        """``(value, staleness, source qid)`` for ``key``, or ``None``.

        Only answers whose key matches exactly qualify (same invariant
        as subscription: a key match means the cached run *is* this
        query's run), and only within the staleness bound.
        """
        if key is None:
            return None
        entry = self._recent.get(key)
        if entry is None:
            return None
        value, declared_at, source = entry
        staleness = now - declared_at
        if staleness > max_staleness:
            return None
        return value, staleness, source

    @property
    def inflight_computations(self) -> int:
        return len(self._inflight)

    @property
    def recent_answers(self) -> int:
        return len(self._recent)

    @property
    def hit_rate(self) -> float:
        """Subscriptions per keyable launch-or-subscription."""
        total = self.hits + self.leads
        return self.hits / total if total else 0.0
