"""Tests for the pluggable link-delay models.

The load-bearing invariants:

* every sample of every model lies in ``(0, bound]`` (the network model's
  contract; protocol validity proofs assume it) -- property-tested with
  hypothesis across models, bounds, endpoints and times;
* the ``fixed`` spec resolves to the engine's fast path and replays the
  pre-delay-model kernel bit-identically (differential tests below plus
  the golden snapshot suite);
* per-edge latencies are deterministic, symmetric, and independent of
  traffic order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.delay import (
    DELAY_MODELS,
    DelayModel,
    FixedDelay,
    HeavyTailDelay,
    PerEdgeDelay,
    UniformDelay,
    delay_model_from_spec,
)


def _models(bound: float, seed: int):
    return [
        FixedDelay(bound),
        UniformDelay(bound, seed=seed),
        UniformDelay(bound, lo=0.01, hi=0.02, seed=seed),
        PerEdgeDelay(bound, seed=seed),
        PerEdgeDelay(bound, lo=0.5, hi=1.0, seed=seed),
        HeavyTailDelay(bound, seed=seed),
        HeavyTailDelay(bound, alpha=0.4, xm=0.01, seed=seed),
        HeavyTailDelay(bound, alpha=5.0, xm=0.9, seed=seed),
    ]


class TestSampleRange:
    @settings(max_examples=200, deadline=None)
    @given(
        bound=st.floats(min_value=1e-6, max_value=1e6,
                        allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**32),
        sender=st.integers(min_value=0, max_value=10**6),
        dest=st.integers(min_value=0, max_value=10**6),
        now=st.floats(min_value=0.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False),
    )
    def test_every_model_samples_in_half_open_bound_interval(
            self, bound, seed, sender, dest, now):
        """Every DelayModel sample lies in (0, delta]."""
        for model in _models(bound, seed):
            for _ in range(3):
                delay = model.sample(sender, dest, now)
                assert 0.0 < delay <= bound, (
                    f"{type(model).__name__} sampled {delay} outside "
                    f"(0, {bound}]"
                )

    def test_fixed_always_returns_the_bound(self):
        model = FixedDelay(2.5)
        assert all(model.sample(a, b, t) == 2.5
                   for a in (0, 7) for b in (1, 9) for t in (0.0, 3.3))

    def test_heavy_tail_is_heavy(self):
        """Most samples are far below the bound, but the tail reaches it."""
        model = HeavyTailDelay(1.0, alpha=1.2, xm=0.05, seed=1)
        samples = [model.sample(0, 1, 0.0) for _ in range(2000)]
        assert sorted(samples)[len(samples) // 2] < 0.25  # median is small
        assert max(samples) > 0.5                          # tail is long


class TestDeterminism:
    def test_reseed_replays_the_stream(self):
        for make in (UniformDelay, HeavyTailDelay):
            model = make(1.0, seed=5)
            first = [model.sample(0, 1, 0.0) for _ in range(10)]
            model.reseed(5)
            assert [model.sample(0, 1, 0.0) for _ in range(10)] == first

    def test_per_edge_is_symmetric_and_traffic_order_independent(self):
        model = PerEdgeDelay(1.0, seed=3)
        forward = model.sample(2, 9, 0.0)
        assert model.sample(9, 2, 5.0) == forward  # both directions share it
        # A fresh model queried in a different order gives the same map.
        other = PerEdgeDelay(1.0, seed=3)
        other.sample(4, 4000, 0.0)
        assert other.sample(2, 9, 1.0) == forward

    def test_per_edge_reseed_changes_the_map(self):
        model = PerEdgeDelay(1.0, seed=3)
        before = model.sample(0, 1, 0.0)
        model.reseed(4)
        assert model.sample(0, 1, 0.0) != before


class TestSpecParsing:
    def test_fixed_and_none_resolve_to_fast_path(self):
        assert delay_model_from_spec(None, 1.0) is None
        assert delay_model_from_spec("fixed", 1.0) is None
        assert delay_model_from_spec(FixedDelay(1.0), 1.0) is None

    def test_spec_strings_build_models_with_arguments(self):
        model = delay_model_from_spec("uniform:0.5,0.75", 2.0, seed=7)
        assert isinstance(model, UniformDelay)
        assert (model.lo, model.hi, model.bound) == (0.5, 0.75, 2.0)
        tail = delay_model_from_spec("heavy_tail:1.5,0.1", 1.0)
        assert isinstance(tail, HeavyTailDelay)
        assert (tail.alpha, tail.xm) == (1.5, 0.1)
        assert isinstance(delay_model_from_spec("per_edge", 1.0), PerEdgeDelay)

    def test_model_instances_pass_through_with_matching_bound(self):
        model = UniformDelay(3.0)
        assert delay_model_from_spec(model, 3.0) is model
        with pytest.raises(ValueError):
            delay_model_from_spec(model, 1.0)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            delay_model_from_spec("warp", 1.0)
        with pytest.raises(ValueError):
            delay_model_from_spec("uniform:zero,one", 1.0)
        with pytest.raises(ValueError):
            delay_model_from_spec("uniform:0.1,0.2,5", 1.0)  # arg overflow
        with pytest.raises(ValueError):
            delay_model_from_spec("uniform:0.9,0.1", 1.0)  # lo > hi
        with pytest.raises(ValueError):
            UniformDelay(1.0, lo=0.0)                      # zero delay
        with pytest.raises(ValueError):
            HeavyTailDelay(1.0, alpha=-1.0)
        with pytest.raises(ValueError):
            FixedDelay(0.0)

    def test_registry_covers_the_documented_models(self):
        assert set(DELAY_MODELS) == {"fixed", "uniform", "per_edge",
                                     "heavy_tail"}


class TestFixedDelayDifferential:
    """``fixed`` must replay the fixed-delay kernel identically."""

    def _full_run(self, delay):
        from repro.protocols.base import run_protocol
        from repro.protocols.wildfire import Wildfire
        from repro.simulation.churn import uniform_failure_schedule
        from repro.topology.random_graph import random_topology

        topology = random_topology(40, seed=11)
        values = [float(i % 9 + 1) for i in range(40)]
        churn = uniform_failure_schedule(
            candidates=list(range(40)), num_failures=4,
            start=0.5, end=5.0, seed=11, protect=[0])
        return run_protocol(Wildfire(), topology, values, "min",
                            querying_host=0, churn=churn, seed=11,
                            delay=delay)

    @staticmethod
    def _fingerprint(result):
        costs = result.costs
        return (
            result.value, result.finished_at,
            costs.messages_sent, costs.dropped_messages,
            costs.max_chain_depth,
            sorted(costs.messages_processed.items()),
            sorted(costs.messages_by_time.items()),
            sorted(costs.messages_by_kind.items()),
        )

    def test_fixed_spec_matches_default_run_exactly(self):
        baseline = self._fingerprint(self._full_run(None))
        assert self._fingerprint(self._full_run("fixed")) == baseline
        assert self._fingerprint(
            self._full_run(FixedDelay(1.0))) == baseline

    def test_degenerate_uniform_matches_fixed_event_for_event(self):
        """uniform(1, 1) realises exactly the bound for every message, so a
        randomness-free query must replay the fixed-delay run exactly --
        the strongest end-to-end check that the variable-delay scheduling
        path orders events like the fixed fast path."""
        baseline = self._fingerprint(self._full_run(None))
        degenerate = self._fingerprint(self._full_run("uniform:1.0,1.0"))
        assert degenerate == baseline

    def test_delay_models_do_not_consume_protocol_randomness(self):
        """Stochastic delay models draw from their own seed-derived
        stream, so at one seed every delay column shares the hosts' FM
        sketch coins: a static WILDFIRE count -- whose sketches fully
        converge regardless of timing -- must declare the *same* estimate
        under fixed and variable delay (column differences in a sweep are
        then attributable to timing alone)."""
        from repro.protocols.base import run_protocol
        from repro.protocols.wildfire import Wildfire
        from repro.topology.random_graph import random_topology

        topology = random_topology(100, avg_degree=6.0, seed=7)
        values = [1.0] * 100
        declared = {
            delay: run_protocol(Wildfire(), topology, values, "count",
                                seed=1, delay=delay).value
            for delay in (None, "uniform:0.25,1.0", "heavy_tail:1.2")
        }
        assert len(set(declared.values())) == 1, declared


class TestCalendarQueueFuzz:
    """The calendar generalisation must keep the (time, priority, seq)
    total order for arbitrary float timestamps (the variable-delay
    regime) and for every calendar width."""

    def test_fuzz_random_float_times_match_reference_heap(self):
        import heapq
        import itertools

        from repro.simulation.events import (
            EventKind, EventQueue, _KIND_PRIORITY)
        from repro.simulation.messages import Message
        from tests.simulation.test_events import _expected, _popped

        rng = random.Random(20260730)
        kinds = list(_KIND_PRIORITY)
        for width in (0.125, 0.5, 1.0, 3.0, 100.0):
            for _ in range(10):
                queue = EventQueue(width=width)
                reference = []
                counter = itertools.count()
                labels = iter(range(100_000))
                for _ in range(rng.randrange(10, 120)):
                    # Mix unique float times with exact repeats.
                    if rng.random() < 0.3:
                        time = rng.choice([0.0, 1.0, 2.0, 2.5])
                    else:
                        time = rng.random() * 8.0
                    kind = rng.choice(kinds)
                    label = next(labels)
                    if kind is EventKind.DELIVER:
                        queue.push_deliver(time, Message(label, 0, "k", {}))
                    elif kind is EventKind.TIMER:
                        queue.push_timer(time, label, "t", None)
                    else:
                        queue.push(time, kind, host=label)
                    heapq.heappush(
                        reference,
                        (time, _KIND_PRIORITY[kind], next(counter), label))
                    if rng.random() < 0.3 and queue:
                        assert _popped(queue) == _expected(reference)
                while queue:
                    assert _popped(queue) == _expected(reference)
                assert not reference

    def test_width_does_not_change_drain_order(self):
        from repro.simulation.events import EventQueue

        rng = random.Random(99)
        pushes = [(rng.random() * 10.0, i) for i in range(300)]
        orders = []
        for width in (0.01, 1.0, 50.0):
            queue = EventQueue(width=width)
            for time, label in pushes:
                queue.push_timer(time, label, "t", None)
            orders.append([queue.pop_due(None)[1][0] for _ in pushes])
            assert not queue
        assert orders[0] == orders[1] == orders[2]

    def test_width_must_be_positive(self):
        from repro.simulation.events import EventQueue

        with pytest.raises(ValueError):
            EventQueue(width=0.0)
