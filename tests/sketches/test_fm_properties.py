"""Property-based tests for the FM sketch algebra.

The WILDFIRE correctness argument rests on the combine function being a
semilattice operation (idempotent, commutative, associative) so that folding
the same partial aggregate in any order, any number of times, cannot change
the result.  These properties are exercised with hypothesis.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semantics.metrics import relative_error
from repro.sketches.fm import FMSketch, _sample_packed_element, sampling_mode


def sketches(repetitions=4, num_bits=16):
    """Strategy producing FM sketches with fixed shape."""
    vector = st.integers(min_value=0, max_value=(1 << num_bits) - 1)
    return st.builds(
        lambda vs: FMSketch(vectors=tuple(vs), num_bits=num_bits),
        st.lists(vector, min_size=repetitions, max_size=repetitions),
    )


@given(sketches())
@settings(max_examples=80)
def test_merge_idempotent(sketch):
    assert sketch.merge(sketch) == sketch


@given(sketches(), sketches())
@settings(max_examples=80)
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(sketches(), sketches(), sketches())
@settings(max_examples=80)
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(sketches(), sketches())
@settings(max_examples=80)
def test_merge_monotone_estimate(a, b):
    """Merging can never lower the estimate (bits are only ever added)."""
    merged = a.merge(b)
    assert merged.estimate() >= a.estimate() - 1e-9
    assert merged.estimate() >= b.estimate() - 1e-9


@given(sketches())
@settings(max_examples=80)
def test_empty_is_identity(sketch):
    empty = FMSketch.empty(sketch.repetitions, num_bits=sketch.num_bits)
    assert sketch.merge(empty) == sketch


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40)
def test_for_value_bit_count_bounded_by_value(value, seed):
    """A sketch for value v can set at most v bits per vector."""
    rng = random.Random(seed)
    sketch = FMSketch.for_value(value, 3, rng)
    for vector in sketch.vectors:
        assert bin(vector).count("1") <= max(value, 0) or value == 0
    if value == 0:
        assert sketch.is_empty()


@given(sketches(), sketches(), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["fast", "legacy"]))
@settings(max_examples=60)
def test_insert_then_merge_equals_merge_then_insert(a, b, seed, mode):
    """Inserting an element before or after a merge yields the same sketch.

    The element's coin tosses are replayed from the same seed on both
    sides, so this pins the semilattice interaction of ``for_new_element``
    with ``merge`` for both sampling modes.
    """
    with sampling_mode(mode):
        element_before = FMSketch.for_new_element(
            a.repetitions, random.Random(seed), num_bits=a.num_bits)
        element_after = FMSketch.for_new_element(
            a.repetitions, random.Random(seed), num_bits=a.num_bits)
    assert element_before == element_after
    insert_then_merge = a.merge(element_before).merge(b)
    merge_then_insert = a.merge(b).merge(element_after)
    assert insert_then_merge == merge_then_insert


@given(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]),
                 st.integers(min_value=0, max_value=600)),
       st.one_of(st.integers(min_value=1, max_value=34), st.just(64)),
       st.sampled_from([1, 2, 8, 31, 32, 33]),
       st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["fast", "legacy"]))
@settings(max_examples=150, deadline=None)
def test_for_value_equals_repeated_single_inserts(value, repetitions,
                                                  num_bits, seed, mode):
    """A sum sketch for v equals v single-element inserts from one stream.

    In each sampling mode, ``for_value`` must be exactly the OR of ``v``
    single-element sketches drawn from the same RNG stream -- the block
    sampler cannot change what the sketch *is*, only how it is built --
    and must leave the generator where the element loop leaves it, for
    every shape: a last word the generator truncates, a draw stride below
    and above the sketch width, whole and partial blocks.
    """
    with sampling_mode(mode):
        bulk_rng = random.Random(seed)
        bulk = FMSketch.for_value(value, repetitions, bulk_rng,
                                  num_bits=num_bits)
        rng = random.Random(seed)
        incremental = FMSketch.empty(repetitions, num_bits=num_bits)
        for _ in range(value):
            incremental = incremental.merge(
                FMSketch.for_new_element(repetitions, rng, num_bits=num_bits))
    assert bulk == incremental
    assert bulk_rng.getstate() == rng.getstate()


@pytest.mark.parametrize("mode", ["fast", "legacy"])
@pytest.mark.parametrize("repetitions,error_budget", [(8, 0.65), (16, 0.45),
                                                      (64, 0.25)])
def test_expected_relative_error_within_c_dependent_bound(mode, repetitions,
                                                          error_budget):
    """Mean relative error over seeded trials obeys the c-dependent bound.

    Section 5.2 trades accuracy for repetitions ``c``: the standard FM
    analysis puts the standard error of the estimate near ``0.78/sqrt(c)``.
    The budgets here are that figure plus generous slack (bias included),
    checked as the *mean* over fixed seeded trials so the test is
    deterministic, and must shrink as ``c`` grows.
    """
    truth = 512
    trials = 30
    with sampling_mode(mode):
        errors = []
        for trial in range(trials):
            rng = random.Random(10_000 * repetitions + trial)
            sketch = FMSketch.for_value(truth, repetitions, rng)
            errors.append(relative_error(sketch.estimate(), truth))
    mean_error = sum(errors) / len(errors)
    assert mean_error <= error_budget, (
        f"mean relative error {mean_error:.3f} over {trials} trials exceeds "
        f"the c={repetitions} budget {error_budget} "
        f"(~0.78/sqrt(c)={0.78 / math.sqrt(repetitions):.3f} + slack)"
    )


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=30),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=30)
def test_order_of_merging_does_not_matter(values, seed):
    """Folding host sketches in any order yields the same final sketch."""
    rng = random.Random(seed)
    host_sketches = [FMSketch.for_value(v, 4, rng) for v in values]

    forward = FMSketch.empty(4)
    for sketch in host_sketches:
        forward = forward.merge(sketch)

    backward = FMSketch.empty(4)
    for sketch in reversed(host_sketches):
        backward = backward.merge(sketch)

    assert forward == backward


# ----------------------------------------------------------------------
# The fast sampler's whole-block kernel against its loop formulation
# ----------------------------------------------------------------------
def _sample_by_loop(draw, repetitions, num_bits):
    """The per-vector formulation of the fast sampler, kept here as the
    reference: vector ``i`` reads chunk ``i`` of ``draw`` (``num_bits -
    1`` coin tosses) and sets the bit indexed by the length of the run
    of ones at the bottom of that chunk."""
    chunk = num_bits - 1
    mask = (1 << chunk) - 1
    packed = 0
    for rep in range(repetitions):
        bits = (draw >> (rep * chunk)) & mask
        # ``~bits & (bits + 1)`` isolates the lowest zero bit.
        packed |= 1 << (rep * num_bits
                        + (~bits & (bits + 1)).bit_length() - 1)
    return packed


class _ScriptedRng:
    """Hands out prepared ``getrandbits`` blocks and logs each request;
    any other draw is an error (the sampler may consume nothing else)."""

    def __init__(self, draws):
        self._draws = iter(draws)
        self.requests = []

    def getrandbits(self, bits):
        self.requests.append(bits)
        return next(self._draws)


@pytest.mark.parametrize("repetitions", range(1, 34))
def test_fast_sampler_equals_its_loop_formulation(repetitions):
    for num_bits in range(1, 34):
        width = repetitions * (num_bits - 1)
        if not width:
            # One-bit vectors leave nothing to toss: no draw at all, so
            # the RNG stream (and the sharded lane's tape) is untouched.
            rng = _ScriptedRng([])
            assert (_sample_packed_element(rng, repetitions, num_bits)
                    == _sample_by_loop(0, repetitions, num_bits))
            assert rng.requests == []
            continue
        seeded = random.Random(1000 * repetitions + num_bits)
        draws = [0, (1 << width) - 1]       # all tails; all heads (clamp)
        draws += [seeded.getrandbits(width) for _ in range(12)]
        rng = _ScriptedRng(draws)
        for draw in draws:
            packed = _sample_packed_element(rng, repetitions, num_bits)
            assert packed == _sample_by_loop(draw, repetitions, num_bits), (
                f"c={repetitions} b={num_bits} draw={draw:#x}")
        # Exactly one block of c * (b - 1) bits per element, nothing else.
        assert rng.requests == [width] * len(draws)


@pytest.mark.parametrize("value,repetitions,num_bits,requests", [
    (0, 8, 32, []),                 # nothing to insert
    (500, 8, 1, []),                # one-bit vectors leave nothing to toss
    (64, 8, 32, [64 * 256]),        # exactly one block: 248 bits -> 8 words
    (65, 16, 32, [64 * 512, 512]),  # a whole block, then a 1-element one
    (3, 32, 32, [3 * 992]),         # draw stride below the sketch width
    (3, 8, 2, [3 * 32]),            # ... and above it
])
def test_block_sampler_requests_whole_word_strides(value, repetitions,
                                                   num_bits, requests):
    """``for_value`` asks for ``n * 32 * ceil(c * (b - 1) / 32)`` bits per
    block of ``n <= 64`` elements and for nothing else -- in particular
    nothing at all for ``value = 0`` or one-bit vectors, which the
    sharded lane's tape relies on."""
    rng = _ScriptedRng([0] * len(requests))
    sketch = FMSketch.for_value(value, repetitions, rng, num_bits=num_bits)
    assert rng.requests == requests
    # All-tails draws: every inserted element lands on bit 0 of each vector.
    assert sketch.vectors == (1 if value else 0,) * repetitions
