"""Flajolet-Martin probabilistic counting sketches.

An :class:`FMSketch` holds ``c`` bit vectors.  Inserting a (conceptually
distinct) element samples, for each vector, a geometrically distributed bit
index -- the position of the last Tail before the first Head in a fair coin
toss sequence -- and sets that bit.  Two sketches are merged with bitwise OR,
which is idempotent, commutative and associative: exactly the properties the
WILDFIRE protocol needs from its combine function.

The number of distinct elements is estimated from the average position of
the lowest zero bit across the ``c`` vectors:  ``2 ** z_bar / 0.77351``.

Storage and sampling are built for the simulation kernel's hot path:

* All ``c`` vectors live in ONE Python integer (vector ``i`` occupies bits
  ``[i * num_bits, (i + 1) * num_bits)``), so merging two sketches -- the
  operation WILDFIRE performs once per received message -- is a single
  bitwise OR of two ints instead of ``c`` separate ORs plus tuple and
  record construction.
* Geometric sampling draws one ``getrandbits(c * (num_bits - 1))`` block
  per element and reads each vector's index as the length of the run of
  ones at the bottom of its ``num_bits - 1`` chunk.  A chunk of ``k`` ones
  followed by a zero has probability ``2**-(k+1)`` and a chunk of all ones
  has probability ``2**-(num_bits-1)`` -- exactly the clamped coin-toss
  distribution, at a fraction of the cost of per-toss ``rng.random()``
  calls.  The ``c`` run lengths are read by a handful of whole-block
  integer operations, not a per-vector loop.
* A SUM sketch (``for_value``) draws its elements a block at a time: up
  to 64 side by side in one int from ONE ``getrandbits`` call, each
  chunk's index isolated where it was drawn by the same whole-block
  add / and-not, a log-step OR-fold, and one spread of the folded
  element into the lanes (a block holding an all-ones chunk, the clamp,
  is spread before it is folded instead).
  The Mersenne Twister hands out whole 32-bit words in order, so a block
  consumes exactly the words its elements would have drawn one by one:
  sketch and RNG state equal the per-element loop's, bit for bit.  ns
  per element, loop -> block before the fold: c = 8 915 -> 145, c = 16
  1 125 -> 290, c = 32 1 515 -> 805; the fold then took one call at
  (c, v) = (8, 4096) / (32, 500) from 604 / 390 to 483 / 180 us.

The pre-rewrite sampler (one ``rng.random()`` call per coin toss) is kept
as the ``"legacy"`` sampling mode.  It consumes the underlying RNG stream
bit-for-bit like the seed implementation did, which is what lets the golden
seeded-equivalence tests (``tests/golden/``) replay pre-rewrite experiment
results on the rewritten kernel.  Switch modes with :func:`sampling_mode`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator, List, Tuple

#: The Flajolet-Martin bias correction constant phi; E[2^z] ~= phi * n.
FM_CORRECTION = 0.77351

#: Default number of bits per vector; 32 bits supports networks well beyond
#: the paper's scale (the paper suggests the same default).
DEFAULT_NUM_BITS = 32

#: Valid sampling modes: ``"fast"`` (getrandbits blocks, the default) and
#: ``"legacy"`` (per-toss ``rng.random()``, stream-compatible with the seed
#: implementation; used by the golden equivalence harness).
SAMPLING_MODES = ("fast", "legacy")

_sampling_mode = "fast"


def set_sampling_mode(mode: str) -> str:
    """Set the sampling mode and return the previous one."""
    global _sampling_mode
    if mode not in SAMPLING_MODES:
        raise ValueError(
            f"unknown sampling mode {mode!r}; valid: {SAMPLING_MODES}"
        )
    previous = _sampling_mode
    _sampling_mode = mode
    return previous


@contextmanager
def sampling_mode(mode: str) -> Iterator[None]:
    """Temporarily switch the geometric sampling mode (for tests/goldens)."""
    previous = set_sampling_mode(mode)
    try:
        yield
    finally:
        set_sampling_mode(previous)


def _geometric_bit_index(rng: random.Random, num_bits: int) -> int:
    """Sample the bit index set by one simulated fair-coin-toss sequence.

    Half the elements map to bit 0, a quarter to bit 1, an eighth to bit 2,
    and so on; the index is clamped to the vector width.  This is the
    ``"legacy"`` sampler: one ``rng.random()`` call per toss, identical RNG
    consumption to the seed implementation.
    """
    index = 0
    while rng.random() < 0.5 and index < num_bits - 1:
        index += 1
    return index


def _comb(count: int, period: int) -> int:
    """A one at bit ``i * period`` for every ``i < count``."""
    return ((1 << count * period) - 1) // ((1 << period) - 1)


def _field_moves(count: int, width: int, src: int, dst: int
                 ) -> List[Tuple[int, int]]:
    """Masked shift steps moving field ``i`` from bit ``i * src`` to ``i * dst``.

    ``count`` fields of ``width <= src <= dst`` bits, zeros between them.
    Field ``i`` has ``i * (dst - src)`` bits to travel; step ``(mask,
    shift)`` moves the fields whose index has one bit set, highest bit
    first, so every intermediate layout keeps the fields in index order
    with at least ``src`` bits between starts and no two ever overlap.
    """
    field = (1 << width) - 1
    gap = dst - src
    steps = []
    bit = 1 << (count - 1).bit_length() >> 1
    while bit:
        done = -(bit << 1)      # the index bits above ``bit``: moved
        mask = 0
        for index in range(count):
            if index & bit:
                mask |= field << (index * src + (index & done) * gap)
        steps.append((mask, bit * gap))
        bit >>= 1
    return steps


@lru_cache(maxsize=64)
def _spread_plan(repetitions: int, num_bits: int
                 ) -> Tuple[int, Tuple[Tuple[int, int], ...], int]:
    """The fast sampler's constants for one sketch shape.

    Returns ``(draw_bits, steps, ones)``: the width of the random block
    (``num_bits - 1`` coin tosses per vector), the :func:`_field_moves`
    steps that move chunk ``i`` of that block from bit ``i * (num_bits -
    1)`` to bit ``i * num_bits`` -- its vector's lane, top bit clear --
    and a one at the bottom of every lane.
    """
    chunk = num_bits - 1
    steps = _field_moves(repetitions, chunk, chunk, num_bits)
    return repetitions * chunk, tuple(steps), _comb(repetitions, num_bits)


#: Elements drawn per ``getrandbits`` call by the block sampler.  ns per
#: element at c = 8 for a width of 16 / 32 / 64 / 128: 198 / 178 / 144 /
#: 132 on value 4096 and 233 / 231 / 205 / 207 on value 47 (the service
#: mixes' mean) -- flat from 32 up, so this is a constant, not an argument.
_BLOCK = 64


@lru_cache(maxsize=64)
def _block_plan(repetitions: int, num_bits: int) -> tuple:
    """:func:`_spread_plan` lifted to ``_BLOCK`` elements side by side.

    Returns ``(stride, low, top, drop, chunk_ones, carry_at,
    chunk_folds, spread, width, steps, ones, folds)``.  Element ``e`` of
    a block is drawn at bit ``e * stride`` (whole 32-bit words);
    ``low`` / ``top`` / ``drop`` undo the generator's truncation of each
    element's last word.  The fold works in that draw layout:
    ``chunk_ones`` is a one at the bottom of every ``num_bits - 1``-bit
    chunk of every element, ``carry_at`` the bit just past every chunk
    (where an all-ones chunk's carry lands), ``chunk_folds`` the
    ``(span, keep)`` halvings that OR all elements down onto the first,
    and ``spread`` the one-element :func:`_spread_plan` steps.  A block
    with an all-ones chunk is worked on at bit ``e * width``, the wider
    of the draw stride and the sketch: ``steps`` first re-stride the
    elements where the sketch is the wider, then spread every element's
    chunks into its lanes, ``ones`` is a one at the bottom of every lane
    of every element, and ``folds`` OR all elements down onto the first.
    """
    draw_bits, spread, ones = _spread_plan(repetitions, num_bits)
    chunk = num_bits - 1
    stride = -(-draw_bits // 32) * 32
    width = max(stride, repetitions * num_bits)
    drop = stride - draw_bits
    last = stride - 32
    every_draw = _comb(_BLOCK, stride)
    low = every_draw * ((1 << last) - 1)
    top = every_draw * ((1 << (32 - drop)) - 1 << last)
    chunk_ones = every_draw * _comb(repetitions, chunk)
    carry_at = chunk_ones << chunk
    steps = (_field_moves(_BLOCK, draw_bits, stride, width)
             if width > stride else [])
    every = _comb(_BLOCK, width)
    steps += [(every * mask, shift) for mask, shift in spread]
    return (stride, low, top, drop, chunk_ones, carry_at,
            _halvings(stride), spread, width, tuple(steps), every * ones,
            _halvings(width))


def _halvings(width: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(span, keep)`` steps that OR ``_BLOCK`` fields ``width``
    bits apart down onto the first: ``x = (x >> span) | (x & keep)``."""
    folds = []
    span = _BLOCK * width >> 1
    while span >= width:
        folds.append((span, (1 << span) - 1))
        span >>= 1
    return tuple(folds)


def _sample_packed_element(rng: random.Random, repetitions: int,
                           num_bits: int) -> int:
    """One element's sketch as a packed int: one set bit per vector."""
    if _sampling_mode == "legacy":
        packed = 0
        for rep in range(repetitions):
            packed |= 1 << (rep * num_bits + _geometric_bit_index(rng, num_bits))
        return packed
    draw_bits, steps, ones = _spread_plan(repetitions, num_bits)
    if not draw_bits:
        # One-bit vectors: every element lands on bit 0 of each vector.
        return ones
    lanes = rng.getrandbits(draw_bits)
    for mask, shift in steps:
        moving = lanes & mask
        lanes ^= moving ^ (moving << shift)
    # Index = length of the run of ones at the bottom of the chunk, for
    # every vector at once: adding one to each lane carries through the
    # run and sets the lowest zero bit (an all-ones chunk carries into
    # the lane's clear top bit, ``num_bits - 1``: the clamp), and
    # ``& ~lanes`` keeps only that bit.
    return (lanes + ones) & ~lanes


def _sample_packed_elements(rng: random.Random, count: int,
                            repetitions: int, num_bits: int) -> int:
    """The OR of ``count`` fast-mode :func:`_sample_packed_element` draws.

    Up to ``_BLOCK`` elements come from ONE ``getrandbits`` call, worked
    on as whole-block integer operations.  For a ``random.Random`` the
    result *and* the generator's state afterwards equal the element
    loop's: the Mersenne Twister's ``getrandbits(k)`` emits ``ceil(k /
    32)`` 32-bit words little-endian and keeps the *top* ``k % 32`` bits
    of the last one, so one draw of ``n`` whole-word strides consumes
    exactly the words of ``n`` element draws, and moving each element's
    last word down by the dropped bits restores its value.  With any
    other generator the result is still a correct sample, but not the
    loop's.  Nothing is drawn for ``count == 0`` or one-bit vectors.

    Every chunk's index is found where it was drawn: adding a one at the
    bottom of each ``num_bits - 1``-bit chunk and keeping ``& ~drawn``
    isolates the lowest zero bit of every chunk that has one, so the
    elements OR-fold in the draw layout and only the folded element is
    spread into the sketch's lanes (a bit permutation, which commutes
    with OR).  An all-ones chunk -- the clamp, index ``num_bits - 1``,
    which the draw layout has no bit for -- carries into the bit past
    it; a block that shows such a carry takes the spread-then-add path
    on the same drawn bits instead.
    """
    if not count:
        return 0
    if num_bits == 1:
        return _spread_plan(repetitions, num_bits)[2]
    (stride, low, top, drop, chunk_ones, carry_at, chunk_folds, spread,
     width, steps, ones, folds) = _block_plan(repetitions, num_bits)
    # The first block is the widest: ``n`` elements need the last
    # ``ceil(log2(n))`` halvings only (a one-element draw, none).
    skip = len(folds) - (min(count, _BLOCK) - 1).bit_length()
    found = 0   # chunk-isolated indices, in the draw layout
    hits = 0    # lane-isolated indices of blocks with an all-ones chunk
    while count:
        n = min(count, _BLOCK)
        count -= n
        lanes = rng.getrandbits(n * stride)
        if drop:
            lanes = (lanes & low) | ((lanes >> drop) & top)
        # ``chunk_ones`` repeats every ``stride`` bits: shifted down it
        # covers exactly the ``n`` elements drawn.
        bottoms = chunk_ones >> (_BLOCK - n) * stride
        summed = lanes + bottoms
        if not (summed ^ lanes ^ bottoms) & carry_at:
            found |= summed & ~lanes
            continue
        for mask, shift in steps:
            moving = lanes & mask
            lanes ^= moving ^ (moving << shift)
        hits |= (lanes + (ones >> (_BLOCK - n) * width)) & ~lanes
    if found:
        for span, keep in chunk_folds[skip:]:
            found = (found >> span) | (found & keep)
        for mask, shift in spread:
            moving = found & mask
            found ^= moving ^ (moving << shift)
    if hits:
        for span, keep in folds[skip:]:
            hits = (hits >> span) | (hits & keep)
    return found | hits


def _sample_packed_value(rng: random.Random, value: float, repetitions: int,
                         num_bits: int) -> int:
    """:meth:`FMSketch.for_value`'s packed int: ``int(value)`` elements,
    drawn as the sampling mode says.  The sign is checked before the
    truncation, so -0.5 is refused like -1."""
    if value < 0:
        raise ValueError("sum sketches require non-negative values")
    count = int(value)
    if _sampling_mode != "legacy":
        return _sample_packed_elements(rng, count, repetitions, num_bits)
    # Replays the seed implementation's RNG consumption order:
    # element-major, vector-minor, one coin-toss loop per sample.
    vectors = [0] * repetitions
    for _ in range(count):
        for i in range(repetitions):
            vectors[i] |= 1 << _geometric_bit_index(rng, num_bits)
    packed = 0
    offset = 0
    for vector in vectors:
        packed |= vector << offset
        offset += num_bits
    return packed


class FMSketch:
    """An immutable FM sketch: ``c`` bit vectors packed into one integer.

    Attributes:
        packed: all vectors in one int; vector ``i`` occupies the bit range
            ``[i * num_bits, (i + 1) * num_bits)``.
        repetitions: the number of vectors ``c``.
        num_bits: width of each bit vector.

    Lemma 5.1's guarantee: with ``c > 2`` repetitions,
    ``Pr[1/c <= estimate/true <= c] >= 1 - 2/c``.

    The public surface of the original tuple-of-ints representation is
    preserved: sketches construct from ``vectors=``, expose a ``vectors``
    view, and compare equal iff their vectors and widths are equal.
    """

    __slots__ = ("packed", "repetitions", "num_bits")

    def __init__(self, vectors: Tuple[int, ...],
                 num_bits: int = DEFAULT_NUM_BITS) -> None:
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("an FM sketch needs at least one vector")
        if num_bits < 1:
            raise ValueError("num_bits must be positive")
        limit = 1 << num_bits
        packed = 0
        offset = 0
        for vector in vectors:
            if vector < 0 or vector >= limit:
                raise ValueError("bit vector out of range for num_bits")
            packed |= vector << offset
            offset += num_bits
        self.packed = packed
        self.repetitions = len(vectors)
        self.num_bits = num_bits

    @classmethod
    def _from_packed(cls, packed: int, repetitions: int,
                     num_bits: int) -> "FMSketch":
        """Internal unchecked constructor used on the merge hot path."""
        sketch = object.__new__(cls)
        sketch.packed = packed
        sketch.repetitions = repetitions
        sketch.num_bits = num_bits
        return sketch

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, repetitions: int, num_bits: int = DEFAULT_NUM_BITS) -> "FMSketch":
        """A sketch representing the empty set."""
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if num_bits < 1:
            raise ValueError("num_bits must be positive")
        return cls._from_packed(0, repetitions, num_bits)

    @classmethod
    def for_new_element(
        cls,
        repetitions: int,
        rng: random.Random,
        num_bits: int = DEFAULT_NUM_BITS,
    ) -> "FMSketch":
        """Sketch of a single element distinct from every other element.

        This is the per-host initialisation of the distributed count
        operator: the host "pretends to have an element distinct from other
        hosts" by sampling fresh coin-toss sequences.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if num_bits < 1:
            raise ValueError("num_bits must be positive")
        return cls._from_packed(
            _sample_packed_element(rng, repetitions, num_bits),
            repetitions, num_bits,
        )

    @classmethod
    def for_value(
        cls,
        value: int,
        repetitions: int,
        rng: random.Random,
        num_bits: int = DEFAULT_NUM_BITS,
    ) -> "FMSketch":
        """Sketch representing ``value`` distinct elements (the SUM operator).

        The host pretends to hold ``value`` distinct elements and ORs their
        single-element sketches locally before any communication, exactly as
        in Section 5.2.  A fractional ``value`` is truncated: a host holding
        99.9 contributes 99 elements.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if num_bits < 1:
            raise ValueError("num_bits must be positive")
        return cls._from_packed(
            _sample_packed_value(rng, value, repetitions, num_bits),
            repetitions, num_bits,
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @property
    def vectors(self) -> Tuple[int, ...]:
        """The per-repetition bit vectors (unpacked view)."""
        mask = (1 << self.num_bits) - 1
        packed = self.packed
        num_bits = self.num_bits
        return tuple(
            (packed >> (rep * num_bits)) & mask
            for rep in range(self.repetitions)
        )

    def merge(self, other: "FMSketch") -> "FMSketch":
        """OR-combine two sketches (duplicate-insensitive union)."""
        if self.repetitions != other.repetitions:
            raise ValueError("cannot merge sketches with different repetitions")
        if self.num_bits != other.num_bits:
            raise ValueError("cannot merge sketches with different widths")
        return FMSketch._from_packed(
            self.packed | other.packed, self.repetitions, self.num_bits
        )

    def __or__(self, other: "FMSketch") -> "FMSketch":
        return self.merge(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FMSketch):
            return NotImplemented
        return (
            self.packed == other.packed
            and self.repetitions == other.repetitions
            and self.num_bits == other.num_bits
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self.packed, self.repetitions, self.num_bits))

    def __repr__(self) -> str:
        return f"FMSketch(vectors={self.vectors!r}, num_bits={self.num_bits})"

    def is_empty(self) -> bool:
        return self.packed == 0

    def lowest_zero_bits(self) -> Tuple[int, ...]:
        """The index of the lowest unset bit in each vector."""
        mask = (1 << self.num_bits) - 1
        result: List[int] = []
        for rep in range(self.repetitions):
            vector = (self.packed >> (rep * self.num_bits)) & mask
            # ``~v & (v + 1)`` isolates the lowest zero bit; a full vector
            # (all ones) yields index ``num_bits``.
            result.append((~vector & (vector + 1)).bit_length() - 1)
        return tuple(result)

    def estimate(self) -> float:
        """Estimate of the number of distinct elements represented."""
        if self.packed == 0:
            return 0.0
        zeros = self.lowest_zero_bits()
        z_bar = sum(zeros) / len(zeros)
        return (2.0 ** z_bar) / FM_CORRECTION

    def describe(self) -> str:
        """Readable rendering of the bit vectors (for debugging)."""
        rows = [format(vector, f"0{self.num_bits}b")[::-1] for vector in self.vectors]
        return "\n".join(rows)
