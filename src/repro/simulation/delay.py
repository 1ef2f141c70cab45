"""Pluggable link-delay models.

The paper's network model (Section 3) only *bounds* the per-hop message
delay: every message sent over an alive edge arrives within ``delta``.
All of the protocols' validity guarantees are stated for arbitrary
realised delays in ``(0, delta]`` -- the fixed worst-case delay the
simulator historically used is just the adversarially slowest point of
that scenario space.  A :class:`DelayModel` makes the realised delay a
pluggable policy so experiments can explore the rest of the space:

* :class:`FixedDelay` -- every message takes exactly ``delta`` (the
  pre-existing semantics, and still the default).  Draws no randomness,
  so seeded runs under it are bit-identical to the fixed-delay kernel.
* :class:`UniformDelay` -- each message independently takes a uniform
  fraction of the bound in ``[lo, hi]``.
* :class:`PerEdgeDelay` -- each undirected edge has one fixed latency
  (drawn deterministically from the model seed and the edge endpoints),
  modelling heterogeneous links; both directions share it.
* :class:`HeavyTailDelay` -- a truncated-Pareto fraction of the bound:
  most messages are fast, a heavy tail of stragglers approaches the
  bound (the classic long-tail behaviour of overlay links).

Every sample lies in ``(0, bound]``; protocols must keep computing their
timer deadlines from the *bound* (``ctx.delta``), never from realised
delays, which is exactly what keeps the Single-Site Validity claims
honest under any model here.

Models are addressable by compact spec strings (``"fixed"``,
``"uniform"``, ``"uniform:0.25,1.0"``, ``"per_edge"``,
``"heavy_tail:1.2"``) via :func:`delay_model_from_spec`, which is how the
configuration layer and the CLI select them.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Optional, Tuple

__all__ = [
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "PerEdgeDelay",
    "HeavyTailDelay",
    "DELAY_MODELS",
    "delay_model_from_spec",
]

#: Smallest fraction of the bound a sample may take; keeps every realised
#: delay strictly positive (a zero delay would deliver a message at its own
#: send instant, which the event-ordering model does not allow).
_MIN_FRACTION = 1e-9


class DelayModel(abc.ABC):
    """Per-message link-delay policy bounded by the paper's ``delta``.

    Attributes:
        bound: the maximum per-hop delay ``delta``; every sample lies in
            ``(0, bound]``.
        stochastic: whether the model consumes randomness.  The engine
            reseeds stochastic models from the run RNG
            (:meth:`reseed`); :class:`FixedDelay` draws nothing, which
            keeps seeded fixed-delay runs bit-identical to the
            pre-delay-model kernel.
    """

    #: Spec-string name of the model (also the registry key).
    name: str = "delay"
    stochastic: bool = True

    def __init__(self, bound: float) -> None:
        if bound <= 0:
            raise ValueError("delay bound (delta) must be positive")
        self.bound = float(bound)

    @abc.abstractmethod
    def sample(self, sender: int, dest: int, now: float) -> float:
        """The realised delay of one message, in ``(0, bound]``."""

    def reseed(self, seed: int) -> None:
        """Re-derive the model's private RNG stream (no-op if none)."""

    def _clamp(self, fraction: float) -> float:
        """Map a fraction of the bound into the legal ``(0, bound]``."""
        if fraction > 1.0:
            fraction = 1.0
        elif fraction < _MIN_FRACTION:
            fraction = _MIN_FRACTION
        return fraction * self.bound

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(bound={self.bound})"


class FixedDelay(DelayModel):
    """Every message takes exactly the bound (the paper's cost model).

    This reproduces the pre-delay-model kernel bit-identically: the
    engine's fixed fast path never calls :meth:`sample`, and the model
    consumes no randomness.
    """

    name = "fixed"
    stochastic = False

    def sample(self, sender: int, dest: int, now: float) -> float:
        return self.bound


class UniformDelay(DelayModel):
    """Independent per-message delays, uniform in ``[lo, hi] * bound``.

    Args:
        bound: the delay bound ``delta``.
        lo: lower fraction of the bound (must be positive).
        hi: upper fraction of the bound (at most 1).
        seed: seed of the model's private RNG stream.
    """

    name = "uniform"

    def __init__(self, bound: float, lo: float = 0.25, hi: float = 1.0,
                 seed: int = 0) -> None:
        super().__init__(bound)
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError(
                f"uniform delay fractions must satisfy 0 < lo <= hi <= 1, "
                f"got lo={lo}, hi={hi}"
            )
        self.lo = float(lo)
        self.hi = float(hi)
        self._rng = random.Random(seed)

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def sample(self, sender: int, dest: int, now: float) -> float:
        lo, hi = self.lo, self.hi
        return self._clamp(lo + (hi - lo) * self._rng.random())


class PerEdgeDelay(DelayModel):
    """One fixed latency per undirected edge, heterogeneous across links.

    The latency of edge ``{a, b}`` is a uniform fraction of the bound in
    ``[lo, hi]``, derived deterministically from the model seed and the
    (order-independent) endpoint pair -- both directions share it, and
    the value does not depend on traffic order, so two protocols run on
    the same network see the same link map.  Latencies are materialised
    lazily and cached, which keeps million-host runs from paying for
    edges no message ever crosses.
    """

    name = "per_edge"

    def __init__(self, bound: float, lo: float = 0.1, hi: float = 1.0,
                 seed: int = 0) -> None:
        super().__init__(bound)
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError(
                f"per-edge delay fractions must satisfy 0 < lo <= hi <= 1, "
                f"got lo={lo}, hi={hi}"
            )
        self.lo = float(lo)
        self.hi = float(hi)
        self._seed = int(seed)
        self._edge_delays: Dict[Tuple[int, int], float] = {}

    def reseed(self, seed: int) -> None:
        self._seed = int(seed)
        self._edge_delays.clear()

    def sample(self, sender: int, dest: int, now: float) -> float:
        key = (sender, dest) if sender < dest else (dest, sender)
        delay = self._edge_delays.get(key)
        if delay is None:
            # String seeding hashes with SHA-512 under the hood, giving a
            # stable, version-independent per-edge draw.
            draw = random.Random(f"{self._seed}:{key[0]}:{key[1]}").random()
            delay = self._clamp(self.lo + (self.hi - self.lo) * draw)
            self._edge_delays[key] = delay
        return delay


class HeavyTailDelay(DelayModel):
    """Truncated-Pareto delays: mostly fast links, a heavy straggler tail.

    The delay fraction is ``xm / u^(1/alpha)`` for uniform ``u``,
    truncated at the bound -- a Pareto(``alpha``) tail starting at
    ``xm * bound``.  Smaller ``alpha`` makes stragglers (deliveries near
    the bound) more common; ``P(fraction > t) = (xm / t)^alpha``.

    Args:
        bound: the delay bound ``delta``.
        alpha: Pareto tail index (must be positive; default 1.2).
        xm: scale, the minimum delay fraction (default 0.05).
        seed: seed of the model's private RNG stream.
    """

    name = "heavy_tail"

    def __init__(self, bound: float, alpha: float = 1.2, xm: float = 0.05,
                 seed: int = 0) -> None:
        super().__init__(bound)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 < xm <= 1.0:
            raise ValueError("xm must be in (0, 1]")
        self.alpha = float(alpha)
        self.xm = float(xm)
        self._rng = random.Random(seed)

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def sample(self, sender: int, dest: int, now: float) -> float:
        # 1 - random() lies in (0, 1]; the Pareto inverse CDF maps it to
        # [xm, inf), truncated to the bound by _clamp.
        u = 1.0 - self._rng.random()
        return self._clamp(self.xm * u ** (-1.0 / self.alpha))


#: Registry of spec-string names to model classes.
DELAY_MODELS = {
    FixedDelay.name: FixedDelay,
    UniformDelay.name: UniformDelay,
    PerEdgeDelay.name: PerEdgeDelay,
    HeavyTailDelay.name: HeavyTailDelay,
}


def delay_model_from_spec(
    spec: "str | DelayModel | None",
    bound: float,
    seed: int = 0,
) -> Optional[DelayModel]:
    """Build a delay model from a compact spec string.

    ``None`` and ``"fixed"`` return ``None`` -- the engine's fixed fast
    path, which is semantically :class:`FixedDelay` without the
    indirection.  A ready-made :class:`DelayModel` passes through
    unchanged (its bound must match).  Strings take an optional
    colon-separated argument list::

        "uniform"            -> UniformDelay(bound)
        "uniform:0.25,1.0"   -> UniformDelay(bound, lo=0.25, hi=1.0)
        "per_edge:0.1,0.9"   -> PerEdgeDelay(bound, lo=0.1, hi=0.9)
        "heavy_tail:1.5"     -> HeavyTailDelay(bound, alpha=1.5)
        "heavy_tail:1.5,0.1" -> HeavyTailDelay(bound, alpha=1.5, xm=0.1)
    """
    if spec is None:
        return None
    if isinstance(spec, DelayModel):
        if abs(spec.bound - bound) > 1e-12:
            raise ValueError(
                f"delay model bound {spec.bound} does not match the "
                f"simulation delta {bound}"
            )
        return None if isinstance(spec, FixedDelay) else spec
    name, _, arg_text = str(spec).partition(":")
    name = name.strip().lower().replace("-", "_")
    if name == "fixed":
        return None
    if name not in DELAY_MODELS:
        raise ValueError(
            f"unknown delay model {name!r}; known: {sorted(DELAY_MODELS)}"
        )
    try:
        args = [float(a) for a in arg_text.split(",") if a.strip()]
    except ValueError:
        raise ValueError(
            f"malformed delay model arguments {arg_text!r} in {spec!r}"
        ) from None
    try:
        return DELAY_MODELS[name](bound, *args, seed=seed)
    except TypeError:
        # Too many positional arguments for the model; surface it like
        # every other malformed spec instead of leaking a TypeError.
        raise ValueError(
            f"too many arguments for delay model {name!r} in {spec!r}"
        ) from None
