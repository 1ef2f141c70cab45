"""Declarative experiment specifications with stable content hashing.

An :class:`ExperimentSpec` describes a trial matrix -- the cartesian
product of named axes (topology, protocol, aggregate, figure, scale, ...)
repeated ``num_trials`` times -- without saying anything about *how* it is
executed.  The executor and the result cache both key off the spec's
content hash, so two specs that describe the same experiment always map to
the same cache entry and the same derived per-trial seeds, regardless of
the process, worker count, or axis insertion order that produced them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import repro

#: Axis values must be JSON scalars so the canonical form is unambiguous.
_SCALAR_TYPES = (str, int, float, bool, type(None))

#: Modulus for derived seeds; keeps them in ``random.seed``-friendly range.
_SEED_SPACE = 2**31 - 1


def _check_scalar(axis: str, value: Any) -> None:
    if not isinstance(value, _SCALAR_TYPES):
        raise TypeError(
            f"axis {axis!r} value {value!r} is not a JSON scalar "
            f"(str/int/float/bool/None)"
        )


def _code_version() -> str:
    """The package version, folded into the *cache* key only.

    Experiment results depend on driver code, not just parameters; tying
    the cache key to the release version means a version bump invalidates
    every cache entry instead of silently serving results computed by old
    code.  It must NOT enter :meth:`ExperimentSpec.content_hash`, which
    seeds the trials: the numbers a spec produces stay stable across
    releases unless the drivers actually change behaviour.  Read per
    call, so a bumped ``repro.__version__`` takes effect at once.
    """
    return repro.__version__


def derive_trial_seed(spec_hash: str, base_seed: int, index: int) -> int:
    """Derive the RNG seed of trial ``index`` from the spec identity.

    The seed depends only on the spec's content hash, the base seed, and
    the trial's position in the matrix -- never on which worker runs the
    trial or how many workers exist -- so results are bit-identical for
    any executor configuration.
    """
    digest = hashlib.sha256(
        f"{spec_hash}:{base_seed}:{index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


@dataclass(frozen=True)
class Trial:
    """One cell of an expanded trial matrix."""

    index: int
    params: Dict[str, Any]
    seed: int


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative trial matrix: axes x repetitions, plus a runner name.

    Attributes:
        name: human-readable label (not part of the identity hash).
        runner: registered runner name (see :mod:`repro.orchestration.runners`)
            or an importable ``"module:function"`` path.
        axes: canonical axis table, sorted by axis name; each entry is
            ``(axis_name, (value, ...))``.
        num_trials: repetitions of every matrix point with distinct seeds.
        base_seed: folded into per-trial seed derivation.
    """

    name: str
    runner: str
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = field(default_factory=tuple)
    num_trials: int = 1
    base_seed: int = 0

    @classmethod
    def create(
        cls,
        name: str,
        runner: str,
        axes: Mapping[str, Sequence[Any]],
        num_trials: int = 1,
        base_seed: int = 0,
    ) -> "ExperimentSpec":
        """Build a spec from a plain mapping of axis name to values.

        Axis order in ``axes`` is irrelevant: the canonical form sorts axes
        by name, so specs that differ only in insertion order hash equally.
        """
        if num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        canonical: List[Tuple[str, Tuple[Any, ...]]] = []
        for axis in sorted(axes):
            values = tuple(axes[axis])
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            for value in values:
                _check_scalar(axis, value)
            canonical.append((axis, values))
        return cls(
            name=name,
            runner=runner,
            axes=tuple(canonical),
            num_trials=num_trials,
            base_seed=base_seed,
        )

    # -- identity ---------------------------------------------------------

    def identity_dict(self) -> Dict[str, Any]:
        """The fields that define the spec's identity (``name`` excluded)."""
        return {
            "runner": self.runner,
            "axes": {axis: list(values) for axis, values in self.axes},
            "num_trials": self.num_trials,
            "base_seed": self.base_seed,
        }

    def as_dict(self) -> Dict[str, Any]:
        """Full JSON-ready representation, including the label."""
        out = {"name": self.name}
        out.update(self.identity_dict())
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.identity_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable sha256 hex digest of the spec's identity.

        This hash seeds every trial (see :func:`derive_trial_seed`), so it
        covers only the declarative identity -- never code versions.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def cache_key(self) -> str:
        """The on-disk result-cache address: identity + package version.

        Distinct from :meth:`content_hash` so that a release bump evicts
        stale cached results without changing any derived seed (and hence
        without changing the experiment's numbers).
        """
        payload = f"{self.canonical_json()}|{_code_version()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- expansion --------------------------------------------------------

    def points(self) -> List[Dict[str, Any]]:
        """The cartesian product of the axes, in canonical order."""
        if not self.axes:
            return [{}]
        names = [axis for axis, _ in self.axes]
        grids = [values for _, values in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*grids)]

    def trials(self) -> List[Trial]:
        """Expand the matrix into seeded trials, one per (point, repetition).

        Trial ``index`` enumerates repetitions within a point before moving
        to the next point; seeds come from :func:`derive_trial_seed`.
        """
        spec_hash = self.content_hash()
        out: List[Trial] = []
        index = 0
        for params in self.points():
            for _ in range(self.num_trials):
                out.append(Trial(
                    index=index,
                    params=dict(params),
                    seed=derive_trial_seed(spec_hash, self.base_seed, index),
                ))
                index += 1
        return out

    @property
    def num_cells(self) -> int:
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total * self.num_trials
