"""Trial runners: named, picklable entry points executed by worker processes.

A runner is a function ``(params, seed) -> JSON-serialisable result`` that
executes exactly one trial of an :class:`~repro.orchestration.spec.
ExperimentSpec`.  Workers receive only the runner's *name* and resolve it
locally, so trial payloads stay picklable under every multiprocessing start
method.  Unknown names containing a colon are treated as ``module:function``
import paths, which lets tests and downstream code plug in runners without
registering them first.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.figures import run_figure
from repro.experiments.validity_sweep import run_validity_sweep
from repro.protocols.base import protocol_from_spec
from repro.topology import topology_from_spec

TrialRunner = Callable[[Dict[str, Any], int], Any]

_REGISTRY: Dict[str, TrialRunner] = {}


def register_runner(name: str) -> Callable[[TrialRunner], TrialRunner]:
    """Decorator registering ``func`` as the runner called ``name``."""

    def decorate(func: TrialRunner) -> TrialRunner:
        if name in _REGISTRY:
            raise ValueError(f"runner {name!r} already registered")
        _REGISTRY[name] = func
        return func

    return decorate


def resolve_runner(name: str) -> TrialRunner:
    """Look up a registered runner, or import a ``module:function`` path."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    if ":" in name:
        module_name, _, attr = name.partition(":")
        module = importlib.import_module(module_name)
        func = getattr(module, attr, None)
        if callable(func):
            return func
        raise KeyError(f"{name!r} does not resolve to a callable")
    raise KeyError(
        f"unknown runner {name!r}; registered: {sorted(_REGISTRY)}"
    )


# ---------------------------------------------------------------------------
# Built-in runners
# ---------------------------------------------------------------------------

@register_runner("figure")
def figure_runner(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Run one paper-figure driver; params: ``figure``, optional ``scale``."""
    return run_figure(
        params["figure"], scale=float(params.get("scale", 0.5)), seed=seed
    )


def _churn_sweep_cell(
    params: Dict[str, Any],
    seed: int,
    departures: int,
    protocol: Optional[str],
    num_trials: int,
    delay_specs: Optional[Sequence[str]],
) -> List[Dict[str, Any]]:
    """One cell of the churn sweep on the ``topology`` / ``size`` /
    ``aggregate`` axes (defaults ``random`` / 64 / ``count``);
    ``departures`` and ``protocol`` are the runner's defaults for the axes
    of those names (no protocol = the paper's line-up)."""
    protocol = params.get("protocol", protocol)
    rows = run_validity_sweep(
        topology_from_spec(str(params.get("topology", "random")),
                           int(params.get("size", 64)), seed),
        str(params.get("aggregate", "count")),
        departures=[int(params.get("departures", departures))],
        protocols=(None if protocol is None
                   else [protocol_from_spec(str(protocol))]),
        num_trials=num_trials,
        seed=seed,
        delay_specs=delay_specs,
    )
    return [row.as_dict() for row in rows]


@register_runner("delay-sweep")
def delay_sweep_runner(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Run one variable-delay validity sweep cell (see ``repro delay-sweep``).

    Axes: ``topology`` (a :func:`~repro.topology.topology_from_spec`
    name), ``size``, ``aggregate``, ``delay`` (a delay model spec string),
    and optional ``departures`` / ``protocol`` / ``trials``.  This is the
    declarative form of one point of the beyond-paper Figure 7-9 curves
    under variable link delay.
    """
    return _churn_sweep_cell(
        params, seed, departures=0, protocol=None,
        num_trials=int(params.get("trials", 3)),
        delay_specs=[str(params.get("delay", "fixed"))])


@register_runner("validity-point")
def validity_point_runner(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Run a single (topology, protocol, aggregate, churn) validity trial.

    Axes: ``topology`` (a :func:`~repro.topology.topology_from_spec`
    name), ``size``, ``protocol`` (``wildfire``/``spanning-tree``/``dagK``),
    ``aggregate`` (``count``/``sum``/...), and optional ``departures``
    (host count).  This is the declarative form of one cell of Figures 7-9.
    """
    return _churn_sweep_cell(
        params, seed, departures=max(2, int(params.get("size", 64)) // 20),
        protocol="wildfire", num_trials=1, delay_specs=None)
