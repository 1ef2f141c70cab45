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
from typing import Any, Callable, Dict, List

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

#: Topology axis values understood by the ``validity-point`` runner.
TOPOLOGY_BUILDERS: Dict[str, Callable[[int, int], Any]] = {}


def _topology(name: str):
    def decorate(func):
        TOPOLOGY_BUILDERS[name] = func
        return func

    return decorate


@_topology("ring")
def _ring(size: int, seed: int):
    from repro.topology.primitives import ring_topology

    return ring_topology(size)


@_topology("chain")
def _chain(size: int, seed: int):
    from repro.topology.primitives import chain_topology

    return chain_topology(size)


@_topology("star")
def _star(size: int, seed: int):
    from repro.topology.primitives import star_topology

    return star_topology(max(1, size - 1))


@_topology("grid")
def _grid(size: int, seed: int):
    from repro.topology.grid import grid_topology

    side = max(2, round(size ** 0.5))
    return grid_topology(side)


@_topology("random")
def _random(size: int, seed: int):
    from repro.topology.random_graph import random_topology

    return random_topology(size, seed=seed)


@_topology("power-law")
def _power_law(size: int, seed: int):
    from repro.topology.power_law import power_law_topology

    return power_law_topology(size, seed=seed)


@_topology("small-world")
def _small_world(size: int, seed: int):
    from repro.topology.small_world import small_world_topology

    return small_world_topology(size, seed=seed)


@_topology("gnutella")
def _gnutella(size: int, seed: int):
    from repro.topology.gnutella import gnutella_like_topology

    return gnutella_like_topology(size, seed=seed)


def _build_protocol(name: str):
    from repro.protocols.base import protocol_from_spec

    return protocol_from_spec(name)


@register_runner("figure")
def figure_runner(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Run one paper-figure driver; params: ``figure``, optional ``scale``."""
    from repro.experiments.figures import run_figure

    return run_figure(
        params["figure"], scale=float(params.get("scale", 0.5)), seed=seed
    )


@register_runner("scale-bench")
def scale_bench_runner(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Run one kernel scale-benchmark cell (see ``repro bench``).

    Axes: ``hosts``, plus optional ``topology`` / ``protocol`` /
    ``aggregate`` / ``repetitions``.  The spec's derived seed feeds
    topology generation, values and the protocol run, so a cell is fully
    reproducible.  Wall-clock fields are stripped from the returned rows:
    spec results are content-address cached, and a replayed timing would
    masquerade as a fresh measurement -- use ``repro bench`` (uncached)
    to measure, and this runner to sweep the deterministic cost measures.
    """
    from repro.experiments.scale_bench import run_scale_benchmark

    row = run_scale_benchmark(
        int(params.get("hosts", 1000)),
        topology=str(params.get("topology", "gnutella")),
        protocol=str(params.get("protocol", "wildfire")),
        aggregate=str(params.get("aggregate", "count")),
        seed=seed,
        repetitions=int(params.get("repetitions", 8)),
        delay=str(params.get("delay", "fixed")),
    )
    # Wall-clock and machine-local memory fields are stripped: spec results
    # are content-address cached and a replayed measurement would
    # masquerade as a fresh one.
    for machine_field in ("gen_seconds", "run_seconds", "messages_per_second",
                          "peak_rss_mb", "accounting_bytes"):
        row.pop(machine_field, None)
    return [row]


@register_runner("delay-sweep")
def delay_sweep_runner(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Run one variable-delay validity sweep cell (see ``repro delay-sweep``).

    Axes: ``topology`` (a :data:`TOPOLOGY_BUILDERS` key), ``size``,
    ``aggregate``, ``delay`` (a delay model spec string), and optional
    ``departures`` / ``protocol`` / ``trials``.  This is the declarative
    form of one point of the beyond-paper Figure 7-9 curves under
    variable link delay.
    """
    from repro.experiments.delay_sweep import run_delay_sweep

    topology_name = str(params.get("topology", "random"))
    if topology_name not in TOPOLOGY_BUILDERS:
        raise KeyError(
            f"unknown topology {topology_name!r}; "
            f"known: {sorted(TOPOLOGY_BUILDERS)}"
        )
    size = int(params.get("size", 64))
    topology = TOPOLOGY_BUILDERS[topology_name](size, seed)
    protocols = None
    if "protocol" in params:
        protocols = [_build_protocol(str(params["protocol"]))]
    rows = run_delay_sweep(
        topology,
        str(params.get("aggregate", "count")),
        departures=[int(params.get("departures", 0))],
        delay_specs=[str(params.get("delay", "fixed"))],
        protocols=protocols,
        num_trials=int(params.get("trials", 3)),
        seed=seed,
    )
    return [row.as_dict() for row in rows]


@register_runner("validity-point")
def validity_point_runner(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Run a single (topology, protocol, aggregate, churn) validity trial.

    Axes: ``topology`` (a :data:`TOPOLOGY_BUILDERS` key), ``size``,
    ``protocol`` (``wildfire``/``spanning-tree``/``dagK``), ``aggregate``
    (``count``/``sum``/...), and optional ``departures`` (host count).
    This is the declarative form of one cell of Figures 7-9.
    """
    from repro.experiments.validity_sweep import run_validity_sweep

    topology_name = params.get("topology", "random")
    if topology_name not in TOPOLOGY_BUILDERS:
        raise KeyError(
            f"unknown topology {topology_name!r}; "
            f"known: {sorted(TOPOLOGY_BUILDERS)}"
        )
    size = int(params.get("size", 64))
    topology = TOPOLOGY_BUILDERS[topology_name](size, seed)
    rows = run_validity_sweep(
        topology,
        str(params.get("aggregate", "count")),
        departures=[int(params.get("departures", max(2, size // 20)))],
        protocols=[_build_protocol(str(params.get("protocol", "wildfire")))],
        num_trials=1,
        seed=seed,
    )
    return [row.as_dict() for row in rows]
