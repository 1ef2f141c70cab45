"""Network topology generators.

The paper evaluates on four topologies (Section 6.1): a real Gnutella crawl,
a random graph with average degree 5, a power-law graph (gamma ~= 2.9) and a
100x100 sensor grid with 8-neighborhoods.  This package generates all four
(the Gnutella crawl is replaced by a calibrated synthetic stand-in; see
DESIGN.md) plus small deterministic topologies used in the paper's proofs
and in the test suite.

Unlike the other ``repro`` packages, whose names resolve on first use,
this one imports its generators eagerly: it defines
:func:`topology_from_spec` over them, and every run builds a topology.
"""

from repro.topology.base import Topology
from repro.topology.random_graph import random_topology
from repro.topology.power_law import power_law_topology
from repro.topology.grid import grid_topology
from repro.topology.gnutella import gnutella_like_topology
from repro.topology.small_world import small_world_topology
from repro.topology.primitives import (
    chain_topology,
    cycle_with_pendant_topology,
    ring_topology,
    star_topology,
    tree_topology,
)

#: Generator name -> ``(size, seed) -> Topology``: the names every CLI
#: option, spec axis and driver argument accepts for a topology.  ``size``
#: is the requested host count (a grid rounds it to the nearest square).
_GENERATORS = {
    "ring": lambda size, seed: ring_topology(size),
    "chain": lambda size, seed: chain_topology(size),
    "star": lambda size, seed: star_topology(max(1, size - 1)),
    "grid": lambda size, seed: grid_topology(max(2, round(size ** 0.5))),
    "random": lambda size, seed: random_topology(size, seed=seed),
    "power-law": lambda size, seed: power_law_topology(size, seed=seed),
    "small-world": lambda size, seed: small_world_topology(size, seed=seed),
    "gnutella": lambda size, seed: gnutella_like_topology(size, seed=seed),
}


def topology_from_spec(name: str, size: int, seed: int = 0) -> Topology:
    """Build the ``size``-host topology a generator name stands for.

    The sibling of :func:`repro.protocols.base.protocol_from_spec` and
    :func:`repro.simulation.delay.delay_model_from_spec`: the single
    resolver behind ``repro bench | serve | delay-sweep`` and the
    scale / query-mix drivers, so every
    surface accepts the same names and rejects an unknown one with the
    same ``KeyError``.
    """
    try:
        generate = _GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; known: "
            f"{', '.join(sorted(_GENERATORS))}") from None
    return generate(size, seed)


__all__ = [
    "Topology",
    "topology_from_spec",
    "random_topology",
    "power_law_topology",
    "grid_topology",
    "gnutella_like_topology",
    "small_world_topology",
    "chain_topology",
    "ring_topology",
    "star_topology",
    "tree_topology",
    "cycle_with_pendant_topology",
]
