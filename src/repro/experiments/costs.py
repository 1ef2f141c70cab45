"""Figures 10-13: what one static run costs, read three ways.

Every cell of the paper's cost evaluation is one
:func:`~repro.protocols.base.run_protocol` call on a static network
(:func:`measure`); the figures differ in which cells they run and which
of the run's costs they read (:class:`CostRow`):

* **Messages sent** -- Figure 10 (count on Random topologies of
  increasing size, plus the Gnutella point): WILDFIRE costs roughly 4-5x
  SPANNINGTREE and DAG, insensitive to the ``D_hat`` overestimate.
  Figure 11 (Grid, wireless broadcast medium, several query kinds):
  min/max benefit from WILDFIRE's early aggregation so much that their
  cost drops below SPANNINGTREE's.
* **Per-host load** -- Figure 12 (count on Power-law and Grid): how many
  hosts processed each number of messages.  WILDFIRE's distribution has
  SPANNINGTREE's shape shifted right (2-4x on Power-law), and on Grid the
  maximum is tens of times higher because every update is re-broadcast
  to 8 neighbors.
* **Time** -- Figure 13(a) (Random, several ``D_hat`` overestimates):
  the longest message chain and the fixed ``2 * D_hat * delta``
  declaration time grow with ``D_hat`` while communication cost does
  not.  Figure 13(b): the messages WILDFIRE sends at each instant peak
  around ``D * delta`` and die out by ``2 * D * delta``, which is why
  overestimating ``D_hat`` wastes time but not messages.
"""

from __future__ import annotations

from operator import attrgetter, methodcaller
from statistics import median_high
from typing import Callable, Dict, Hashable, List, NamedTuple, Sequence, Tuple

from repro.protocols.base import (Protocol, ProtocolRunResult,
                                  resolve_d_hat, run_protocol)
from repro.protocols.dag import DirectedAcyclicGraph
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.topology.base import Topology
from repro.topology.gnutella import gnutella_like_topology
from repro.topology.grid import grid_topology
from repro.topology.power_law import power_law_topology
from repro.topology.random_graph import random_topology
from repro.workloads.values import zipf_values


class CostRow(NamedTuple):
    """One measured cell; every cost is a read of ``result.costs``.

    ``columns`` names the table columns of the figure the cell belongs to,
    in print order: attribute names, or the keys of ``_RENAMED``.
    """

    label: str
    topology: str
    num_hosts: int
    diameter_estimate: int
    result: ProtocolRunResult
    columns: Tuple[str, ...]

    @property
    def messages(self) -> int:
        return self.result.costs.communication_cost

    @property
    def max_cost(self) -> int:
        """The most messages any one host processed."""
        return self.result.costs.computation_cost

    @property
    def histogram(self) -> Dict[int, int]:
        """Messages processed -> number of hosts that processed so many."""
        return self.result.costs.computation_histogram()

    @property
    def median_cost(self) -> int:
        """The median load over the hosts that processed any message."""
        loads = self.result.costs.messages_processed.values()
        return median_high(loads) if loads else 0

    @property
    def chain_length(self) -> int:
        return self.result.costs.time_cost

    @property
    def declaration_time(self) -> float:
        return self.result.termination_time

    @property
    def profile(self) -> Dict[float, int]:
        """Messages sent per clock tick, keyed by the tick's start time
        (``delta``-wide buckets, so the histogram stays well-defined under
        variable delay; at fixed delay the keys are the send instants)."""
        return self.result.costs.messages_per_instant()

    def peak_time(self) -> float:
        """The instant with the most messages (peaks near D * delta)."""
        profile = self.profile
        return max(profile, key=profile.get, default=0.0)

    def last_active_time(self) -> float:
        """The last instant at which any message was sent."""
        return max((instant for instant, count in self.profile.items()
                    if count > 0), default=0.0)

    def as_dict(self) -> Dict[str, object]:
        return {column: _RENAMED.get(column, attrgetter(column))(self)
                for column in self.columns}


#: The table columns that are not the :class:`CostRow` attribute of the
#: same name.
_RENAMED: Dict[str, Callable[[CostRow], object]] = {
    "protocol": attrgetter("result.protocol"),
    "|H|": attrgetter("num_hosts"),
    "query": attrgetter("result.query.kind.value"),
    "d_hat": attrgetter("result.d_hat"),
    "diameter": attrgetter("diameter_estimate"),
    "declared_at": attrgetter("declaration_time"),
    "peak_time": methodcaller("peak_time"),
    "last_active": methodcaller("last_active_time"),
}


def measure(
    protocol: Protocol,
    topology: Topology,
    values: Sequence[float],
    query: str,
    d_hat: int,
    wireless: bool,
    seed: int,
    label: str,
    columns: Tuple[str, ...],
) -> CostRow:
    """Run one cell -- ``protocol`` answering ``query`` from host 0 of the
    static ``topology`` -- and wrap the run as a :class:`CostRow`."""
    result = run_protocol(protocol, topology, values, query,
                          d_hat=d_hat, wireless=wireless, seed=seed)
    return CostRow(label, topology.name, topology.num_hosts,
                   topology.diameter_estimate(seed=seed), result, columns)


def _table(cells, seed: int, columns: Tuple[str, ...]) -> List[CostRow]:
    """Measure ``(label, protocol, topology, query, d_hat, wireless)``
    cells in order, each on the Zipf values of its topology."""
    return [measure(protocol, topology,
                    zipf_values(topology.num_hosts, seed=seed), query, d_hat,
                    wireless, seed, label, columns)
            for label, protocol, topology, query, d_hat, wireless in cells]


_MESSAGE_COLUMNS = ("label", "topology", "|H|", "query", "d_hat", "messages")


def _scaled(d_hat: int, factor: float) -> int:
    return max(1, int(round(d_hat * factor)))


def run_communication_cost_experiment(
    network_sizes: Sequence[int] = (250, 500, 1000, 2000),
    d_hat_factors: Sequence[float] = (1.0, 1.5, 2.0),
    query_kind: str = "count",
    include_gnutella_point: bool = True,
    gnutella_size: int = 2000,
    avg_degree: float = 5.0,
    seed: int = 0,
) -> List[CostRow]:
    """Regenerate Figure 10 (communication cost on Random topologies).

    Args:
        network_sizes: the |H| sweep (paper: up to 40K; scaled by default).
        d_hat_factors: multiples of the estimated diameter used as D_hat, to
            show cost is insensitive to the overestimate.
        query_kind: aggregate to run (the paper uses count).
        include_gnutella_point: also measure WILDFIRE and SPANNINGTREE on a
            Gnutella-like topology, as in the figure's standalone points.
        gnutella_size: size of the Gnutella-like stand-in.
        avg_degree: Random topology average degree.
        seed: base RNG seed.
    """
    cells = []
    for size in network_sizes:
        topology = random_topology(size, avg_degree=avg_degree, seed=seed)
        d_hat = resolve_d_hat(topology, None, overestimate_factor=1.0, seed=seed)
        cells += [(f"wildfire (D_hat={factor:g}x)", Wildfire(), topology,
                   query_kind, _scaled(d_hat, factor), False)
                  for factor in d_hat_factors]
        cells += [(protocol.name, protocol, topology, query_kind, d_hat, False)
                  for protocol in (SpanningTree(), DirectedAcyclicGraph(2))]
    if include_gnutella_point:
        topology = gnutella_like_topology(gnutella_size, seed=seed)
        d_hat = resolve_d_hat(topology, None, overestimate_factor=1.0, seed=seed)
        cells += [(f"{protocol.name} (gnutella)", protocol, topology,
                   query_kind, d_hat, False)
                  for protocol in (Wildfire(), SpanningTree())]
    return _table(cells, seed, _MESSAGE_COLUMNS)


def run_grid_communication_experiment(
    grid_sides: Sequence[int] = (16, 24, 32),
    query_kinds: Sequence[str] = ("count", "max", "min"),
    seed: int = 0,
) -> List[CostRow]:
    """Regenerate Figure 11 (communication cost on Grid, wireless medium).

    Args:
        grid_sides: side lengths of the square grids (paper: 100).
        query_kinds: aggregates compared; min/max exhibit the early-
            aggregation saving discussed in Section 6.6.
        seed: base RNG seed.
    """
    cells = []
    for side in grid_sides:
        topology = grid_topology(side)
        d_hat = resolve_d_hat(topology, None, overestimate_factor=1.2, seed=seed)
        cells += [(f"wildfire/{kind}", Wildfire(), topology, kind, d_hat, True)
                  for kind in query_kinds]
        cells += [(f"{protocol.name}/count", protocol, topology, "count",
                   d_hat, True)
                  for protocol in (SpanningTree(), DirectedAcyclicGraph(2))]
    return _table(cells, seed, _MESSAGE_COLUMNS)


def run_computation_cost_experiment(
    power_law_size: int = 1000,
    grid_side: int = 20,
    query_kind: str = "count",
    seed: int = 0,
) -> List[CostRow]:
    """Regenerate the Figure 12 computation-cost distributions.

    Args:
        power_law_size: hosts in the Power-law topology (paper: 40K).
        grid_side: side of the square Grid topology (paper: 100).
        query_kind: aggregate to run (the paper uses count).
        seed: base RNG seed.
    """
    cells = []
    for topology, wireless in ((power_law_topology(power_law_size, seed=seed), False),
                               (grid_topology(grid_side), True)):
        d_hat = resolve_d_hat(topology, None, overestimate_factor=1.2, seed=seed)
        cells += [(protocol.name, protocol, topology, query_kind, d_hat, wireless)
                  for protocol in (Wildfire(), SpanningTree())]
    return _table(cells, seed, ("protocol", "topology", "|H|", "max_cost",
                               "median_cost"))


def run_time_cost_experiment(
    network_sizes: Sequence[int] = (250, 500, 1000),
    d_hat_factors: Sequence[float] = (1.0, 1.5, 2.0),
    query_kind: str = "count",
    avg_degree: float = 5.0,
    seed: int = 0,
) -> List[CostRow]:
    """Regenerate Figure 13(a): time cost versus network size on Random."""
    cells = []
    for size in network_sizes:
        topology = random_topology(size, avg_degree=avg_degree, seed=seed)
        d_hat = resolve_d_hat(topology, None, overestimate_factor=1.0, seed=seed)
        cells.append(("spanning-tree", SpanningTree(), topology, query_kind,
                      d_hat, False))
        cells += [(f"wildfire (D_hat={factor:g}x)", Wildfire(), topology,
                   query_kind, _scaled(d_hat, factor), False)
                  for factor in d_hat_factors]
    return _table(cells, seed, ("label", "|H|", "d_hat", "chain_length",
                               "declared_at", "messages"))


def run_messages_per_instant_experiment(
    random_size: int = 1000,
    power_law_size: int = 1000,
    grid_side: int = 20,
    query_kind: str = "count",
    d_hat_factor: float = 2.0,
    seed: int = 0,
) -> List[CostRow]:
    """Regenerate Figure 13(b): messages per time instant for WILDFIRE."""
    cells = [("wildfire", Wildfire(), topology, query_kind,
              _scaled(topology.diameter_estimate(seed=seed), d_hat_factor), False)
             for topology in (random_topology(random_size, avg_degree=5.0, seed=seed),
                              power_law_topology(power_law_size, seed=seed),
                              grid_topology(grid_side))]
    return _table(cells, seed, ("topology", "|H|", "diameter", "peak_time",
                               "last_active"))


def _wildfire_over_tree(rows: Sequence[CostRow], group: str,
                        cost: str) -> Dict[Hashable, float]:
    """WILDFIRE's ``cost`` attribute over SPANNINGTREE's per value of the
    ``group`` attribute, from the first row of each protocol in the group
    (groups missing either, or with a zero tree cost, are left out)."""
    first: Dict[Hashable, Dict[str, int]] = {}
    for row in rows:
        first.setdefault(getattr(row, group), {}).setdefault(
            row.result.protocol, getattr(row, cost))
    return {key: costs[Wildfire.name] / costs[SpanningTree.name]
            for key, costs in first.items()
            if Wildfire.name in costs and costs.get(SpanningTree.name)}


def wildfire_to_tree_ratio(rows: Sequence[CostRow]) -> Dict[int, float]:
    """The headline "price of validity": the WILDFIRE / SPANNINGTREE
    message ratio per network size."""
    return _wildfire_over_tree(rows, "num_hosts", "messages")


def computation_cost_ratio(rows: Sequence[CostRow]) -> Dict[str, float]:
    """WILDFIRE / SPANNINGTREE maximum-computation-cost ratio per topology."""
    return _wildfire_over_tree(rows, "topology", "max_cost")
