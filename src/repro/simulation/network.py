"""Dynamic network graph on a packed-memory (CSR) core.

The network is the undirected graph ``G = (H, E)`` of the paper.  Hosts may
fail (leave) at any simulated instant and none joins, so the host count
and the adjacency structure are fixed for a run; only the set of alive
hosts changes.  The class serves what a run reads -- liveness and the
alive-neighbor views -- and nothing else: graph measures live on the
immutable :class:`~repro.topology.base.Topology`, and the validity bounds
come from the churn schedule.

The graph carries *connectivity* only; link timing lives in the engine's
:class:`~repro.simulation.delay.DelayModel` (the per-edge model derives
each edge's latency from the endpoint pair, so it needs no storage here).

Memory layout
-------------

Million-host runs made the previous per-host ``set`` adjacency the dominant
RSS cost (hundreds of bytes of hash-table overhead per 3-4 neighbor row),
so the storage is a compact CSR-style core:

* the *base* topology -- immutable after construction -- lives in two
  ``array('I')`` buffers: ``_base_offsets[h] : _base_offsets[h+1]`` spans
  host ``h``'s neighbor ids in ``_base_targets``, each row sorted
  ascending (4 bytes per directed edge instead of a boxed int in a set);
* alive-ness is a ``bytearray`` bitmap (``_alive``), so ``is_alive`` is
  O(1) and the engines' hot loops index the bitmap directly;
* failures remove nothing: an edge is *current* iff both endpoints are
  alive, so the alive-filter applied at view time reproduces the eager
  edge-removal semantics of the old mutable-set implementation exactly.

The protocol-facing views -- the alive-neighbor frozenset queried per
unicast and the ascending tuple driving every multicast -- are lazily
materialised straight off the packed arrays and cached per host,
invalidated only for the hosts a failure actually touches.  The
ascending order is the same order the old implementation served (and the
golden snapshots pin); the set-based executable specification is retained
in :mod:`repro.simulation.network_reference` and the differential suite
``tests/simulation/test_network_packed.py`` holds this class to it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple


class DynamicNetwork:
    """An undirected graph of hosts supporting failures.

    Host identifiers are consecutive integers starting at zero.

    Args:
        adjacency: initial neighbor lists; ``adjacency[h]`` is an iterable of
            the neighbors of host ``h``.  The rows are trusted: symmetric,
            loop-free and in range, as :class:`~repro.topology.base.Topology`
            checks them.  The CSR build reads them exactly once and never
            aliases them.
    """

    __slots__ = (
        "_base_offsets",
        "_base_targets",
        "_alive",
        "_alive_neighbors",
        "_alive_sorted",
    )

    def __init__(self, adjacency: Sequence[Iterable[int]]) -> None:
        # Every row passes through set() unless it already is one, so a
        # duplicated neighbor entry cannot reach the CSR buffers (it would
        # double-deliver multicasts).  The set is transient; packed
        # Topology rows pay one C-speed copy during the build only.
        rows = [
            sorted(neigh) if isinstance(neigh, (set, frozenset))
            else sorted(set(neigh))
            for neigh in adjacency
        ]
        n = len(rows)
        offsets = array("I", [0])
        targets = array("I")
        push_offset = offsets.append
        extend_targets = targets.extend
        for row in rows:
            extend_targets(row)
            push_offset(len(targets))
        # Base CSR core: immutable once built (failures only flip the
        # alive bitmap).
        self._base_offsets = offsets
        self._base_targets = targets
        self._alive = bytearray(b"\x01") * n
        # Per-host caches of the alive-neighbor views; invalidated only for
        # the hosts an individual failure touches.  The views are
        # immutable and ``copy()`` shares them, so the sorted ones start
        # materialised: with everyone alive they are the rows just packed.
        self._alive_neighbors: List[Optional[FrozenSet[int]]] = [None] * n
        self._alive_sorted: List[Optional[Tuple[int, ...]]] = list(
            map(tuple, rows))

    # ------------------------------------------------------------------
    # Packed-core helpers
    # ------------------------------------------------------------------
    def _structural_neighbors(self, host: int) -> "array[int]":
        """All neighbor ids of ``host``, alive or not, ascending."""
        offsets = self._base_offsets
        return self._base_targets[offsets[host]:offsets[host + 1]]

    def _alive_row(self, host: int) -> List[int]:
        """Current alive neighbors of ``host``, ascending (uncached)."""
        alive = self._alive
        if not alive[host]:
            return []
        return [t for t in self._structural_neighbors(host) if alive[t]]

    def _has_structural_edge(self, a: int, b: int) -> bool:
        offsets = self._base_offsets
        targets = self._base_targets
        lo, hi = offsets[a], offsets[a + 1]
        i = bisect_left(targets, b, lo, hi)
        return i < hi and targets[i] == b

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_hosts(self) -> int:
        """Number of hosts, alive or failed (fixed for the network's life)."""
        return len(self._alive)

    def is_alive(self, host: int) -> bool:
        return bool(self._alive[host])

    def neighbors(self, host: int) -> FrozenSet[int]:
        """Current *alive* neighbors of ``host`` (cached; do not mutate)."""
        cached = self._alive_neighbors[host]
        if cached is None:
            # Built from the sorted view so the two caches share their id
            # objects (one boxed int per (host, neighbor) pair, not two).
            cached = frozenset(self.alive_neighbors_sorted(host))
            self._alive_neighbors[host] = cached
        return cached

    def alive_neighbors_sorted(self, host: int) -> Tuple[int, ...]:
        """Current alive neighbors of ``host`` in ascending id order (cached)."""
        cached = self._alive_sorted[host]
        if cached is None:
            cached = tuple(self._alive_row(host))
            self._alive_sorted[host] = cached
        return cached

    def has_alive_edge(self, sender: int, dest: int) -> bool:
        """Whether ``dest`` is an alive current neighbor of ``sender``."""
        alive = self._alive
        if not alive[sender]:
            return False
        if not 0 <= dest < len(alive) or not alive[dest]:
            return False
        return self._has_structural_edge(sender, dest)

    # ------------------------------------------------------------------
    # Dynamism
    # ------------------------------------------------------------------
    def fail_host(self, host: int, time: float) -> None:
        """Remove ``host`` from the network at simulation time ``time``
        (the network keeps no history, so the instant is not stored).

        A failed host stops participating in any protocol; its edges drop
        out of every current view (edges require both endpoints alive).
        Failing an already failed host is an error (it indicates a buggy
        churn schedule).
        """
        if not self._alive[host]:
            raise ValueError(f"host {host} is already failed")
        self._alive[host] = 0
        alive_neighbors = self._alive_neighbors
        alive_sorted = self._alive_sorted
        for other in self._structural_neighbors(host):
            alive_neighbors[other] = None
            alive_sorted[other] = None
        alive_neighbors[host] = None
        alive_sorted[host] = None

    def partition_bounds(self, shards: int) -> List[int]:
        """Contiguous host-range boundaries for ``shards`` workers.

        Returns ``[0, b1, ..., num_hosts]`` (``shards + 1`` entries) such
        that shard ``k`` owns hosts ``[bounds[k], bounds[k+1])``.  Cut
        points are chosen so every shard carries roughly the same number
        of *base CSR edges* (host count alone skews badly on power-law
        topologies: the hub-heavy prefix would dwarf the tail shards).
        Ranges may be empty when ``shards > num_hosts``.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        n = len(self._alive)
        offsets = self._base_offsets
        total = offsets[n]
        bounds = [0]
        for k in range(1, shards):
            cut = bisect_left(offsets, total * k // shards)
            if cut > n:
                cut = n
            if cut < bounds[-1]:
                cut = bounds[-1]
            bounds.append(cut)
        bounds.append(n)
        return bounds

    def copy(self) -> "DynamicNetwork":
        """An independent copy of the current network state.

        The base CSR buffers are immutable after construction, so clones
        share them, and so are the cached neighbor views (tuples and
        frozensets), so clones share those copy-on-write: each side owns
        the *list* of views, and an invalidation only assigns ``None``
        into its own.  The alive bitmap is private.
        """
        clone = DynamicNetwork.__new__(DynamicNetwork)
        clone._base_offsets = self._base_offsets
        clone._base_targets = self._base_targets
        clone._alive = bytearray(self._alive)
        clone._alive_neighbors = list(self._alive_neighbors)
        clone._alive_sorted = list(self._alive_sorted)
        return clone
