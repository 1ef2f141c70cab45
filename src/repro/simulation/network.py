"""Dynamic network graph on a packed-memory (CSR) core.

The network is the undirected graph ``G = (H, E)`` of the paper.  Hosts may
fail (leave) or join at any simulated instant; the adjacency structure and
the set of alive hosts are updated accordingly, and every change is recorded
in an event log so that the :class:`~repro.semantics.oracle.Oracle` can
reconstruct the exact host sets ``H_I``, ``H_U`` and ``H_C`` after a run.

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
* alive-ness is a ``bytearray`` bitmap (``_alive``) plus a maintained
  ``_alive_count``, so ``is_alive``/``num_alive`` are O(1) and the
  engines' hot loops index the bitmap directly;
* churn-induced edge *additions* (host joins) go to a small per-host
  overflow table ``_overflow: {host: [new ids...]}``.  Join ids are
  assigned in increasing order and each overflow list starts sorted, so
  every ``base row + overflow row`` concatenation is already ascending;
* failures remove nothing: an edge is *current* iff both endpoints are
  alive, so the alive-filter applied at view time reproduces the eager
  edge-removal semantics of the old mutable-set implementation exactly.

The protocol-facing views -- the alive-neighbor frozenset queried per
unicast and the ascending tuple driving every multicast -- are lazily
materialised straight off the packed arrays and cached per host,
invalidated only for the hosts a failure or join actually touches.  The
ascending order is the same order the old implementation served (and the
golden snapshots pin); the set-based executable specification is retained
in :mod:`repro.simulation.network_reference` and the differential suite
``tests/simulation/test_network_packed.py`` holds this class to it.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)


class NetworkEventKind(enum.Enum):
    """Kinds of topology changes recorded in the network event log."""

    FAIL = "fail"
    JOIN = "join"


class NetworkEvent(NamedTuple):
    """A single topology change: a host failing or joining at ``time``."""

    time: float
    kind: NetworkEventKind
    host: int
    neighbors: Tuple[int, ...] = ()


class DynamicNetwork:
    """An undirected graph of hosts supporting failures and joins.

    Host identifiers are consecutive integers starting at zero.  The class
    keeps the *current* adjacency (reflecting failures so far) as well as the
    *initial* adjacency, and an append-only log of topology changes.

    Args:
        adjacency: initial neighbor lists; ``adjacency[h]`` is an iterable of
            the neighbors of host ``h``.  The relation must be symmetric.
        validate: when True (default) the adjacency is checked for symmetry
            and self-loops; disable only for very large trusted inputs.
        copy: kept for API compatibility.  The CSR build reads the input
            exactly once and never aliases it, so construction is always
            safe regardless of who else holds the neighbor collections.
    """

    __slots__ = (
        "_base_n",
        "_base_offsets",
        "_base_targets",
        "_alive",
        "_alive_count",
        "_overflow",
        "_events",
        "_alive_neighbors",
        "_alive_sorted",
    )

    def __init__(
        self,
        adjacency: Sequence[Iterable[int]],
        validate: bool = True,
        copy: bool = True,
    ) -> None:
        if validate:
            sets = [
                neigh if isinstance(neigh, (set, frozenset)) else set(neigh)
                for neigh in adjacency
            ]
            self._validate(sets, len(sets))
            rows: List[List[int]] = [sorted(s) for s in sets]
        else:
            # Match the old implementation's normalisation exactly: every
            # row passes through set() unless it already is one, so a
            # duplicated neighbor entry in a trusted input cannot reach
            # the CSR buffers (it would double-count degree/num_edges and
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
        # Base CSR core: immutable once built (joins go to the overflow
        # table, failures only flip the alive bitmap).
        self._base_n = n
        self._base_offsets = offsets
        self._base_targets = targets
        self._alive = bytearray(b"\x01") * n
        self._alive_count = n
        self._overflow: Dict[int, List[int]] = {}
        self._events: List[NetworkEvent] = []
        # Per-host caches of the alive-neighbor views; invalidated only for
        # the hosts an individual failure or join touches.  The views are
        # immutable and ``copy()`` shares them, so the sorted ones start
        # materialised: with everyone alive they are the rows just packed.
        self._alive_neighbors: List[Optional[FrozenSet[int]]] = [None] * n
        self._alive_sorted: List[Optional[Tuple[int, ...]]] = list(
            map(tuple, rows))

    @staticmethod
    def _validate(adjacency: Sequence[Set[int]], n: int) -> None:
        for host, neighbors in enumerate(adjacency):
            for other in neighbors:
                if other == host:
                    raise ValueError(f"host {host} has a self-loop")
                if not 0 <= other < n:
                    raise ValueError(
                        f"host {host} lists unknown neighbor {other} (n={n})"
                    )
                if host not in adjacency[other]:
                    raise ValueError(
                        f"asymmetric edge: {host} lists {other} but not vice versa"
                    )

    # ------------------------------------------------------------------
    # Packed-core helpers
    # ------------------------------------------------------------------
    def _structural_neighbors(self, host: int) -> Iterator[int]:
        """All base + overflow neighbor ids of ``host``, alive or not."""
        if host < self._base_n:
            offsets = self._base_offsets
            yield from self._base_targets[offsets[host]:offsets[host + 1]]
        extra = self._overflow.get(host)
        if extra:
            yield from extra

    def _alive_row(self, host: int) -> List[int]:
        """Current alive neighbors of ``host``, ascending (uncached)."""
        alive = self._alive
        if not alive[host]:
            return []
        if host < self._base_n:
            offsets = self._base_offsets
            row = [
                t
                for t in self._base_targets[offsets[host]:offsets[host + 1]]
                if alive[t]
            ]
        else:
            row = []
        extra = self._overflow.get(host)
        if extra:
            # Overflow ids are assigned in increasing order and start above
            # every base id, so the concatenation stays ascending.
            row.extend(t for t in extra if alive[t])
        return row

    def _has_structural_edge(self, a: int, b: int) -> bool:
        if a < self._base_n:
            offsets = self._base_offsets
            targets = self._base_targets
            lo, hi = offsets[a], offsets[a + 1]
            i = bisect_left(targets, b, lo, hi)
            if i < hi and targets[i] == b:
                return True
        extra = self._overflow.get(a)
        return extra is not None and b in extra

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._alive)

    @property
    def num_hosts(self) -> int:
        """Total number of host slots ever allocated (alive or failed)."""
        return len(self._alive)

    @property
    def alive_hosts(self) -> List[int]:
        """Host ids that are currently alive (one pass over the bitmap)."""
        return [h for h, alive in enumerate(self._alive) if alive]

    @property
    def num_alive(self) -> int:
        """Number of alive hosts, served O(1) from the maintained count."""
        return self._alive_count

    @property
    def events(self) -> List[NetworkEvent]:
        """The append-only log of topology changes."""
        return list(self._events)

    @property
    def ever_alive(self) -> Set[int]:
        """Hosts that were alive at some instant (the upper bound set H_U).

        Every host slot ever allocated was alive when it was created (the
        initial hosts at time 0, joined hosts at their join instant), so
        this is exactly ``range(num_hosts)`` -- no per-host set is stored.
        """
        return set(range(len(self._alive)))

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

    def all_neighbors(self, host: int) -> Set[int]:
        """Current neighbors of ``host`` regardless of liveness.

        Failed hosts shed their edges the instant they fail (the old
        implementation removed them eagerly; the packed core filters them
        at view time), so the current adjacency only ever contains alive
        endpoints and this equals ``set(neighbors(host))``.
        """
        return set(self._alive_row(host))

    def initial_neighbors(self, host: int) -> Set[int]:
        """Neighbors of ``host`` in the initial topology."""
        if host < self._base_n:
            offsets = self._base_offsets
            return set(self._base_targets[offsets[host]:offsets[host + 1]])
        if not 0 <= host < len(self._alive):
            raise IndexError(f"unknown host {host}")
        return set()  # joined mid-run: not part of the initial topology

    def has_edge(self, a: int, b: int) -> bool:
        alive = self._alive
        if not alive[a] or not 0 <= b < len(alive) or not alive[b]:
            return False
        return self._has_structural_edge(a, b)

    def degree(self, host: int) -> int:
        return len(self.alive_neighbors_sorted(host))

    def num_edges(self) -> int:
        """Number of undirected edges in the current graph."""
        alive = self._alive
        total = 0
        offsets = self._base_offsets
        targets = self._base_targets
        for host in range(self._base_n):
            if alive[host]:
                for t in targets[offsets[host]:offsets[host + 1]]:
                    if alive[t]:
                        total += 1
        for host, extra in self._overflow.items():
            if alive[host]:
                for t in extra:
                    if alive[t]:
                        total += 1
        return total // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges (a < b) of the current graph."""
        alive = self._alive
        for a in range(len(alive)):
            if not alive[a]:
                continue
            for b in self._structural_neighbors(a):
                if a < b and alive[b]:
                    yield a, b

    # ------------------------------------------------------------------
    # Dynamism
    # ------------------------------------------------------------------
    def _invalidate(self, host: int) -> None:
        self._alive_neighbors[host] = None
        self._alive_sorted[host] = None

    def fail_host(self, host: int, time: float) -> None:
        """Remove ``host`` from the network at simulation time ``time``.

        A failed host stops participating in any protocol; its edges drop
        out of every current view (edges require both endpoints alive).
        Failing an already failed host is an error (it indicates a buggy
        churn schedule).
        """
        if not self._alive[host]:
            raise ValueError(f"host {host} is already failed")
        # Snapshot the alive neighbors for the event log *before* flipping
        # the bitmap (the view is already ascending, as the log requires).
        neighbors = self.alive_neighbors_sorted(host)
        self._alive[host] = 0
        self._alive_count -= 1
        alive_neighbors = self._alive_neighbors
        alive_sorted = self._alive_sorted
        for other in self._structural_neighbors(host):
            alive_neighbors[other] = None
            alive_sorted[other] = None
        alive_neighbors[host] = None
        alive_sorted[host] = None
        self._events.append(
            NetworkEvent(time=time, kind=NetworkEventKind.FAIL, host=host,
                         neighbors=neighbors)
        )

    def join_host(self, neighbors: Iterable[int], time: float) -> int:
        """Add a new host connected to ``neighbors`` and return its id."""
        alive = self._alive
        new_id = len(alive)
        neighbor_set = set(neighbors)
        for other in neighbor_set:
            if not 0 <= other < new_id:
                raise ValueError(f"unknown neighbor {other}")
            if not alive[other]:
                raise ValueError(f"cannot join at failed host {other}")
        ordered = sorted(neighbor_set)
        alive.append(1)
        self._alive_count += 1
        self._alive_neighbors.append(None)
        self._alive_sorted.append(None)
        overflow = self._overflow
        overflow[new_id] = list(ordered)
        alive_neighbors = self._alive_neighbors
        alive_sorted = self._alive_sorted
        for other in ordered:
            row = overflow.get(other)
            if row is None:
                overflow[other] = [new_id]
            else:
                # ``new_id`` exceeds every existing id, so appending keeps
                # the overflow row sorted.
                row.append(new_id)
            alive_neighbors[other] = None
            alive_sorted[other] = None
        self._events.append(
            NetworkEvent(time=time, kind=NetworkEventKind.JOIN, host=new_id,
                         neighbors=tuple(ordered))
        )
        return new_id

    def partition_bounds(self, shards: int) -> List[int]:
        """Contiguous host-range boundaries for ``shards`` workers.

        Returns ``[0, b1, ..., num_hosts]`` (``shards + 1`` entries) such
        that shard ``k`` owns hosts ``[bounds[k], bounds[k+1])``.  Cut
        points are chosen so every shard carries roughly the same number
        of *base CSR edges* (host count alone skews badly on power-law
        topologies: the hub-heavy prefix would dwarf the tail shards).
        Ranges may be empty when ``shards > num_hosts``.  Partitioning a
        network that has grown past its base table (joined hosts) is
        refused -- overflow rows are not range-partitionable.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        n = self._base_n
        if n != len(self._alive) or self._overflow:
            raise ValueError(
                "cannot range-partition a network with joined hosts")
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

    # ------------------------------------------------------------------
    # Graph algorithms
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int, alive_only: bool = True) -> Dict[int, int]:
        """Hop distances from ``source`` to every reachable host.

        Args:
            source: starting host.
            alive_only: when True, only traverse hosts that are currently
                alive (the usual case).  A failed host's current adjacency
                is empty either way, so the only difference is whether a
                failed *source* maps to ``{}`` or ``{source: 0}``.
        """
        alive = self._alive
        if not alive[source]:
            return {} if alive_only else {source: 0}
        distances = {source: 0}
        frontier = deque([source])
        offsets = self._base_offsets
        targets = self._base_targets
        overflow = self._overflow
        base_n = self._base_n
        while frontier:
            host = frontier.popleft()
            next_dist = distances[host] + 1
            if host < base_n:
                row: Iterable[int] = targets[offsets[host]:offsets[host + 1]]
            else:
                row = ()
            extra = overflow.get(host)
            if extra:
                row = list(row) + extra
            for other in row:
                if not alive[other]:
                    continue
                if other not in distances:
                    distances[other] = next_dist
                    frontier.append(other)
        return distances

    def reachable_from(self, source: int) -> Set[int]:
        """Alive hosts reachable from ``source`` over alive hosts."""
        return set(self.bfs_distances(source, alive_only=True))

    def diameter_estimate(self, samples: int = 8, seed: int = 0) -> int:
        """Estimate the diameter by double-sweep BFS from a few sources.

        The estimate is a lower bound on the true diameter but is exact on
        trees and very tight on the topologies used in the paper; the paper
        itself only requires a reasonable overestimate of the stable
        diameter, which callers obtain by padding this value.
        """
        import random

        alive = self.alive_hosts
        if not alive:
            return 0
        rng = random.Random(seed)
        best = 0
        for _ in range(max(1, samples)):
            start = rng.choice(alive)
            dist = self.bfs_distances(start)
            if not dist:
                continue
            # Tie-break equally-far hosts by smallest id: BFS dict insertion
            # order differs between the packed CSR rows and the reference's
            # adjacency sets, so a bare max() over items would pick
            # different second-sweep sources on the two implementations.
            far_host, far_dist = max(dist.items(),
                                     key=lambda kv: (kv[1], -kv[0]))
            best = max(best, far_dist)
            dist2 = self.bfs_distances(far_host)
            if dist2:
                best = max(best, max(dist2.values()))
        return best

    def is_connected(self) -> bool:
        """True when every alive host is reachable from every other."""
        alive = self.alive_hosts
        if not alive:
            return True
        return len(self.reachable_from(alive[0])) == len(alive)

    def snapshot_adjacency(self) -> List[Set[int]]:
        """A deep copy of the current adjacency (for oracles and tests)."""
        return [set(self._alive_row(host)) for host in range(len(self._alive))]

    def copy(self) -> "DynamicNetwork":
        """An independent copy of the current network state.

        The base CSR buffers are immutable after construction, so clones
        share them, and so are the cached neighbor views (tuples and
        frozensets), so clones share those copy-on-write: each side owns
        the *list* of views, and an invalidation only assigns ``None``
        into its own.  The alive bitmap, overflow table and event log are
        private.
        """
        clone = DynamicNetwork.__new__(DynamicNetwork)
        clone._base_n = self._base_n
        clone._base_offsets = self._base_offsets
        clone._base_targets = self._base_targets
        clone._alive = bytearray(self._alive)
        clone._alive_count = self._alive_count
        clone._overflow = {h: list(row) for h, row in self._overflow.items()}
        clone._events = list(self._events)
        clone._alive_neighbors = list(self._alive_neighbors)
        clone._alive_sorted = list(self._alive_sorted)
        return clone

    @classmethod
    def from_edges(cls, num_hosts: int, edges: Iterable[Tuple[int, int]]) -> "DynamicNetwork":
        """Build a network from an edge list."""
        adjacency: List[Set[int]] = [set() for _ in range(num_hosts)]
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on host {a}")
            adjacency[a].add(b)
            adjacency[b].add(a)
        return cls(adjacency, validate=False, copy=False)
