"""The retained set-based reference network (executable specification).

This is the pre-packed-core :class:`~repro.simulation.network.DynamicNetwork`
implementation, kept as the behavioural oracle for the CSR core: per-host
mutable ``set`` adjacency with eager edge removal on failure.  It is *not*
used by the simulation kernel -- it exists so that

* ``tests/simulation/test_network_packed.py`` can replay random
  failure and copy sequences against both implementations and assert
  every observable of the kept surface (``num_hosts``, ``is_alive``, both
  alive-neighbor views, ``has_alive_edge`` and the error ``fail_host``
  raises) is identical at every step, and
* ``tests/integration/test_protocol_matrix.py`` can run whole seeded
  protocol executions on this reference substrate and require
  event-for-event equality with the packed core.

Keep its semantics frozen: when the two classes disagree, the packed core
is the one that is wrong (or the divergence is a deliberate, documented
behaviour change that must update both).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


class ReferenceNetwork:
    """Set-based dynamic network: the executable spec for the packed core.

    API-compatible with :class:`~repro.simulation.network.DynamicNetwork`
    except for the packed-only ``partition_bounds`` (the engines only touch
    the public surface plus the ``_alive`` sequence, which is a list of
    bools here and a bytearray there, and the ``_alive_sorted`` views).
    """

    def __init__(self, adjacency: Sequence[Iterable[int]]) -> None:
        self._adjacency: List[Set[int]] = [set(neigh) for neigh in adjacency]
        n = len(self._adjacency)
        self._alive: List[bool] = [True] * n
        # Per-host caches of the alive-neighbor view; invalidated only for
        # the hosts an individual failure touches.
        self._alive_neighbors: List[Optional[FrozenSet[int]]] = [None] * n
        self._alive_sorted: List[Optional[Tuple[int, ...]]] = [None] * n

    @property
    def num_hosts(self) -> int:
        """Number of hosts, alive or failed (fixed for the network's life)."""
        return len(self._adjacency)

    def is_alive(self, host: int) -> bool:
        return self._alive[host]

    def neighbors(self, host: int) -> FrozenSet[int]:
        """Current *alive* neighbors of ``host`` (cached; do not mutate)."""
        cached = self._alive_neighbors[host]
        if cached is None:
            alive = self._alive
            cached = frozenset(
                h for h in self._adjacency[host] if alive[h]
            )
            self._alive_neighbors[host] = cached
        return cached

    def alive_neighbors_sorted(self, host: int) -> Tuple[int, ...]:
        """Current alive neighbors of ``host`` in ascending id order (cached)."""
        cached = self._alive_sorted[host]
        if cached is None:
            cached = tuple(sorted(self.neighbors(host)))
            self._alive_sorted[host] = cached
        return cached

    def has_alive_edge(self, sender: int, dest: int) -> bool:
        """Whether ``dest`` is an alive current neighbor of ``sender``."""
        return dest in self._adjacency[sender] and self._alive[dest]

    def _invalidate(self, host: int) -> None:
        self._alive_neighbors[host] = None
        self._alive_sorted[host] = None

    def fail_host(self, host: int, time: float) -> None:
        """Remove ``host`` from the network at simulation time ``time``."""
        if not self._alive[host]:
            raise ValueError(f"host {host} is already failed")
        self._alive[host] = False
        for other in self._adjacency[host]:
            self._adjacency[other].discard(host)
            self._invalidate(other)
        self._adjacency[host].clear()
        self._invalidate(host)

    def copy(self) -> "ReferenceNetwork":
        """An independent copy of the current network state."""
        clone = ReferenceNetwork.__new__(ReferenceNetwork)
        clone._adjacency = [set(s) for s in self._adjacency]
        clone._alive = list(self._alive)
        clone._alive_neighbors = [None] * len(clone._adjacency)
        clone._alive_sorted = [None] * len(clone._adjacency)
        return clone
