"""Topology container and shared graph utilities."""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.simulation.network import DynamicNetwork


class Topology:
    """An immutable description of a network topology.

    Attributes:
        adjacency: neighbor sets indexed by host id.
        name: short human-readable label ("random", "grid", ...).
        metadata: generator parameters (size, degree, seed, ...), kept for
            experiment reports.

    Not slotted: the instance ``__dict__`` also holds the memos of
    :meth:`diameter_estimate` and :meth:`to_network`.
    """

    def __init__(self, adjacency: List[Set[int]], name: str = "topology",
                 metadata: Dict[str, object] | None = None) -> None:
        self.adjacency = adjacency
        self.name = name
        self.metadata = {} if metadata is None else metadata
        n = len(adjacency)
        for host, neighbors in enumerate(adjacency):
            for other in neighbors:
                if other == host:
                    raise ValueError(f"host {host} has a self-loop")
                if not 0 <= other < n:
                    raise ValueError(f"host {host} references unknown host {other}")
                if host not in adjacency[other]:
                    raise ValueError(
                        f"asymmetric edge {host}->{other}: topologies must be undirected"
                    )

    @classmethod
    def trusted(
        cls,
        adjacency: List[Set[int]],
        name: str = "topology",
        metadata: Dict[str, object] | None = None,
    ) -> "Topology":
        """Construct without the symmetry/self-loop validation pass.

        For generator-built adjacencies that are symmetric by construction;
        the O(E) validation in ``__init__`` is pure overhead at
        100k-node scale.  Takes ownership of ``adjacency``.

        The set rows are packed into tuples, *preserving each set's own
        iteration order*: a 3-4 neighbor ``set`` costs ~200 bytes of hash
        table against ~30 of tuple, which at 100k+ hosts makes the
        topology a first-order RSS cost, while keeping the original order
        leaves every BFS discovery sequence -- and therefore the
        diameter-estimate tie-breaks behind ``d_hat`` that the golden
        snapshots pin -- exactly as it was.  All downstream consumers
        iterate rows or test membership; none mutate them.
        """
        topology = object.__new__(cls)
        topology.adjacency = [
            row if type(row) is tuple else tuple(row) for row in adjacency
        ]
        topology.name = name
        topology.metadata = metadata if metadata is not None else {}
        return topology

    @classmethod
    def from_generator(
        cls,
        adjacency: List[Set[int]],
        name: str,
        generator: str,
        **parameters: object,
    ) -> "Topology":
        """The shared tail of every topology generator.

        Wraps :meth:`trusted` (generator-built adjacencies are symmetric
        by construction) and records the generator id plus its parameters
        in ``metadata`` in one uniform shape, so the per-generator modules
        do not each restate the construction boilerplate.
        """
        metadata: Dict[str, object] = {"generator": generator}
        metadata.update(parameters)
        return cls.trusted(adjacency, name=name, metadata=metadata)

    def __len__(self) -> int:
        return len(self.adjacency)

    @property
    def num_hosts(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(neigh) for neigh in self.adjacency) // 2

    @property
    def average_degree(self) -> float:
        if not self.adjacency:
            return 0.0
        return 2.0 * self.num_edges / self.num_hosts

    def degrees(self) -> List[int]:
        return [len(neigh) for neigh in self.adjacency]

    def edges(self) -> Iterator[Tuple[int, int]]:
        for a, neighbors in enumerate(self.adjacency):
            for b in neighbors:
                if a < b:
                    yield a, b

    def neighbors(self, host: int) -> Set[int]:
        return set(self.adjacency[host])

    # ------------------------------------------------------------------
    # Graph measures
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> Dict[int, int]:
        """Hop distances from ``source`` to every reachable host."""
        distances = {source: 0}
        frontier = deque([source])
        while frontier:
            host = frontier.popleft()
            next_dist = distances[host] + 1
            for other in self.adjacency[host]:
                if other not in distances:
                    distances[other] = next_dist
                    frontier.append(other)
        return distances

    def is_connected(self) -> bool:
        if not self.adjacency:
            return True
        return len(self.bfs_distances(0)) == self.num_hosts

    def diameter_estimate(self, samples: int = 4, seed: int = 0) -> int:
        """Double-sweep BFS estimate of the diameter (exact on trees).

        The estimate is deterministic for a given ``(samples, seed)`` and
        the topology is immutable, so results are memoised -- experiment
        drivers re-run protocols on one topology many times and the BFS
        sweeps would otherwise dominate small-run wall time.
        """
        import random

        if self.num_hosts == 0:
            return 0
        cache: Dict[Tuple[int, int], int] = self.__dict__.setdefault(
            "_diameter_cache", {})
        key = (samples, seed)
        cached = cache.get(key)
        if cached is not None:
            return cached
        rng = random.Random(seed)
        best = 0
        hosts = list(range(self.num_hosts))
        for _ in range(max(1, samples)):
            start = rng.choice(hosts)
            dist = self.bfs_distances(start)
            if not dist:
                continue
            far_host, far_dist = max(dist.items(), key=lambda kv: kv[1])
            best = max(best, far_dist)
            second = self.bfs_distances(far_host)
            if second:
                best = max(best, max(second.values()))
        cache[key] = best
        return best

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_network(self) -> DynamicNetwork:
        """Instantiate a fresh :class:`DynamicNetwork` with this topology.

        The topology is immutable, so the pristine network is packed once
        and memoised like :meth:`diameter_estimate`; each call returns an
        independent copy sharing only what is immutable: the base CSR
        buffers and the pristine sorted neighbor views (a copy that fails
        a host drops the stale views from its own table).
        """
        pristine = self.__dict__.get("_pristine_network")
        if pristine is None:
            # The network packs the rows into its CSR buffers without
            # aliasing them, so the topology's own sets can be handed over
            # directly -- no per-host set copy even at million-host scale.
            pristine = self.__dict__["_pristine_network"] = DynamicNetwork(
                self.adjacency)
        return pristine.copy()

    @classmethod
    def from_edges(
        cls,
        num_hosts: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "topology",
        metadata: Dict[str, object] | None = None,
    ) -> "Topology":
        adjacency: List[Set[int]] = [set() for _ in range(num_hosts)]
        for a, b in edges:
            if a == b:
                continue
            adjacency[a].add(b)
            adjacency[b].add(a)
        return cls(adjacency=adjacency, name=name, metadata=metadata or {})


def ensure_connected(adjacency: List[Set[int]], rng) -> None:
    """Patch ``adjacency`` in place so the graph is connected.

    Generators occasionally produce a few isolated hosts or small secondary
    components; the paper's topologies are connected, so we stitch components
    together with single random edges (a negligible perturbation).
    """
    n = len(adjacency)
    if n == 0:
        return
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in range(n):
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        frontier = deque([start])
        while frontier:
            host = frontier.popleft()
            for other in adjacency[host]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
                    frontier.append(other)
        components.append(component)
    components.sort(key=len, reverse=True)
    main = components[0]
    for component in components[1:]:
        a = rng.choice(main)
        b = rng.choice(component)
        adjacency[a].add(b)
        adjacency[b].add(a)
        main.extend(component)
