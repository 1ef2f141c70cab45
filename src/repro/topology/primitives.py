"""Small deterministic topologies.

These are the constructions used in the paper's proofs (chains for the
Snapshot-Validity impossibility, a cycle with a pendant host for
Theorem 4.4) and simple shapes used throughout the test suite.
"""

from __future__ import annotations

from typing import List, Set

from repro.topology.base import Topology


def chain_topology(num_hosts: int, name: str = "chain") -> Topology:
    """Hosts 0..n-1 arranged in a path: 0 - 1 - 2 - ... - (n-1)."""
    if num_hosts <= 0:
        raise ValueError("num_hosts must be positive")
    adjacency: List[Set[int]] = [set() for _ in range(num_hosts)]
    for host in range(num_hosts - 1):
        adjacency[host].add(host + 1)
        adjacency[host + 1].add(host)
    return Topology(adjacency=adjacency, name=name,
                    metadata={"generator": "chain", "num_hosts": num_hosts})


def ring_topology(num_hosts: int, name: str = "ring") -> Topology:
    """Hosts arranged in a cycle."""
    if num_hosts < 3:
        raise ValueError("a ring needs at least 3 hosts")
    adjacency: List[Set[int]] = [set() for _ in range(num_hosts)]
    for host in range(num_hosts):
        other = (host + 1) % num_hosts
        adjacency[host].add(other)
        adjacency[other].add(host)
    return Topology(adjacency=adjacency, name=name,
                    metadata={"generator": "ring", "num_hosts": num_hosts})


def star_topology(num_leaves: int, name: str = "star") -> Topology:
    """Host 0 at the center connected to ``num_leaves`` leaf hosts."""
    if num_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    num_hosts = num_leaves + 1
    adjacency: List[Set[int]] = [set() for _ in range(num_hosts)]
    for leaf in range(1, num_hosts):
        adjacency[0].add(leaf)
        adjacency[leaf].add(0)
    return Topology(adjacency=adjacency, name=name,
                    metadata={"generator": "star", "num_leaves": num_leaves})


def tree_topology(
    depth: int,
    branching: int = 2,
    name: str = "tree",
) -> Topology:
    """A complete ``branching``-ary tree of the given depth, rooted at 0."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if branching < 1:
        raise ValueError("branching must be at least 1")
    adjacency: List[Set[int]] = [set()]
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(branching):
                child = len(adjacency)
                adjacency.append(set())
                adjacency[parent].add(child)
                adjacency[child].add(parent)
                next_frontier.append(child)
        frontier = next_frontier
    return Topology(adjacency=adjacency, name=name,
                    metadata={"generator": "tree", "depth": depth,
                              "branching": branching})


def cycle_with_pendant_topology(cycle_size: int, name: str = "cycle-pendant") -> Topology:
    """The Theorem 4.4 construction: a cycle with one pendant host.

    Hosts ``0 .. cycle_size-1`` form a cycle; host ``cycle_size`` hangs off
    the host opposite the querying host (host ``cycle_size // 2``).  Failing
    host 1 right after Broadcast makes SPANNINGTREE lose roughly half of the
    network, demonstrating the unbounded best-effort error.
    """
    if cycle_size < 4:
        raise ValueError("cycle_size must be at least 4")
    adjacency: List[Set[int]] = [set() for _ in range(cycle_size + 1)]
    for host in range(cycle_size):
        other = (host + 1) % cycle_size
        adjacency[host].add(other)
        adjacency[other].add(host)
    pendant = cycle_size
    attach = cycle_size // 2
    adjacency[pendant].add(attach)
    adjacency[attach].add(pendant)
    return Topology(adjacency=adjacency, name=name,
                    metadata={"generator": "cycle_with_pendant",
                              "cycle_size": cycle_size})
