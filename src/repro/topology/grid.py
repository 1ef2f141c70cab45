"""Sensor-network grid topologies.

The paper's Grid topology places 10,000 hosts on a 100x100 grid; each host
is connected to the hosts in the enclosing 2-unit square, i.e. its (up to)
8 surrounding neighbors (Moore neighborhood).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.topology.base import Topology


def grid_topology(
    rows: int,
    cols: int | None = None,
    neighborhood: str = "moore",
    name: str = "grid",
) -> Topology:
    """Generate a rows x cols sensor grid.

    Args:
        rows: number of grid rows.
        cols: number of grid columns (defaults to ``rows`` for a square grid).
        neighborhood: ``"moore"`` for the paper's 8-neighborhood or
            ``"von_neumann"`` for the 4-neighborhood variant.
        name: label stored on the topology.

    Host ids are assigned row-major: host ``r * cols + c`` sits at (r, c).
    """
    if rows <= 0:
        raise ValueError("rows must be positive")
    cols = rows if cols is None else cols
    if cols <= 0:
        raise ValueError("cols must be positive")
    if neighborhood not in ("moore", "von_neumann"):
        raise ValueError("neighborhood must be 'moore' or 'von_neumann'")

    if neighborhood == "moore":
        offsets: Tuple[Tuple[int, int], ...] = (
            (-1, -1), (-1, 0), (-1, 1),
            (0, -1), (0, 1),
            (1, -1), (1, 0), (1, 1),
        )
    else:
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))

    num_hosts = rows * cols
    adjacency: List[Set[int]] = [set() for _ in range(num_hosts)]
    for r in range(rows):
        for c in range(cols):
            host = r * cols + c
            for dr, dc in offsets:
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    adjacency[host].add(nr * cols + nc)

    return Topology.from_generator(
        adjacency,
        name,
        "grid",
        rows=rows,
        cols=cols,
        neighborhood=neighborhood,
    )
