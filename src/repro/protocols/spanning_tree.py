"""The SPANNINGTREE best-effort protocol (Section 4.4).

Broadcast builds a spanning tree rooted at the querying host (each host
adopts the sender of the first Broadcast message it hears as its parent).
Convergecast then propagates partial aggregates up the tree: a host at hop
depth ``l`` sends its partial aggregate -- its own value combined with
whatever its children reported in time -- to its parent at the deadline
``(2 * D_hat - l) * delta``.  A single interior host failing after Broadcast
silently discards the contribution of its entire subtree, which is exactly
the failure mode the paper's validity experiments expose.

Deadlines use the delay *bound* ``delta``: a child at depth ``l + 1``
reports at ``(2 * D_hat - l - 1) * delta`` and the report needs at most
one more ``delta`` to arrive, exactly meeting the parent's deadline --
for any realised delay model bounded by ``delta``.  (Under variable
delays the first Broadcast heard may have travelled a many-hop fast
path, so ``depth`` can exceed the hop distance; the report timer is
clamped at "now" in that case and correctness is unaffected.)
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.protocols.base import Protocol
from repro.protocols.dag import ConvergecastBatchKernel, DagHost
from repro.queries.query import AggregateQuery
from repro.simulation.host import ProtocolHost
from repro.sketches.combiners import Combiner
from repro.topology.base import Topology

BROADCAST = "st-broadcast"
REPORT = "st-report"


class SpanningTreeHost(DagHost):
    """Per-host SPANNINGTREE state machine: the convergecast body of
    :class:`~repro.protocols.dag.DagHost` with one parent slot."""

    __slots__ = ()

    broadcast_kind = BROADCAST
    report_kind = REPORT
    batch_kernel = ConvergecastBatchKernel

    def __init__(
        self,
        host_id: int,
        value: float,
        querying_host: int,
        combiner: Combiner,
        d_hat: int,
        delta: float,
        rng: random.Random,
    ) -> None:
        super().__init__(host_id, value, querying_host, combiner, d_hat,
                         delta, rng, num_parents=1)


class SpanningTree(Protocol):
    """Protocol object for SPANNINGTREE runs."""

    name = "spanning-tree"
    requires_duplicate_insensitive = False

    def create_hosts(
        self,
        topology: Topology,
        values: Sequence[float],
        querying_host: int,
        query: AggregateQuery,
        combiner: Combiner,
        d_hat: int,
        delta: float,
        rng: random.Random,
    ) -> List[ProtocolHost]:
        return [
            SpanningTreeHost(
                host_id=host_id,
                value=values[host_id],
                querying_host=querying_host,
                combiner=combiner,
                d_hat=d_hat,
                delta=delta,
                rng=rng,
            )
            for host_id in range(topology.num_hosts)
        ]

    def termination_time(self, d_hat: int, delta: float) -> float:
        return 2.0 * d_hat * delta
