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

from repro.protocols.base import Protocol
from repro.protocols.dag import ConvergecastBatchKernel, DagHost

BROADCAST = "st-broadcast"
REPORT = "st-report"


class SpanningTreeHost(DagHost):
    """Per-host SPANNINGTREE state machine: the convergecast body of
    :class:`~repro.protocols.dag.DagHost` run with one parent slot
    (:class:`SpanningTree` passes ``num_parents=1``), so every transition
    -- ``adopt``, ``take_report``, ``report_due`` -- is DAG-k's, shared
    with the batch kernel, and only the two message-kind strings differ."""

    __slots__ = ()

    broadcast_kind = BROADCAST
    report_kind = REPORT
    batch_kernel = ConvergecastBatchKernel


class SpanningTree(Protocol):
    """Protocol object for SPANNINGTREE runs."""

    name = "spanning-tree"
    requires_duplicate_insensitive = False
    host_class = SpanningTreeHost

    def host_options(self, num_hosts: int) -> dict:
        return {"num_parents": 1}
