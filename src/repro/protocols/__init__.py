"""In-network aggregation protocols.

* :class:`Wildfire` -- the paper's contribution: guarantees Single-Site
  Validity for duplicate-insensitive aggregates.
* :class:`AllReport` and :class:`RandomizedReport` -- the naive valid
  baselines of Section 4 (direct delivery of every value to the querying
  host, optionally sampled).
* :class:`SpanningTree` and :class:`DirectedAcyclicGraph` -- the efficient
  best-effort protocols the paper compares against.
* :class:`PushSumGossip` -- an eventual-consistency epidemic baseline from
  the related-work discussion.
"""

from repro import lazy_exports

_EXPORTS = {
    "Protocol": "base",
    "ProtocolRunResult": "base",
    "run_protocol": "base",
    "Wildfire": "wildfire",
    "WildfireHost": "wildfire",
    "SpanningTree": "spanning_tree",
    "SpanningTreeHost": "spanning_tree",
    "DirectedAcyclicGraph": "dag",
    "DagHost": "dag",
    "AllReport": "allreport",
    "AllReportHost": "allreport",
    "RandomizedReport": "randomized_report",
    "RandomizedReportHost": "randomized_report",
    "PushSumGossip": "gossip",
    "PushSumHost": "gossip",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
