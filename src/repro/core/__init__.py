"""The high-level public API: a validity-aware aggregation facade."""

from repro import lazy_exports

_EXPORTS = {
    "ValidAggregator": "aggregator",
    "ProtocolConfig": "config",
    "SimulationConfig": "config",
    "QueryResult": "results",
    "ValidityCertificate": "results",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
