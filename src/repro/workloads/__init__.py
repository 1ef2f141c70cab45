"""Workload generators: attribute-value distributions and query mixes."""

from repro import lazy_exports

_EXPORTS = {
    "zipf_values": "values",
    "uniform_values": "values",
    "constant_values": "values",
    "QueryMixConfig": "query_mix",
    "QuerySubmission": "query_mix",
    "generate_query_mix": "query_mix",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
