"""Query model: one-time aggregates, continuous queries, size estimation."""

from repro import lazy_exports

_EXPORTS = {
    "AggregateQuery": "query",
    "QueryKind": "query",
    "ContinuousQuery": "continuous",
    "WindowedResult": "continuous",
    "CaptureRecaptureEstimator": "size_estimation",
    "RingSegmentEstimator": "size_estimation",
    "required_sample_size": "size_estimation",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
