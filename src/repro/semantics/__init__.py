"""Validity semantics: host-set bounds, oracle, and validity metrics."""

from repro import lazy_exports

_EXPORTS = {
    "ValidityBounds": "validity",
    "check_single_site_validity": "validity",
    "check_approximate_single_site_validity": "validity",
    "stable_core": "validity",
    "Oracle": "oracle",
    "relative_error": "metrics",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
