"""Duplicate-insensitive aggregation sketches and combine functions.

Section 5.2 of the paper adapts the Flajolet-Martin (FM) probabilistic
counting sketch into duplicate-insensitive COUNT and SUM operators whose
combine function is a bitwise OR, which lets the WILDFIRE protocol aggregate
them without worrying about a value being folded in more than once.
"""

from repro import lazy_exports

_EXPORTS = {
    "FMSketch": "fm",
    "FM_CORRECTION": "fm",
    "Combiner": "combiners",
    "MinCombiner": "combiners",
    "MaxCombiner": "combiners",
    "ExactCountCombiner": "combiners",
    "ExactSumCombiner": "combiners",
    "ExactAverageCombiner": "combiners",
    "FMCountCombiner": "combiners",
    "FMSumCombiner": "combiners",
    "FMAverageCombiner": "combiners",
    "AverageState": "combiners",
    "combiner_for_query": "combiners",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
