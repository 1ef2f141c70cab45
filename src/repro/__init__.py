"""Reproduction of "The Price of Validity in Dynamic Networks" (Bawa et al.).

The package implements the paper's contribution -- Single-Site Validity
semantics and the WILDFIRE protocol -- together with every substrate the
evaluation depends on: a discrete-event network simulator, topology and
workload generators, Flajolet-Martin duplicate-insensitive sketches, the
best-effort baseline protocols, and an experiment harness that regenerates
every table and figure of the paper's evaluation section.

A package of ``repro`` imports nothing when it is imported (only
:mod:`repro.topology` loads its generators): its exported names resolve
on first use (:func:`lazy_exports`), so a run loads only the modules it
reaches.

Quickstart
----------
>>> from repro import ValidAggregator, topology, workloads
>>> topo = topology.random_topology(200, avg_degree=5, seed=1)
>>> values = workloads.zipf_values(len(topo), seed=1)
>>> agg = ValidAggregator(topo, values, seed=1)
>>> result = agg.query("max")
>>> result.value == max(values)
True
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package, table):
    """The PEP 562 ``(__getattr__, __dir__)`` pair of ``package``, whose
    exported names resolve on first use.

    ``table`` maps each exported name to its defining module, relative to
    ``package``; a name mapped to itself is that submodule.  The first
    access imports the module and binds the name on the package, so later
    lookups never come back here.  The tables are the one sanctioned late
    resolution of a ``repro`` name; ``tests/test_layering.py`` resolves
    every entry in a fresh interpreter.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{table[name]}")
        value = namespace[name] = (
            module if table[name] == name else getattr(module, name))
        return value

    def __dir__():
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "ValidAggregator": "core.aggregator",
    "ProtocolConfig": "core.config",
    "SimulationConfig": "core.config",
    "QueryResult": "core.results",
    "ValidityCertificate": "core.results",
    "AggregateQuery": "queries.query",
    "QueryKind": "queries.query",
    "ValidityBounds": "semantics.validity",
    "check_single_site_validity": "semantics.validity",
    **{package: package for package in (
        "core", "experiments", "orchestration", "protocols", "queries",
        "semantics", "service", "simulation", "sketches", "topology",
        "workloads")},
}
__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
