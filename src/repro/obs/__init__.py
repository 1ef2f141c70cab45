"""Telemetry subsystem: tracing, live metrics streams, provenance,
profiling, logging.

The observability layer for the simulation kernel and the query
service.  Everything here obeys one contract: **zero cost when
disabled**.  Tracing is off unless a tracer is passed to an engine;
profiling wraps a run from the outside.  With everything disabled the
kernel's event loop executes the exact same instruction stream as before
this package existed, and the golden seeded snapshots stay
bit-identical.

No number is computed here a second time: a run's costs are
``CostAccounting.summary()`` and ``footprint_bytes()``, queue occupancy
is ``EventQueue.occupancy()``, and the service's snapshot is
``QueryService.metrics()``, each read on demand from the module that
owns the state.

The sharded lane keeps the same contract per worker: its workers trace
into private rings the coordinator merges into one multi-process trace
(:meth:`RingTracer.ingest_process`), and the epoch/barrier wall-clock
timeline lands in :class:`~repro.obs.timeline.ShardTimeline`.  Live
metrics (the service's snapshots, a bench run's resident set size)
stream out through :mod:`repro.obs.stream` while a run is still in
flight.
"""

from repro import lazy_exports

_EXPORTS = {
    "ProfileCapture": "profiling",
    "MetricsStreamWriter": "stream",
    "PeriodicSampler": "stream",
    "ShardTimeline": "timeline",
    "current_rss_mb": "stream",
    "EstimateProvenance": "provenance",
    "ProvenanceTracer": "provenance",
    "run_protocol_with_provenance": "provenance",
    "DEFAULT_CAPACITY": "trace",
    "DEFAULT_SAMPLING": "trace",
    "RingTracer": "trace",
    "Tracer": "trace",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
