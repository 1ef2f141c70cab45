"""Telemetry subsystem: tracing, metrics, provenance, profiling, logging.

The observability layer for the simulation kernel and the query
service.  Everything here obeys one contract: **zero cost when
disabled**.  Tracing is off unless a tracer is passed to (or bound as
the process default before constructing) an engine; metrics are pulled
from structures the engines already maintain; profiling wraps a run
from the outside.  With everything disabled the kernel's event loop
executes the exact same instruction stream as before this package
existed, and the golden seeded snapshots stay bit-identical.

The distributed pieces keep the same contract per worker: sharded-lane
workers trace into private rings the coordinator merges into one
multi-process trace (:meth:`RingTracer.ingest_process`), the
epoch/barrier wall-clock timeline lands in
:class:`~repro.obs.timeline.ShardTimeline`, and live metrics stream out
through :mod:`repro.obs.stream` while a run is still in flight.
"""

from repro import lazy_exports

_EXPORTS = {
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "collect_queue_metrics": "metrics",
    "collect_run_metrics": "metrics",
    "collect_service_metrics": "metrics",
    "collect_shard_metrics": "metrics",
    "PhaseTimer": "profiling",
    "ProfileCapture": "profiling",
    "MetricsStreamWriter": "stream",
    "PeriodicSampler": "stream",
    "ShardProgressBoard": "stream",
    "ShardTimeline": "timeline",
    "current_rss_mb": "stream",
    "default_progress_board": "stream",
    "progress_board": "stream",
    "set_progress_board": "stream",
    "EstimateProvenance": "provenance",
    "ProvenanceTracer": "provenance",
    "run_protocol_with_provenance": "provenance",
    "DEFAULT_CAPACITY": "trace",
    "DEFAULT_SAMPLING": "trace",
    "RingTracer": "trace",
    "Tracer": "trace",
    "default_tracer": "trace",
    "set_default_tracer": "trace",
    "tracing": "trace",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
