"""Multi-tenant query service: many concurrent aggregate queries, one
shared simulated network.

The paper's setting is a P2P network where *many* users continuously
issue aggregate queries; every experiment driver elsewhere in this
repository builds a private simulator per query, which scales hosts but
not concurrent query load.  This subsystem is the missing layer:

* :class:`~repro.service.service.QueryService` -- the session manager
  (``submit`` / ``poll`` / ``retire``) over one live network;
* :class:`~repro.service.engine.MuxEngine` -- one calendar-queue event
  loop driving every session's protocol instances, demultiplexing on the
  query id carried in every :class:`~repro.simulation.messages.Message`;
* :class:`~repro.service.session.QuerySession` -- per-query protocol
  state, seed stream, cost sink and virtual clock, which together make a
  query's result bit-identical to a solo run regardless of interleaving;
* :class:`~repro.service.sharing.SharedFloodCache` -- the cross-tenant
  shared-flood cache: sessions whose computation key matches an
  in-flight computation subscribe to it instead of flooding;
* :class:`~repro.service.admission.AdmissionController` -- the overload
  control loop (shed / defer / degrade) driven by the live per-tenant
  queue-depth, late-delivery and budget signals.

The open-world workload side (Poisson arrivals, mixed protocols, mixed
one-shot/continuous queries) lives in
:mod:`repro.workloads.query_mix`, the experiment driver in
:mod:`repro.experiments.query_mix`, and the CLI in ``repro serve``.
"""

from repro import lazy_exports

_EXPORTS = {
    "AdmissionConfig": "admission",
    "AdmissionController": "admission",
    "MuxEngine": "engine",
    "QueryService": "service",
    "ServiceReport": "service",
    "QueryOutcome": "session",
    "QuerySession": "session",
    "QueryStatus": "session",
    "SharedFloodCache": "sharing",
    "computation_key": "sharing",
    "consensus_seed": "sharing",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
