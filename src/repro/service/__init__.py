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

from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.engine import MuxEngine
from repro.service.service import QueryService, ServiceReport
from repro.service.session import QueryOutcome, QuerySession, QueryStatus
from repro.service.sharing import (
    SharedComputation,
    SharedFloodCache,
    computation_key,
    consensus_seed,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "MuxEngine",
    "QueryService",
    "ServiceReport",
    "QueryOutcome",
    "QuerySession",
    "QueryStatus",
    "SharedComputation",
    "SharedFloodCache",
    "computation_key",
    "consensus_seed",
]
