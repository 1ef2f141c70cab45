#!/usr/bin/env python
"""Multi-tenant query service: many concurrent queries, one network.

Builds one shared Gnutella-like overlay and multiplexes an open-world
query mix over it -- Poisson arrivals of WILDFIRE / spanning-tree / DAG
queries from random hosts, a slice of them continuous (periodic) streams
-- all driven by a single calendar-queue event loop.  Then demonstrates
the service's determinism contract by replaying one tenant's query solo
and comparing it bit-for-bit.

Run with:  python examples/query_mix.py
(equivalent CLI: repro serve --hosts 500 --qps 2 --duration 30)
"""

from __future__ import annotations

import random

from repro.experiments.tables import format_table
from repro.protocols.base import protocol_from_spec, run_protocol
from repro.service import QueryService, QueryStatus
from repro.topology.gnutella import gnutella_like_topology
from repro.workloads.query_mix import generate_query_mix


def main() -> None:
    num_hosts = 500
    seed = 42
    topo = gnutella_like_topology(num_hosts, seed=seed)
    rng = random.Random(seed)
    values = [rng.random() * 100.0 for _ in range(num_hosts)]

    # ------------------------------------------------------------------
    # Generate the open-world load: ~2 query streams per time unit for 30
    # units, 20% of them continuous streams of 3 reports each.
    # ------------------------------------------------------------------
    submissions = generate_query_mix(
        num_hosts, qps=2.0, duration=30.0, seed=seed,
        continuous_fraction=0.2, period=8.0, reports=3)
    print(f"Workload: {len(submissions)} query submissions over 30 time "
          f"units on {topo.name} ({num_hosts} hosts)")

    # ------------------------------------------------------------------
    # Multiplex everything over one service (one live network, one event
    # loop, per-query seed streams and cost accounting).
    # ------------------------------------------------------------------
    service = QueryService(topo, values, seed=seed)
    ids = [
        service.submit(s.protocol, s.aggregate, querying_host=s.querying_host,
                       at=s.time, stream=s.stream)
        for s in submissions
    ]
    report = service.run()
    print(f"Answered {report.answered}/{len(ids)} queries in "
          f"{report.elapsed:.2f}s wall "
          f"({report.queries_per_second:.1f} queries/s, "
          f"{report.messages_sent} messages)\n")

    rows = []
    for outcome in report.outcomes[:10]:
        rows.append({
            "id": outcome.query_id,
            "protocol": outcome.protocol,
            "query": outcome.query.kind.value,
            "host": outcome.querying_host,
            "launched": outcome.submitted_at,
            "declared": outcome.declared_at,
            "value": (round(outcome.value, 2)
                      if outcome.value is not None else None),
            "messages": outcome.costs.communication_cost,
        })
    print(format_table(rows, title="First 10 tenants"))
    print()

    # ------------------------------------------------------------------
    # Determinism contract: replay one tenant's query solo with its
    # session seed and the service's shared d_hat -- the declared value
    # and the full cost accounting must match bit-for-bit.
    # ------------------------------------------------------------------
    sample = next(o for o in report.outcomes
                  if o.status is QueryStatus.DONE)
    solo = run_protocol(
        protocol_from_spec(sample.protocol), topo, values,
        sample.query.kind.value, querying_host=sample.querying_host,
        seed=sample.seed, d_hat=service.d_hat)
    print(f"Replaying query {sample.query_id} ({sample.protocol} "
          f"{sample.query.kind.value}) solo:")
    print(f"  service value {sample.value!r} == solo value {solo.value!r}: "
          f"{sample.value == solo.value}")
    print(f"  cost fingerprints match: "
          f"{sample.costs.fingerprint() == solo.costs.fingerprint()}")


if __name__ == "__main__":
    main()
