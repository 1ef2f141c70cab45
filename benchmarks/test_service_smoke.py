"""CI smoke for the multi-tenant query service.

A fast end-to-end drive of ``repro serve``'s machinery: 500 hosts, 20
mixed WILDFIRE/tree/DAG queries (one-shot and continuous), private
per-query cost sinks -- run TWICE, asserting per-query determinism: every
query's declared value and cost fingerprint must be bit-identical across
the two runs.  The full report of the first run is written next to the
committed benchmarks (``SERVICE_smoke.out.json``, gitignored) so CI can
upload it as an artifact; override the path with ``REPRO_SERVICE_OUT``.
"""

from __future__ import annotations

import json
import os

SMOKE_KWARGS = dict(
    num_hosts=500,
    topology="gnutella",
    qps=2.0,
    duration=15.0,
    seed=23,
    continuous_fraction=0.25,
    max_queries=20,
)

OUT_PATH = os.environ.get(
    "REPRO_SERVICE_OUT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "SERVICE_smoke.out.json"))


def test_serve_smoke_is_deterministic_per_query():
    from repro.experiments.query_mix import run_query_mix

    first = run_query_mix(**SMOKE_KWARGS)
    second = run_query_mix(**SMOKE_KWARGS)

    summary = first["summary"]
    assert summary["queries"] == 20
    assert summary["answered"] == 20
    assert summary["failed"] == 0
    # A static, fixed-delay mix: every session must have run on its tick
    # lane.  A lane that silently declined measured a different program.
    for row in first["rows"]:
        assert (row["lane_used"], row["fallback_reason"]) == (
            "vector", None), row["query_id"]

    # Per-query determinism: identical values and identical per-query
    # cost attribution, query by query, across independent service runs.
    assert len(first["rows"]) == len(second["rows"])
    for row_a, row_b in zip(first["rows"], second["rows"]):
        assert row_a["query_id"] == row_b["query_id"]
        assert row_a["value"] == row_b["value"], row_a["query_id"]
        assert row_a["cost_fingerprint"] == row_b["cost_fingerprint"], (
            row_a["query_id"])
    assert (summary["determinism_digest"]
            == second["summary"]["determinism_digest"])

    with open(OUT_PATH, "w") as handle:
        json.dump(first, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nservice smoke: {summary['answered']}/{summary['queries']} "
          f"queries, {summary['messages_sent']} messages, digest "
          f"{summary['determinism_digest'][:12]} (report at {OUT_PATH})")
