"""CI smoke for the cross-tenant shared-flood cache.

Drives the duplicate-heavy mix (most arrivals are redirected to a tiny
hot pool of identical WILDFIRE floods) over a 500-host Gnutella snapshot
twice -- sharing off, then sharing on -- and asserts the cache's whole
contract at once:

* the cache engages (hit rate > 0) and saves real work (fewer messages);
* every per-query declared value and cost fingerprint is bit-identical
  with sharing on or off, so the service-level determinism digest is too
  (content-derived seeds make the shared answer *the* answer).

The sharing run's report is written next to the committed benchmarks
(``SERVICE_sharing.out.json``, gitignored) so CI uploads it as an
artifact; override the path with ``REPRO_SERVICE_SHARING_OUT``.
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
)

OUT_PATH = os.environ.get(
    "REPRO_SERVICE_SHARING_OUT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "SERVICE_sharing.out.json"))


def test_shared_flood_cache_smoke():
    from repro.experiments.query_mix import run_query_mix
    from repro.workloads.query_mix import duplicate_heavy_mix

    mix = duplicate_heavy_mix(qps=SMOKE_KWARGS["qps"],
                              duration=SMOKE_KWARGS["duration"],
                              max_queries=24)
    solo = run_query_mix(**SMOKE_KWARGS, mix=mix, share_floods=False)
    shared = run_query_mix(**SMOKE_KWARGS, mix=mix, share_floods=True)

    summary = shared["summary"]
    assert summary["queries"] == 24
    assert summary["answered"] == 24
    # A static, fixed-delay mix: leaders ran on their tick lanes and
    # subscribers report their leader's path.  A lane that silently
    # declined measured a different program.
    for row in solo["rows"] + shared["rows"]:
        assert (row["lane_used"], row["fallback_reason"]) == (
            "vector", None), row["query_id"]

    # The duplicate-heavy mix must actually exercise the cache...
    assert summary["cache_hits"] > 0
    hit_rate = summary["cache_hits"] / summary["queries"]
    assert hit_rate > 0.0
    # ...and subscriptions replace floods, so the substrate carries
    # strictly fewer messages for the same answered load.
    assert summary["messages_sent"] < solo["summary"]["messages_sent"]

    # The correctness half: sharing is invisible per query.  Values and
    # cost fingerprints are bit-identical with the cache on or off
    # (subscriber rows additionally carry their cache_hit annotations).
    assert len(shared["rows"]) == len(solo["rows"])
    for row_off, row_on in zip(solo["rows"], shared["rows"]):
        assert row_off["query_id"] == row_on["query_id"]
        assert row_off["value"] == row_on["value"], row_off["query_id"]
        assert (row_off["cost_fingerprint"] == row_on["cost_fingerprint"]
                ), row_off["query_id"]
    assert (shared["summary"]["determinism_digest"]
            == solo["summary"]["determinism_digest"])

    payload = {
        "shared": shared,
        "solo_summary": solo["summary"],
        "cache_hit_rate": round(hit_rate, 4),
        "messages_saved": (solo["summary"]["messages_sent"]
                           - summary["messages_sent"]),
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nsharing smoke: {summary['cache_hits']}/{summary['queries']} "
          f"cache hits ({hit_rate:.0%}), messages "
          f"{solo['summary']['messages_sent']} -> "
          f"{summary['messages_sent']}, digest unchanged "
          f"{summary['determinism_digest'][:12]} (report at {OUT_PATH})")
