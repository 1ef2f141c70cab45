"""Schema checks for perf artifacts: the committed trajectory and the
live metrics streams.

The trajectory file (``BENCH_kernel.json``) is append-only across PRs
and both the perf-smoke budget assertions and the README's perf
narrative read it, so a malformed append (a stringified number, a point
without a label, a clobbered reference block) must fail the suite
loudly rather than corrupt the record for every later session.

Metrics-stream artifacts (``*.out.jsonl``, written by ``--metrics-out``
with ``--metrics-interval`` and uploaded from CI) are held to the
writer's framing contract here so a tailing consumer can rely on it:
a ``meta`` header first, then ``sample``/``final`` rows with strictly
increasing ``seq`` and non-decreasing ``elapsed_s``.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY_PATH = os.path.join(BENCH_DIR, "BENCH_kernel.json")

#: Fields every trajectory point must carry.
REQUIRED_POINT_FIELDS = {"label": str}

#: Known numeric fields: when present they must be real numbers, never
#: stringified (a silent ``"464.16"`` would break every consumer that
#: compares or plots the trajectory).
NUMERIC_POINT_FIELDS = (
    "wildfire_1k_seconds", "calibration_seconds", "hosts", "queries",
    "answered", "run_seconds", "gen_seconds", "queries_per_second",
    "messages", "messages_per_second", "peak_rss_mb", "accounting_bytes",
    "shards", "value", "d_hat", "computation_cost", "time_cost", "seed",
    "offered_qps", "shed", "deferred", "degraded", "cache_hits",
    "cache_hit_rate", "msgs_per_query", "elapsed_s", "wall_s_per_query",
    "wall_qps", "knee_qps", "capacity_qps",
)

#: Every row of a recorded qps-vs-latency sweep must carry exactly these
#: measurements; a point missing its latency column would
#: silently break the knee comparison across PRs.
QPS_SWEEP_ROW_FIELDS = (
    "offered_qps", "queries", "answered", "shed", "deferred", "degraded",
    "cache_hits", "cache_hit_rate", "messages", "msgs_per_query",
    "elapsed_s", "wall_s_per_query", "wall_qps",
)


def _load():
    with open(TRAJECTORY_PATH) as handle:
        return json.load(handle)


def test_trajectory_top_level_shape():
    payload = _load()
    assert isinstance(payload, dict)
    for key in ("benchmark", "description", "reference", "trajectory"):
        assert key in payload, key
    assert isinstance(payload["benchmark"], str)
    assert isinstance(payload["description"], str)
    reference = payload["reference"]
    assert isinstance(reference, dict)
    for key in ("baseline_pre_rewrite_seconds", "required_speedup",
                "budget_seconds"):
        assert isinstance(reference.get(key), (int, float)), key
    assert isinstance(payload["trajectory"], list)
    assert payload["trajectory"], "the trajectory must never be emptied"


def test_trajectory_points_are_well_formed():
    for index, point in enumerate(_load()["trajectory"]):
        assert isinstance(point, dict), f"point {index} is not an object"
        for key, kind in REQUIRED_POINT_FIELDS.items():
            assert isinstance(point.get(key), kind), (
                f"point {index} ({point.get('label')!r}) needs a "
                f"{kind.__name__} {key!r}")
        for key in NUMERIC_POINT_FIELDS:
            if key in point:
                value = point[key]
                assert isinstance(value, (int, float)), (
                    f"point {index} ({point['label']!r}): {key!r} is "
                    f"{type(value).__name__} {value!r}, expected a number")
        # CLI-appended points nest rows; each row is then held to the
        # same numeric discipline.
        for row in point.get("rows", ()):
            assert isinstance(row, dict)
            for key in NUMERIC_POINT_FIELDS:
                if key in row and row[key] is not None:
                    assert isinstance(row[key], (int, float)), (
                        f"point {index} row field {key!r} is not numeric")
            _check_lane_fields(row, f"point {index}")
            _check_qps_sweep_fields(row, f"point {index}")


def _check_qps_sweep_fields(row, where):
    """A row that claims to be a sweep point carries the full set."""
    if "offered_qps" not in row:
        return
    for key in QPS_SWEEP_ROW_FIELDS:
        assert isinstance(row.get(key), (int, float)), (
            f"{where}: qps-sweep row at offered_qps="
            f"{row['offered_qps']!r} needs numeric {key!r}, got "
            f"{row.get(key)!r}")
    assert isinstance(row.get("share_floods"), bool), (
        f"{where}: qps-sweep rows must flag share_floods")


def _check_lane_fields(row, where):
    """Lane-attribution and sharded-block discipline for bench rows."""
    if "lane_used" in row:
        assert isinstance(row["lane_used"], str), (
            f"{where}: lane_used must be a string")
    if row.get("fallback_reason") is not None:
        assert isinstance(row["fallback_reason"], str), (
            f"{where}: fallback_reason must be a string or null")
        assert row.get("lane_used") != row.get("lane"), (
            f"{where}: a recorded fallback means lane_used differs "
            f"from the requested lane")
    sharded = row.get("sharded")
    if sharded is None:
        return
    assert isinstance(sharded, dict), f"{where}: sharded block"
    assert isinstance(sharded.get("shards"), int), (
        f"{where}: sharded.shards must be an int")
    timeline = sharded.get("timeline", [])
    assert isinstance(timeline, list), f"{where}: sharded.timeline"
    for sample in timeline:
        assert isinstance(sample, dict)
        for key in ("shard", "epoch", "t", "wall_start", "exchange_s",
                    "compute_s", "barrier_wait_s", "cross_records",
                    "queue_depth"):
            assert isinstance(sample.get(key), (int, float)), (
                f"{where}: timeline sample field {key!r} is "
                f"{sample.get(key)!r}, expected a number")
        assert 0 <= sample["shard"] < sharded["shards"], (
            f"{where}: timeline sample names shard {sample['shard']} "
            f"outside 0..{sharded['shards'] - 1}")


def test_trajectory_labels_are_unique():
    labels = [point["label"] for point in _load()["trajectory"]]
    assert len(labels) == len(set(labels)), (
        "duplicate trajectory labels make points unciteable: "
        f"{sorted(label for label in labels if labels.count(label) > 1)}")


# ----------------------------------------------------------------------
# Live metrics streams (--metrics-out *.jsonl)


def validate_metrics_stream(lines, where="stream"):
    """Assert the JSON Lines framing contract on one metrics stream.

    Reusable from other benchmarks: every line parses, the first is the
    ``meta`` header, every later row is ``sample`` or ``final`` with
    strictly increasing ``seq`` and non-decreasing ``elapsed_s``, and at
    most one ``final`` row sits last.  Returns the parsed rows.
    """
    rows = [json.loads(line) for line in lines if line.strip()]
    assert rows, f"{where}: empty stream"
    head = rows[0]
    assert head.get("type") == "meta", f"{where}: first row is the header"
    assert head.get("stream") == "metrics", f"{where}: stream tag"
    body = rows[1:]
    for index, row in enumerate(body):
        assert row.get("type") in ("sample", "final"), (
            f"{where}: row {index} has type {row.get('type')!r}")
        assert row.get("seq") == index, (
            f"{where}: row {index} carries seq {row.get('seq')!r}")
        assert isinstance(row.get("elapsed_s"), (int, float)), (
            f"{where}: row {index} needs a numeric elapsed_s")
    elapsed = [row["elapsed_s"] for row in body]
    assert elapsed == sorted(elapsed), (
        f"{where}: elapsed_s must be non-decreasing")
    finals = [row for row in body if row["type"] == "final"]
    assert len(finals) <= 1, f"{where}: at most one final row"
    if finals:
        assert body[-1]["type"] == "final", (
            f"{where}: the final row terminates the stream")
    return rows


def test_live_stream_framing_is_valid():
    """The writer's framing, proven on a freshly generated stream."""
    from repro.obs.stream import MetricsStreamWriter

    path = os.path.join(BENCH_DIR, "OBS_stream_schema.out.jsonl")
    with MetricsStreamWriter(path, meta={"command": "schema-check",
                                         "hosts": 0}) as writer:
        writer.sample({"service.queries": 1})
        writer.sample({"service.queries": 2})
        writer.final({"service.queries": 2})
    with open(path) as handle:
        rows = validate_metrics_stream(handle, where=path)
    assert rows[0]["command"] == "schema-check"
    assert [row["type"] for row in rows[1:]] == [
        "sample", "sample", "final"]


def test_collected_stream_artifacts_are_valid():
    """Every ``*.out.jsonl`` left beside the benchmarks (by the CI
    smoke jobs or a local ``--metrics-out`` run) must honour the
    framing; skip when none have been produced yet."""
    streams = sorted(glob.glob(os.path.join(BENCH_DIR, "*.out.jsonl")))
    if not streams:
        pytest.skip("no metrics-stream artifacts present")
    for path in streams:
        with open(path) as handle:
            validate_metrics_stream(handle, where=os.path.basename(path))
