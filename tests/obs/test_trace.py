"""Tests for the structured trace layer.

The two contracts under test:

* a tracer *observes* -- a traced run is bit-identical (declared value,
  termination, full cost fingerprint) to an untraced run at the same
  seed, because the hooks never touch RNG streams, event ordering, or
  accounting;
* the ring is bounded and the per-kind counts stay exact under
  sampling, so a 100k-host trace cannot blow the export budget while
  still reporting true traffic totals.
"""

import json

import pytest

from repro.obs.trace import (
    DEFAULT_SAMPLING,
    RingTracer,
    Tracer,
)
from repro.protocols.base import run_protocol
from repro.protocols.wildfire import Wildfire
from repro.simulation.churn import ChurnSchedule
from repro.topology.random_graph import random_topology
from repro.workloads.values import uniform_values

SEED = 21


@pytest.fixture
def topology():
    return random_topology(48, avg_degree=4, seed=SEED)


@pytest.fixture
def values(topology):
    return uniform_values(topology.num_hosts, low=1, high=9, seed=SEED)


def _fingerprint(result):
    costs = result.costs
    return (
        result.value,
        result.finished_at,
        result.termination_time,
        costs.messages_sent,
        costs.wireless_transmissions,
        costs.dropped_messages,
        costs.max_chain_depth,
        sorted(costs.messages_processed.items()),
        sorted(costs.messages_by_time.items()),
    )


class TestObservationOnly:
    def test_traced_run_bit_identical_to_untraced(self, topology, values):
        churn = ChurnSchedule(failures=[(1.5, 7), (2.5, 12)])
        untraced = run_protocol(Wildfire(), topology, values, "count",
                                churn=churn, seed=SEED)
        tracer = RingTracer()
        traced = run_protocol(Wildfire(), topology, values, "count",
                              churn=churn, seed=SEED, tracer=tracer)
        assert _fingerprint(traced) == _fingerprint(untraced)
        # ... and the tracer actually saw the run.
        assert tracer.counts["send"] == traced.costs.messages_sent
        assert tracer.counts["fail"] == 2

    def test_base_tracer_exercises_call_sites_without_recording(
            self, topology, values):
        plain = run_protocol(Wildfire(), topology, values, "count",
                             seed=SEED)
        noop = run_protocol(Wildfire(), topology, values, "count",
                            seed=SEED, tracer=Tracer())
        assert _fingerprint(noop) == _fingerprint(plain)


class TestRing:
    def test_exact_counts_survive_sampling(self):
        tracer = RingTracer(sampling={"send": 10})
        for i in range(95):
            tracer.send(float(i), i, i + 1, "Aggregate")
        assert tracer.counts["send"] == 95
        # Every 10th admitted: records 0, 10, ..., 90.
        assert len(tracer) == 10

    def test_multicast_weight_bumps_count_by_fanout(self):
        tracer = RingTracer(sampling={})
        tracer.send(0.0, 3, -1, "Broadcast", count=17)
        assert tracer.counts["send"] == 17
        assert len(tracer) == 1

    def test_ring_keeps_newest_records(self):
        tracer = RingTracer(capacity=8, sampling={})
        for i in range(20):
            tracer.timer(float(i), i, "deadline")
        records = tracer.records()
        assert len(records) == 8
        assert [r["time"] for r in records] == [float(i) for i in range(12, 20)]
        assert tracer.counts["timer"] == 20

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)
        with pytest.raises(ValueError):
            RingTracer(sampling={"send": 0})

    def test_summary_reports_counts_and_occupancy(self):
        tracer = RingTracer(capacity=100, sampling={"send": 2})
        for i in range(6):
            tracer.send(float(i), 0, 1, "Aggregate")
        summary = tracer.summary()
        assert summary["counts"] == {"send": 6}
        assert summary["recorded"] == 3
        assert summary["capacity"] == 100
        assert summary["sampling"] == {"send": 2}


class TestExporters:
    @pytest.fixture
    def populated(self, topology, values):
        tracer = RingTracer(sampling=DEFAULT_SAMPLING)
        run_protocol(Wildfire(), topology, values, "count", seed=SEED,
                     tracer=tracer)
        tracer.phase("simulate", 0.0, 1.25, detail=topology.num_hosts)
        tracer.session(0.0, 1, "launch", "wildfire")
        tracer.session(8.0, 1, "declare", 42.0)
        return tracer

    def test_jsonl_header_plus_one_object_per_record(self, populated,
                                                     tmp_path):
        path = tmp_path / "trace.jsonl"
        written = populated.export_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == written + 1
        header = json.loads(lines[0])
        assert header["type"] == "meta"
        assert header["counts"] == populated.summary()["counts"]
        kinds = {json.loads(line)["type"] for line in lines[1:]}
        assert {"send", "deliver", "phase", "session"} <= kinds

    def test_chrome_export_is_perfetto_shaped(self, populated, tmp_path):
        path = tmp_path / "trace.json"
        written = populated.export_chrome(str(path))
        with open(path) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert len(events) == written == len(populated)
        phases = {e["ph"] for e in events}
        assert "i" in phases            # thread instants
        assert "X" in phases            # wall-clock phase span
        assert {"b", "e"} <= phases     # session async span
        span = next(e for e in events if e["ph"] == "X")
        # One simulation second maps to one trace microsecond.
        assert span["dur"] == pytest.approx(1.25e6)
        assert payload["metadata"]["counts"] == populated.summary()["counts"]


class TestExporterEdgeCases:
    def test_empty_ring_exports_header_only_jsonl(self, tmp_path):
        tracer = RingTracer()
        path = tmp_path / "empty.jsonl"
        assert tracer.export_jsonl(str(path)) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["type"] == "meta"
        assert header["counts"] == {}

    def test_empty_ring_exports_loadable_chrome_json(self, tmp_path):
        tracer = RingTracer()
        path = tmp_path / "empty.json"
        assert tracer.export_chrome(str(path)) == 0
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"] == []
        assert payload["metadata"]["counts"] == {}

    def test_heavily_sampled_ring_keeps_exact_counts(self, tmp_path):
        # Sampling thins the *ring*, never the counters: with a step
        # larger than the event volume almost nothing is resident, yet
        # the exported metadata still reports every hook invocation.
        step = 10 ** 6
        tracer = RingTracer(sampling={"send": step, "deliver": step,
                                      "timer": step, "drop": step})
        for i in range(500):
            tracer.send(float(i), 0, 1, "Aggregate")
            tracer.deliver(float(i), 0, 1, "Aggregate", 1)
            tracer.timer(float(i), 1, "flush")
            tracer.drop(float(i), 2)
        assert dict(tracer.counts) == {
            "send": 500, "deliver": 500, "timer": 500, "drop": 500}
        assert len(tracer) == 4  # the first event of each kind
        path = tmp_path / "sampled.jsonl"
        written = tracer.export_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert written == 4
        assert len(lines) == 5
        header = json.loads(lines[0])
        assert header["counts"] == dict(tracer.counts)
        chrome = tmp_path / "sampled.json"
        tracer.export_chrome(str(chrome))
        with open(chrome) as handle:
            payload = json.load(handle)
        assert payload["metadata"]["counts"] == dict(tracer.counts)


class TestProcessMerge:
    def _child(self, shard, base):
        # An empty sampling map means every kind records at step 1, so
        # the expected resident counts are exact.
        child = RingTracer(capacity=64, sampling={})
        for i in range(4):
            t = base + float(i)
            child.send(t, shard, -1, "Aggregate", count=3)
            child.deliver(t + 0.5, shard, shard + 1, "Aggregate", 1, t)
        child.timer(base + 4.0, shard, "flush")
        return child

    def test_ingest_folds_counts_and_tracks(self):
        parent = RingTracer()
        for shard in range(2):
            child = self._child(shard, base=float(shard))
            parent.ingest_process(f"shard {shard}", child.raw_records(),
                                  counts=dict(child.counts))
        # Multicast sends count their fan-out (width 3 x 4 per child).
        assert dict(parent.counts) == {"send": 24, "deliver": 8, "timer": 2}
        assert [p["label"] for p in parent.processes] == [
            "shard 0", "shard 1"]
        summary = parent.summary()
        assert [p["recorded"] for p in summary["processes"]] == [9, 9]

    def test_merged_chrome_round_trips_with_monotonic_tracks(
            self, tmp_path):
        parent = RingTracer()
        spans = [("barrier e1", 0.001, 0.002, {"epoch": 1}),
                 ("epoch e1", 0.003, 0.004, {"epoch": 1})]
        for shard in range(3):
            child = self._child(shard, base=float(shard))
            parent.ingest_process(f"shard {shard}", child.raw_records(),
                                  counts=dict(child.counts),
                                  spans=spans)
        path = tmp_path / "merged.json"
        written = parent.export_chrome(str(path))
        with open(path) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert len(events) == written
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert set(names.values()) == {
            "shard 0", "shard 1", "shard 2",
            "epoch barriers (wall clock)"}
        # Per-(pid, tid) track timestamps must be monotone or Perfetto
        # rejects the trace.
        tracks = {}
        for event in events:
            if event["ph"] == "M":
                continue
            tracks.setdefault((event["pid"], event.get("tid")),
                              []).append(event["ts"])
        assert tracks, "merged trace renders real events"
        for stamps in tracks.values():
            assert stamps == sorted(stamps)
        span_events = [e for e in events if e["ph"] == "X"
                       and e["cat"] in ("barrier", "epoch")]
        assert len(span_events) == 3 * len(spans)

    def test_merged_jsonl_labels_every_process_record(self, tmp_path):
        parent = RingTracer()
        parent.send(0.0, 0, 1, "Aggregate")  # parent's own ring
        child = self._child(0, base=0.0)
        parent.ingest_process("shard 0", child.raw_records(),
                              counts=dict(child.counts))
        path = tmp_path / "merged.jsonl"
        written = parent.export_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["type"] == "meta"
        body = rows[1:]
        assert len(body) == written
        tracked = [row for row in body if "track" in row]
        assert len(tracked) == 9
        assert {row["track"] for row in tracked} == {"shard 0"}
        untracked = [row for row in body if "track" not in row]
        assert len(untracked) == 1  # the parent's own send
