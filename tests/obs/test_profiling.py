"""Tests for profiling: the cProfile capture window and the wall-clock
phase spans a traced scale benchmark records."""

import json
import pstats

import pytest

from repro.experiments.scale_bench import run_scale_benchmark
from repro.obs.profiling import ProfileCapture
from repro.obs.trace import RingTracer


def _busy_work(n: int = 40_000) -> int:
    total = 0
    for i in range(n):
        total += i & 15
    return total


class TestProfileCapture:
    def test_dump_loads_with_pstats(self, tmp_path):
        capture = ProfileCapture()
        with capture:
            _busy_work()
        path = str(tmp_path / "profile.pstats")
        assert capture.dump(path) == path
        stats = pstats.Stats(path)
        assert stats.total_calls > 0
        with open(path + ".json") as handle:
            sidecar = json.load(handle)
        assert set(sidecar) == {"elapsed_seconds", "top_functions"}
        assert sidecar["elapsed_seconds"] == pytest.approx(
            capture.elapsed)
        assert sidecar["top_functions"]
        assert all({"function", "calls", "cumulative_seconds"}
                   <= set(row) for row in sidecar["top_functions"])

    def test_top_functions_ranked_by_cumulative_time(self):
        capture = ProfileCapture()
        with capture:
            _busy_work()
        rows = capture.top_functions(5)
        assert len(rows) <= 5
        cumulative = [row["cumulative_seconds"] for row in rows]
        assert cumulative == sorted(cumulative, reverse=True)


def test_traced_scale_benchmark_records_its_two_phases():
    tracer = RingTracer(sampling={})
    row = run_scale_benchmark(120, topology="random", tracer=tracer)
    phases = [r for r in tracer.records() if r["type"] == "phase"]
    assert [(p["name"], p["detail"]) for p in phases] == [
        ("generate_topology", 120), ("simulate", 120)]
    generate, simulate = phases
    assert generate["start"] == 0.0
    assert simulate["start"] >= generate["duration"]
    assert round(generate["duration"], 4) == row["gen_seconds"]
    assert round(simulate["duration"], 4) == row["run_seconds"]
