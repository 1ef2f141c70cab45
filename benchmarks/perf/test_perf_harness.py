"""Tier-1 checks of the perf harness itself (tiny sizes, no timing claims).

Sizes are passed as function arguments (about 300 hosts, one rep of each
kind); the command-line surface has no "small" switch.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _load(name: str):
    """Import ``benchmarks/perf/<name>.py`` under a collision-free name."""
    spec = importlib.util.spec_from_file_location(
        f"perf_harness_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")          # also puts benchmarks/perf on sys.path
compare = _load("compare")

import perf_spans  # noqa: E402
import perf_workloads  # noqa: E402

TINY = dict(hosts=300, seconds=0.0, min_reps=1, kernel_ops=2000)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _leaked_wrappers():
    leaked = []
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, perf_spans.WRAPPER_MARK, False):
                leaked.append(f"{name}.{attr}")
            if isinstance(value, type):
                leaked.extend(
                    f"{name}.{attr}.{member}"
                    for member, function in vars(value).items()
                    if getattr(function, perf_spans.WRAPPER_MARK, False))
    return leaked


def test_benchmark_json_names_the_harness():
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert ([w["name"] for w in BENCHMARK["workloads"]]
            == list(run.WORKLOAD_NAMES) == list(perf_workloads.WORKLOADS))
    assert ({m["name"]: (m["unit"], m["better"])
             for m in BENCHMARK["end_to_end"]} == run.END_TO_END)
    assert ({m["name"]: (m["unit"], m["better"])
             for m in BENCHMARK["per_layer"]} == run.layer_metrics())
    expected = json.load(open(run.EXPECTED_JSON))
    assert expected["commit"] and set(expected["workloads"]) == set(
        run.WORKLOAD_NAMES)
    for name, pins in expected["workloads"].items():
        assert pins["hosts"] == perf_workloads.WORKLOADS[name].hosts


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_exactly_the_declared_metrics(name, tmp_path):
    record = run.measure(perf_workloads.WORKLOADS[name], trace=True,
                         trace_dir=str(tmp_path), **TINY)
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        emitted = {metric: cell["unit"]
                   for metric, cell in record[section].items()}
        assert emitted == declared
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
                   for metric in emitted)
    assert record["attempted"] >= 2 and record["failed_frac"] == 0
    assert record["per_layer"]["simulation.stats.messages"]["value"] > 0
    trace = json.load(open(record["trace_file"]))
    assert any(event["name"] == "rep" for event in trace["traceEvents"])
    assert _leaked_wrappers() == []


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run wrapped a callable")

    monkeypatch.setattr(perf_spans.Recorder, "wrap", refuse)
    record = run.measure(perf_workloads.WORKLOADS["churn_sweep"], **TINY)
    assert "per_layer" not in record and record["failed_frac"] == 0
    assert _leaked_wrappers() == []


def test_corrupted_expected_digest_raises_failed_frac():
    workload = perf_workloads.WORKLOADS["flood_py"]
    good = run.measure(workload, expected={}, **TINY)
    pins = {"flood_py": {"ops": dict(good["ops"]), "counts": good["counts"]}}
    assert run.measure(workload, expected=pins, **TINY)["failed_frac"] == 0
    pins["flood_py"]["ops"]["flood"] = "0" * 16
    assert run.measure(workload, expected=pins, **TINY)["failed_frac"] == 1


def test_forced_lane_fallback_raises_failed_frac():
    # The vector lane declines variable delay and the spec loop runs
    # instead: same digest, but not the program the workload names.
    declined = perf_workloads.Flood("flood_vec", hosts=300, lane="vector",
                                    delay="uniform")
    assert run.measure(declined, expected={}, **TINY)["failed_frac"] == 1


def test_compare_flags_a_regression_and_passes_identical_files(tmp_path):
    record = run.measure(perf_workloads.WORKLOADS["flood_py"], expected={},
                         hosts=300, seconds=0.0, min_reps=4)
    record["noisy"] = False
    slower = json.loads(json.dumps(record))
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"]
                 if m["name"] == "run_s")
    slower["end_to_end"]["run_s"]["value"] *= 1.1 + bound
    # Tight samples, so that the step lies outside either side's spread.
    record["samples"]["run_s"] = [record["end_to_end"]["run_s"]["value"]] * 4
    slower["samples"]["run_s"] = [slower["end_to_end"]["run_s"]["value"]] * 4
    paths = {}
    for label, run_record in (("base", record), ("slow", slower)):
        paths[label] = str(tmp_path / f"{label}.json")
        with open(paths[label], "w") as handle:
            json.dump({"runs": [run_record], "claim": None}, handle)
    out = io.StringIO()
    assert compare.compare([(paths["base"], paths["base"])], out=out) == 0
    assert "regressed" not in out.getvalue()
    out = io.StringIO()
    assert compare.compare([(paths["base"], paths["slow"])], out=out) == 1
    assert [line.split()[:2] for line in out.getvalue().splitlines()
            if "regressed" in line] == [["flood_py", "run_s"]]
