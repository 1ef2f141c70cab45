"""Executor: parallel determinism, incremental resume, seed mapping."""

from typing import Any, Dict

import pytest

from repro.orchestration.executor import ParallelExecutor, run_spec
from repro.orchestration.runners import resolve_runner
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore


def echo_runner(params: Dict[str, Any], seed: int):
    """Module-level so it resolves by import path inside pool workers."""
    return {"x": params.get("x"), "seed": seed}


ECHO = f"{__name__}:echo_runner"


def tiny_matrix_spec(num_trials=2):
    """A real (topology x protocol x aggregate) matrix, small enough for CI."""
    return ExperimentSpec.create(
        "tiny validity matrix",
        "validity-point",
        axes={
            "topology": ["ring", "star"],
            "protocol": ["wildfire", "spanning-tree"],
            "aggregate": ["count"],
            "size": [16],
        },
        num_trials=num_trials,
    )


def test_worker_count_does_not_change_results():
    """Determinism regression: workers=1 and workers=4 agree bit-for-bit."""
    spec_serial = tiny_matrix_spec()
    spec_pool = tiny_matrix_spec()
    assert spec_serial.content_hash() == spec_pool.content_hash()

    serial = run_spec(spec_serial, workers=1)
    pooled = run_spec(spec_pool, workers=4)

    assert serial.spec_hash == pooled.spec_hash
    assert [t.seed for t in serial.results] == [t.seed for t in pooled.results]
    assert serial.values == pooled.values
    assert serial.workers == 1 and pooled.workers == 4


def test_trial_order_is_by_index_regardless_of_completion_order():
    spec = ExperimentSpec.create("echo", ECHO, axes={"x": [1, 2, 3]},
                                 num_trials=2)
    report = run_spec(spec, workers=3)
    assert [t.index for t in report.results] == list(range(6))
    assert [t.value["x"] for t in report.results] == [1, 1, 2, 2, 3, 3]


def test_incremental_resume_runs_only_missing_trials(tmp_path):
    store = ResultStore(tmp_path)
    small = ExperimentSpec.create("echo", ECHO, axes={"x": [1]}, num_trials=2)
    run_spec(small, store=store)

    # Simulate an interrupted run by dropping one trial from the record.
    spec_hash = small.cache_key()
    record = store.load(spec_hash)
    del record["trials"]["1"]
    store.save(spec_hash, record)

    resumed = run_spec(small, store=store)
    assert resumed.num_cached == 1
    assert resumed.num_executed == 1
    # The recomputed trial matches what a fresh full run produces.
    fresh = run_spec(small, store=None)
    assert resumed.values == fresh.values


def failing_runner(params, seed):
    if params.get("x") == 2:
        raise RuntimeError("boom")
    return {"x": params.get("x")}


FAILING = f"{__name__}:failing_runner"


def test_completed_trials_persist_when_a_later_trial_fails(tmp_path):
    store = ResultStore(tmp_path)
    spec = ExperimentSpec.create("partial", FAILING, axes={"x": [1, 2]})
    with pytest.raises(RuntimeError, match="boom"):
        run_spec(spec, store=store)  # serial: trial 0 completes, trial 1 raises
    surviving = store.cached_trials(spec.cache_key())
    assert list(surviving) == [0]
    assert surviving[0]["value"] == {"x": 1}


def test_run_many_shares_one_pool_across_specs(tmp_path):
    from repro.orchestration.executor import run_specs

    store = ResultStore(tmp_path)
    specs = [ExperimentSpec.create(f"echo-{x}", ECHO, axes={"x": [x]})
             for x in (10, 20, 30)]
    reports = run_specs(specs, workers=3, store=store)
    assert [r.values[0]["x"] for r in reports] == [10, 20, 30]
    assert all(store.has(r.cache_key) for r in reports)
    # Identical to running each spec on its own.
    solo = [run_spec(spec) for spec in specs]
    assert [r.values for r in reports] == [r.values for r in solo]


def test_force_recomputes_and_rewrites(tmp_path):
    store = ResultStore(tmp_path)
    spec = ExperimentSpec.create("echo", ECHO, axes={"x": [5]})
    first = run_spec(spec, store=store)
    forced = run_spec(spec, store=store, force=True)
    assert forced.num_executed == 1
    assert forced.values == first.values


def test_run_without_store_is_supported():
    spec = ExperimentSpec.create("echo", ECHO, axes={"x": [9]})
    report = run_spec(spec)
    assert report.values == [{"x": 9, "seed": report.results[0].seed}]
    assert not report.fully_cached


def test_progress_callback_reports_cache_and_trials(tmp_path):
    store = ResultStore(tmp_path)
    spec = ExperimentSpec.create("echo", ECHO, axes={"x": [1, 2]})
    messages = []
    run_spec(spec, store=store, progress=messages.append)
    assert len(messages) == 2  # one per executed trial
    messages.clear()
    run_spec(spec, store=store, progress=messages.append)
    assert any("cached" in message for message in messages)


def test_executor_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ParallelExecutor(workers=0)


def test_import_path_runner_resolution():
    assert resolve_runner(ECHO) is echo_runner
    with pytest.raises(KeyError):
        resolve_runner("no-such-runner")
    with pytest.raises((KeyError, ModuleNotFoundError)):
        resolve_runner("no.such.module:func")
