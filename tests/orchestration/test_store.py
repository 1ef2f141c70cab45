"""ResultStore: content addressing, corruption handling, targeted eviction."""

import json

import pytest

from repro.orchestration.figures import run_figure_matrix
from repro.orchestration.store import ResultStore


def run(store, scale=1.0, trials=1):
    """One ``echo`` figure run (see ``conftest.py``); ``scale`` tells
    records apart."""
    return run_figure_matrix(["echo"], scale=scale, num_trials=trials,
                             store=store)["echo"]


def key_of(scale=1.0, trials=1):
    return run_figure_matrix(["echo"], scale=scale,
                             num_trials=trials)["echo"].cache_key


def test_cache_miss_then_hit(tmp_path, echo_figure):
    store = ResultStore(tmp_path / "cache")
    assert store.load(key_of(trials=2)) is None  # miss
    echo_figure.clear()
    cold = run(store, trials=2)
    assert len(echo_figure) == 2
    assert store.has(cold.cache_key)

    warm = run(store, trials=2)
    assert len(echo_figure) == 2  # nothing recomputed
    assert warm.fully_cached
    assert warm.values == cold.values


def test_corrupt_record_falls_back_to_recompute(tmp_path, echo_figure):
    store = ResultStore(tmp_path / "cache")
    cold = run(store)

    path = store.path_for(cold.cache_key)
    path.write_text("{ this is not json", encoding="utf-8")
    assert store.load(cold.cache_key) is None

    recovered = run(store)
    assert len(echo_figure) == 2  # recomputed once
    assert recovered.num_executed == 1
    assert recovered.values == cold.values
    # The rewritten record is valid again.
    assert store.has(cold.cache_key)


def test_record_with_wrong_hash_or_shape_is_ignored(tmp_path, echo_figure):
    store = ResultStore(tmp_path)
    spec_hash = key_of()
    path = store.path_for(spec_hash)
    path.parent.mkdir(parents=True)

    path.write_text(json.dumps({"hash": "f" * 64, "trials": {}}))
    assert store.load(spec_hash) is None
    path.write_text(json.dumps({"hash": spec_hash, "trials": "oops"}))
    assert store.load(spec_hash) is None
    path.write_text(json.dumps([1, 2, 3]))
    assert store.load(spec_hash) is None


def test_clear_removes_only_the_targeted_spec(tmp_path, echo_figure):
    store = ResultStore(tmp_path / "cache")
    key_a, key_b = run(store, scale=1.0).cache_key, \
        run(store, scale=2.0).cache_key
    assert len(store.entries()) == 2

    removed = store.clear(key_a)
    assert removed == 1
    assert not store.has(key_a)
    assert store.has(key_b)

    # Prefix eviction and clear-all.
    run(store, scale=1.0)
    assert store.clear(key_b[:12]) == 1
    assert store.clear() == 1
    assert store.entries() == []


def test_clear_refuses_short_or_ambiguous_prefixes(tmp_path, echo_figure):
    store = ResultStore(tmp_path / "cache")
    run(store, scale=1.0)
    run(store, scale=2.0)

    with pytest.raises(ValueError, match="too short"):
        store.clear("3")

    # Craft a second record sharing an 8-char prefix to force ambiguity.
    real = store.entries()[0]["hash"]
    twin = real[:8] + "0" * 56
    store.path_for(twin).write_text("{}")
    with pytest.raises(ValueError, match="ambiguous"):
        store.clear(real[:8])
    assert len(store.entries()) == 3  # nothing was deleted
    # The full hash still targets exactly one record.
    assert store.clear(real) == 1


def test_entries_report_corrupt_records(tmp_path, echo_figure):
    store = ResultStore(tmp_path / "cache")
    store.path_for(run(store).cache_key).write_text("garbage")
    entries = store.entries()
    assert len(entries) == 1
    assert entries[0]["name"] == "<corrupt>"


def test_default_root_honours_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert ResultStore().root == tmp_path / "elsewhere"
