"""Figure runs: identity, seeds, resume, persistence and the shared pool.

Serial tests run the ``echo`` figure (``conftest.py``); pool tests run
real figures at scale 0.05, since pool workers see only the registry
they were forked with.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments.figures import FIGURES, Figure, run_figure
from repro.orchestration.figures import (derive_trial_seed, run_figure_matrix,
                                         worker_utilisation)
from repro.orchestration.store import ResultStore


def identity(monkeypatch, figure_id, scale, num_trials, base_seed):
    """``(spec hash, seeds, cache key)`` of a figure run, without running
    the figure's real driver."""
    monkeypatch.setitem(FIGURES, figure_id, Figure(
        "stand-in", lambda scale, seed: [{"seed": seed}], lambda rows: []))
    report = run_figure_matrix([figure_id], scale=scale,
                               num_trials=num_trials,
                               base_seed=base_seed)[figure_id]
    return report.spec_hash, [r.seed for r in report.results], \
        report.cache_key


@pytest.mark.parametrize("run, spec_hash, seeds, cache_key", [
    (("fig6", 0.5, 3, 0),
     "1d9983a813619551122a2d66b21933e4c046bf474ed67fd8c2b287c041a5dd60",
     [668254802, 673229414, 732445262],
     "ddf28e7a7c8e428b50cf06735569d6add8c42f2aeeb4af7445c15a6eb8f4941b"),
    (("fig8", 1.0, 2, 7),
     "9edb1418494738e341e314f98b6bbb6ecfcb9e2b862f6d6a408189a9e19a465c",
     [1524715201, 597132794],
     "732b7d3adecc3c369b741f1ccb939ffb0796678efd58c5d157bad841351ef1bd"),
])
def test_identity_is_pinned(monkeypatch, run, spec_hash, seeds, cache_key):
    """Every cached record and every printed number hangs off these: a
    change here must be deliberate."""
    monkeypatch.setattr("repro.__version__", "1.0.0")
    assert identity(monkeypatch, *run) == (spec_hash, seeds, cache_key)


def test_version_bump_moves_the_key_and_keeps_the_seeds(monkeypatch):
    before = identity(monkeypatch, "fig6", 0.5, 3, 0)
    monkeypatch.setattr("repro.__version__", "999.0.0")
    after = identity(monkeypatch, "fig6", 0.5, 3, 0)
    assert after[:2] == before[:2] and after[2] != before[2]


def test_an_int_scale_is_the_same_experiment_as_its_float(monkeypatch):
    """``scale=1`` used to hash ``"scale":[1]``: other seeds, other
    numbers and a second cache record for the same experiment."""
    assert identity(monkeypatch, "fig6", 1, 2, 0) == \
        identity(monkeypatch, "fig6", 1.0, 2, 0)


@pytest.mark.parametrize("other", [
    ("fig7", 0.5, 3, 0), ("fig6", 0.25, 3, 0), ("fig6", 0.5, 4, 0),
    ("fig6", 0.5, 3, 7),
])
def test_every_identity_field_moves_the_hash(monkeypatch, other):
    assert identity(monkeypatch, *other)[0] != \
        identity(monkeypatch, "fig6", 0.5, 3, 0)[0]


def test_identity_is_the_same_in_a_fresh_interpreter(monkeypatch):
    """The identity must not lean on per-process state such as string
    hash randomisation: another interpreter computes the same values."""
    script = (
        "from repro.experiments.figures import FIGURES, Figure\n"
        "from repro.orchestration.figures import run_figure_matrix\n"
        "FIGURES['fig6'] = Figure('stand-in', lambda scale, seed: [], lambda rows: [])\n"
        "r = run_figure_matrix(['fig6'], scale=0.5, num_trials=3)['fig6']\n"
        "print(r.spec_hash, *[t.seed for t in r.results])\n")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    spec_hash, seeds, _ = identity(monkeypatch, "fig6", 0.5, 3, 0)
    assert out.split() == [spec_hash, *map(str, seeds)]


def test_the_figure_title_is_not_part_of_the_identity(monkeypatch):
    """Retitling a figure keeps its seeds and its cached records."""
    before = identity(monkeypatch, "fig6", 0.5, 3, 0)
    monkeypatch.setitem(FIGURES, "fig6", Figure(
        "a new title", lambda scale, seed: [{"seed": seed}], lambda rows: []))
    after = run_figure_matrix(["fig6"], num_trials=3)["fig6"]
    assert (after.spec_hash, [r.seed for r in after.results],
            after.cache_key) == before
    assert after.name == "a new title"


def test_different_figures_derive_disjoint_seed_streams(monkeypatch):
    _, fig6_seeds, _ = identity(monkeypatch, "fig6", 0.5, 8, 0)
    _, fig7_seeds, _ = identity(monkeypatch, "fig7", 0.5, 8, 0)
    assert not set(fig6_seeds) & set(fig7_seeds)


def test_seeds_derive_from_the_hash_and_the_index(echo_figure):
    report = run_figure_matrix(["echo"], num_trials=4, base_seed=3)["echo"]
    seeds = [derive_trial_seed(report.spec_hash, 3, i) for i in range(4)]
    assert [r.seed for r in report.results] == seeds == echo_figure
    assert len(set(seeds)) == 4
    assert report.values == [[{"scale": 0.5, "seed": s}] for s in seeds]


def test_unknown_figure_and_bad_counts_are_refused(echo_figure):
    with pytest.raises(KeyError, match="unknown figure"):
        run_figure_matrix(["fig99"])
    with pytest.raises(ValueError, match="workers"):
        run_figure_matrix(["echo"], workers=0)
    with pytest.raises(ValueError, match="num_trials"):
        run_figure_matrix(["echo"], num_trials=0)


def test_a_run_is_the_driver_called_with_the_derived_seed():
    report = run_figure_matrix(["fig6"], scale=0.05)["fig6"]
    assert report.values == [run_figure("fig6", scale=0.05,
                                        seed=report.results[0].seed)]


def test_incremental_resume_runs_only_missing_trials(tmp_path, echo_figure):
    store = ResultStore(tmp_path)
    first = run_figure_matrix(["echo"], num_trials=2, store=store)["echo"]
    # An interrupted run: drop one trial from the record.
    record = store.load(first.cache_key)
    del record["trials"]["1"]
    store.save(first.cache_key, record)

    resumed = run_figure_matrix(["echo"], num_trials=2, store=store)["echo"]
    assert (resumed.num_cached, resumed.num_executed) == (1, 1)
    assert echo_figure[2:] == [first.results[1].seed]
    assert resumed.values == first.values


def test_the_record_layout_is_spec_and_trials(tmp_path, echo_figure):
    """The store record keeps the layout older caches were written in."""
    store = ResultStore(tmp_path)
    report = run_figure_matrix(["echo"], num_trials=2, base_seed=4,
                               store=store)["echo"]
    record = store.load(report.cache_key)
    assert record["spec"] == {
        "name": "echo figure", "runner": "figure",
        "axes": {"figure": ["echo"], "scale": [0.5]},
        "num_trials": 2, "base_seed": 4}
    assert list(record["trials"]) == ["0", "1"]
    for result, entry in zip(report.results, record["trials"].values()):
        assert entry == {"params": {"figure": "echo", "scale": 0.5},
                         "seed": result.seed, "value": result.value,
                         "elapsed": result.elapsed}


def test_a_record_written_before_the_rewrite_still_serves(
        tmp_path, monkeypatch):
    """A record in the trial-matrix layout, under the pinned key, is
    served whole: its values come back and no driver runs."""
    monkeypatch.setattr("repro.__version__", "1.0.0")

    def driver(scale, seed):
        raise AssertionError("a cached trial ran")

    monkeypatch.setitem(FIGURES, "fig6", Figure(
        "stand-in", driver, lambda rows: []))
    key = "ddf28e7a7c8e428b50cf06735569d6add8c42f2aeeb4af7445c15a6eb8f4941b"
    seeds = [668254802, 673229414, 732445262]
    trials = {str(index): {"params": {"figure": "fig6", "scale": 0.5},
                           "seed": seed, "value": [{"row": index}],
                           "elapsed": 0.25}
              for index, seed in enumerate(seeds)}
    store = ResultStore(tmp_path)
    store.save(key, {"spec": {"name": "old title", "runner": "figure",
                              "axes": {"figure": ["fig6"], "scale": [0.5]},
                              "num_trials": 3, "base_seed": 0},
                     "trials": trials})
    report = run_figure_matrix(["fig6"], num_trials=3, store=store)["fig6"]
    assert report.cache_key == key and report.fully_cached
    assert report.values == [[{"row": index}] for index in range(3)]
    assert [r.seed for r in report.results] == seeds


def test_completed_trials_persist_when_a_later_one_raises(
        tmp_path, echo_figure):
    store = ResultStore(tmp_path)
    echo_figure.fail_at = 1
    with pytest.raises(RuntimeError, match="boom"):
        run_figure_matrix(["echo"], num_trials=2, store=store)
    echo_figure.fail_at = None
    report = run_figure_matrix(["echo"], num_trials=2, store=store)["echo"]
    assert [r.cached for r in report.results] == [True, False]


def test_force_recomputes_and_rewrites(tmp_path, echo_figure):
    store = ResultStore(tmp_path)
    first = run_figure_matrix(["echo"], store=store)["echo"]
    forced = run_figure_matrix(["echo"], store=store, force=True)["echo"]
    assert forced.num_executed == 1 and len(echo_figure) == 2
    assert forced.values == first.values
    assert run_figure_matrix(["echo"], store=store)["echo"].fully_cached


def test_run_without_a_store(echo_figure):
    report = run_figure_matrix(["echo"])["echo"]
    assert report.values == [[{"scale": 0.5, "seed": report.results[0].seed}]]
    assert not report.fully_cached


def test_a_repeated_figure_runs_once(tmp_path, echo_figure):
    reports = run_figure_matrix(["echo", "echo"], num_trials=2,
                                store=ResultStore(tmp_path))
    assert list(reports) == ["echo"] and len(echo_figure) == 2


def test_progress_reports_cache_hits_and_trials(tmp_path, echo_figure):
    store = ResultStore(tmp_path)
    messages = []
    run_figure_matrix(["echo"], num_trials=2, store=store,
                      progress=messages.append)
    assert [message.split(" done in ")[0] for message in messages] == \
        ["echo: trial 0", "echo: trial 1"]
    messages.clear()
    run_figure_matrix(["echo"], num_trials=2, store=store,
                      progress=messages.append)
    assert messages == ["echo: 2/2 trials cached"]


def test_one_pending_trial_runs_in_process(echo_figure):
    report = run_figure_matrix(["echo"], workers=4)["echo"]
    assert report.workers == 1


def test_worker_count_does_not_change_results():
    serial = run_figure_matrix(["fig7"], scale=0.05, num_trials=4)["fig7"]
    pooled = run_figure_matrix(["fig7"], scale=0.05, num_trials=4,
                               workers=4)["fig7"]
    assert (serial.workers, pooled.workers) == (1, 4)
    assert [r.index for r in pooled.results] == [0, 1, 2, 3]
    assert [r.seed for r in pooled.results] == \
        [r.seed for r in serial.results]
    assert pooled.values == serial.values


def test_one_pool_is_shared_across_figures(tmp_path):
    """Three one-trial figures fan out over one pool of three processes."""
    store = ResultStore(tmp_path)
    figures = ["fig7", "fig9", "fig10"]
    reports = run_figure_matrix(figures, scale=0.05, workers=3, store=store)
    assert [report.workers for report in reports.values()] == [3, 3, 3]
    assert all(store.has(report.cache_key) for report in reports.values())
    assert 0.0 < worker_utilisation(reports.values()) <= 1.0
    solo = {figure_id: run_figure_matrix([figure_id], scale=0.05)[figure_id]
            for figure_id in figures}
    assert [r.values for r in reports.values()] == \
        [r.values for r in solo.values()]


class TestWorkerUtilisation:
    class _Result:
        def __init__(self, elapsed, cached=False):
            self.elapsed = elapsed
            self.cached = cached

    class _Report:
        def __init__(self, results, elapsed, workers):
            self.results = results
            self.elapsed = elapsed
            self.workers = workers

    def test_busy_fraction_of_the_batch(self):
        """Each figure's busy time counts against the one batch budget,
        not its own elapsed time."""
        early = self._Report([self._Result(2.0), self._Result(1.0, True)],
                             elapsed=2.0, workers=2)
        late = self._Report([self._Result(2.0)], elapsed=4.0, workers=2)
        assert worker_utilisation([early, late]) == pytest.approx(0.5)

    def test_degenerate_batches_are_zero(self):
        assert worker_utilisation([]) == 0.0
        assert worker_utilisation(
            [self._Report([], elapsed=0.0, workers=4)]) == 0.0
