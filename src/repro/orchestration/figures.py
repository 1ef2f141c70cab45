"""Figure trials: the paper's figures, run seeded, pooled and cached.

A figure run is ``(figure_id, scale, num_trials, base_seed)``.  Its
identity is one canonical JSON object::

    {"axes":{"figure":[id],"scale":[s]},"base_seed":b,"num_trials":n,"runner":"figure"}

(the layout of the trial-matrix spec this module replaced, kept byte for
byte so every existing ``.repro_cache`` record still serves).  The
identity's sha256 seeds every trial (:func:`derive_trial_seed`); the same
JSON plus ``|`` and ``repro.__version__`` hashes to the
:class:`~repro.orchestration.store.ResultStore` key, so a release bump
evicts cached results without moving any seed.  :func:`run_figure_matrix`
runs the pending trials of several figures over one process pool,
persists each trial as it completes, and reports the trials in index
order -- bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import repro
from repro.experiments.figures import lookup_figure, run_figure
from repro.orchestration.store import ResultStore
from repro.simulation.sharded import pool_context

ProgressCallback = Callable[[str], None]

#: Modulus for derived seeds; keeps them in ``random.seed``-friendly range.
_SEED_SPACE = 2**31 - 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive_trial_seed(spec_hash: str, base_seed: int, index: int) -> int:
    """The driver seed of trial ``index``: a function of the run's identity
    hash, the base seed and the index only -- never of the worker that
    runs the trial or of how many workers exist."""
    return int(_sha256(f"{spec_hash}:{base_seed}:{index}")[:16], 16) \
        % _SEED_SPACE


class TrialResult(NamedTuple):
    """One trial: its index, derived seed, figure rows and wall time."""

    index: int
    seed: int
    value: Any
    elapsed: float
    cached: bool = False


class RunReport(NamedTuple):
    """One figure's trials after a batch ran (or resumed) them.

    ``elapsed`` runs from the batch start to this figure's last completed
    trial; ``workers`` is the number of processes the batch ran trials on
    (1 when it ran them in process).
    """

    name: str
    spec_hash: str
    cache_key: str
    results: List[TrialResult]
    elapsed: float
    workers: int

    @property
    def values(self) -> List[Any]:
        return [result.value for result in self.results]

    @property
    def num_cached(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def num_executed(self) -> int:
        return len(self.results) - self.num_cached

    @property
    def fully_cached(self) -> bool:
        return self.results != [] and self.num_executed == 0


def worker_utilisation(reports: Iterable[RunReport]) -> float:
    """Fraction of one batch's process budget spent inside trials:
    executed trials' busy time over (batch elapsed x processes).  Cached
    trials cost no worker time and are excluded; 1.0 means no process
    ever idled."""
    reports = list(reports)
    elapsed = max((report.elapsed for report in reports), default=0.0)
    workers = max((report.workers for report in reports), default=0)
    if elapsed <= 0 or workers <= 0:
        return 0.0
    busy = sum(result.elapsed for report in reports
               for result in report.results if not result.cached)
    return min(1.0, busy / (elapsed * workers))


def _run_trial(payload: Tuple[str, float, int, int]) -> Tuple[int, Any, float]:
    """Worker entry point: run one figure trial, return (slot, rows, s)."""
    figure_id, scale, seed, slot = payload
    started = time.perf_counter()
    value = run_figure(figure_id, scale=scale, seed=seed)
    return slot, value, time.perf_counter() - started


class _FigureRun:
    """One figure's identity, cached trials and executed trials."""

    def __init__(self, figure_id: str, scale: float, num_trials: int,
                 base_seed: int, reader: Optional[ResultStore]) -> None:
        name, _ = lookup_figure(figure_id)
        self.figure_id = figure_id
        self.params = {"figure": figure_id, "scale": scale}
        self.spec = {"name": name, "runner": "figure",
                     "axes": {"figure": [figure_id], "scale": [scale]},
                     "num_trials": num_trials, "base_seed": base_seed}
        canonical = json.dumps(
            {key: value for key, value in self.spec.items() if key != "name"},
            sort_keys=True, separators=(",", ":"))
        self.spec_hash = _sha256(canonical)
        self.cache_key = _sha256(f"{canonical}|{repro.__version__}")
        self.seeds = [derive_trial_seed(self.spec_hash, base_seed, index)
                      for index in range(num_trials)]
        self.cached: Dict[int, Dict[str, Any]] = \
            {} if reader is None else reader.cached_trials(self.cache_key)
        self.executed: Dict[int, Tuple[Any, float]] = {}
        self.finished_at: Optional[float] = None

    def persist(self, store: ResultStore) -> None:
        trials: Dict[str, Dict[str, Any]] = {}
        for index, seed in enumerate(self.seeds):
            if index in self.executed:
                value, elapsed = self.executed[index]
                trials[str(index)] = {"params": self.params, "seed": seed,
                                      "value": value, "elapsed": elapsed}
            elif index in self.cached:
                trials[str(index)] = self.cached[index]
        store.save(self.cache_key, {"spec": self.spec, "trials": trials})

    def report(self, started: float, workers: int) -> RunReport:
        results = []
        for index, seed in enumerate(self.seeds):
            if index in self.executed:
                value, elapsed = self.executed[index]
                results.append(TrialResult(index, seed, value, elapsed))
            else:
                entry = self.cached[index]
                results.append(TrialResult(
                    index, seed, entry.get("value"),
                    float(entry.get("elapsed", 0.0)), cached=True))
        finished = self.finished_at if self.finished_at is not None else started
        return RunReport(self.spec["name"], self.spec_hash, self.cache_key,
                         results, finished - started, workers)


def run_figure_matrix(
    figure_ids: Sequence[str],
    scale: float = 0.5,
    num_trials: int = 1,
    base_seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, RunReport]:
    """Run ``num_trials`` trials of each figure, skipping cached ones.

    All figures' pending trials share one worker pool, so ``workers``
    parallelism spans figures as well as trials (``run all --workers N``
    parallelises even at one trial per figure); a repeated figure id runs
    once.  A single pending trial, or ``workers=1``, runs in process.
    With a ``store``, each completed trial is persisted at once, so an
    interrupted batch resumes from its last finished trial; ``force``
    ignores (and overwrites) cached trials.  Each trial's driver seed is
    *derived* (:func:`derive_trial_seed`), not ``base_seed`` itself: to
    re-run one trial with :func:`~repro.experiments.figures.run_figure`,
    take its seed from the report.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    started = time.perf_counter()
    scale = float(scale)
    runs = {figure_id: _FigureRun(figure_id, scale, num_trials, base_seed,
                                  None if force else store)
            for figure_id in dict.fromkeys(figure_ids)}

    pending: List[Tuple[_FigureRun, int]] = []
    for run in runs.values():
        if progress and run.cached:
            progress(f"{run.figure_id}: {len(run.cached)}/{num_trials} "
                     f"trials cached")
        pending.extend((run, index) for index in range(num_trials)
                       if index not in run.cached)
    payloads = [(run.figure_id, scale, run.seeds[index], slot)
                for slot, (run, index) in enumerate(pending)]

    def complete(slot: int, value: Any, elapsed: float) -> None:
        run, index = pending[slot]
        run.executed[index] = (value, elapsed)
        run.finished_at = time.perf_counter()
        if store is not None:
            # The full record per completion: O(trials^2) encoding at
            # realistic counts of tens, but an interrupt never loses a
            # finished trial.
            run.persist(store)
        if progress:
            progress(f"{run.figure_id}: trial {index} done in {elapsed:.2f}s")

    processes = 1 if len(payloads) <= 1 else min(workers, len(payloads))
    if processes == 1:
        for payload in payloads:
            complete(*_run_trial(payload))
    else:
        with pool_context().Pool(processes=processes) as pool:
            for outcome in pool.imap_unordered(_run_trial, payloads,
                                               chunksize=1):
                complete(*outcome)
    return {figure_id: run.report(started, processes)
            for figure_id, run in runs.items()}
