"""Deterministic fan-out of experiment trials over a process pool.

The executor expands an :class:`~repro.orchestration.spec.ExperimentSpec`
into seeded trials, skips any trial already present in the
:class:`~repro.orchestration.store.ResultStore`, and runs the rest either
in-process (``workers=1`` -- the default, used by tests and existing call
sites) or across a ``multiprocessing`` pool.  Because each trial's seed is
derived from the spec hash and the trial index, and results are keyed by
index, the outcome is bit-identical for any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import worker_utilisation
from repro.orchestration.runners import resolve_runner
from repro.orchestration.spec import ExperimentSpec, Trial
from repro.orchestration.store import ResultStore
from repro.simulation.sharded import pool_context

ProgressCallback = Callable[[str], None]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: its matrix cell, seed, value, and wall time."""

    index: int
    params: Dict[str, Any]
    seed: int
    value: Any
    elapsed: float
    cached: bool = False


@dataclass
class RunReport:
    """Everything the executor knows after running (or resuming) a spec."""

    spec: ExperimentSpec
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

    @property
    def worker_utilisation(self) -> float:
        """Fraction of the pool's wall-clock budget spent inside trials
        (cached trials cost no worker time and are excluded)."""
        return worker_utilisation(self)


def _execute_payload(payload: Tuple[str, Dict[str, Any], int, int]):
    """Worker entry point: run one trial and return (index, value, elapsed)."""
    runner_name, params, seed, index = payload
    runner = resolve_runner(runner_name)
    started = time.perf_counter()
    value = runner(params, seed)
    return index, value, time.perf_counter() - started


class ParallelExecutor:
    """Runs specs over a worker pool with cache-aware incremental resume."""

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers or 1
        self.store = store

    def run(
        self,
        spec: ExperimentSpec,
        force: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> RunReport:
        """Execute every trial of ``spec`` that is not already cached.

        Args:
            spec: the trial matrix to execute.
            force: ignore (and overwrite) any cached trials.
            progress: optional callback receiving one message per event.
        """
        return self.run_many([spec], force=force, progress=progress)[0]

    def run_many(
        self,
        specs: Sequence[ExperimentSpec],
        force: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunReport]:
        """Execute several specs' pending trials over one shared pool.

        All specs' missing trials are pooled together, so ``workers``
        parallelism spans specs: running every figure with one trial each
        still fans out across the figures.  Each completed trial is
        persisted to the store immediately, so an interrupted run resumes
        from the last finished trial rather than from scratch.
        """
        started = time.perf_counter()
        # Identical specs (same cache key) share one _SpecRun, so a
        # duplicated figure id costs nothing extra.
        runs_by_hash: Dict[str, _SpecRun] = {}
        runs: List[_SpecRun] = []
        for spec in specs:
            cache_key = spec.cache_key()
            if cache_key not in runs_by_hash:
                runs_by_hash[cache_key] = _SpecRun(spec, self.store, force)
            runs.append(runs_by_hash[cache_key])

        payloads: List[Tuple[str, Dict[str, Any], int, int]] = []
        owners: List[Tuple["_SpecRun", Trial]] = []
        for run in runs_by_hash.values():
            if progress and run.cached:
                progress(f"{run.spec.name}: {len(run.cached)}/"
                         f"{len(run.trials)} trials cached")
            for trial in run.trials:
                if trial.index not in run.cached:
                    payloads.append((run.spec.runner, trial.params,
                                     trial.seed, len(owners)))
                    owners.append((run, trial))

        def complete(owner_index: int, value: Any, elapsed: float) -> None:
            run, trial = owners[owner_index]
            run.executed[trial.index] = (value, elapsed)
            run.finished_at = time.perf_counter()
            if self.store is not None:
                # Persisting the full record per completion trades write
                # amplification (O(trials^2) encoding at realistic trial
                # counts of tens) for crash safety: an interrupt never
                # loses a finished trial.
                run.persist(self.store)
            if progress:
                progress(f"{run.spec.name}: trial {trial.index} "
                         f"done in {elapsed:.2f}s")

        if self.workers <= 1 or len(payloads) == 1:
            for payload in payloads:
                complete(*_execute_payload(payload))
        elif payloads:
            ctx = pool_context()
            with ctx.Pool(processes=min(self.workers, len(payloads))) as pool:
                for owner_index, value, elapsed in pool.imap_unordered(
                    _execute_payload, payloads, chunksize=1
                ):
                    complete(owner_index, value, elapsed)

        return [run.report(started, self.workers) for run in runs]


class _SpecRun:
    """Mutable bookkeeping for one spec inside a (possibly shared) run."""

    def __init__(
        self,
        spec: ExperimentSpec,
        store: Optional[ResultStore],
        force: bool,
    ) -> None:
        self.spec = spec
        self.spec_hash = spec.content_hash()
        self.cache_key = spec.cache_key()
        self.trials = spec.trials()
        self.cached: Dict[int, Dict[str, Any]] = {}
        if store is not None and not force:
            self.cached = store.cached_trials(self.cache_key)
        self.executed: Dict[int, Tuple[Any, float]] = {}
        self.finished_at: Optional[float] = None

    def persist(self, store: ResultStore) -> None:
        trials: Dict[str, Dict[str, Any]] = {}
        for trial in self.trials:
            if trial.index in self.executed:
                value, elapsed = self.executed[trial.index]
                trials[str(trial.index)] = {
                    "params": trial.params, "seed": trial.seed,
                    "value": value, "elapsed": elapsed,
                }
            elif trial.index in self.cached:
                trials[str(trial.index)] = self.cached[trial.index]
        store.save(self.cache_key, {
            "spec": self.spec.as_dict(),
            "trials": trials,
        })

    def report(self, started: float, workers: int) -> RunReport:
        results: List[TrialResult] = []
        for trial in self.trials:
            if trial.index in self.executed:
                value, trial_elapsed = self.executed[trial.index]
                results.append(TrialResult(
                    index=trial.index, params=trial.params, seed=trial.seed,
                    value=value, elapsed=trial_elapsed, cached=False,
                ))
            else:
                entry = self.cached[trial.index]
                results.append(TrialResult(
                    index=trial.index, params=trial.params, seed=trial.seed,
                    value=entry.get("value"),
                    elapsed=float(entry.get("elapsed", 0.0)),
                    cached=True,
                ))
        # Per-spec elapsed: time from batch start until this spec's last
        # trial completed (near zero when fully served from cache).
        finished = self.finished_at if self.finished_at is not None else started
        return RunReport(
            spec=self.spec,
            spec_hash=self.spec_hash,
            cache_key=self.cache_key,
            results=results,
            elapsed=finished - started,
            workers=workers,
        )


def run_spec(
    spec: ExperimentSpec,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> RunReport:
    """One-call convenience wrapper around :class:`ParallelExecutor`."""
    executor = ParallelExecutor(workers=workers, store=store)
    return executor.run(spec, force=force, progress=progress)


def run_specs(
    specs: Sequence[ExperimentSpec],
    workers: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> List[RunReport]:
    """Run several specs over one shared pool (parallelism spans specs)."""
    executor = ParallelExecutor(workers=workers, store=store)
    return executor.run_many(specs, force=force, progress=progress)
