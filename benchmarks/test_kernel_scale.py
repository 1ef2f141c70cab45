"""Kernel throughput benchmarks: the batched-ring speedup and 100k scale.

Three locks on the simulation kernel's performance:

* ``test_wildfire_1k_speedup_vs_pre_rewrite_baseline`` -- the 1k-host
  WILDFIRE run must be at least 5x faster than the pre-rewrite kernel's
  recorded baseline (``BENCH_kernel.json``).  A fixed integer-loop
  calibration workload normalises machine speed, so the recorded baseline
  transfers across hosts.
* ``test_perf_smoke_budget`` -- the CI perf smoke: the same run must stay
  inside a generous calibrated budget and fails on a >2x regression.
* ``test_100k_host_run_completes`` -- a beyond-paper 100,000-host
  Gnutella-like WILDFIRE count run completes and declares a sane
  estimate (the paper's own experiments stop at ~39k hosts), its
  accounting structures stay packed (a few bytes per host), and the
  process peak RSS stays inside a budget.
* ``test_packed_core_100k_rss_is_2x_below_prepacked_baseline`` -- the
  packed-memory network core's guard: ``repro bench --hosts 100000``
  in a clean subprocess must peak >=2x below the pre-packed-core
  baseline RSS recorded in ``BENCH_kernel.json``.
* ``test_vector_lane_10k_differential_and_2x_speedup`` -- the CI
  python-vs-vector differential cell: the vectorized kernel lane (the
  default) must reproduce the python lane bit-for-bit (value, cost fingerprint,
  declaration time) on a 10k-host run and beat it by >=2x
  (self-calibrating: both lanes are timed interleaved on this machine).
* ``test_convergecast_10k_differential_and_2x_speedup`` -- the paired cell
  for SPANNINGTREE and DAG-2 ``count`` (the convergecast batch kernel).
* ``test_sum_sketch_block_sampler_equals_loop_and_2x_faster`` -- the SUM
  sketch's block sampler against the per-element loop it replaced: equal
  sketch from equal-seeded generators and at least 2x faster (a ratio
  within one process, no calibration).
* ``test_bench_lane_cli_smoke`` -- ``repro bench --lane`` end to end in
  a clean subprocess: the flag reaches the kernel, the JSON row records
  the lane, and both lanes' rows agree on every cost measure.
* ``test_million_host_run_completes_when_requested`` -- the 1,000,000
  host run (opt-in via ``REPRO_BENCH_MILLION=1``).

Each benchmark appends its measurement to the ``BENCH_kernel.json``
trajectory (path overridable via ``REPRO_BENCH_OUT``) so CI can upload
the kernel's performance history as an artifact.  Set
``REPRO_BENCH_RELAX=1`` to record without asserting (e.g. on exotic or
heavily shared machines).
"""

from __future__ import annotations

import json
import os
import time

import pytest

BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_kernel.json")

#: Seeds match the recorded baseline capture exactly.
TOPOLOGY_SEED = 42
RUN_SEED = 7

_RELAX = os.environ.get("REPRO_BENCH_RELAX") == "1"


def _reference():
    with open(BENCH_JSON) as handle:
        return json.load(handle)


def _calibration_sample() -> float:
    """One timing of the fixed, allocation-free integer loop.

    The same loop was timed when the baseline was captured; the ratio of
    the two calibrations rescales the recorded baseline to this machine.
    """
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return time.perf_counter() - start


def _measure_kernel(rounds: int = 6):
    """Best-of-N (calibration, wildfire-1k) with *interleaved* samples.

    On shared machines, load spikes come and go on the scale of a whole
    measurement; timing all calibration samples first and all workload
    runs afterwards lets a spike inflate only one of the two, corrupting
    the calibrated ratio.  Alternating them each round means the best
    sample of each is drawn from the same quiet windows.
    """
    from repro.protocols.base import run_protocol
    from repro.protocols.wildfire import Wildfire
    from repro.topology.gnutella import gnutella_like_topology

    topology = gnutella_like_topology(1000, seed=TOPOLOGY_SEED)
    values = [1.0] * topology.num_hosts
    best_calibration = float("inf")
    best_elapsed = float("inf")
    for _ in range(rounds):
        best_calibration = min(best_calibration, _calibration_sample())
        start = time.perf_counter()
        result = run_protocol(Wildfire(), topology, values, "count",
                              seed=RUN_SEED)
        best_elapsed = min(best_elapsed, time.perf_counter() - start)
    assert result.value is not None and result.costs.messages_sent > 0
    return best_calibration, best_elapsed


def _record_trajectory(label: str, **fields) -> None:
    """Append a measurement to a BENCH_kernel trajectory copy.

    Writes next to the committed reference (``BENCH_kernel.out.json``,
    gitignored) so test runs never dirty the tree; CI uploads the copy as
    an artifact.  Override the path with ``REPRO_BENCH_OUT``.
    """
    out_path = os.environ.get(
        "REPRO_BENCH_OUT", BENCH_JSON.replace(".json", ".out.json"))
    try:
        with open(out_path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = _reference()
    payload.setdefault("trajectory", []).append({"label": label, **fields})
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=False)
        handle.write("\n")


@pytest.fixture(scope="module")
def kernel_measurement():
    """One shared (calibration, wildfire-1k) measurement per session."""
    calibration, elapsed = _measure_kernel()
    _record_trajectory("pytest perf smoke", wildfire_1k_seconds=round(elapsed, 4),
                       calibration_seconds=round(calibration, 4))
    return calibration, elapsed


def test_wildfire_1k_speedup_vs_pre_rewrite_baseline(kernel_measurement):
    calibration, elapsed = kernel_measurement
    reference = _reference()["reference"]
    # Rescale the recorded pre-rewrite baseline to this machine's speed.
    machine_factor = calibration / reference["baseline_calibration_seconds"]
    adjusted_baseline = reference["baseline_pre_rewrite_seconds"] * machine_factor
    speedup = adjusted_baseline / elapsed
    print(f"\nwildfire-1k: {elapsed:.4f}s, calibrated baseline "
          f"{adjusted_baseline:.4f}s -> speedup {speedup:.2f}x")
    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (measured {speedup:.2f}x)")
    assert speedup >= reference["required_speedup"], (
        f"kernel speedup {speedup:.2f}x fell below the required "
        f"{reference['required_speedup']}x (measured {elapsed:.4f}s vs "
        f"calibrated pre-rewrite baseline {adjusted_baseline:.4f}s)"
    )


def test_perf_smoke_budget(kernel_measurement):
    """CI perf smoke: fail on a >2x regression against a generous budget."""
    calibration, elapsed = kernel_measurement
    reference = _reference()["reference"]
    machine_factor = calibration / reference["baseline_calibration_seconds"]
    threshold = (reference["budget_seconds"]
                 * reference["budget_regression_factor"] * machine_factor)
    print(f"\nwildfire-1k: {elapsed:.4f}s, calibrated smoke threshold "
          f"{threshold:.4f}s")
    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (measured {elapsed:.4f}s)")
    assert elapsed <= threshold, (
        f"perf smoke: wildfire-1k took {elapsed:.4f}s, exceeding the "
        f"calibrated budget of {threshold:.4f}s "
        f"({reference['budget_seconds']}s x "
        f"{reference['budget_regression_factor']} x machine factor "
        f"{machine_factor:.2f})"
    )


def test_10k_host_run_is_quick():
    """A 10k-host run (quarter of the paper's crawl) finishes in seconds."""
    from repro.experiments.scale_bench import run_scale_benchmark

    row = run_scale_benchmark(10_000, topology="gnutella",
                              protocol="wildfire", aggregate="count",
                              seed=1)
    print(f"\n10k hosts: {row['run_seconds']}s, {row['messages']} messages "
          f"({row['messages_per_second']}/s)")
    assert row["hosts"] == 10_000
    assert row["messages"] > 0
    assert 0 < row["value"] < float("inf")
    _record_trajectory("pytest 10k scale", **{
        k: row[k] for k in ("hosts", "run_seconds", "messages",
                            "messages_per_second")})


#: Peak-RSS budget for the perf-smoke *session* up to and including the
#: 100k run.  ``ru_maxrss`` is a process-wide high-water mark, so this
#: covers everything that precedes it in the module; the packed network
#: core (CSR adjacency + slotted hosts + lazy multicast expansion)
#: brought the clean-process peak from ~377 MiB down to ~179 MiB, and
#: plain ``repro bench --hosts 100000`` now reads ~138 MiB (2-core Xeon,
#: CPython 3.11).
#: Budgeted with headroom; the strict clean-process 2x guard lives in
#: ``test_packed_core_100k_rss_is_2x_below_prepacked_baseline``.
STREAMING_100K_RSS_BUDGET_MB = 250.0


def test_100k_host_run_completes():
    """Beyond-paper scale: 100,000 hosts, one WILDFIRE count query.

    The paper's largest network is the 39k-host Gnutella crawl; this run
    is ~2.5x that.  Completion (no runaway event growth, no quadratic
    blowup in the network structures) plus a sane estimate is the
    assertion; the wall time lands in the trajectory for trend-watching.
    CI perf smoke, memory half: the accounting structures stay packed
    and the process's peak RSS stays inside the budget.
    """
    from repro.experiments.scale_bench import run_scale_benchmark

    row = run_scale_benchmark(100_000, topology="gnutella",
                              protocol="wildfire", aggregate="count",
                              seed=1)
    print(f"\n100k hosts: {row['run_seconds']}s, {row['messages']} messages "
          f"({row['messages_per_second']}/s, "
          f"accounting {row['accounting_bytes']} bytes), "
          f"peak RSS {row['peak_rss_mb']} MiB")
    assert row["hosts"] == 100_000
    assert row["messages"] > 100_000          # the flood alone exceeds |H|
    # FM count estimate at c=8 is within a small multiplicative factor.
    assert 100_000 / 8 <= row["value"] <= 100_000 * 8
    # Four bytes per host plus the per-tick / per-kind maps; a per-host
    # Counter took ~90 bytes per host.
    assert row["accounting_bytes"] <= 5 * row["hosts"]
    _record_trajectory("pytest 100k scale", **{
        k: row[k] for k in ("hosts", "gen_seconds", "run_seconds",
                            "messages", "messages_per_second",
                            "peak_rss_mb", "accounting_bytes")})

    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (peak RSS {row['peak_rss_mb']} MiB)")
    if row["peak_rss_mb"] is not None:
        assert row["peak_rss_mb"] <= STREAMING_100K_RSS_BUDGET_MB, (
            f"peak RSS {row['peak_rss_mb']} MiB exceeds the "
            f"{STREAMING_100K_RSS_BUDGET_MB} MiB perf-smoke budget")


def test_packed_core_100k_rss_is_2x_below_prepacked_baseline():
    """CI perf smoke, packed-core memory guard.

    Runs plain ``repro bench --hosts 100000`` in a *clean* subprocess
    (the default invocation, so no earlier benchmark inflates the
    high-water mark) and holds its peak
    RSS to the committed budget -- which itself encodes a >=2x reduction
    against the pre-packed-core baseline recorded in BENCH_kernel.json.
    """
    import subprocess
    import sys
    import tempfile

    reference = _reference()["reference"]
    baseline = reference["streaming_100k_baseline_rss_mb"]
    budget = reference["streaming_100k_rss_budget_mb"]
    # The committed budget must itself encode the 2x cut: loosening it
    # past baseline/2 is a red diff here, not a quiet config tweak.
    assert budget * 2.0 <= baseline, (
        f"streaming_100k_rss_budget_mb={budget} no longer encodes a 2x "
        f"reduction of the {baseline} MiB pre-packed-core baseline")

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "bench.json")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--hosts", "100000",
             "--seed", "1", "--json", out_path],
            env=env, capture_output=True, text=True, timeout=1800)
        assert proc.returncode == 0, (
            f"repro bench failed:\n{proc.stdout}\n{proc.stderr}")
        with open(out_path) as handle:
            # ``repro bench --json`` appends {"label", "rows": [...]};
            # one --hosts value means exactly one row.
            row = json.load(handle)["trajectory"][-1]["rows"][0]

    print(f"\n100k (clean process): peak RSS {row['peak_rss_mb']}"
          f" MiB vs budget {budget} MiB (pre-packed baseline {baseline})")
    _record_trajectory("pytest 100k streaming clean-process", **{
        k: row[k] for k in ("hosts", "run_seconds", "messages",
                            "messages_per_second", "peak_rss_mb",
                            "accounting_bytes")})
    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (peak RSS {row['peak_rss_mb']} MiB)")
    assert row["peak_rss_mb"] is not None
    assert row["peak_rss_mb"] <= budget, (
        f"packed-core peak RSS {row['peak_rss_mb']} MiB exceeds the "
        f"{budget} MiB budget (pre-packed-core baseline {baseline} MiB; "
        f"the budget encodes a >=2x reduction)")


def test_service_throughput_10k():
    """Concurrent-query throughput: a mixed WILDFIRE/tree/DAG Poisson
    load multiplexed over one shared 10k-host network.

    The single-query rows above scale *hosts*; this row scales
    *concurrent query load* -- the service multiplexes every query over
    one calendar-queue event loop, so the whole mix costs one network
    build and per-query state only while a query is in flight.
    Completion plus full answer coverage is the assertion; queries/sec
    lands in the trajectory for trend-watching.
    """
    from repro.experiments.scale_bench import run_service_benchmark

    row = run_service_benchmark(10_000, qps=1.0, duration=10.0, seed=1)
    print(f"\n10k-host service: {row['answered']}/{row['queries']} queries "
          f"in {row['run_seconds']}s ({row['queries_per_second']} q/s, "
          f"{row['messages_per_second']} msg/s)")
    assert row["hosts"] == 10_000
    assert row["queries"] >= 5
    assert row["answered"] == row["queries"] - row["failed"]
    assert row["failed"] == 0          # static network: nothing can fail
    assert row["messages"] > 0
    _record_trajectory("pytest 10k service throughput", **{
        k: row[k] for k in ("hosts", "queries", "answered", "run_seconds",
                            "queries_per_second", "messages",
                            "messages_per_second", "peak_rss_mb")})


#: Required python/vector wall-time ratio on the 10k differential cell.
#: The 100k acceptance row in BENCH_kernel.json shows >=3x, but the CI
#: cell is 10x smaller (activation and d_hat BFS weigh relatively more),
#: so the red line sits at 2x -- a genuine lane regression lands well
#: below it, while machine noise does not.
VECTOR_LANE_REQUIRED_SPEEDUP = 2.0


def _time_lanes_10k(label, make_protocol, rounds, **run_kwargs):
    """Run one 10k-host count query on the python lane and the default
    lane, interleaved, ``rounds`` times; assert the digests -- value,
    ``costs.fingerprint()``, declaration time -- are bit-identical and
    return the ``(python_seconds, vector_seconds)`` of each round.
    """
    from repro.protocols.base import run_protocol
    from repro.topology.gnutella import gnutella_like_topology

    topology = gnutella_like_topology(10_000, seed=TOPOLOGY_SEED)
    values = [1.0] * topology.num_hosts

    def sample(lane):
        start = time.perf_counter()
        result = run_protocol(make_protocol(), topology, values, "count",
                              seed=RUN_SEED, lane=lane, **run_kwargs)
        elapsed = time.perf_counter() - start
        assert result.fallback_reason is None, (
            f"{lane} lane fell back to the spec loop "
            f"({result.fallback_reason})")
        assert result.lane_used == lane
        return elapsed, {
            "value": result.value,
            "fingerprint": result.costs.fingerprint(),
            "declared_at": result.finished_at,
        }

    snapshots = {}
    timings = []
    for _ in range(rounds):
        elapsed = {}
        for lane in ("python", "vector"):
            elapsed[lane], snapshot = sample(lane)
            assert snapshots.setdefault(lane, snapshot) == snapshot, (
                f"{lane} lane is not deterministic across repeats")
        timings.append((elapsed["python"], elapsed["vector"]))
    assert snapshots["vector"] == snapshots["python"], (
        f"vector lane diverged from the python lane on the 10k {label} "
        f"cell: python={snapshots['python']} vector={snapshots['vector']}")
    return timings


def _require_lane_speedup(label, python_seconds, vector_seconds):
    """Record the cell and hold it to ``VECTOR_LANE_REQUIRED_SPEEDUP``.
    Self-calibrating: both lanes were timed on the same machine in the
    same session; no recorded baseline is involved."""
    speedup = python_seconds / vector_seconds
    print(f"\n10k {label} differential: python {python_seconds:.4f}s, "
          f"vector {vector_seconds:.4f}s -> {speedup:.2f}x (bit-identical)")
    _record_trajectory(f"pytest 10k {label} differential", hosts=10_000,
                       python_seconds=round(python_seconds, 4),
                       vector_seconds=round(vector_seconds, 4),
                       speedup=round(speedup, 2))
    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (measured {speedup:.2f}x)")
    assert speedup >= VECTOR_LANE_REQUIRED_SPEEDUP, (
        f"{label}: vector lane speedup {speedup:.2f}x fell below the "
        f"required {VECTOR_LANE_REQUIRED_SPEEDUP}x (python "
        f"{python_seconds:.4f}s, vector {vector_seconds:.4f}s)")


def test_vector_lane_10k_differential_and_2x_speedup():
    """CI perf smoke, vector-lane half: the python-vs-vector cell.

    Runs the same 10k-host WILDFIRE count query through both
    kernel lanes, interleaved best-of-3 (same rationale as
    ``_measure_kernel``): the vector lane must be *bit-identical* and
    its best time at least 2x below the python lane's best time.
    """
    from repro.protocols.wildfire import Wildfire

    timings = _time_lanes_10k("vector", Wildfire, 3)
    _require_lane_speedup("vector",
                          min(python for python, _vector in timings),
                          min(vector for _python, vector in timings))


@pytest.mark.parametrize("protocol", ["spanning-tree", "dag2"])
def test_convergecast_10k_differential_and_2x_speedup(protocol):
    """The paired cell for the convergecast kernel: SPANNINGTREE and
    DAG-2 ``count`` at 10k hosts, default lane against ``lane="python"``,
    bit-identical and at least 2x faster in the best back-to-back round
    of seven (the statistic ``test_obs_overhead.py`` uses).

    Not the WILDFIRE cell's ratio of independent minima: these runs are
    a tenth as long and their margin is thinner (tree 2.4-2.7x, dag2
    2.1-2.5x on this box over four sessions of seven rounds; activation,
    FM sampling and the alive-edge checks are the spec's own work in both
    lanes), so two minima caught in different states of the shared box
    read under 2x now and then.  A kernel regression to parity still
    fails every round.
    """
    from repro.protocols.dag import DirectedAcyclicGraph
    from repro.protocols.spanning_tree import SpanningTree

    make = SpanningTree if protocol == "spanning-tree" else (
        lambda: DirectedAcyclicGraph(num_parents=2))
    timings = _time_lanes_10k(protocol, make, 7)
    _require_lane_speedup(
        protocol, *max(timings, key=lambda pair: pair[0] / pair[1]))


BLOCK_SAMPLER_REQUIRED_SPEEDUP = 2.0


def test_sum_sketch_block_sampler_equals_loop_and_2x_faster():
    """``FMSketch.for_value(4096, 8, rng)`` against the OR of 4 096
    single-element draws from an equal-seeded generator: the same sketch,
    best-of-5 each, the block sampler at least 2x faster (4-6x measured).
    """
    import random

    from repro.sketches.fm import FMSketch, _sample_packed_element

    def loop(rng):
        packed = 0
        for _ in range(4096):
            packed |= _sample_packed_element(rng, 8, 32)
        return packed

    def block(rng):
        return FMSketch.for_value(4096, 8, rng).packed

    best = {}
    for _ in range(5):
        results = {}
        for sampler in (loop, block):
            rng = random.Random(RUN_SEED)
            start = time.perf_counter()
            results[sampler] = sampler(rng)
            elapsed = time.perf_counter() - start
            best[sampler] = min(best.get(sampler, elapsed), elapsed)
        assert results[block] == results[loop]
    speedup = best[loop] / best[block]
    print(f"\nfor_value(4096, c=8): loop {best[loop] * 1e3:.3f} ms, "
          f"block {best[block] * 1e3:.3f} ms -> {speedup:.2f}x (equal sketch)")
    _record_trajectory("pytest sum-sketch block sampler", elements=4096,
                       repetitions=8,
                       loop_seconds=round(best[loop], 6),
                       block_seconds=round(best[block], 6),
                       speedup=round(speedup, 2))
    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (measured {speedup:.2f}x)")
    assert speedup >= BLOCK_SAMPLER_REQUIRED_SPEEDUP, (
        f"block sampler speedup {speedup:.2f}x fell below the required "
        f"{BLOCK_SAMPLER_REQUIRED_SPEEDUP}x (loop {best[loop]:.6f}s, "
        f"block {best[block]:.6f}s)")


def test_bench_lane_cli_smoke():
    """``repro bench --lane`` end to end: the flag reaches the kernel.

    Runs the bench CLI once per lane in a clean subprocess on a small
    network and checks that the JSON rows record their lane and agree on
    every cost measure -- the CLI-level version of the differential cell
    above (which owns the timing budget; subprocess wall times at this
    size are dominated by interpreter start-up).
    """
    import subprocess
    import sys
    import tempfile

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for lane in ("python", "vector"):
            out_path = os.path.join(tmp, f"bench-{lane}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "bench", "--hosts", "4000",
                 "--seed", "1", "--lane", lane,
                 "--json", out_path, "--label", f"cli-smoke-{lane}"],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, (
                f"repro bench --lane {lane} failed:\n"
                f"{proc.stdout}\n{proc.stderr}")
            with open(out_path) as handle:
                rows[lane] = json.load(handle)["trajectory"][-1]["rows"][0]

    for lane, row in rows.items():
        assert row["lane"] == lane
        assert row["hosts"] == 4000
        assert 4000 / 8 <= row["value"] <= 4000 * 8
    for key in ("value", "d_hat", "messages", "computation_cost",
                "time_cost", "accounting_bytes"):
        assert rows["vector"][key] == rows["python"][key], (
            f"--lane vector diverged from --lane python on {key}: "
            f"{rows['vector'][key]!r} != {rows['python'][key]!r}")
    _record_trajectory("pytest bench --lane cli smoke", hosts=4000, **{
        f"{lane}_run_seconds": rows[lane]["run_seconds"]
        for lane in ("python", "vector")})


def test_million_host_run_completes_when_requested():
    """The headline bounded-memory run: 1,000,000 hosts.

    ~25x the paper's largest network.  Takes several minutes, so it only
    runs when REPRO_BENCH_MILLION=1 is set (CI smoke stays at 100k); the
    committed BENCH_kernel.json trajectory records a completed run.
    """
    if os.environ.get("REPRO_BENCH_MILLION") != "1":
        pytest.skip("set REPRO_BENCH_MILLION=1 to run the 1M-host benchmark")
    from repro.experiments.scale_bench import run_scale_benchmark

    row = run_scale_benchmark(1_000_000, topology="gnutella",
                              protocol="wildfire", aggregate="count",
                              seed=1)
    print(f"\n1M hosts: {row['run_seconds']}s, "
          f"{row['messages']} messages, peak RSS {row['peak_rss_mb']} MiB, "
          f"accounting {row['accounting_bytes']} bytes")
    assert row["hosts"] == 1_000_000
    assert 1_000_000 / 8 <= row["value"] <= 1_000_000 * 8
    _record_trajectory("pytest 1M streaming", **{
        k: row[k] for k in ("hosts", "gen_seconds", "run_seconds",
                            "messages", "messages_per_second",
                            "peak_rss_mb", "accounting_bytes")})
