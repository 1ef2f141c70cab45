"""The repo benchmark: seven workloads, end-to-end and per-layer metrics.

    python benchmarks/perf/run.py --workload NAME --seed S --seconds T --trace 0|1
        measures one workload in this process and prints, as its last
        line, ``{"correct", "attempted", "failed", "metrics"}`` (the form
        BENCHMARK.json's driver reads);

    python benchmarks/perf/run.py [--workload NAME ...] [--trace] [--out FILE]
        runs each workload (default: all) in its own fresh child process
        and collects the children's detail records into one result file
        that ``compare.py`` reads.

Load shape: closed, batch -- one generator, one call at a time; only
``flood_shard2`` forks, and it forks exactly 2 workers.  Every layer is
measured from outside: by timing calls the harness makes, by shims on the
program's public callables (``--trace 1`` only) and by replay kernels.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXPECTED_JSON = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# Spelled out (and checked against perf_workloads.WORKLOADS by the tests) so
# that arguments parse before the program is imported and its import timed.
WORKLOAD_NAMES = ("flood_py", "flood_vec", "flood_shard2", "flood_jitter",
                  "churn_sweep", "serve_mix", "serve_dup")

#: End-to-end metrics: ``name -> (unit, better)``.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Layer numbers that repeat exactly and are pinned in ``expected.json``.
PINNED_COUNTS = (
    "simulation.stats.messages", "simulation.stats.computation_cost",
    "service.engine.events_processed", "service.engine.peak_active_sessions",
    "service.sharing.hits", "service.admission.deferrals",
    "service.admission.shed",
)

#: The calibration loop's seconds on this box when nothing else runs.  Every
#: reported time is rescaled by ``reference / measured`` (see ``_Clock``).
CALIBRATION_REFERENCE_S = 0.019

#: A rep whose two bracketing calibration samples differ by more than this
#: straddled a change of machine speed and is left out of the medians; a run
#: with fewer than half of its reps left is marked noisy (all reps are then
#: used, and ``compare.py`` reports its rows as unresolved).
NOISE_LIMIT = 0.10


def layer_metrics() -> dict:
    """``name -> (unit, better)`` of every per-layer metric, in print order."""
    from perf_kernels import KERNELS
    from perf_workloads import SPAN_CALLS

    table = {"topology.build_s": ("s", "lower"),
             "topology.diameter_s": ("s", "lower")}
    for span, calls in SPAN_CALLS.items():
        table[span + "_s"] = ("s", "lower")
        if calls:
            table[span + "_calls"] = ("count", "lower")
    table.update({
        "simulation.sharded.compute_s": ("s", "lower"),
        "simulation.sharded.exchange_s": ("s", "lower"),
        "simulation.sharded.barrier_wait_s": ("s", "lower"),
        "simulation.sharded.cross_bytes_in": ("bytes", "lower"),
        "simulation.sharded.epochs": ("count", "lower"),
        "simulation.sharded.overhead_s": ("s", "lower"),
        "simulation.stats.messages": ("count", "lower"),
        "simulation.stats.computation_cost": ("count", "lower"),
        "simulation.stats.accounting_bytes": ("bytes", "lower"),
        "service.engine.events_processed": ("count", "lower"),
        "service.engine.peak_active_sessions": ("count", "lower"),
        "service.sharing.hits": ("count", "higher"),
        "service.sharing.hit_rate": ("fraction", "higher"),
        "service.admission.deferrals": ("count", "lower"),
        "service.admission.shed": ("count", "lower"),
        "semantics.tree_valid_frac": ("fraction", "higher"),
        "simulation.engine.us_per_msg": ("us", "lower"),
        "service.engine.us_per_event": ("us", "lower"),
    })
    for layer, (suffix, _, _, _) in KERNELS.items():
        table[layer + suffix] = ("ns", "lower")
    for layer in KERNELS:
        table["share." + layer] = ("fraction", "lower")
    table["obs.trace_overhead_frac"] = ("fraction", "lower")
    return table


def calibration_sample() -> tuple:
    """``(wall, cpu)`` seconds of a fixed, allocation-free integer loop."""
    cpu_start = time.process_time()
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i & 7
    return (time.perf_counter() - start, time.process_time() - cpu_start)


class Timed(NamedTuple):
    """One timed call: raw seconds and their reference-speed factors."""

    result: Any
    wall: float
    cpu: float
    wall_scale: float
    cpu_scale: float
    steady: bool  # the two bracketing calibration samples agree


class _Clock:
    """Times calls in seconds *at the box's reference speed*.

    The shared 2-core box flips between a quiet state and one about 1.5x
    slower, each lasting seconds to minutes (a busy sibling thread or
    neighbour), so raw seconds of the same work differ by 40 % between
    runs.  A calibration sample is taken after every timed call; the
    call's wall (CPU) seconds are multiplied by ``reference / mean(loop
    wall (CPU) seconds before, after)``, which removes most of that (raw
    seconds stay in the record as ``samples_raw``).  CPU seconds get their
    own factor because a descheduled process ages on the wall clock only.
    """

    def __init__(self) -> None:
        self.samples = [calibration_sample()]

    def time(self, function) -> Timed:
        before = self.samples[-1]
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        result = function()
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu_start
        after = calibration_sample()
        self.samples.append(after)
        scales = [2.0 * CALIBRATION_REFERENCE_S / (before[i] + after[i])
                  for i in (0, 1)]
        steady = (abs(after[0] - before[0])
                  <= NOISE_LIMIT * min(before[0], after[0]))
        return Timed(result, wall, cpu, scales[0], scales[1], steady)


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "commit": commit,
            "load_1min": os.getloadavg()[0]}


def _cpu_seconds() -> float:
    """User + system CPU of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """``VmHWM`` of this process, or of its largest reaped child if bigger."""
    own = 0.0
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1]) / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children)


def load_expected() -> dict:
    """The pinned ``workloads`` table ({} until ``--write-expected`` ran)."""
    try:
        with open(EXPECTED_JSON) as handle:
            return json.load(handle)["workloads"]
    except FileNotFoundError:
        return {}


def _verify(workload, inputs, expected, rep_ops, pinned_ops, failed_ids,
            numbers):
    """Untimed checks: pins at seed 1, the python-lane twin, exact counts.

    ``failed_ids`` holds, per rep, the operations whose digest moved since
    the warm-up rep; an operation that fails a check here fails every rep.
    Returns ``(attempted, failed, count drift)``.
    """
    pinned = expected.get(workload.name)
    static = {op for op, value in pinned_ops.items() if value is None}
    if pinned is not None:
        static |= {op for op in pinned_ops.keys() | pinned["ops"].keys()
                   if pinned_ops.get(op) != pinned["ops"].get(op)}
    if workload.twin is not None:
        twin = (expected[workload.twin]["ops"] if workload.twin in expected
                else workload.twin_ops(inputs))
        static |= {op for op in pinned_ops if pinned_ops[op] != twin.get(op)}
    count_drift = {} if pinned is None else {
        name: [want, numbers.get(name)]
        for name, want in pinned["counts"].items()
        if numbers.get(name) != want}
    # A pinned operation the run never produced was attempted and lost.
    attempted = len(failed_ids) * len(rep_ops.keys() | static)
    failed = sum(len(ids | static) for ids in failed_ids)
    return attempted, failed, count_drift


def _per_layer(workload, inputs, clock, recorder, scales, numbers, timings,
               run_s, trace_overhead, kernel_ops) -> dict:
    """Every per-layer metric: spans, result-object numbers, replay kernels.

    ``scales`` holds the reference-speed factor of each traced rep, by the
    rep index its spans carry.  A metric that does not apply reads 0.
    """
    from perf_kernels import KERNELS
    from perf_workloads import SPAN_CALLS

    units = layer_metrics()
    layer = dict.fromkeys(units, 0.0)
    layer.update({name: value for name, value in numbers.items()
                  if name in units})
    for name in timings[0]:
        layer[name] = statistics.median(t[name] for t in timings)
    spans = recorder.self_times()
    for span, calls in SPAN_CALLS.items():
        cells = spans.get(span)
        if cells:
            layer[span + "_s"] = statistics.median(
                cell[0] * scales[rep] for rep, cell in cells.items())
            if calls:
                layer[span + "_calls"] = statistics.median(
                    cell[1] for cell in cells.values())
    if "simulation.sharded.busy_s" in numbers:
        # What Simulator.run spends outside the workers' epochs: fork,
        # result ship-back and merge.
        engine_s = statistics.median(
            (end - start) * scales[rep]
            for name, start, end, _, _, rep in recorder.spans
            if name == "simulation.engine.run")
        layer["simulation.sharded.overhead_s"] = (
            engine_s - numbers["simulation.sharded.busy_s"])
    messages = numbers.get("simulation.stats.messages", 0)
    if messages:
        layer["simulation.engine.us_per_msg"] = run_s / messages * 1e6
    events = numbers.get("service.engine.events_processed", 0)
    if events:
        layer["service.engine.us_per_event"] = run_s / events * 1e6
    for name, (suffix, kernel, applies, count) in KERNELS.items():
        if workload.name in applies:
            timed = clock.time(lambda: kernel(kernel_ops, inputs))
            ns = timed.result * timed.wall_scale
            layer[name + suffix] = ns
            layer["share." + name] = numbers[count] * ns * 1e-9 / run_s
    layer["obs.trace_overhead_frac"] = trace_overhead
    return {name: {"value": layer[name], "unit": units[name][0]}
            for name in units}


def measure(workload, hosts=None, seed=1, seconds=10.0, trace=False,
            min_reps=3, expected=None, kernel_ops=200_000, import_s=0.0,
            trace_dir=OUT_DIR) -> dict:
    """Set up, warm up, time reps for ``seconds``, verify; return the record.

    ``expected`` is the ``workloads`` table of ``expected.json``; ``None``
    loads the committed one when the run is the pinned configuration
    (seed 1, default size) and pins nothing otherwise.
    """
    from perf_spans import Recorder
    from perf_workloads import WRAPPED

    hosts = hosts or workload.hosts
    if expected is None:
        expected = (load_expected()
                    if seed == 1 and hosts == workload.hosts else {})

    # --- set-up: three fresh builds, medians reported -------------------
    clock = _Clock()
    import_s = import_s * CALIBRATION_REFERENCE_S / clock.samples[0][0]
    build_s, timings = [], []
    for _ in range(3):
        built = clock.time(lambda: workload.build(hosts, seed))
        inputs = built.result
        build_s.append(built.wall * built.wall_scale)
        timings.append({name: value * built.wall_scale
                        for name, value in inputs.timings.items()})
    rep_ops, pinned_ops, numbers = workload.reference(inputs)

    # --- timed reps; under --trace every other rep runs with the shims --
    recorder = Recorder(workload.name)
    reps = {False: [], True: []}  # traced? -> [Timed]
    rep_numbers, failed_ids = [], []
    kinds = (False, True) if trace else (False,)
    clock.samples.append(calibration_sample())
    deadline = time.perf_counter() + seconds
    index = 0
    while (time.perf_counter() < deadline
           or min(len(reps[kind]) for kind in kinds) < min_reps):
        traced = trace and index % 2 == 1
        index += 1
        if traced:
            recorder.rep = len(reps[True])
            for owner, attr, name in WRAPPED:
                recorder.wrap(owner, attr, name)
            call = recorder.span("rep")(lambda: workload.rep(inputs))
        else:
            call = lambda: workload.rep(inputs)  # noqa: E731
        try:
            rep = clock.time(call)
        finally:
            recorder.unwrap_all()
        ops, observed = workload.observe(inputs, rep.result)
        # Keep the timings, drop the result: it would count towards RSS.
        reps[traced].append(rep._replace(result=None))
        # Seconds read off result objects (the sharded timeline) are
        # rescaled like the rep they were measured in.
        rep_numbers.append({name: value * rep.wall_scale
                            if name.endswith("_s") else value
                            for name, value in observed.items()})
        # An operation fails a rep when it has no answer or its digest
        # moved since the warm-up rep.
        failed_ids.append({op for op in rep_ops.keys() | ops.keys()
                           if ops.get(op) is None
                           or ops.get(op) != rep_ops.get(op)})
    peak_rss_mb = _peak_rss_mb()

    for name in rep_numbers[0]:
        values = [observed[name] for observed in rep_numbers]
        numbers[name] = (values[-1] if isinstance(values[-1], int)
                         else statistics.median(values))
    attempted, failed, count_drift = _verify(
        workload, inputs, expected, rep_ops, pinned_ops, failed_ids, numbers)

    # --- end-to-end metrics (always from the untraced reps) -------------
    def scaled(kind, clock_name):
        """Reference-speed samples of the steady reps (all, if too few)."""
        steady = [rep for rep in reps[kind] if rep.steady]
        chosen = steady if 2 * len(steady) >= len(reps[kind]) else reps[kind]
        return [getattr(rep, clock_name) * getattr(rep, clock_name + "_scale")
                for rep in chosen]

    run_samples, cpu_samples = scaled(False, "wall"), scaled(False, "cpu")
    run_s = statistics.median(run_samples)
    end_to_end = {
        "setup_s": import_s + statistics.median(build_s),
        "run_s": run_s,
        "cpu_s": statistics.median(cpu_samples),
        "queries_per_s": (attempted - failed) / len(failed_ids) / run_s,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": workload.name, "seed": seed, "hosts": hosts,
        "trace": bool(trace), "reps": len(reps[False]),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": {name: {"value": end_to_end[name],
                              "unit": END_TO_END[name][0]}
                       for name in END_TO_END},
        "samples": {"run_s": run_samples, "cpu_s": cpu_samples},
        "samples_raw": {"run_s": [rep.wall for rep in reps[False]],
                        "cpu_s": [rep.cpu for rep in reps[False]]},
        "calibration_s": {"reference": CALIBRATION_REFERENCE_S,
                          "min": min(clock.samples)[0],
                          "median": statistics.median(
                              wall for wall, _ in clock.samples),
                          "max": max(clock.samples)[0]},
        "noisy": len(run_samples) == len(reps[False]) and not all(
            rep.steady for rep in reps[False]),
        "ops": pinned_ops,
        "counts": {name: numbers[name] for name in PINNED_COUNTS
                   if name in numbers},
        "count_drift": count_drift,
        "env": environment(),
    }
    if not trace:
        return record

    record["per_layer"] = _per_layer(
        workload, inputs, clock, recorder,
        [rep.wall_scale for rep in reps[True]], numbers, timings, run_s,
        statistics.median(scaled(True, "wall")) / run_s - 1.0, kernel_ops)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        record["trace_file"] = os.path.join(
            trace_dir, f"trace_{workload.name}_seed{seed}.json")
        recorder.write_chrome_trace(record["trace_file"])
    return record


def _print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} "
          f"hosts={record['hosts']} reps={record['reps']} "
          f"failed={record['failed']}/{record['attempted']} "
          f"noisy={record['noisy']}")
    samples = record["samples"]
    for name, cell in record["end_to_end"].items():
        spread = ""
        if name in samples:
            spread = (f"   min {min(samples[name]):.4f} "
                      f"max {max(samples[name]):.4f} n {len(samples[name])}")
        print(f"{name:44s} {cell['value']:14.6g} {cell['unit']}{spread}")
    print(f"{'failed_frac':44s} {record['failed_frac']:14.6g} fraction")
    raw, calibration = record["samples_raw"], record["calibration_s"]
    print(f"raw (unscaled) medians: run_s {statistics.median(raw['run_s']):.4f}"
          f" cpu_s {statistics.median(raw['cpu_s']):.4f}; calibration loop "
          f"{calibration['min']:.4f}-{calibration['max']:.4f} s "
          f"(reference {calibration['reference']})")
    for name, cell in record.get("per_layer", {}).items():
        print(f"{name:44s} {cell['value']:14.6g} {cell['unit']}")
    for name, (want, got) in record["count_drift"].items():
        print(f"count drift: {name} pinned {want}, measured {got}")


def _child(args) -> int:
    """Measure one workload here; the last line is the driver's record."""
    from perf_workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    record = measure(WORKLOADS[args.workload[0]], seed=args.seed,
                     seconds=args.seconds, trace=bool(args.trace),
                     import_s=import_s)
    _print_record(record)
    print("#detail " + json.dumps(record))
    table = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": table}))
    return 0


def _run_child(workload: str, args, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.splitlines()
    detail = next((line for line in reversed(lines)
                   if line.startswith("#detail ")), None)
    if done.returncode != 0 or detail is None:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: child exited {done.returncode}")
    print("\n".join(line for line in lines[:-1]
                    if not line.startswith("#detail ")), flush=True)
    return json.loads(detail[len("#detail "):])


def _parent(args) -> int:
    """One fresh child per workload (plus a traced one under --trace)."""
    names = args.workload or list(WORKLOAD_NAMES)
    runs = []
    for name in names:
        runs.append(_run_child(name, args, 0))
        if args.trace:
            runs.append(_run_child(name, args, 1))
    if args.write_expected:
        pins = {"commit": runs[0]["env"]["commit"], "seed": args.seed,
                "workloads": {run["workload"]: {
                    "hosts": run["hosts"], "ops": run["ops"],
                    "counts": run["counts"]} for run in runs}}
        with open(EXPECTED_JSON, "w") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
    summary = {"seed": args.seed, "seconds": args.seconds, "runs": runs,
               "claim": None}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({"workloads": names, "failed": failed, "claim": None}))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated network (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run times reps (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also (or, for one workload, only) make the "
                             "traced run that yields per-layer metrics")
    parser.add_argument("--out", help="write the collected records here")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin expected.json from this run (seed 1)")
    args = parser.parse_args(argv)
    single = (args.workload is not None and len(args.workload) == 1
              and not args.out and not args.write_expected)
    return _child(args) if single else _parent(args)


if __name__ == "__main__":
    sys.exit(main())
