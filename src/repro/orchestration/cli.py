"""Command-line interface for the orchestration subsystem.

Exposed both as ``python -m repro`` and as the ``repro`` console script:

    repro figures                      # list available figure experiments
    repro run fig8 --workers 4         # run one figure's trial matrix
    repro run all --scale 0.3 -t 2     # every figure, two trials each
    repro run fig7 --scale 2.0         # beyond-paper network sizes
    repro bench --hosts 1000 100000    # kernel scale benchmark
    repro bench --hosts 1000000        # million-host run
    repro bench --hosts 10000 --delay heavy_tail    # variable link delay
    repro bench --hosts 1000 --profile              # cProfile the kernel
    repro serve --hosts 10000 --qps 5 --duration 200
                                       # multi-tenant query service
    repro bench --lane sharded --shards 4 --trace-out trace.json
                                       # merged per-shard Perfetto trace
    repro bench --hosts 1000000 --metrics-out live.jsonl
                                       # live RSS stream (tail -f)
    repro obs report bench.json        # epoch/barrier straggler report
    repro delay-sweep --size 200 --departures 0 10  # validity vs delay
    repro cache ls                     # list cached results
    repro cache clear 3fa9c1           # evict one record (cache-key prefix)
    repro cache clear --all            # evict everything
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence)

from repro.experiments.figures import FIGURES
from repro.experiments.query_mix import run_query_mix
from repro.experiments.scale_bench import run_scale_benchmark
from repro.experiments.validity_sweep import (DEFAULT_DELAY_SPECS,
                                              run_validity_sweep)
from repro.experiments.tables import format_table
from repro.obs.logconfig import configure as configure_logging, get_logger
from repro.obs.profiling import ProfileCapture
from repro.obs.stream import (MetricsStreamWriter, PeriodicSampler,
                              current_rss_mb, read_metrics_stream)
from repro.obs.timeline import ShardTimeline
from repro.obs.trace import RingTracer
from repro.orchestration.figures import (RunReport, run_figure_matrix,
                                        worker_utilisation)
from repro.orchestration.store import ResultStore, default_cache_root
from repro.service import AdmissionConfig
from repro.simulation.vector_lane import DEFAULT_LANE, LANES
from repro.topology import topology_from_spec
from repro.workloads.query_mix import DEFAULT_PROTOCOL_MIX, QueryMixConfig

log = get_logger()

#: The defer policy's defaults, which ``serve``'s flags start from.
_ADMISSION_DEFAULTS = AdmissionConfig()


class _UsageError(Exception):
    """A bad invocation: :func:`main` prints the message -- one line on
    stderr, nothing on stdout -- and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Every parser of the CLI: a bad command line (unknown flag, bad
    choice, out-of-range value, missing argument) is a
    :class:`_UsageError` like any other, not a usage block and
    ``SystemExit``."""

    def error(self, message: str):
        raise _UsageError(message)


def _bounded(kind: Callable[[str], Any], low: float,
             high: Optional[float] = None, strict: bool = False):
    """An argparse ``type=``: ``kind(text)`` in ``[low, high]`` (``low``
    excluded when ``strict``); argparse names the flag when it is not."""
    bound = (f"in [{low}, {high}]" if high is not None
             else f"> {low}" if strict else f">= {low}")

    def parse(text: str):
        value = kind(text)
        if not ((value > low if strict else value >= low)
                and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


@contextlib.contextmanager
def _driver_errors() -> Iterator[None]:
    """Report a driver's own ``KeyError`` / ``ValueError`` -- an unknown
    figure, topology, protocol, aggregate or delay model name, an
    out-of-range argument -- as a usage error."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise _UsageError(exc.args[0] if exc.args else exc) from exc


@contextlib.contextmanager
def _tracing(path: Optional[str]) -> Iterator[Optional[RingTracer]]:
    """``--trace-out PATH``: a sampled structured tracer for the block
    (``None`` without a PATH), written to PATH when the block completes
    (``.jsonl`` = JSON Lines, anything else = Chrome trace-event JSON)."""
    if not path:
        yield None
        return
    tracer = RingTracer()
    yield tracer
    if path.endswith(".jsonl"):
        written = tracer.export_jsonl(path)
    else:
        written = tracer.export_chrome(path)
    counts = tracer.summary()["counts"]
    log.info("wrote %s trace records to %s (%.1f MiB; exact counts: %s)",
             written, path, os.path.getsize(path) / (1024.0 * 1024.0),
             ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))


def _metrics_interval(args: argparse.Namespace) -> Optional[float]:
    """``--metrics-interval`` (``None`` when not given), which streams to
    ``--metrics-out``."""
    if args.metrics_interval is not None and not args.metrics_out:
        raise _UsageError(
            "--metrics-interval needs --metrics-out PATH to stream to")
    return args.metrics_interval


def _scalars(row: Dict[str, Any]) -> Dict[str, Any]:
    """Nested structures (a sharded timeline block, the retired order)
    belong in the JSON artifacts; printed tables stay scalar."""
    return {key: value for key, value in row.items()
            if not isinstance(value, (dict, list))}


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    at_least_0, at_least_1, hosts = (_bounded(int, 0), _bounded(int, 1),
                                     _bounded(int, 2))
    positive = _bounded(float, 0, strict=True)
    fraction = _bounded(float, 0, 1)
    # Options several commands share, each stated once.  ``shared(*names)``
    # is a fresh parent parser holding the named ones, so a command's
    # ``set_defaults`` (delay-sweep's topology and trials) stays its own.
    options = {
        "seed": (["--seed"], dict(type=int, default=0,
                                  help="base seed (default 0)")),
        "cache-dir": (["--cache-dir"], dict(
            help=f"cache location (default {default_cache_root()})")),
        "topology": (["--topology"], dict(
            default="gnutella",
            help="topology generator (default %(default)s)")),
        "aggregate": (["--aggregate"], dict(
            default="count", help="query kind (default count)")),
        "delay": (["--delay"], dict(
            default="fixed", metavar="MODEL",
            help="link-delay model spec: fixed | uniform[:lo,hi] | "
                 "per_edge[:lo,hi] | heavy_tail[:alpha,xm] (default fixed)")),
        "trials": (["-t", "--trials"], dict(
            type=at_least_1, default=1,
            help="independent trials per figure or sweep point "
                 "(default %(default)s)")),
        "trace-out": (["--trace-out"], dict(
            metavar="PATH",
            help="write a sampled structured trace to PATH (.jsonl = JSON "
                 "Lines, else Chrome trace-event JSON for Perfetto)")),
        "metrics-out": (["--metrics-out"], dict(
            metavar="PATH",
            help="bench: stream the resident set size to PATH as flushed "
                 "JSON Lines; serve: write the metrics snapshot (engine, "
                 "queue, per-tenant) to PATH as JSON, or a JSON Lines "
                 "stream of them with --metrics-interval")),
        "metrics-interval": (["--metrics-interval"], dict(
            type=positive, metavar="SECONDS",
            help="seconds between live metrics samples, with --metrics-out: "
                 "wall-clock for bench (default 1.0), simulated for serve "
                 "(results stay bit-identical)")),
    }

    def shared(*names: str) -> List[argparse.ArgumentParser]:
        parent = _Parser(add_help=False)
        for name in names:
            flags, kwargs = options[name]
            parent.add_argument(*flags, **kwargs)
        return [parent]

    parser = _Parser(prog="repro", description="Parallel experiment "
                     "orchestration for the Price-of-Validity reproduction.")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="debug-level status logging (per-trial "
                             "progress, cache internals)")
    parser.add_argument("--quiet", action="store_true", dest="log_quiet",
                        help="warnings only; suppress progress/status lines")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list available figure experiments")

    run = sub.add_parser("run", help="run figure trial matrices",
                         parents=shared("trials", "seed", "cache-dir"))
    run.add_argument("figures", nargs="+", metavar="FIGURE",
                     help="figure ids (e.g. fig8) or 'all'")
    run.add_argument("--scale", type=positive, default=0.5,
                     help="network-size scale factor: 1.0 = the sizes in "
                          "experiments/figures.py (default 0.5)")
    run.add_argument("-w", "--workers", type=at_least_1, default=1,
                     help="worker processes (default 1 = in-process)")
    run.add_argument("--no-cache", action="store_true",
                     help="neither read nor write the result cache")
    run.add_argument("--force", action="store_true",
                     help="recompute even if cached")
    run.add_argument("-q", "--quiet", action="store_true",
                     help="suppress result tables; print summaries only")

    bench = sub.add_parser(
        "bench", help="kernel scale benchmark at arbitrary host counts",
        parents=shared("topology", "aggregate", "seed", "delay",
                       "trace-out", "metrics-out", "metrics-interval"))
    bench.add_argument("--hosts", type=hosts, nargs="+",
                       default=[1000, 10000],
                       help="network sizes to run (default: 1000 10000)")
    bench.add_argument("--protocol", default="wildfire",
                       help="protocol: wildfire | spanning-tree | dagK")
    bench.add_argument("--repetitions", type=at_least_1, default=8,
                       help="FM repetitions c for sketch combiners")
    bench.add_argument("--lane", choices=LANES,
                       help="kernel lane: vector (per-tick batch), sharded "
                            "(multiprocess, see --shards) or python (the "
                            "executable spec), bit-identical; a refused "
                            "run falls back to python "
                            f"(default {DEFAULT_LANE})")
    bench.add_argument("--shards", type=at_least_1, default=1, metavar="K",
                       help="worker processes for --lane sharded (default 1)")
    bench.add_argument("--profile", action="store_true",
                       help="run under cProfile; print the top 25 functions "
                            "by cumulative time to stderr")
    bench.add_argument("--profile-out", metavar="PATH",
                       help="write the cProfile dump (pstats) to PATH plus a "
                            "JSON sidecar at PATH.json; implies --profile")
    bench.add_argument("--json", metavar="PATH",
                       help="append rows to a trajectory file at PATH")
    bench.add_argument("--label", help="trajectory label for --json "
                                       "(default: 'cli' plus the cell)")

    serve = sub.add_parser(
        "serve", help="multi-tenant query service: concurrent aggregate "
                      "queries over one shared simulated network",
        parents=shared("topology", "seed", "delay", "trace-out",
                       "metrics-out", "metrics-interval"))
    serve.add_argument("--hosts", type=hosts, default=1000,
                       help="network size (default 1000)")
    serve.add_argument("--qps", type=positive, default=2.0,
                       help="mean Poisson arrival rate (default 2.0)")
    serve.add_argument("--duration", type=positive, default=60.0,
                       help="arrival window in simulated time, then drain "
                            "(default 60)")
    serve.add_argument("--departures", type=at_least_0, default=0,
                       help="hosts failed over the arrival window (default 0)")
    serve.add_argument("--continuous-fraction", type=fraction, default=0.15,
                       help="share of periodic query streams (default 0.15)")
    serve.add_argument("--wildfire-share", type=fraction, metavar="W",
                       help="WILDFIRE's weight in the protocol mix (default "
                            "0.25; the rest splits 2:1 tree:dag2)")
    serve.add_argument("--max-queries", type=at_least_1,
                       help="cap on total submissions (default: unbounded)")
    serve.add_argument("--rows", type=at_least_0, default=20, metavar="N",
                       help="print the first N query rows (default 20)")
    serve.add_argument("--json", metavar="PATH",
                       help="write rows, summary and metrics to PATH as JSON")
    serve.add_argument("--share-floods", choices=("on", "off"), default="off",
                       help="sessions with an in-flight twin computation "
                            "subscribe to it; results are bit-identical")
    serve.add_argument("--shed-policy", choices=("shed", "defer", "degrade"),
                       help="admission policy under overload: reject, "
                            "requeue until a deadline, or answer stale from "
                            "cache (default shed once a limit is armed)")
    serve.add_argument("--max-qps", type=positive,
                       help="admission limit: launches per simulated second")
    serve.add_argument("--max-active", type=at_least_0,
                       help="admission limit: concurrently running sessions")
    serve.add_argument("--tenant-budget", type=at_least_0, metavar="MSGS",
                       help="admission limit: per-tenant message budget")
    serve.add_argument("--defer-retry", type=positive, metavar="SECONDS",
                       default=_ADMISSION_DEFAULTS.defer_retry,
                       help="defer policy: simulated seconds between retries "
                            "(default 2.0)")
    serve.add_argument("--defer-deadline", type=_bounded(float, 0),
                       default=_ADMISSION_DEFAULTS.defer_deadline,
                       metavar="SECONDS",
                       help="defer policy: wait before a query is shed "
                            "(default 30.0)")

    sweep = sub.add_parser(
        "delay-sweep", help="validity curves under variable link delay",
        parents=shared("topology", "aggregate", "trials", "seed"))
    sweep.set_defaults(topology="random", trials=3)
    sweep.add_argument("--size", type=hosts, default=100,
                       help="network size (default 100)")
    sweep.add_argument("--delays", nargs="+", metavar="MODEL",
                       help="delay model specs to sweep (default: "
                            + ", ".join(DEFAULT_DELAY_SPECS) + ")")
    sweep.add_argument("--departures", type=at_least_0, nargs="+",
                       default=[0], help="churn levels R to sweep, each "
                                         "below --size (default: 0)")
    sweep.add_argument("--provenance", action="store_true",
                       help="add lost_alive_mean / lost_churn_mean columns "
                            "(traces every delivery)")

    obs = sub.add_parser("obs", help="reports over saved run artifacts")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="per-epoch straggler / barrier table of a sharded "
                       "run's JSON, or a summary of a .jsonl metrics stream")
    report.add_argument("artifact", metavar="PATH",
                        help="a bench/run JSON artifact or a --metrics-out "
                             "JSON Lines stream")
    report.add_argument("--epochs", type=at_least_0, default=12, metavar="N",
                        help="show the N most skewed epochs (default 12; "
                             "0 = all)")

    cache = sub.add_parser("cache", help="inspect or evict cached results")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("ls", help="list cached records",
                         parents=shared("cache-dir"))
    clear = cache_sub.add_parser("clear", help="remove cached records",
                                 parents=shared("cache-dir"))
    clear.add_argument("hash", nargs="?",
                       help="cache key (or unique prefix) to evict")
    clear.add_argument("--all", action="store_true", dest="clear_all",
                       help="evict every record")
    return parser


def _cmd_figures(args: argparse.Namespace) -> int:
    rows = [{"figure": key, "description": figure.description}
            for key, figure in FIGURES.items()]
    print(format_table(rows, title="Available figures"))
    return 0


def _print_report(figure_id: str, report: RunReport, quiet: bool) -> None:
    print(f"== {figure_id}: {report.name} "
          f"[cache {report.cache_key[:12]}] ==")
    if not quiet:
        # Every figure's value is its list of table rows.
        print(format_table(report.results[0].value))
        if len(report.results) > 1:
            summary = [{
                "trial": result.index,
                "seed": result.seed,
                "rows": len(result.value),
                "elapsed_s": round(result.elapsed, 2),
                "cached": "yes" if result.cached else "no",
            } for result in report.results]
            print(format_table(summary, title="Trials"))
    # A verdict is a function of the rows, so cached trials get one too.
    trials = len(report.results)
    failed: Dict[str, int] = {}
    for rows in report.values:
        for name, holds in FIGURES[figure_id].claims(rows):
            failed[name] = failed.get(name, 0) + (not holds)
    for name, count in failed.items():
        verdict = f"fail {count}" if count else f"pass {trials}"
        print(f"claim {name}: {verdict}/{trials} trials")
    print(f"-- {trials} trials "
          f"({report.num_cached} cached, {report.num_executed} executed) "
          f"in {report.elapsed:.2f}s with {report.workers} worker(s) --")
    print()


def _cmd_run(args: argparse.Namespace) -> int:
    figure_ids: List[str] = []
    for figure_id in args.figures:
        figure_ids.extend(FIGURES if figure_id == "all" else [figure_id])
    store = None if args.no_cache else ResultStore(args.cache_dir)
    with _driver_errors():
        reports = run_figure_matrix(
            figure_ids, scale=args.scale, num_trials=args.trials,
            base_seed=args.seed, workers=args.workers, store=store,
            force=args.force, progress=log.debug)
    for figure_id, report in reports.items():
        _print_report(figure_id, report, args.quiet)
    workers = max(report.workers for report in reports.values())
    if workers > 1:
        print(f"-- batch: {worker_utilisation(reports.values()):.0%} of "
              f"{workers} worker(s) utilised --")
    return 0


def _load_trajectory(path: str) -> dict:
    """Pre-flight ``bench --json PATH`` BEFORE the (potentially long)
    sweep: a corrupt or non-object file must fail fast, not after minutes
    of benchmarking, and must never be silently overwritten."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return {"trajectory": []}
    except (OSError, ValueError) as exc:
        raise _UsageError(f"refusing to overwrite {path}: {exc}")
    if not (isinstance(payload, dict) and isinstance(
            payload.setdefault("trajectory", []), list)):
        raise _UsageError(f"refusing to overwrite {path}: not a JSON "
                          f"object with a 'trajectory' list")
    return payload


@contextlib.contextmanager
def _bench_live_metrics(args: argparse.Namespace,
                        interval: float) -> Iterator[None]:
    """``bench --metrics-out``: sample the resident set size into a JSON
    Lines stream while the block runs (the sampler thread only reads, so
    the run stays bit-identical)."""
    def live_payload():
        rss = current_rss_mb()
        return {} if rss is None else {"process.rss_mb": rss}

    stream = MetricsStreamWriter(args.metrics_out, meta={
        "command": "bench", "lane": args.lane, "shards": args.shards,
        "hosts": list(args.hosts), "interval_s": interval})
    sampler = PeriodicSampler(
        interval, lambda: stream.sample(live_payload())).start()
    try:
        yield
    finally:
        try:
            sampler.stop(final_sample=False)
            stream.final(live_payload())
        finally:
            stream.close()
            log.info("wrote %s live metrics samples to %s",
                     stream.samples_written, args.metrics_out)


def _cmd_bench(args: argparse.Namespace) -> int:
    lane_requested = args.lane is not None
    if not lane_requested:
        args.lane = DEFAULT_LANE
    if args.shards > 1 and args.lane != "sharded":
        raise _UsageError("--shards requires --lane sharded")
    if args.label is not None and not args.json:
        raise _UsageError("--label needs --json PATH (it labels the "
                          "trajectory point)")
    profiled = args.profile or args.profile_out
    if profiled and args.json:
        # Profiled wall times carry cProfile's tracing overhead; a
        # trajectory file must only ever record clean measurements.
        raise _UsageError("--profile cannot be combined with --json "
                          "(profiled timings would pollute the trajectory)")
    payload = _load_trajectory(args.json) if args.json else None
    interval = _metrics_interval(args) or 1.0
    capture = ProfileCapture() if profiled else None
    rows = []
    with contextlib.ExitStack() as stack:
        tracer = stack.enter_context(_tracing(args.trace_out))
        if args.metrics_out:
            stack.enter_context(_bench_live_metrics(args, interval))
        if capture is not None:
            stack.enter_context(capture)
        stack.enter_context(_driver_errors())
        # ``peak_rss_mb`` is a process-wide high-water mark, so within one
        # sweep it is non-decreasing: attributable to the largest run so far.
        for num_hosts in args.hosts:
            row = run_scale_benchmark(
                num_hosts, topology=args.topology, protocol=args.protocol,
                aggregate=args.aggregate, seed=args.seed,
                repetitions=args.repetitions, delay=args.delay,
                tracer=tracer, lane=args.lane, shards=args.shards)
            rows.append(row)
            log.info(
                ".. %s hosts: %.2fs, %s messages (%s/s, peak RSS %s MiB)",
                row["hosts"], row["run_seconds"], row["messages"],
                row["messages_per_second"], row["peak_rss_mb"])
    if args.profile_out:
        capture.dump(args.profile_out)
        log.info("wrote profile to %s (load with pstats.Stats; sidecar at "
                 "%s.json)", args.profile_out, args.profile_out)
    if args.profile:
        # Top cumulative-time functions, for hunting the next hot path.
        capture.print_stats(25)
    # A lane the user named that declined a run is worth a loud line:
    # they asked for (say) a sharded traced run and silently got the
    # spec loop's numbers instead.  The reason is machine-readable in
    # the row; here it is surfaced at warning level so --quiet still
    # shows it.  The default lane falling back is the gate doing its
    # job, not a surprise.
    for row in rows:
        if lane_requested and row.get("fallback_reason") is not None:
            log.warning(
                "lane %r fell back to the python spec loop at %s hosts: %s",
                args.lane, row["hosts"], row["fallback_reason"])
    lane_label = (f"{args.lane} lane x{args.shards}"
                  if args.lane == "sharded" else f"{args.lane} lane")
    # The fallback column only appears when some row actually fell back.
    printable = [_scalars(row) for row in rows]
    if all(row["fallback_reason"] is None for row in printable):
        for row in printable:
            del row["fallback_reason"]
    print(format_table(printable,
                       title=f"Kernel scale benchmark "
                             f"({args.protocol} / {args.topology} / "
                             f"{args.aggregate} / {args.delay} delay / "
                             f"{lane_label})"))
    if payload is not None:
        label = args.label or (
            f"cli {args.protocol}/{args.topology}/{args.aggregate}")
        payload["trajectory"].append({"label": label, "rows": rows})
        _write_json(args.json, payload)
        log.info("appended trajectory point to %s", args.json)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    protocol_mix = dict(DEFAULT_PROTOCOL_MIX)
    if args.wildfire_share is not None:
        rest = 1.0 - args.wildfire_share
        protocol_mix = {"wildfire": args.wildfire_share,
                        "spanning-tree": rest * 2.0 / 3.0,
                        "dag2": rest / 3.0}
    interval = _metrics_interval(args)
    # Only the defer policy reads these; argparse cannot tell a default
    # from the same value typed out, so a changed value is what counts.
    if args.shed_policy != "defer" and (
            (args.defer_retry, args.defer_deadline)
            != (_ADMISSION_DEFAULTS.defer_retry,
                _ADMISSION_DEFAULTS.defer_deadline)):
        raise _UsageError("--defer-retry / --defer-deadline need "
                          "--shed-policy defer")
    progress = None
    if log.isEnabledFor(10):  # DEBUG: periodic progress line per slice
        progress = lambda snap: log.debug(  # noqa: E731
            ".. t=%.1f: %s active, %s queued events, %s messages, "
            "%s retired", snap["time"], snap["active_sessions"],
            snap["pending_events"], snap["messages_sent"],
            snap["retired"])
    with _driver_errors(), contextlib.ExitStack() as stack:
        admission = None
        if (args.shed_policy is not None or args.max_qps is not None
                or args.max_active is not None
                or args.tenant_budget is not None):
            admission = AdmissionConfig(
                policy=args.shed_policy or "shed",
                max_qps=args.max_qps,
                max_active_sessions=args.max_active,
                tenant_message_budget=args.tenant_budget,
                defer_retry=args.defer_retry,
                defer_deadline=args.defer_deadline,
            )
        mix = QueryMixConfig(
            qps=args.qps, duration=args.duration,
            protocol_mix=protocol_mix,
            continuous_fraction=args.continuous_fraction,
            max_queries=args.max_queries,
        )
        # Every option but the topology name (resolved by the run) is
        # checked by now, before any artifact is opened.
        tracer = stack.enter_context(_tracing(args.trace_out))
        metrics_stream = None
        if interval is not None:
            metrics_stream = stack.enter_context(MetricsStreamWriter(
                args.metrics_out, meta={
                    "command": "serve", "hosts": args.hosts, "qps": args.qps,
                    "duration": args.duration, "seed": args.seed,
                    "interval_s": interval}))
        result = run_query_mix(
            num_hosts=args.hosts, topology=args.topology, seed=args.seed,
            delay=None if args.delay == "fixed" else args.delay,
            departures=args.departures, mix=mix, tracer=tracer,
            progress=progress, metrics_interval=interval,
            metrics_stream=metrics_stream,
            share_floods=args.share_floods == "on", admission=admission)
        if metrics_stream is not None:
            # The stream ends with the end-of-run snapshot, so a consumer
            # that only tails the file still sees the authoritative totals.
            metrics_stream.final(result["metrics"])
            log.info("streamed %s live metrics samples to %s",
                     metrics_stream.samples_written, args.metrics_out)
    rows = result["rows"]
    summary = result["summary"]
    if args.rows > 0 and rows:
        shown = [
            {key: row[key] for key in (
                "query_id", "protocol", "aggregate", "querying_host",
                "status", "submitted_at", "declared_at", "value",
                "communication_cost", "computation_cost", "time_cost")
             if key in row}
            for row in rows[:args.rows]
        ]
        print(format_table(
            shown,
            title=f"Query service ({summary['hosts']} hosts / "
                  f"{summary['topology']} / qps {summary['qps']}) -- "
                  f"first {len(shown)} of {len(rows)} queries"))
    print(format_table([_scalars(summary)], title="Service summary"))
    # Sessions the lane gate refused ran the per-message spec loop: same
    # answers, another cost.  One line per reason, so a sweep that
    # expected the batch path sees that (and why) it did not get it.
    reasons = Counter(row["fallback_reason"] for row in rows
                      if row.get("fallback_reason") is not None)
    for reason, count in sorted(reasons.items()):
        print(f"{count} of {len(rows)} sessions ran the spec loop: {reason}")
    if args.json:
        _write_json(args.json, result)
        log.info("wrote full report to %s", args.json)
    if args.metrics_out and metrics_stream is None:
        _write_json(args.metrics_out, result["metrics"])
        log.info("wrote metrics snapshot to %s", args.metrics_out)
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    try:
        if args.artifact.endswith(".jsonl"):
            return _report_metrics_stream(args.artifact, args.epochs)
        with open(args.artifact) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read {args.artifact}: {exc}")
    except ValueError as exc:
        raise _UsageError(f"{args.artifact} is not valid JSON: {exc}")
    timeline = ShardTimeline.from_run(payload)
    if timeline is None:
        raise _UsageError(
            f"{args.artifact} carries no sharded epoch timeline; "
            f"produce one with repro bench --lane sharded --json "
            f"(a run that fell back to the spec loop records none)")
    report = timeline.skew_report()
    rows = report
    note = ""
    if args.epochs and len(report) > args.epochs:
        # Keep the most skewed epochs, re-sorted chronologically -- the
        # reader wants the bad moments, in order.
        worst = sorted(report, key=lambda r: r["skew_s"],
                       reverse=True)[:args.epochs]
        rows = sorted(worst, key=lambda r: r["epoch"])
        note = (f" -- {args.epochs} most skewed of "
                f"{len(report)} epochs")
    print(format_table(
        rows, title=f"Epoch/barrier timeline ({timeline.shards} shards"
                    f"{note})"))
    health = timeline.health()
    columns = ("compute_s", "barrier_wait_s", "barrier_overhead",
               "straggler_epochs")
    shard_rows = [{"shard": k, **{column: health[column][k]
                                  for column in columns}}
                  for k in range(health["shards"])]
    print(format_table(shard_rows, title="Per-shard totals"))
    worst = health["worst_epoch"]
    if worst is not None:
        print(f"worst epoch: {worst['epoch']} (t={worst['t']}) -- shard "
              f"{worst['straggler']} straggled by {worst['skew_s']}s, "
              f"barrier fraction {worst['barrier_frac']:.1%}")
    return 0


def _report_metrics_stream(path: str, limit: int) -> int:
    """Summarise a ``--metrics-out`` JSON Lines stream as tables.

    Streams from interrupted runs are first-class: a torn last line is
    dropped with a warning, a stream with no ``final`` frame prints the
    partial tables it has, and a meta-only stream reports the header --
    all exit 0.  Only real corruption (a bad line before the end) and a
    stream with nothing readable at all stay exit 2.
    """
    stream = read_metrics_stream(path)
    meta = stream["meta"]
    samples = stream["rows"]
    if stream["truncated"] is not None:
        number, error = stream["truncated"]
        print(f"{path}:{number}: dropped torn last line (interrupted "
              f"run): {error}", file=sys.stderr)
    if meta is None and not samples:
        raise _UsageError(f"{path} holds no metrics samples")
    if meta is not None:
        print("stream: " + ", ".join(
            f"{key}={value}" for key, value in sorted(_scalars(meta).items())
            if key != "type"))
    if not samples:
        print("no metrics samples yet -- the run was interrupted before "
              "its first sample")
        return 0
    if not stream["has_final"]:
        print("stream has no final frame (interrupted run) -- totals "
              "below are the last live sample")
    shown = samples[-limit:] if limit else samples
    printable = [_scalars(row) for row in shown]
    skipped = len(samples) - len(shown)
    suffix = f" -- last {len(shown)} of {len(samples)}" if skipped else ""
    print(format_table(
        printable, title=f"Live metrics samples{suffix}"))
    return 0


def _cmd_delay_sweep(args: argparse.Namespace) -> int:
    with _driver_errors():
        rows = run_validity_sweep(
            topology_from_spec(args.topology, args.size, args.seed),
            args.aggregate,
            departures=args.departures,
            delay_specs=args.delays or DEFAULT_DELAY_SPECS,
            num_trials=args.trials,
            seed=args.seed,
            provenance=args.provenance,
        )
    print(format_table(
        [row.as_dict() for row in rows],
        title=f"Validity under variable delay "
              f"({args.aggregate} / {args.topology}-{args.size})"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    if args.cache_command == "ls":
        entries = store.entries()
        if not entries:
            print(f"(cache at {store.root} is empty)")
            return 0
        print(format_table(entries, title=f"Cache at {store.root}"))
        return 0
    # clear
    if not args.clear_all and args.hash is None:
        raise _UsageError("cache clear requires a hash prefix or --all")
    with _driver_errors():
        removed = store.clear(None if args.clear_all else args.hash)
    print(f"removed {removed} record(s) from {store.root}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        configure_logging(-1 if args.log_quiet else args.verbose)
        # ``obs`` and ``cache`` pick their sub-subcommand themselves;
        # the parser has already rejected any command not listed here.
        return {"figures": _cmd_figures, "run": _cmd_run,
                "bench": _cmd_bench, "serve": _cmd_serve,
                "obs": _cmd_obs_report, "delay-sweep": _cmd_delay_sweep,
                "cache": _cmd_cache}[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Only ``run`` with a store persists as it goes; a re-run of it
        # resumes from the last finished trial.
        resumable = (getattr(args, "command", None) == "run"
                     and not args.no_cache)
        print("\ninterrupted" + ("; finished trials are cached"
                                 if resumable else ""), file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved unix filter.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
