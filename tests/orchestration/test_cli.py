"""CLI smoke tests: run with cache, figures listing, cache ls/clear."""

import pytest

from repro.orchestration.cli import main

#: Cheapest figure configuration that still exercises a real driver.
RUN_ARGS = ["--scale", "0.05", "--trials", "1"]


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_figures_lists_every_registered_figure(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    from repro.experiments.figures import FIGURES

    for figure_id in FIGURES:
        assert figure_id in out


def test_run_then_cached_rerun(cache_dir, capsys):
    assert main(["run", "fig6", *RUN_ARGS, "--cache-dir", cache_dir]) == 0
    cold = capsys.readouterr().out
    assert "1 trials (0 cached, 1 executed)" in cold

    assert main(["run", "fig6", *RUN_ARGS, "--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr().out
    assert "1 trials (1 cached, 0 executed)" in warm

    # The printed result table is identical between cold and warm runs.
    table = [line for line in cold.splitlines()
             if line.startswith(("count", "sum"))]
    assert table and table == \
        [line for line in warm.splitlines()
         if line.startswith(("count", "sum"))]


def test_a_warm_run_prints_the_cold_runs_verdicts(cache_dir, capsys):
    """Verdicts are a function of the rows: an all-cached rerun prints the
    claim lines of the run that computed them, and --quiet keeps them."""
    args = ["run", "thm4.4", "fig13b", "--scale", "0.05", "--trials", "2",
            "--cache-dir", cache_dir]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert main([*args, "-q"]) == 0
    warm = capsys.readouterr().out
    assert warm.count("2 trials (2 cached, 0 executed)") == 2

    def verdicts(out):
        return [line for line in out.splitlines()
                if line.startswith(("== ", "claim "))]
    assert len(verdicts(cold)) == 2 + 5
    assert verdicts(warm) == verdicts(cold)


def test_a_failed_claim_is_reported_not_raised(echo_figure, capsys):
    assert main(["run", "echo", "--trials", "4", "--no-cache"]) == 0
    out = capsys.readouterr().out
    odd = sum(seed % 2 for seed in echo_figure)
    assert 0 < odd < 4  # the derived seeds exercise both verdicts
    assert f"claim even-seed: fail {odd}/4 trials" in out


def test_run_prints_a_trials_table_for_several_trials(capsys):
    assert main(["run", "fig6", "--scale", "0.05", "--trials", "2",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Trials" in out and "elapsed_s" in out
    assert "2 trials (0 cached, 2 executed)" in out


def test_run_unknown_figure_fails_cleanly(cache_dir, usage_error):
    usage_error(["run", "fig99", "--cache-dir", cache_dir], "unknown figure")


def test_cache_ls_and_targeted_clear(cache_dir, capsys):
    main(["run", "fig6", *RUN_ARGS, "--cache-dir", cache_dir])
    capsys.readouterr()

    assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
    listing = capsys.readouterr().out
    assert "figure" in listing

    # Grab the hash from the listing and clear exactly that record.
    spec_hash = next(
        line.split()[0] for line in listing.splitlines()
        if line and not line.startswith(("Cache", "hash", "-"))
    )
    assert main(["cache", "clear", spec_hash[:10],
                 "--cache-dir", cache_dir]) == 0
    assert "removed 1 record(s)" in capsys.readouterr().out

    assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
    assert "empty" in capsys.readouterr().out


def test_cache_clear_requires_target(cache_dir, usage_error):
    usage_error(["cache", "clear", "--cache-dir", cache_dir], "--all")


def test_no_cache_leaves_no_records(cache_dir, tmp_path, capsys):
    assert main(["run", "fig6", *RUN_ARGS, "--no-cache", "-q",
                 "--cache-dir", cache_dir]) == 0
    assert not (tmp_path / "cache").exists()


def test_bench_variable_delay_row(capsys):
    assert main(["bench", "--hosts", "64", "--topology", "random",
                 "--delay", "uniform:0.5,1.0"]) == 0
    captured = capsys.readouterr()
    assert "uniform:0.5,1.0" in captured.out
    assert "peak_rss_mb" in captured.out
    assert "accounting_bytes" in captured.out


@pytest.mark.parametrize("bad_input, says", [
    (["--delay", "warp"], "unknown delay model"),
    (["--hosts", "64", "1"], "argument --hosts: must be >= 2, got 1"),
    (["--hosts", "many"], "argument --hosts: invalid int value: 'many'"),
    (["--repetitions", "0"], "argument --repetitions: must be >= 1"),
    (["--lane", "warp"], "argument --lane: invalid choice: 'warp'"),
    (["--shards", "2"], "--shards requires --lane sharded"),
    (["--metrics-interval", "0", "--metrics-out", "m.jsonl"],
     "argument --metrics-interval: must be > 0"),
    (["--label", "nightly"], "--label needs --json"),
])
def test_bench_checks_every_input_before_opening_a_file(
        bad_input, says, usage_error):
    """``--label`` without ``--json`` used to exit 0 and drop the label."""
    usage_error(["bench", "--hosts", "64", "--trace-out", "trace.json",
                 *bad_input], says)


def test_bench_profile_prints_cumulative_top(capsys):
    assert main(["bench", "--hosts", "64", "--topology", "random",
                 "--profile"]) == 0
    err = capsys.readouterr().err
    assert "Ordered by: cumulative time" in err
    assert "run_protocol" in err


def test_delay_sweep_command_prints_rows(capsys):
    assert main(["delay-sweep", "--size", "40", "--topology", "random",
                 "--departures", "0", "-t", "1",
                 "--delays", "fixed", "heavy_tail:1.2"]) == 0
    out = capsys.readouterr().out
    assert "valid_fraction" in out
    assert "heavy_tail:1.2" in out
    assert "wildfire" in out


def test_delay_sweep_rejects_unknown_topology(usage_error):
    usage_error(["delay-sweep", "--topology", "moebius"], "unknown topology")


def test_delay_sweep_rejects_negative_departures(usage_error):
    """The one churn sweep draws ``R`` victims; ``R < 0`` used to run as
    a static network under an ``R = -3`` label, and ``R >= n`` ran
    ``n - 1`` failures under the ``R`` asked for."""
    usage_error(["delay-sweep", "--size", "40", "--departures", "-3"],
                "argument --departures: must be >= 0, got -3")
    usage_error(["delay-sweep", "--size", "20", "--departures", "0", "50"],
                "R must be in [0, 19] on 20 hosts")


@pytest.mark.parametrize("command", [
    ["run", "fig6", *RUN_ARGS, "--no-cache"],
    ["bench", "--hosts", "64"],
    ["serve", "--hosts", "64"],
    ["delay-sweep"],
    ["figures"],
    ["obs", "report", "bench.json"],
    ["cache", "ls"],
])
def test_stats_option_is_gone(command, usage_error):
    """One sink: there is no accounting mode to pick on any command, and
    an unknown flag ends like every other bad invocation."""
    usage_error([*command, "--stats", "streaming"],
                "unrecognized arguments: --stats streaming")


def test_run_reports_the_processes_that_ran(capsys):
    """One pending trial runs in process, whatever ``--workers`` asks
    for; it used to print ``with 4 worker(s), 25% utilised``."""
    assert main(["run", "fig6", *RUN_ARGS, "--no-cache",
                 "--workers", "4"]) == 0
    out = capsys.readouterr().out
    assert "1 trials (0 cached, 1 executed)" in out
    assert "with 1 worker(s) --" in out and "utilised" not in out


def test_run_prints_utilisation_once_for_the_batch(capsys):
    assert main(["run", "fig7", "fig9", "--scale", "0.05", "--no-cache",
                 "-q", "--workers", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum("with 2 worker(s) --" in line for line in lines) == 2
    [batch] = [line for line in lines if "utilised" in line]
    assert batch.startswith("-- batch: ")
    assert 0 < int(batch.split()[2].rstrip("%")) <= 100


@pytest.mark.parametrize("command, cached", [
    (["bench", "--hosts", "64"], False),
    (["run", "fig6", *RUN_ARGS, "--no-cache"], False),
    (["run", "fig6", *RUN_ARGS], True),
])
def test_interrupt_says_cached_only_when_trials_were(
        command, cached, tmp_path, monkeypatch, capsys):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    from repro.orchestration import cli

    monkeypatch.setattr(cli, "run_scale_benchmark", interrupt)
    monkeypatch.setattr(cli, "run_figure_matrix", interrupt)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(command) == 130
    assert ("cached" in capsys.readouterr().err) is cached


def test_bench_json_appends_labelled_trajectory_points(tmp_path, capsys):
    import json

    path = tmp_path / "traj.json"
    for label in ("first", None):
        argv = ["bench", "--hosts", "64", "--json", str(path)]
        assert main(argv + (["--label", label] if label else [])) == 0
    labels = [point["label"]
              for point in json.loads(path.read_text())["trajectory"]]
    assert labels == ["first", "cli wildfire/gnutella/count"]


@pytest.mark.parametrize("content", [
    "{not json", "[1, 2]", '{"trajectory": {}}'])
def test_bench_refuses_to_overwrite_a_foreign_json(
        content, tmp_path, usage_error):
    path = tmp_path / "traj.json"
    path.write_text(content)
    usage_error(["bench", "--hosts", "64", "--json", path],
                f"refusing to overwrite {path}")
    assert path.read_text() == content


def test_bench_profile_refuses_trajectory_json(usage_error):
    """Profiled timings carry tracing overhead and must never land in a
    trajectory file."""
    usage_error(["bench", "--hosts", "64", "--topology", "random",
                 "--profile", "--json", "traj.json"], "--profile")


def test_serve_runs_a_small_mix_and_reports(tmp_path, capsys):
    """`repro serve` drives the multi-tenant query service end to end:
    per-query rows, a service summary with a determinism digest, and an
    optional JSON report artifact."""
    import json

    report_path = str(tmp_path / "serve.json")
    assert main(["serve", "--hosts", "120", "--topology", "random",
                 "--qps", "1", "--duration", "8",
                 "--rows", "3", "--json", report_path]) == 0
    out = capsys.readouterr().out
    assert "Service summary" in out
    assert "determinism_digest" in out
    with open(report_path) as handle:
        payload = json.load(handle)
    assert payload["summary"]["answered"] >= 1
    assert payload["summary"]["answered"] == sum(
        1 for row in payload["rows"] if row["status"] == "done")
    assert all("cost_fingerprint" in row for row in payload["rows"]
               if row["status"] == "done")


def test_serve_rows_name_the_path_and_fallbacks_get_a_line(tmp_path, capsys):
    """Every launched session's row says which path ran it; a mix the
    lane gate refuses prints one line per reason with its count, and a
    mix it admits prints none."""
    import json

    args = ["serve", "--hosts", "80", "--topology", "random",
            "--qps", "1", "--duration", "6", "--rows", "0"]
    report_path = str(tmp_path / "serve.json")
    assert main(args + ["--json", report_path]) == 0
    assert "ran the spec loop" not in capsys.readouterr().out
    with open(report_path) as handle:
        rows = json.load(handle)["rows"]
    assert rows and all(
        (row["lane_used"], row["fallback_reason"]) == ("vector", None)
        for row in rows)
    assert main(args + ["--delay", "uniform"]) == 0
    assert (f"{len(rows)} of {len(rows)} sessions ran the spec loop: "
            f"variable delay model") in capsys.readouterr().out


def test_serve_wildfire_share_sets_the_protocol_mix(tmp_path, capsys):
    import json

    report_path = tmp_path / "serve.json"
    assert main(["serve", "--hosts", "60", "--topology", "random",
                 "--qps", "2", "--duration", "6", "--rows", "0",
                 "--wildfire-share", "1", "--json", str(report_path)]) == 0
    rows = json.loads(report_path.read_text())["rows"]
    assert rows and {row["protocol"] for row in rows} == {"wildfire"}


def test_serve_arms_admission_from_its_flags(tmp_path, capsys):
    import json

    report_path = tmp_path / "serve.json"
    assert main(["serve", "--hosts", "60", "--topology", "random",
                 "--qps", "4", "--duration", "6", "--rows", "0",
                 "--max-active", "1", "--shed-policy", "defer",
                 "--defer-retry", "1", "--defer-deadline", "3",
                 "--json", str(report_path)]) == 0
    summary = json.loads(report_path.read_text())["summary"]
    assert summary["peak_active_sessions"] == 1
    assert summary["deferrals"] > 0 and summary["shed"] > 0
    assert summary["answered"] + summary["failed"] + summary["shed"] \
        == summary["queries"]


def test_a_closed_stdout_pipe_ends_quietly():
    """``repro figures | head -0``: a reader that went away is not an
    error (unbuffered, so the write fails inside the command)."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-u", "-m", "repro",
                               "figures"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_serve_is_deterministic_across_invocations(capsys):
    args = ["serve", "--hosts", "80", "--topology", "random",
            "--qps", "1", "--duration", "6", "--rows", "0"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out

    def digest(text):
        # The determinism digest is the only 64-char hex token printed.
        import re

        return re.search(r"\b[0-9a-f]{64}\b", text).group(0)

    # Wall-clock columns differ run to run; every simulated result
    # (values + per-query cost fingerprints) hashes identically.
    assert digest(first) == digest(second)


def test_serve_rejects_bad_parameters(usage_error):
    usage_error(["serve", "--hosts", "1"], "argument --hosts: must be >= 2")
    usage_error(["serve", "--qps", "0"], "argument --qps: must be > 0")
    usage_error(["serve", "--qps", "nan"], "argument --qps: must be > 0")
    usage_error(["serve", "--hosts", "64", "--topology", "moebius"],
                "unknown topology")
    usage_error(["serve", "--hosts", "64", "--wildfire-share", "2"],
                "argument --wildfire-share: must be in [0, 1], got 2")
    usage_error(["serve", "--share-floods", "maybe"],
                "argument --share-floods: invalid choice: 'maybe'")
    usage_error(["serve", "--shed-policy"],
                "argument --shed-policy: expected one argument")


@pytest.mark.parametrize("bad_input", [
    ["--departures", "-5"],
    ["--metrics-interval", "1", "--metrics-out", "m.jsonl", "--shards", "2"],
    ["--metrics-interval", "1"],
    ["--rows", "-1"],
    ["--defer-retry", "-5", "--shed-policy", "defer", "--max-active", "3"],
    ["--defer-retry", "5"],
    ["--defer-deadline", "10"],
    ["--defer-retry", "1", "--max-active", "3"],
])
def test_serve_checks_every_input_before_opening_a_file(
        bad_input, usage_error):
    """A negative ``--departures`` used to run (and print ``departures
    -5``); ``--metrics-interval`` with ``--shards 2`` used to fail only
    after creating a meta-only stream file; ``--rows -1`` printed no
    rows, and ``--defer-*`` without the defer policy armed (or a negative
    retry) was ignored."""
    usage_error(["serve", "--hosts", "50", "--qps", "1", "--duration", "3",
                 "--trace-out", "trace.json", "--json", "report.json",
                 *bad_input], bad_input[0])


@pytest.mark.parametrize("bad_limit", [
    ["--max-active", "-1"], ["--tenant-budget", "-3"]])
def test_serve_rejects_negative_admission_limits(bad_limit, usage_error):
    """A negative admission limit used to shed every query and exit 0."""
    usage_error(["serve", "--hosts", "60", "--topology", "random",
                 "--qps", "1", "--duration", "4", *bad_limit,
                 "--metrics-out", "m.json"],
                f"argument {bad_limit[0]}: must be >= 0")



#: Every option of every command: (command path, option strings, dest,
#: effective default, nargs, choices).  Declaring a flag once for several
#: commands, or bounding it in the parser, must leave this table as is.
SURFACE = [
    ('', '-v/--verbose', 'verbose', 0, 0, None),
    ('', '--quiet', 'log_quiet', False, 0, None),
    ('run', 'figures', 'figures', None, '+', None),
    ('run', '--scale', 'scale', 0.5, None, None),
    ('run', '-t/--trials', 'trials', 1, None, None),
    ('run', '--seed', 'seed', 0, None, None),
    ('run', '-w/--workers', 'workers', 1, None, None),
    ('run', '--cache-dir', 'cache_dir', None, None, None),
    ('run', '--no-cache', 'no_cache', False, 0, None),
    ('run', '--force', 'force', False, 0, None),
    ('run', '-q/--quiet', 'quiet', False, 0, None),
    ('bench', '--hosts', 'hosts', [1000, 10000], '+', None),
    ('bench', '--topology', 'topology', 'gnutella', None, None),
    ('bench', '--protocol', 'protocol', 'wildfire', None, None),
    ('bench', '--aggregate', 'aggregate', 'count', None, None),
    ('bench', '--seed', 'seed', 0, None, None),
    ('bench', '--repetitions', 'repetitions', 8, None, None),
    ('bench', '--delay', 'delay', 'fixed', None, None),
    ('bench', '--lane', 'lane', None, None, ('python', 'vector', 'sharded')),
    ('bench', '--shards', 'shards', 1, None, None),
    ('bench', '--profile', 'profile', False, 0, None),
    ('bench', '--profile-out', 'profile_out', None, None, None),
    ('bench', '--trace-out', 'trace_out', None, None, None),
    ('bench', '--json', 'json', None, None, None),
    ('bench', '--label', 'label', None, None, None),
    ('bench', '--metrics-out', 'metrics_out', None, None, None),
    ('bench', '--metrics-interval', 'metrics_interval', None, None, None),
    ('serve', '--hosts', 'hosts', 1000, None, None),
    ('serve', '--topology', 'topology', 'gnutella', None, None),
    ('serve', '--qps', 'qps', 2.0, None, None),
    ('serve', '--duration', 'duration', 60.0, None, None),
    ('serve', '--seed', 'seed', 0, None, None),
    ('serve', '--delay', 'delay', 'fixed', None, None),
    ('serve', '--departures', 'departures', 0, None, None),
    ('serve', '--continuous-fraction', 'continuous_fraction', 0.15, None,
     None),
    ('serve', '--wildfire-share', 'wildfire_share', None, None, None),
    ('serve', '--max-queries', 'max_queries', None, None, None),
    ('serve', '--shards', 'shards', 1, None, None),
    ('serve', '--rows', 'rows', 20, None, None),
    ('serve', '--json', 'json', None, None, None),
    ('serve', '--metrics-out', 'metrics_out', None, None, None),
    ('serve', '--metrics-interval', 'metrics_interval', None, None, None),
    ('serve', '--trace-out', 'trace_out', None, None, None),
    ('serve', '--share-floods', 'share_floods', 'off', None, ('on', 'off')),
    ('serve', '--shed-policy', 'shed_policy', None, None,
     ('shed', 'defer', 'degrade')),
    ('serve', '--max-qps', 'max_qps', None, None, None),
    ('serve', '--max-active', 'max_active', None, None, None),
    ('serve', '--tenant-budget', 'tenant_budget', None, None, None),
    ('serve', '--defer-retry', 'defer_retry', 2.0, None, None),
    ('serve', '--defer-deadline', 'defer_deadline', 30.0, None, None),
    ('delay-sweep', '--topology', 'topology', 'random', None, None),
    ('delay-sweep', '--size', 'size', 100, None, None),
    ('delay-sweep', '--aggregate', 'aggregate', 'count', None, None),
    ('delay-sweep', '--delays', 'delays', None, '+', None),
    ('delay-sweep', '--departures', 'departures', [0], '+', None),
    ('delay-sweep', '-t/--trials', 'trials', 3, None, None),
    ('delay-sweep', '--seed', 'seed', 0, None, None),
    ('delay-sweep', '--provenance', 'provenance', False, 0, None),
    ('obs report', 'artifact', 'artifact', None, None, None),
    ('obs report', '--epochs', 'epochs', 12, None, None),
    ('cache ls', '--cache-dir', 'cache_dir', None, None, None),
    ('cache clear', 'hash', 'hash', None, '?', None),
    ('cache clear', '--all', 'clear_all', False, 0, None),
    ('cache clear', '--cache-dir', 'cache_dir', None, None, None),
]


def test_every_command_keeps_its_options():
    import argparse

    from repro.orchestration.cli import _build_parser

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    yield from walk(child, path + (name,))
            elif not isinstance(action, argparse._HelpAction):
                yield (" ".join(path),
                       "/".join(action.option_strings) or action.dest,
                       action.dest, parser.get_default(action.dest),
                       action.nargs, action.choices)

    def by_option(rows):
        return sorted(rows, key=lambda row: row[:2])

    assert by_option(walk(_build_parser(), ())) == by_option(SURFACE)
