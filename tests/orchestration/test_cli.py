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


def test_run_unknown_figure_fails_cleanly(cache_dir, capsys):
    assert main(["run", "fig99", "--cache-dir", cache_dir]) == 2
    assert "unknown figure" in capsys.readouterr().err


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


def test_cache_clear_requires_target(cache_dir, capsys):
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 2
    assert "--all" in capsys.readouterr().err


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


def test_bench_unknown_delay_model_fails_cleanly(capsys):
    assert main(["bench", "--hosts", "64", "--delay", "warp"]) == 2
    assert "unknown delay model" in capsys.readouterr().err


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


def test_delay_sweep_rejects_unknown_topology(capsys):
    assert main(["delay-sweep", "--topology", "moebius"]) == 2
    assert "unknown topology" in capsys.readouterr().err


def test_delay_sweep_rejects_negative_departures(capsys):
    """The one churn sweep draws ``R`` victims; ``R < 0`` used to run as
    a static network under an ``R = -3`` label."""
    assert main(["delay-sweep", "--size", "40", "--departures", "-3"]) == 2
    assert "--departures must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run", "fig6", *RUN_ARGS, "--no-cache"],
    ["bench", "--hosts", "64"],
    ["serve", "--hosts", "64"],
])
def test_stats_option_is_gone(command, capsys):
    """One sink: there is no accounting mode to pick on any command."""
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--stats", "streaming"])
    assert excinfo.value.code == 2
    assert "--stats" in capsys.readouterr().err


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


def test_bench_profile_refuses_trajectory_json(tmp_path, capsys):
    """Profiled timings carry tracing overhead and must never land in a
    trajectory file."""
    out = str(tmp_path / "traj.json")
    assert main(["bench", "--hosts", "64", "--topology", "random",
                 "--profile", "--json", out]) == 2
    assert "--profile" in capsys.readouterr().err


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


def test_serve_rejects_bad_parameters(capsys):
    assert main(["serve", "--hosts", "1"]) == 2
    assert "--hosts" in capsys.readouterr().err
    assert main(["serve", "--qps", "0"]) == 2
    assert "--qps" in capsys.readouterr().err
    assert main(["serve", "--hosts", "64", "--topology", "moebius"]) == 2
    assert "unknown topology" in capsys.readouterr().err
    assert main(["serve", "--hosts", "64", "--wildfire-share", "2"]) == 2
    assert "--wildfire-share" in capsys.readouterr().err


@pytest.mark.parametrize("bad_input", [
    ["--departures", "-5"],
    ["--metrics-interval", "1", "--metrics-out", "METRICS", "--shards", "2"],
])
def test_serve_checks_every_input_before_opening_a_file(
        bad_input, tmp_path, capsys):
    """A negative ``--departures`` used to run (and print ``departures
    -5``); ``--metrics-interval`` with ``--shards 2`` used to fail only
    after creating a meta-only stream file."""
    metrics = tmp_path / "m.jsonl"
    bad_input = [str(metrics) if arg == "METRICS" else arg
                 for arg in bad_input]
    assert main(["serve", "--hosts", "50", "--qps", "1", "--duration", "3",
                 *bad_input]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert bad_input[0] in captured.err
    assert not metrics.exists()


@pytest.mark.parametrize("bad_limit", [
    ["--max-active", "-1"], ["--tenant-budget", "-3"]])
def test_serve_rejects_negative_admission_limits(bad_limit, tmp_path, capsys):
    """A negative admission limit used to shed every query and exit 0."""
    metrics = tmp_path / "m.json"
    assert main(["serve", "--hosts", "60", "--topology", "random",
                 "--qps", "1", "--duration", "4", *bad_limit,
                 "--metrics-out", str(metrics)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "non-negative" in captured.err
    assert not metrics.exists()

