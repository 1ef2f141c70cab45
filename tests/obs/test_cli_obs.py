"""CLI integration tests for the observability flags.

Drives ``repro`` through :func:`main` (no subprocesses) and checks the
artifacts each flag promises: a ``pstats``-loadable profile dump, a
Perfetto-loadable Chrome trace / JSON Lines trace, a metrics snapshot
with per-tenant rows, and logging verbosity switching.
"""

import json
import logging
import pstats

import pytest

from repro.orchestration.cli import main


@pytest.fixture(autouse=True)
def _reset_cli_logging():
    """The CLI configures the process-wide 'repro' logger; restore the
    handler-free default after each test so verbosity cannot leak."""
    yield
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


class TestBenchArtifacts:
    def test_profile_out_dump_loads_with_pstats(self, tmp_path, capsys):
        path = tmp_path / "bench.pstats"
        assert main(["bench", "--hosts", "300",
                     "--profile-out", str(path)]) == 0
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0
        with open(str(path) + ".json") as handle:
            sidecar = json.load(handle)
        assert sidecar["top_functions"]
        # The benchmark table still prints on stdout.
        assert "Kernel scale benchmark" in capsys.readouterr().out

    def test_profile_out_refuses_trajectory_json(self, usage_error):
        usage_error(["bench", "--hosts", "300", "--profile-out", "p.pstats",
                     "--json", "traj.json"], "--profile")

    def test_trace_out_chrome_json(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["bench", "--hosts", "300",
                     "--trace-out", str(path)]) == 0
        with open(path) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert events
        # Benchmark phases ride along as complete spans.
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"generate_topology", "simulate"} <= names
        counts = payload["metadata"]["counts"]
        assert counts["send"] == counts["deliver"] > 300

    def test_trace_out_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["bench", "--hosts", "300",
                     "--trace-out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert all(json.loads(line)["type"] for line in lines[1:])


class TestServeArtifacts:
    def _serve(self, tmp_path, *extra):
        metrics = tmp_path / "metrics.json"
        args = ["serve", "--hosts", "120", "--qps", "0.5",
                "--duration", "8", "--max-queries", "4", "--rows", "0",
                "--metrics-out", str(metrics)]
        args.extend(extra)
        assert main(args) == 0
        with open(metrics) as handle:
            return json.load(handle)

    def test_metrics_out_reports_per_tenant_rows(self, tmp_path):
        snapshot = self._serve(tmp_path)
        assert snapshot["service.messages_sent"] > 0
        assert snapshot["service.retired_order"]
        tenants = snapshot["service.tenants"]
        assert tenants
        for row in tenants.values():
            assert {"status", "protocol", "queue_depth", "late_messages",
                    "messages_sent", "residency"} <= set(row)
        assert "service.queue.pending" in snapshot

    def test_trace_out_demuxes_sessions_by_query_id(self, tmp_path):
        trace = tmp_path / "serve.json"
        self._serve(tmp_path, "--trace-out", str(trace))
        with open(trace) as handle:
            events = json.load(handle)["traceEvents"]
        session_ids = {e["id"] for e in events if e["cat"] == "session"}
        assert len(session_ids) >= 2        # several tenants in one trace
        assert any(e["ph"] == "b" for e in events)   # async span begins
        assert any(e["ph"] == "e" for e in events)   # ... and ends


class TestLoggingFlags:
    def test_verbose_enables_info_progress(self, tmp_path, capsys):
        assert main(["-v", "bench", "--hosts", "200"]) == 0
        captured = capsys.readouterr()
        assert "hosts:" in captured.err          # progress line on stderr
        assert "Kernel scale benchmark" in captured.out

    def test_quiet_suppresses_progress(self, capsys):
        assert main(["--quiet", "bench", "--hosts", "200"]) == 0
        captured = capsys.readouterr()
        assert "hosts:" not in captured.err
        assert "Kernel scale benchmark" in captured.out

    def test_verbose_serve_logs_each_progress_slice(self, capsys):
        assert main(["-v", "serve", "--hosts", "60", "--topology", "random",
                     "--qps", "1", "--duration", "4", "--rows", "0"]) == 0
        err = capsys.readouterr().err
        assert ".. t=" in err and "queued events" in err

    def test_default_level_is_info(self, capsys):
        assert main(["bench", "--hosts", "200"]) == 0
        captured = capsys.readouterr()
        assert "hosts:" in captured.err


class TestDelaySweepProvenance:
    def test_provenance_flag_adds_columns(self, capsys):
        assert main(["--quiet", "delay-sweep", "--size", "40",
                     "--delays", "fixed", "-t", "1", "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "lost_alive_mean" in out
        assert "lost_churn_mean" in out

    def test_without_flag_columns_absent(self, capsys):
        assert main(["--quiet", "delay-sweep", "--size", "40",
                     "--delays", "fixed", "-t", "1"]) == 0
        assert "lost_alive_mean" not in capsys.readouterr().out


class TestDistributedTraceArtifacts:
    def test_sharded_trace_out_merges_per_shard_tracks(self, tmp_path):
        trace = tmp_path / "shards.json"
        assert main(["bench", "--hosts", "400", "--topology", "random",
                     "--lane", "sharded", "--shards", "2",
                     "--trace-out", str(trace)]) == 0
        with open(trace) as handle:
            events = json.load(handle)["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"shard 0", "shard 1",
                "epoch barriers (wall clock)"} <= names
        cats = {e.get("cat") for e in events if e["ph"] == "X"}
        assert {"barrier", "epoch"} <= cats

    def test_gated_fallback_logs_warning(self, tmp_path, capsys):
        # A sharded run gated off (variable delay) still completes on
        # the spec loop, but the fallback is surfaced loudly -- even
        # under --quiet -- and the printed table shows the reason.
        assert main(["--quiet", "bench", "--hosts", "200",
                     "--topology", "random", "--lane", "sharded",
                     "--shards", "2", "--delay", "uniform:0.2,0.9"]) == 0
        captured = capsys.readouterr()
        assert "fell back to the python spec loop" in captured.err
        assert "variable delay model" in captured.err
        assert "fallback_reason" in captured.out

    def test_default_lane_fallback_is_a_column_not_a_warning(self, capsys):
        # Nobody named a lane, so the gate refusing the run is routine:
        # the reason stays in the table, no warning is raised.
        assert main(["--quiet", "bench", "--hosts", "200",
                     "--topology", "random",
                     "--delay", "uniform:0.2,0.9"]) == 0
        captured = capsys.readouterr()
        assert "fell back" not in captured.err
        assert "variable delay model" in captured.out

    def test_engaged_run_prints_no_fallback_column(self, capsys):
        assert main(["--quiet", "bench", "--hosts", "200",
                     "--topology", "random", "--lane", "sharded",
                     "--shards", "2"]) == 0
        captured = capsys.readouterr()
        assert "fell back" not in captured.err
        assert "fallback_reason" not in captured.out
        assert "lane_used" in captured.out


class TestMetricsStreaming:
    @pytest.mark.parametrize("lane", [
        [], ["--lane", "sharded", "--shards", "2"]],
        ids=["default", "sharded"])
    def test_bench_metrics_out_streams_rss_jsonl(self, tmp_path, lane):
        stream = tmp_path / "live.jsonl"
        assert main(["bench", "--hosts", "400", "--topology", "random",
                     *lane, "--metrics-out", str(stream),
                     "--metrics-interval", "0.05"]) == 0
        rows = [json.loads(line)
                for line in stream.read_text().splitlines()]
        assert rows[0]["type"] == "meta"
        assert rows[0]["command"] == "bench"
        assert rows[-1]["type"] == "final"
        assert rows[-1]["process.rss_mb"] > 0
        seqs = [row["seq"] for row in rows[1:]]
        assert seqs == list(range(len(seqs)))

    def test_bench_metrics_interval_requires_out(self, usage_error):
        usage_error(["bench", "--hosts", "200", "--metrics-interval", "1"],
                    "--metrics-out")

    def test_serve_metrics_interval_streams_snapshots(self, tmp_path):
        stream = tmp_path / "serve.jsonl"
        assert main(["serve", "--hosts", "120", "--qps", "0.5",
                     "--duration", "8", "--max-queries", "4",
                     "--rows", "0", "--metrics-out", str(stream),
                     "--metrics-interval", "2"]) == 0
        rows = [json.loads(line)
                for line in stream.read_text().splitlines()]
        assert rows[0]["type"] == "meta"
        samples = [row for row in rows if row["type"] == "sample"]
        assert samples
        assert all("service.sim_time" in row for row in samples)
        assert rows[-1]["type"] == "final"
        assert rows[-1]["service.messages_sent"] > 0

    def test_serve_streaming_keeps_digest_identical(self, tmp_path,
                                                    capsys):
        def _digest(*extra):
            args = ["--quiet", "serve", "--hosts", "120", "--qps", "0.5",
                    "--duration", "8", "--max-queries", "4", "--rows", "0"]
            assert main(list(args) + list(extra)) == 0
            out = capsys.readouterr().out
            return out[out.index("determinism_digest"):].split()[1]

        streamed = _digest("--metrics-out", str(tmp_path / "s.jsonl"),
                           "--metrics-interval", "1")
        assert streamed == _digest()


class TestObsReport:
    def _bench_artifact(self, tmp_path):
        path = tmp_path / "bench.json"
        assert main(["--quiet", "bench", "--hosts", "400",
                     "--topology", "random", "--lane", "sharded",
                     "--shards", "2", "--json", str(path)]) == 0
        return path

    def test_report_prints_straggler_table(self, tmp_path, capsys):
        path = self._bench_artifact(tmp_path)
        capsys.readouterr()
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Epoch/barrier timeline (2 shards" in out
        assert "straggler" in out
        assert "barrier_frac" in out
        assert "Per-shard totals" in out
        assert "worst epoch:" in out

    def test_report_rejects_artifact_without_timeline(self, tmp_path,
                                                      usage_error):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"rows": [{"hosts": 10}]}))
        usage_error(["obs", "report", path], "no sharded epoch timeline")
        usage_error(["obs", "report", path, "--epochs", "-1"],
                    "argument --epochs: must be >= 0")

    def test_report_summarises_metrics_stream(self, tmp_path, capsys):
        stream = tmp_path / "live.jsonl"
        assert main(["--quiet", "serve", "--hosts", "120", "--qps", "0.5",
                     "--duration", "8", "--max-queries", "4",
                     "--rows", "0", "--metrics-out", str(stream),
                     "--metrics-interval", "2"]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "stream: " in out
        assert "Live metrics samples" in out

    def test_report_summarises_a_bench_rss_stream(self, tmp_path, capsys):
        stream = tmp_path / "live.jsonl"
        assert main(["--quiet", "bench", "--hosts", "400",
                     "--topology", "random", "--metrics-out", str(stream),
                     "--metrics-interval", "0.05"]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "command=bench" in out
        assert "Live metrics samples" in out and "process.rss_mb" in out
        assert "stream has no final frame" not in out

    def test_report_missing_file_is_an_error(self, usage_error):
        usage_error(["obs", "report", "nope.json"], "cannot read")
        usage_error(["obs"], "the following arguments are required")


class TestObsReportInterruptedStreams:
    """``obs report`` on streams from interrupted runs: partial tables,
    exit 0.  Only real mid-stream corruption stays exit 2."""

    META = {"type": "meta", "stream": "metrics", "hosts": 120}

    def _write(self, tmp_path, lines):
        path = tmp_path / "live.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _sample(self, seq):
        return json.dumps({"type": "sample", "seq": seq,
                           "elapsed_s": 0.5 * seq,
                           "service.queries": seq + 1})

    def test_no_final_frame_prints_partial_tables(self, tmp_path, capsys):
        path = self._write(tmp_path, [json.dumps(self.META),
                                      self._sample(0), self._sample(1)])
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stream has no final frame (interrupted run)" in out
        assert "Live metrics samples" in out

    def test_torn_last_line_is_dropped_with_a_warning(self, tmp_path,
                                                      capsys):
        path = self._write(tmp_path, [json.dumps(self.META),
                                      self._sample(0),
                                      '{"type": "sample", "seq": 1, "tr'])
        assert main(["obs", "report", str(path)]) == 0
        captured = capsys.readouterr()
        assert "dropped torn last line (interrupted run)" in captured.err
        assert "Live metrics samples" in captured.out

    def test_meta_only_stream_reports_the_header(self, tmp_path, capsys):
        path = self._write(tmp_path, [json.dumps(self.META)])
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stream: " in out
        assert "hosts=120" in out
        assert "interrupted before its first sample" in out

    def test_empty_stream_is_an_error(self, tmp_path, usage_error):
        path = tmp_path / "live.jsonl"
        path.write_text("")
        usage_error(["obs", "report", path], "holds no metrics samples")

    def test_mid_stream_corruption_is_an_error(self, tmp_path, usage_error):
        path = self._write(tmp_path, [json.dumps(self.META),
                                      "{not json}",
                                      self._sample(0)])
        usage_error(["obs", "report", path], "not valid JSON")
