"""Unit tests for live metrics streaming primitives.

The writer's JSON Lines framing, the sampler's error propagation and
final-sample semantics, and the fork-shared progress board; the CLI
integration (``--metrics-out`` / ``--metrics-interval``) lives in
``tests/obs/test_cli_obs.py``.
"""

import json
import time

import pytest

from repro.obs.stream import (
    MetricsStreamWriter,
    PeriodicSampler,
    ShardProgressBoard,
    current_rss_mb,
    default_progress_board,
    progress_board,
    set_progress_board,
    status_mb,
)


def _rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestMetricsStreamWriter:
    def test_meta_header_then_framed_samples(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsStreamWriter(str(path), meta={"hosts": 10}) as writer:
            writer.sample({"a": 1})
            writer.sample({"a": 2})
            writer.final({"a": 3})
            assert writer.samples_written == 3
        rows = _rows(path)
        assert rows[0] == {"type": "meta", "stream": "metrics",
                           "hosts": 10}
        assert [row["type"] for row in rows[1:]] == [
            "sample", "sample", "final"]
        assert [row["seq"] for row in rows[1:]] == [0, 1, 2]
        assert all(row["elapsed_s"] >= 0 for row in rows[1:])

    def test_reserved_keys_win_over_payload(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsStreamWriter(str(path)) as writer:
            writer.sample({"type": "bogus", "seq": 999, "value": 7})
        row = _rows(path)[1]
        assert row["type"] == "sample"
        assert row["seq"] == 0
        assert row["value"] == 7

    def test_lines_flush_while_stream_is_open(self, tmp_path):
        path = tmp_path / "m.jsonl"
        writer = MetricsStreamWriter(str(path))
        writer.sample({"live": True})
        # Readable before close: the whole point of the stream.
        assert len(_rows(path)) == 2
        writer.close()
        writer.close()  # idempotent


class TestPeriodicSampler:
    def test_stop_fires_one_final_sample(self):
        calls = []
        sampler = PeriodicSampler(60.0, lambda: calls.append(1))
        sampler.start()
        sampler.stop()
        assert len(calls) == 1  # interval never elapsed; final only

    def test_periodic_callbacks_fire(self):
        calls = []
        with PeriodicSampler(0.01, lambda: calls.append(1)):
            time.sleep(0.08)
        assert len(calls) >= 2

    def test_callback_errors_reraise_from_stop(self):
        def boom():
            raise RuntimeError("sampler died")

        sampler = PeriodicSampler(0.01, boom).start()
        time.sleep(0.05)
        with pytest.raises(RuntimeError, match="sampler died"):
            sampler.stop()

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            PeriodicSampler(0.0, lambda: None)

    def test_double_start_is_an_error(self):
        sampler = PeriodicSampler(60.0, lambda: None).start()
        with pytest.raises(RuntimeError):
            sampler.start()
        sampler.stop(final_sample=False)


class TestShardProgressBoard:
    def test_snapshot_reads_cells(self):
        board = ShardProgressBoard(3)
        board.cells[2] = 5.0   # shard 1: 5 epochs
        board.cells[3] = 5.25  # ... at simulated time 5.25
        snap = board.snapshot()
        assert snap == {"shards": 3, "epochs": [0, 5, 0],
                        "sim_time": [0.0, 5.25, 0.0]}

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError):
            ShardProgressBoard(0)

    def test_process_binding_binds_and_restores(self):
        assert default_progress_board() is None
        board = ShardProgressBoard(2)
        with progress_board(board) as bound:
            assert bound is board
            assert default_progress_board() is board
        assert default_progress_board() is None
        with pytest.raises(TypeError):
            set_progress_board(object())


def test_current_rss_mb_reports_positive_on_linux():
    rss = current_rss_mb()
    assert rss is None or rss > 0


def test_peak_and_current_rss_read_one_status_parser():
    from repro.experiments.scale_bench import peak_rss_mb

    rss = current_rss_mb()
    if rss is None:
        pytest.skip("no /proc/self/status on this platform")
    peak = peak_rss_mb()
    assert 0 < rss <= peak <= status_mb("VmHWM")
    assert status_mb("NoSuchField") is None
