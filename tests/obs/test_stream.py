"""Unit tests for live metrics streaming primitives.

The writer's JSON Lines framing, the reader's torn-tail tolerance and
the sampler's error propagation and final-sample semantics; the CLI
integration (``--metrics-out`` /
``--metrics-interval``) lives in ``tests/obs/test_cli_obs.py``.
"""

import json
import time

import pytest

from repro.obs.stream import (
    MetricsStreamWriter,
    PeriodicSampler,
    current_rss_mb,
    read_metrics_stream,
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

    def test_meta_may_name_its_stream_but_not_its_type(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsStreamWriter(str(path), meta={"stream": "bench",
                                                  "type": "sample"}):
            pass
        assert _rows(path) == [{"type": "meta", "stream": "bench"}]


class TestReadMetricsStream:
    def test_reads_back_what_the_writer_wrote(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsStreamWriter(str(path), meta={"hosts": 10}) as writer:
            writer.sample({"a": 1})
            writer.final({"a": 2})
        stream = read_metrics_stream(str(path))
        assert stream["meta"] == {"type": "meta", "stream": "metrics",
                                  "hosts": 10}
        assert [(row["type"], row["a"]) for row in stream["rows"]] == [
            ("sample", 1), ("final", 2)]
        assert stream["has_final"] is True
        assert stream["truncated"] is None

    def test_a_torn_last_line_is_dropped_with_its_file_line(self, tmp_path):
        """Blank lines are skipped but still counted, so the reported
        line number is the file's own."""
        path = tmp_path / "m.jsonl"
        path.write_text('{"type": "meta"}\n\n{"type": "sample", "seq": 0}'
                        '\n{"type": "sam')
        stream = read_metrics_stream(str(path))
        assert [row["seq"] for row in stream["rows"]] == [0]
        assert stream["has_final"] is False
        number, error = stream["truncated"]
        assert number == 4 and error

    def test_a_bad_line_before_the_end_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"type": "meta"}\n{oops\n{"type": "final"}\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2: bad JSON line"):
            read_metrics_stream(str(path))

    def test_only_the_first_meta_is_the_header(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"type": "sample", "seq": 0}\n'
                        '{"type": "meta", "n": 1}\n'
                        '{"type": "meta", "n": 2}\n')
        stream = read_metrics_stream(str(path))
        assert stream["meta"] == {"type": "meta", "n": 1}
        assert [row["type"] for row in stream["rows"]] == ["sample", "meta"]


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

    def test_a_failing_body_skips_the_final_sample_and_wins(self):
        """The body's exception propagates; the sampler's own error and
        its final sample are dropped."""
        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("sampler died")

        with pytest.raises(KeyError, match="body died"):
            with PeriodicSampler(0.01, boom):
                deadline = time.monotonic() + 10.0
                while not calls and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise KeyError("body died")
        assert calls == [1]


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
