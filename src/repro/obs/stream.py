"""Live metrics streaming: JSON Lines samples while a run is in flight.

The in-flight counterpart of the end-of-run metrics, in two
independently usable pieces:

* :class:`MetricsStreamWriter` -- an append-only JSON Lines sink: one
  ``meta`` header line, one ``sample`` line per snapshot (monotonic
  ``seq`` plus wall-clock ``elapsed_s``), an optional ``final`` line.
  Each line is flushed as written, so ``tail -f`` on the file follows a
  live run.
* :class:`PeriodicSampler` -- a daemon thread that invokes a callback
  every ``interval`` wall-clock seconds until stopped; the thread only
  *reads* (pull-based metrics such as the resident set size), so the
  run being sampled stays bit-identical -- the same argument as the
  tracer's observe-only contract.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Optional

__all__ = [
    "MetricsStreamWriter",
    "PeriodicSampler",
    "current_rss_mb",
    "read_metrics_stream",
    "status_mb",
]


def status_mb(field: str) -> Optional[float]:
    """One memory field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``)
    in MiB, or None off-Linux."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:  # pragma: no cover - non-Linux platform
        pass
    return None


def current_rss_mb() -> Optional[float]:
    """The process's *current* resident set size in MiB (None off-Linux).

    The scale benchmarks report the ``VmHWM`` high-water mark; a live
    stream wants the instantaneous ``VmRSS`` so memory growth (and
    release) shows up as a time series.
    """
    return status_mb("VmRSS")


class MetricsStreamWriter:
    """Append-only JSON Lines metrics stream with a metadata header.

    Line shapes (``sort_keys`` for stable artifacts)::

        {"type": "meta", "stream": "metrics", ...caller metadata}
        {"type": "sample", "seq": 0, "elapsed_s": 0.5, ...payload}
        {"type": "final", "seq": N, "elapsed_s": T, ...payload}

    ``seq`` is 0-based and strictly increasing; ``elapsed_s`` is
    wall-clock seconds since the writer was opened.  The reserved keys
    (``type``/``seq``/``elapsed_s``) win over payload keys of the same
    name so a malformed payload cannot corrupt the framing.
    """

    __slots__ = ("path", "_handle", "_seq", "_start")

    def __init__(self, path: str,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.path = path
        self._handle = open(path, "w")
        self._seq = 0
        self._start = perf_counter()
        header = dict(meta or {})
        header["type"] = "meta"
        header.setdefault("stream", "metrics")
        self._write(header)

    @property
    def samples_written(self) -> int:
        return self._seq

    def _write(self, row: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        # Flush per line: the whole point is that the file is readable
        # while the run is still in flight.
        self._handle.flush()

    def _emit(self, kind: str, payload: Optional[Dict[str, Any]]) -> None:
        row = dict(payload or {})
        row["type"] = kind
        row["seq"] = self._seq
        row["elapsed_s"] = round(perf_counter() - self._start, 3)
        self._seq += 1
        self._write(row)

    def sample(self, payload: Optional[Dict[str, Any]] = None) -> None:
        """Append one ``sample`` line."""
        self._emit("sample", payload)

    def final(self, payload: Optional[Dict[str, Any]] = None) -> None:
        """Append the closing ``final`` line (end-of-run summary)."""
        self._emit("final", payload)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "MetricsStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_metrics_stream(path: str) -> Dict[str, Any]:
    """Parse a :class:`MetricsStreamWriter` file, tolerating a torn tail.

    A stream written by an interrupted run is *valid up to its last
    line*: every line was flushed whole except possibly the one being
    written when the process died.  This reader therefore drops a
    non-JSON **last** line (reporting it via ``truncated``) instead of
    failing, while a bad line anywhere *before* the end still raises
    ``ValueError`` -- that is real corruption, not interruption.

    Returns a dict with:

    * ``meta`` -- the header row (``None`` if the run died before it);
    * ``rows`` -- every non-meta row, in order (samples and final);
    * ``has_final`` -- whether a ``final`` frame closed the stream;
    * ``truncated`` -- ``(line_number, error)`` for a dropped torn tail,
      else ``None``.
    """
    meta: Optional[Dict[str, Any]] = None
    rows = []
    truncated = None
    with open(path) as handle:
        numbered = [(number, line.strip())
                    for number, line in enumerate(handle, start=1)
                    if line.strip()]
    for index, (number, line) in enumerate(numbered):
        try:
            row = json.loads(line)
        except ValueError as exc:
            if index == len(numbered) - 1:
                truncated = (number, str(exc))
                break
            raise ValueError(
                f"{path}:{number}: bad JSON line: {exc}") from exc
        if row.get("type") == "meta" and meta is None:
            meta = row
        else:
            rows.append(row)
    return {
        "meta": meta,
        "rows": rows,
        "has_final": any(row.get("type") == "final" for row in rows),
        "truncated": truncated,
    }


class PeriodicSampler:
    """Invoke ``callback()`` every ``interval`` wall seconds until stopped.

    The callback runs on a daemon thread; an exception stops the
    sampling loop and is re-raised from :meth:`stop` (a silent dead
    sampler would masquerade as "the run emitted nothing").  ``stop``
    fires one last immediate callback by default so short runs (shorter
    than one interval) still produce at least one sample.
    """

    def __init__(self, interval: float, callback: Callable[[], None]) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = float(interval)
        self._callback = callback
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._callback()
            except BaseException as exc:  # noqa: BLE001 - re-raised in stop()
                self._error = exc
                return

    def start(self) -> "PeriodicSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None
        if self._error is not None:
            error = self._error
            self._error = None
            raise error
        if final_sample:
            self._callback()

    def __enter__(self) -> "PeriodicSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an exception in the body, drop the final sample and swallow
        # any sampler error -- the body's exception is the real story.
        try:
            self.stop(final_sample=exc_type is None)
        except BaseException:
            if exc_type is None:
                raise
