"""In-memory span recorder for the perf harness (outside-in tracing).

A span is ``[name, start, end, parent, workload, rep]``; ``parent`` is the
index of the span that was open when this one started (-1 at top level).
Spans come from two places: ``with recorder.span(name)`` around calls the
harness makes itself, and :meth:`Recorder.wrap`, which replaces one
*public* callable of the program with a timing shim for the duration of a
traced rep.  Nothing here imports or touches ``repro.obs``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

#: Marker attribute on every shim, so a leak is detectable from outside.
WRAPPER_MARK = "__perf_wrapper__"


class Recorder:
    def __init__(self, workload: str = "") -> None:
        self.spans: list = []
        self.workload = workload
        self.rep = -1
        self._open: list = []
        self._patched: list = []

    def _begin(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._open[-1] if self._open else -1, self.workload, self.rep]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield
        finally:
            self._end(span)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a shim."""
        original = vars(owner)[attr]
        begin, end = self._begin, self._end

        @functools.wraps(original)
        def shim(*args, **kwargs):
            span = begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end(span)

        setattr(shim, WRAPPER_MARK, True)
        setattr(owner, attr, shim)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """``name -> {rep -> [self seconds, calls]}``.

        A span's self time is its duration minus the durations of its
        direct children, so nested layers never count an interval twice.
        """
        children = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        table: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for index, (name, start, end, _, _, rep) in enumerate(self.spans):
            cell = table[name][rep]
            cell[0] += (end - start) - children[index]
            cell[1] += 1
        return table

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"parent": parent, "workload": workload, "rep": rep}}
            for name, start, end, parent, workload, rep in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
