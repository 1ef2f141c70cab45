"""Profiling hook: a cProfile capture whose results can be kept.

Generalises what ``repro bench --profile`` used to do inline (profile,
print top-25, discard) into a reusable capture object:
:meth:`ProfileCapture.dump` writes a binary pstats file loadable with
``pstats.Stats(path)`` plus a small JSON sidecar with the headline
numbers.
"""

from __future__ import annotations

import cProfile
import io
import json
import sys
import time
from typing import Any, Dict, List, Optional

__all__ = ["ProfileCapture"]


class ProfileCapture:
    """One cProfile window.

    >>> capture = ProfileCapture()
    >>> with capture:
    ...     work()
    >>> capture.dump("profile.pstats")   # + profile.pstats.json sidecar
    >>> capture.print_stats(25)
    """

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self.elapsed: Optional[float] = None
        self._started: Optional[float] = None

    # ------------------------------------------------------------------
    # Capture window
    # ------------------------------------------------------------------
    def start(self) -> "ProfileCapture":
        self._started = time.perf_counter()
        self.profiler.enable()
        return self

    def stop(self) -> "ProfileCapture":
        self.profiler.disable()
        if self._started is not None:
            self.elapsed = time.perf_counter() - self._started
        return self

    def __enter__(self) -> "ProfileCapture":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def print_stats(self, limit: int = 25, stream=None) -> None:
        """Top ``limit`` functions by cumulative time (default stderr)."""
        import pstats  # imports dataclasses: load it only to read a profile

        stats = pstats.Stats(self.profiler,
                             stream=stream if stream is not None
                             else sys.stderr)
        stats.sort_stats("cumulative").print_stats(limit)

    def top_functions(self, limit: int = 10) -> List[Dict[str, Any]]:
        """The hottest functions by cumulative time, as plain dicts."""
        import pstats

        stats = pstats.Stats(self.profiler, stream=io.StringIO())
        stats.sort_stats("cumulative")
        rows: List[Dict[str, Any]] = []
        for func in stats.fcn_list[:limit]:  # type: ignore[attr-defined]
            cc, nc, tt, ct, _ = stats.stats[func]  # type: ignore[attr-defined]
            filename, line, name = func
            rows.append({
                "function": f"{filename}:{line}({name})",
                "calls": nc,
                "total_seconds": round(tt, 6),
                "cumulative_seconds": round(ct, 6),
            })
        return rows

    def dump(self, path: str, limit: int = 25) -> str:
        """Write a ``pstats.Stats``-loadable binary dump plus a sidecar.

        The binary profile lands at ``path`` (load it back with
        ``pstats.Stats(path)`` or ``snakeviz``); the headline numbers --
        wall-clock and the top ``limit`` functions -- land beside it at
        ``path + ".json"``.  Returns ``path``.
        """
        self.profiler.dump_stats(path)
        sidecar = {
            "elapsed_seconds": self.elapsed,
            "top_functions": self.top_functions(limit),
        }
        with open(path + ".json", "w") as handle:
            json.dump(sidecar, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return path
