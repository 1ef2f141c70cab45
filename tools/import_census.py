#!/usr/bin/env python3
"""Print the import census: what one ``import`` statement loads.

Each statement runs in a fresh interpreter under ``-X importtime``, with
this checkout's ``src/`` first on its path.  One line per statement gives
the ``repro`` modules loaded, all modules loaded, the summed self time of
every import the statement made (interpreter start-up excluded), and
whether the statement loaded ``dataclasses`` and ``inspect`` -- the two
standard-library imports that cost most per class and per module::

    python3 tools/import_census.py
    python3 tools/import_census.py "import repro.service"

The default statements are ``import repro``, the simulation engine, the
service run path and the CLI.  It is a trend line, not a gate: the times
move with the machine and with whether bytecode caches exist.  Standard
library only.
"""

from __future__ import annotations

import os
import subprocess
import sys

DEFAULT_STATEMENTS = (
    "import repro",
    "import repro.simulation.engine",
    "import repro.experiments.query_mix",
    "import repro.orchestration.cli",
)

#: Standard-library modules whose presence each census line reports.
WATCHED = ("dataclasses", "inspect")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

_MARK = "-- census --"


def census(statement: str):
    """``(repro modules, all modules, import self time in seconds,
    the subset of WATCHED loaded)``."""
    code = (f"import sys; print({_MARK!r}, file=sys.stderr, flush=True)\n"
            f"{statement}\n"
            "print(sum(1 for name in sys.modules"
            " if name.split('.')[0] == 'repro'), len(sys.modules),"
            f" *[name for name in {WATCHED!r} if name in sys.modules])")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    lines = done.stderr.splitlines()
    self_us = sum(
        int(line.split("|")[0].split(":")[1])
        for line in lines[lines.index(_MARK) + 1:]
        if line.startswith("import time:") and "self [us]" not in line)
    repro_modules, modules, *watched = done.stdout.split()
    return int(repro_modules), int(modules), self_us / 1e6, watched


def main(argv) -> int:
    for statement in argv or DEFAULT_STATEMENTS:
        repro_modules, modules, seconds, watched = census(statement)
        loaded = " ".join(f"{name}={'yes' if name in watched else 'no'}"
                          for name in WATCHED)
        print(f"{repro_modules:5d} repro {modules:5d} all "
              f"{seconds:8.3f} s  {loaded}  {statement}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
