#!/usr/bin/env python3
"""Print the import census: what one ``import`` statement loads.

Each statement runs in a fresh interpreter under ``-X importtime``.  One
line per statement gives the ``repro`` modules loaded, all modules
loaded, and the summed self time of every import the statement made
(interpreter start-up excluded)::

    PYTHONPATH=src python3 tools/import_census.py
    PYTHONPATH=src python3 tools/import_census.py "import repro.service"

The default statements are ``import repro``, the simulation engine and
the CLI.  It is a trend line, not a gate: the times move with the machine
and with whether bytecode caches exist.  Standard library only.
"""

from __future__ import annotations

import subprocess
import sys

DEFAULT_STATEMENTS = (
    "import repro",
    "import repro.simulation.engine",
    "import repro.orchestration.cli",
)

_MARK = "-- census --"


def census(statement: str):
    """``(repro modules, all modules, import self time in seconds)``."""
    code = (f"import sys; print({_MARK!r}, file=sys.stderr, flush=True)\n"
            f"{statement}\n"
            "print(sum(1 for name in sys.modules"
            " if name.split('.')[0] == 'repro'), len(sys.modules))")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True, text=True, check=True)
    lines = done.stderr.splitlines()
    self_us = sum(
        int(line.split("|")[0].split(":")[1])
        for line in lines[lines.index(_MARK) + 1:]
        if line.startswith("import time:") and "self [us]" not in line)
    repro_modules, modules = map(int, done.stdout.split())
    return repro_modules, modules, self_us / 1e6


def main(argv) -> int:
    for statement in argv or DEFAULT_STATEMENTS:
        repro_modules, modules, seconds = census(statement)
        print(f"{repro_modules:5d} repro {modules:5d} all "
              f"{seconds:8.3f} s  {statement}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
