#!/usr/bin/env python
"""Regenerate any figure or table of the paper's evaluation section.

Usage:
    python examples/reproduce_figures.py                # list figures
    python examples/reproduce_figures.py fig7           # run one figure
    python examples/reproduce_figures.py all --scale 0.3
    python examples/reproduce_figures.py fig8 --workers 4 --trials 4

This script is a thin veneer over the orchestration CLI (``python -m
repro``): with no argument it lists the figures, and otherwise it forwards
``FIGURE [options...]`` to ``repro run`` unchanged, so every ``repro run``
option (``--scale``, ``--seed``, ``--trials``, ``--workers``,
``--no-cache``, ``--force``, ``--quiet``, ``--cache-dir``) works here too.
Figure runs fan out over ``--workers`` processes and are cached
content-addressably under ``.repro_cache/``; note that per-trial driver
seeds are derived from the figure id, ``--scale``, ``--trials`` and
``--seed``, so use ``repro.experiments.figures.run_figure`` directly to
drive a specific raw seed.

``--scale 1.0`` is the sizes written in ``repro/experiments/figures.py``,
which are below the paper's 40K-host networks; scale up gradually and
expect runtime to grow superlinearly with network size.
"""

from __future__ import annotations

import sys

from repro.orchestration.cli import main as cli_main


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv == ["-h"] or argv == ["--help"]:
        print(__doc__)
        return cli_main(["figures"])
    return cli_main(["run", *argv])


if __name__ == "__main__":
    raise SystemExit(main())
