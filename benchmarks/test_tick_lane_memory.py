"""Tick-lane memory at 100k hosts: what a run adds to the process peak.

The paper's WILDFIRE and DAG/tree convergecast keep one partial
aggregate per host; a tick lane should hold little more while it runs.
Each test runs one 100 000-host Gnutella-like ``count`` flood on the
vector lane in a *clean* subprocess (so nothing earlier in the session
raises the high-water mark), reads ``VmHWM`` from ``/proc/self/status``
after the topology and values are built and again after the run, and
holds the growth to a budget.  Each budget sits between the reading of
a lane that frees every delivery record as it lands and keeps one
report timer per host as its bare id, and the reading of one that kept
the whole batch until its instant ended and a ``(host, depth, rank)``
tuple per timer (2-core Xeon, CPython 3.11.7, streaming stats, seed 7):
WILDFIRE 24.4 MB against 42.0 MB, DAG-k2 4.5 MB against 24.1 MB.

Both runs keep their value and cost fingerprint, which the tests pin
too.  The perf-smoke CI job names this file; ``benchmarks/conftest.py``
keeps the tier-1 run from collecting it (two 100k-host subprocesses).
Set ``REPRO_BENCH_RELAX=1`` to record without asserting the budgets.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

_RELAX = os.environ.get("REPRO_BENCH_RELAX") == "1"

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: protocol -> (run-growth budget in MB, value, fingerprint prefix).
BUDGETS = {
    "wildfire": (34.0, 109875.34363306042, "281077050dbe"),
    "dag-k2": (15.0, 109875.34363306042, "530859007e31"),
}

_SCRIPT = """
import json, sys
from repro.protocols.base import run_protocol
from repro.protocols.dag import DirectedAcyclicGraph
from repro.protocols.wildfire import Wildfire
from repro.topology.gnutella import gnutella_like_topology

def hwm_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0

protocol = (Wildfire() if sys.argv[1] == "wildfire"
            else DirectedAcyclicGraph(num_parents=2))
topology = gnutella_like_topology(100_000, seed=1)
values = [1.0] * 100_000
before = hwm_mb()
result = run_protocol(protocol, topology, values, "count", seed=7,
                      stats="streaming", lane="vector")
print(json.dumps({"growth_mb": hwm_mb() - before, "lane": result.lane_used,
                  "value": result.value,
                  "fingerprint": result.costs.fingerprint()}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize("protocol", sorted(BUDGETS))
def test_a_100k_vector_flood_grows_the_peak_by_less_than_its_budget(
        protocol):
    budget, value, fingerprint = BUDGETS[protocol]
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, protocol],
                          env=env, capture_output=True, text=True,
                          timeout=1800)
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)
    print(f"\n100k {protocol} (clean process): run growth "
          f"{row['growth_mb']:.1f} MB vs budget {budget} MB")
    assert row["lane"] == "vector"
    assert row["value"] == value
    assert row["fingerprint"].startswith(fingerprint)
    if _RELAX:
        pytest.skip(f"REPRO_BENCH_RELAX=1 (growth {row['growth_mb']:.1f} MB)")
    assert row["growth_mb"] <= budget, (
        f"a 100k-host vector {protocol} count flood grew the process peak "
        f"by {row['growth_mb']:.1f} MB, over its {budget} MB budget")
