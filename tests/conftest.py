"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.topology.grid import grid_topology
from repro.topology.primitives import chain_topology, ring_topology, star_topology
from repro.topology.random_graph import random_topology
from repro.workloads.values import zipf_values


@pytest.fixture
def pin_spec_loop(monkeypatch):
    """Returns a callable that, from then on, makes the query service's
    lane gate refuse every session, so each runs per message on the spec
    loop.  The service has no lane knob; its differential tests pin the
    spec loop by patching the gate, as ``test_default_lane.py`` patches
    ``run_protocol``."""
    from repro.service import engine as service_engine

    def pin():
        monkeypatch.setattr(service_engine, "plan_run",
                            lambda *args: (None, "pinned to the spec loop"))
    return pin


@pytest.fixture
def usage_error(tmp_path, monkeypatch, capsys):
    """Returns ``check(argv, says)``, which runs ``repro`` on a bad command
    line from inside ``tmp_path`` and asserts the one way every bad
    invocation ends: exit 2, nothing on stdout, exactly one stderr line,
    containing ``says``, and no file created under ``tmp_path``."""
    from repro.orchestration.cli import main

    monkeypatch.chdir(tmp_path)

    def check(argv, says):
        before = sorted(tmp_path.rglob("*"))
        assert main([str(arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert says in line
        assert sorted(tmp_path.rglob("*")) == before
        return line
    return check


@pytest.fixture
def small_random_topology():
    """A small connected random topology used across protocol tests."""
    return random_topology(60, avg_degree=4, seed=7)


@pytest.fixture
def small_grid_topology():
    """An 8x8 sensor grid."""
    return grid_topology(8)


@pytest.fixture
def small_chain_topology():
    return chain_topology(10)


@pytest.fixture
def small_ring_topology():
    return ring_topology(12)


@pytest.fixture
def small_star_topology():
    return star_topology(9)


@pytest.fixture
def zipf_values_60():
    """Zipf attribute values matching the 60-host random topology."""
    return zipf_values(60, seed=7)
