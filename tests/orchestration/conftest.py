"""A cheap in-process figure for the serial orchestration tests."""

import pytest

from repro.experiments.figures import FIGURES


@pytest.fixture
def echo_figure(monkeypatch):
    """Register figure ``echo``, whose one row is its ``(scale, seed)``;
    returns the list of seeds it has run.  Setting ``calls.fail_at = k``
    makes the k-th call (0-based) raise ``RuntimeError("boom")``."""

    class Calls(list):
        fail_at = None

    calls = Calls()

    def driver(scale, seed):
        if len(calls) == calls.fail_at:
            raise RuntimeError("boom")
        calls.append(seed)
        return [{"scale": scale, "seed": seed}]

    monkeypatch.setitem(FIGURES, "echo", ("echo figure", driver))
    return calls
