"""The figures -> orchestration bridge."""

import pytest

from repro.experiments.figures import run_figure
from repro.orchestration.figures import figure_spec, run_figure_matrix
from repro.orchestration.spec import derive_trial_seed


def test_figure_spec_identity_tracks_figure_and_scale():
    a = figure_spec("fig6", scale=0.1)
    b = figure_spec("fig6", scale=0.1)
    c = figure_spec("fig6", scale=0.2)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    with pytest.raises(KeyError):
        figure_spec("fig99")


def test_run_figure_matrix_matches_direct_driver_call():
    spec = figure_spec("fig6", scale=0.05, num_trials=1)
    report = run_figure_matrix(["fig6"], scale=0.05, num_trials=1)["fig6"]
    assert report.spec_hash == spec.content_hash()
    seed = derive_trial_seed(spec.content_hash(), 0, 0)
    assert report.values[0] == run_figure("fig6", scale=0.05, seed=seed)
