"""Beyond-paper: Figure 7-9 style validity curves under variable delay.

This is the churn sweep of :mod:`repro.experiments.validity_sweep` -- one
experiment, one loop, one row type -- asked for more than the paper's
``fixed`` delay column: per (delay model, protocol, R) point the declared
value against the ORACLE's Single-Site Validity bounds, the fraction of
trials judged valid and the mean finish time.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.validity_sweep import (
    ValiditySweepRow,
    run_validity_sweep,
)
from repro.topology.base import Topology

#: Delay models swept by default: the paper's worst case plus one
#: light-spread and one heavy-tailed model.
DEFAULT_DELAY_SPECS = ("fixed", "uniform:0.25,1.0", "heavy_tail:1.2")


def run_delay_sweep(
    topology: Topology,
    query_kind: str,
    departures: Sequence[int] = (0,),
    delay_specs: Sequence[str] = DEFAULT_DELAY_SPECS,
    **sweep_options,
) -> List[ValiditySweepRow]:
    """:func:`~repro.experiments.validity_sweep.run_validity_sweep` with a
    ``delay`` and a ``finished_at`` column on every row; takes the same
    keyword options (``protocols``, ``num_trials``, ``seed``,
    ``provenance``, ...)."""
    return run_validity_sweep(topology, query_kind, departures,
                              delay_specs=delay_specs, **sweep_options)
