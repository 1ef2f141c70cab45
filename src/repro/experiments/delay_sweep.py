"""Beyond-paper: Figure 7-9 style validity curves under variable delay.

The paper's Figures 7-9 sweep churn while the simulator realises the
adversarially slowest timing (every hop takes exactly ``delta``).  Its
validity guarantees, however, are stated for *any* per-hop delay in
``(0, delta]`` -- a scenario space the fixed-delay kernel could not
explore.  This driver re-runs the churn sweep under each requested
:mod:`~repro.simulation.delay` model and records, per (delay model,
protocol, R) point, the declared value against the ORACLE's Single-Site
Validity bounds plus the fraction of trials judged valid and the mean
finish time.

The expected shape: WILDFIRE's valid fraction stays at 1.0 under every
delay model (deadlines are computed from the bound, so faster realised
links only give messages more slack), the tree protocols remain valid on
static networks but keep degrading with churn, and all runs finish *no
later* under variable delay than under ``fixed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import TrialStats, aggregate_trials
from repro.obs.provenance import ProvenanceTracer
from repro.protocols.base import Protocol, resolve_d_hat, run_protocol
from repro.queries.query import AggregateQuery
from repro.semantics.oracle import Oracle, sketch_slack
from repro.simulation.churn import ChurnSchedule, uniform_failure_schedule
from repro.topology.base import Topology
from repro.workloads.values import zipf_values

#: Delay models swept by default: the paper's worst case plus one
#: light-spread and one heavy-tailed model.
DEFAULT_DELAY_SPECS = ("fixed", "uniform:0.25,1.0", "heavy_tail:1.2")


@dataclass(frozen=True)
class DelaySweepRow:
    """One (delay model, protocol, R) point of the variable-delay sweep."""

    delay: str
    protocol: str
    departures: int
    value: TrialStats
    oracle_lower: TrialStats
    oracle_upper: TrialStats
    fraction_valid: float
    finished_at: TrialStats
    #: Mean per-trial provenance tallies (only populated when the sweep
    #: ran with ``provenance=True``; columns are added to ``as_dict``
    #: only then, so default output shape is unchanged).
    lost_alive: Optional[TrialStats] = None
    lost_to_churn: Optional[TrialStats] = None

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "delay": self.delay,
            "protocol": self.protocol,
            "R": self.departures,
            "value_mean": round(self.value.mean, 2),
            "value_ci": round(self.value.ci, 2),
            "oracle_lower": round(self.oracle_lower.mean, 2),
            "oracle_upper": round(self.oracle_upper.mean, 2),
            "valid_fraction": round(self.fraction_valid, 2),
            "finished_at": round(self.finished_at.mean, 2),
        }
        if self.lost_alive is not None:
            row["lost_alive_mean"] = round(self.lost_alive.mean, 2)
        if self.lost_to_churn is not None:
            row["lost_churn_mean"] = round(self.lost_to_churn.mean, 2)
        return row


def run_delay_sweep(
    topology: Topology,
    query_kind: str,
    departures: Sequence[int] = (0,),
    delay_specs: Sequence[str] = DEFAULT_DELAY_SPECS,
    protocols: Optional[Sequence[Protocol]] = None,
    values: Optional[Sequence[float]] = None,
    querying_host: int = 0,
    num_trials: int = 3,
    fm_repetitions: int = 16,
    d_hat: Optional[int] = None,
    delta: float = 1.0,
    seed: int = 0,
    sketch_epsilon: float = 0.5,
    provenance: bool = False,
) -> List[DelaySweepRow]:
    """Run the delay x churn sweep and return one row per point.

    Args:
        topology: the network to evaluate on.
        query_kind: ``"count"``, ``"sum"``, ``"min"``, ...
        departures: the churn levels R to sweep (``0`` = static).
        delay_specs: delay model spec strings (see
            :func:`repro.simulation.delay.delay_model_from_spec`).
        protocols: protocols to compare; defaults to the paper's
            WILDFIRE / SPANNINGTREE / DAG line-up.
        values: per-host attribute values; Zipf [10, 500] when omitted.
        querying_host: the querying host (never fails).
        num_trials: independent trials per point.  Each trial shares its
            failure schedule across every delay model and protocol, so a
            column difference is attributable to timing alone.
        fm_repetitions: FM repetitions for sketch-based combiners.
        d_hat: stable-diameter overestimate; estimated when omitted.
        delta: the per-hop delay *bound* every model is capped by.
        seed: base RNG seed.
        sketch_epsilon: multiplicative slack for judging FM-estimate
            answers (Approximate Single-Site Validity); exact combiners
            are judged with zero slack.
        provenance: record each trial's contribution set with a
            :class:`~repro.obs.provenance.ProvenanceTracer` and add
            ``lost_alive_mean`` / ``lost_churn_mean`` columns.  Opt-in:
            provenance traces every delivery unsampled, so it is meant
            for experiment-scale sweeps, and it never perturbs the
            declared values (tracers only observe).
    """
    from repro.experiments.validity_sweep import default_protocols

    if values is None:
        values = zipf_values(topology.num_hosts, seed=seed)
    protocols = list(protocols) if protocols is not None else default_protocols()
    oracle = Oracle(topology, values, querying_host)
    query = AggregateQuery.of(query_kind)
    resolved_d_hat = resolve_d_hat(topology, d_hat, seed=seed)
    horizon = 2.0 * resolved_d_hat * delta

    rows: List[DelaySweepRow] = []
    for num_departures in departures:
        # One failure schedule per trial, shared by every (delay model,
        # protocol) cell of this R.
        schedules = []
        for trial in range(num_trials):
            trial_seed = seed + 131 * trial + num_departures
            if num_departures <= 0:
                schedules.append((trial_seed, ChurnSchedule.empty()))
                continue
            schedules.append((trial_seed, uniform_failure_schedule(
                candidates=range(topology.num_hosts),
                num_failures=min(num_departures, topology.num_hosts - 1),
                start=0.5,
                end=max(1.0, horizon - 0.5),
                seed=trial_seed,
                protect=[querying_host],
            )))
        bounds_per_trial = [
            oracle.bounds(query_kind, churn, horizon=horizon)
            for _, churn in schedules
        ]
        for delay_spec in delay_specs:
            for protocol in protocols:
                epsilon = sketch_slack(protocol, query, sketch_epsilon)
                declared_samples: List[float] = []
                finished_samples: List[float] = []
                lower_samples: List[float] = []
                upper_samples: List[float] = []
                lost_alive_samples: List[float] = []
                lost_churn_samples: List[float] = []
                num_valid = 0
                for (trial_seed, churn), bounds in zip(schedules,
                                                       bounds_per_trial):
                    tracer = ProvenanceTracer() if provenance else None
                    result = run_protocol(
                        protocol=protocol,
                        topology=topology,
                        values=values,
                        query=query,
                        querying_host=querying_host,
                        d_hat=resolved_d_hat,
                        delta=delta,
                        churn=churn,
                        seed=trial_seed,
                        repetitions=fm_repetitions,
                        delay=delay_spec,
                        tracer=tracer,
                    )
                    if tracer is not None:
                        attribution = tracer.provenance(
                            result.querying_host,
                            result.termination_time,
                            topology.num_hosts,
                        )
                        lost_alive_samples.append(
                            float(len(attribution.lost_alive)))
                        lost_churn_samples.append(
                            float(len(attribution.lost_to_churn)))
                    declared = result.value if result.value is not None else 0.0
                    declared_samples.append(declared)
                    finished_samples.append(result.finished_at)
                    lower_samples.append(bounds.lower_value)
                    upper_samples.append(bounds.upper_value)
                    if oracle.is_valid(declared, query_kind, churn,
                                       horizon=result.termination_time,
                                       epsilon=epsilon):
                        num_valid += 1
                rows.append(DelaySweepRow(
                    delay=delay_spec,
                    protocol=protocol.name,
                    departures=num_departures,
                    value=aggregate_trials(declared_samples),
                    oracle_lower=aggregate_trials(lower_samples),
                    oracle_upper=aggregate_trials(upper_samples),
                    fraction_valid=num_valid / max(1, num_trials),
                    finished_at=aggregate_trials(finished_samples),
                    lost_alive=(aggregate_trials(lost_alive_samples)
                                if provenance else None),
                    lost_to_churn=(aggregate_trials(lost_churn_samples)
                                   if provenance else None),
                ))
    return rows
