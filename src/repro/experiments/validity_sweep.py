"""Figures 7-9: declared answers versus churn, against the ORACLE bounds.

For a given topology and query the sweep removes R hosts at a uniform rate
during query processing (R is varied to control dynamism), runs every
protocol under comparison, and records the average declared value together
with the ORACLE's Single-Site Validity lower and upper bounds.  WILDFIRE
stays within the bounds for every R; SPANNINGTREE and DIRECTEDACYCLICGRAPH
drop below the lower bound as churn increases.

The paper's figures realise the adversarially slowest timing (every hop
takes exactly ``delta``); its guarantees are stated for *any* per-hop
delay in ``(0, delta]``.  The same sweep therefore takes a list of
:mod:`~repro.simulation.delay` model specs (``delay_specs``; the
beyond-paper ``repro delay-sweep`` sweeps :data:`DEFAULT_DELAY_SPECS`)
and then adds one column of points per model, with a ``delay`` and a
``finished_at`` column on every row: WILDFIRE's valid fraction stays at
1.0 under every model (deadlines are computed from the bound, so faster
realised links only give messages more slack), the tree protocols remain
valid on static networks but keep degrading with churn, and all runs
finish *no later* than under ``fixed``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.experiments.runner import TrialStats, aggregate_trials
from repro.obs.provenance import ProvenanceTracer
from repro.protocols.base import Protocol, resolve_d_hat, run_protocol
from repro.protocols.dag import DirectedAcyclicGraph
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.queries.query import AggregateQuery
from repro.semantics.oracle import Oracle, sketch_slack
from repro.simulation.churn import uniform_failure_schedule
from repro.topology.base import Topology
from repro.workloads.values import zipf_values

#: Delay models ``repro delay-sweep`` sweeps by default: the paper's
#: worst case plus one light-spread and one heavy-tailed model.
DEFAULT_DELAY_SPECS = ("fixed", "uniform:0.25,1.0", "heavy_tail:1.2")


class ValiditySweepRow(NamedTuple):
    """One (delay model, protocol, R) point of a Figure 7/8/9 style plot.

    ``delay`` and ``finished_at`` are set only when the sweep was given
    ``delay_specs``, the provenance tallies only when it ran with
    ``provenance=True``; :meth:`as_dict` leaves unset columns out, so the
    paper-figure rows keep their shape.
    """

    protocol: str
    departures: int
    value: TrialStats
    oracle_lower: TrialStats
    oracle_upper: TrialStats
    fraction_valid: float
    delay: Optional[str] = None
    finished_at: Optional[TrialStats] = None
    lost_alive: Optional[TrialStats] = None
    lost_to_churn: Optional[TrialStats] = None

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {}
        if self.delay is not None:
            row["delay"] = self.delay
        row.update({
            "protocol": self.protocol,
            "R": self.departures,
            "value_mean": round(self.value.mean, 2),
            "value_ci": round(self.value.ci, 2),
            "oracle_lower": round(self.oracle_lower.mean, 2),
            "oracle_upper": round(self.oracle_upper.mean, 2),
            "valid_fraction": round(self.fraction_valid, 2),
        })
        if self.finished_at is not None:
            row["finished_at"] = round(self.finished_at.mean, 2)
        if self.lost_alive is not None:
            row["lost_alive_mean"] = round(self.lost_alive.mean, 2)
        if self.lost_to_churn is not None:
            row["lost_churn_mean"] = round(self.lost_to_churn.mean, 2)
        return row


def default_protocols(dag_parents: Sequence[int] = (2, 3)) -> List[Protocol]:
    """The protocol line-up of the paper's validity figures."""
    protocols: List[Protocol] = [Wildfire(), SpanningTree()]
    for k in dag_parents:
        protocols.append(DirectedAcyclicGraph(num_parents=k))
    return protocols


def run_validity_sweep(
    topology: Topology,
    query_kind: str,
    departures: Sequence[int],
    protocols: Optional[Sequence[Protocol]] = None,
    values: Optional[Sequence[float]] = None,
    querying_host: int = 0,
    num_trials: int = 3,
    fm_repetitions: int = 16,
    d_hat: Optional[int] = None,
    delta: float = 1.0,
    seed: int = 0,
    sketch_epsilon: float = 0.5,
    delay_specs: Optional[Sequence[str]] = None,
    provenance: bool = False,
) -> List[ValiditySweepRow]:
    """Run the churn sweep and return one row per (R, delay model,
    protocol) point, in that nesting order.

    Args:
        topology: the network to evaluate on (Gnutella-like for Figs. 7-8,
            Grid for Fig. 9).
        query_kind: ``"count"`` or ``"sum"`` in the paper's figures.
        departures: the R values to sweep (paper: 256 ... 4096; ``0`` =
            static).  The querying host never fails, so each must be in
            ``[0, num_hosts)``; ``ValueError`` otherwise.
        protocols: protocols to compare; defaults to WILDFIRE, SPANNINGTREE
            and DAG with k = 2 and k = 3.
        values: per-host attribute values; Zipf [10, 500] when omitted.
        querying_host: the querying host (never fails, as in the paper).
        num_trials: independent trials per point (paper: 10).  Each trial
            shares its failure schedule across every delay model and
            protocol, so a column difference is attributable to the
            protocol or to timing alone.
        fm_repetitions: FM repetitions for sketch-based combiners.
        d_hat: stable-diameter overestimate; estimated when omitted.
        delta: the per-hop delay *bound* every delay model is capped by.
        seed: base RNG seed.
        sketch_epsilon: multiplicative slack used when judging validity of
            protocols whose answers are FM estimates (Approximate Single-Site
            Validity); exact-combiner protocols are judged with zero slack.
        delay_specs: delay model spec strings to sweep (see
            :func:`repro.simulation.delay.delay_model_from_spec`).
            ``None`` is the paper's figure: the ``fixed`` model only, and
            rows without the ``delay`` / ``finished_at`` columns.
        provenance: record each trial's contribution set with a
            :class:`~repro.obs.provenance.ProvenanceTracer` and add
            ``lost_alive_mean`` / ``lost_churn_mean`` columns.  Opt-in:
            provenance traces every delivery unsampled, so it is meant
            for experiment-scale sweeps, and it never perturbs the
            declared values (tracers only observe).
    """
    outside = [r for r in departures if not 0 <= r < topology.num_hosts]
    if outside:
        raise ValueError(
            f"departures {outside} out of range: R must be in "
            f"[0, {topology.num_hosts - 1}] on {topology.num_hosts} hosts")
    if values is None:
        values = zipf_values(topology.num_hosts, seed=seed)
    protocols = list(protocols) if protocols is not None else default_protocols()
    oracle = Oracle(topology, values, querying_host)
    query = AggregateQuery.of(query_kind)
    resolved_d_hat = resolve_d_hat(topology, d_hat, seed=seed)
    # The paper's T, at which every protocol of its line-up declares.
    horizon = Protocol().termination_time(resolved_d_hat, delta)
    epsilons: Dict[str, float] = {
        protocol.name: sketch_slack(protocol, query, sketch_epsilon)
        for protocol in protocols
    }

    rows: List[ValiditySweepRow] = []
    for num_departures in departures:
        # One failure schedule per trial (Section 6.2: the R departures
        # spread uniformly over the query interval) and one ORACLE pass
        # over it, shared by every (delay model, protocol) cell of this R.
        trials = []
        for trial in range(num_trials):
            trial_seed = seed + 131 * trial + num_departures
            churn = uniform_failure_schedule(
                candidates=range(topology.num_hosts),
                num_failures=num_departures,
                start=0.5,
                end=max(1.0, horizon - 0.5),
                seed=trial_seed,
                protect=[querying_host],
            )
            trials.append((trial_seed, churn,
                           oracle.bounds(query_kind, churn, horizon=horizon)))
        lower = aggregate_trials([b.lower_value for _, _, b in trials])
        upper = aggregate_trials([b.upper_value for _, _, b in trials])
        for delay_spec in delay_specs or ("fixed",):
            for protocol in protocols:
                declared_samples: List[float] = []
                finished_samples: List[float] = []
                lost_alive_samples: List[float] = []
                lost_churn_samples: List[float] = []
                num_valid = 0
                for trial_seed, churn, bounds in trials:
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
                    # The paper's protocols terminate at the sweep's
                    # horizon, so the trial's bounds are the run's;
                    # recompute for one that does not.
                    run_bounds = bounds if result.termination_time == horizon \
                        else oracle.bounds(query_kind, churn,
                                           horizon=result.termination_time)
                    if oracle.judge(declared, run_bounds, query_kind,
                                    epsilons[protocol.name]):
                        num_valid += 1
                rows.append(ValiditySweepRow(
                    protocol=protocol.name,
                    departures=num_departures,
                    value=aggregate_trials(declared_samples),
                    oracle_lower=lower,
                    oracle_upper=upper,
                    fraction_valid=num_valid / max(1, num_trials),
                    delay=delay_spec if delay_specs else None,
                    finished_at=(aggregate_trials(finished_samples)
                                 if delay_specs else None),
                    lost_alive=(aggregate_trials(lost_alive_samples)
                                if provenance else None),
                    lost_to_churn=(aggregate_trials(lost_churn_samples)
                                   if provenance else None),
                ))
    return rows
