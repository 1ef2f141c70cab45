"""Figures 7-9: declared answers versus churn, against the ORACLE bounds.

For a given topology and query the sweep removes R hosts at a uniform rate
during query processing (R is varied to control dynamism), runs every
protocol under comparison, and records the average declared value together
with the ORACLE's Single-Site Validity lower and upper bounds.  WILDFIRE
stays within the bounds for every R; SPANNINGTREE and DIRECTEDACYCLICGRAPH
drop below the lower bound as churn increases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import TrialStats, aggregate_trials
from repro.protocols.base import Protocol, resolve_d_hat, run_protocol
from repro.protocols.dag import DirectedAcyclicGraph
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.queries.query import AggregateQuery
from repro.semantics.oracle import Oracle, sketch_slack
from repro.simulation.churn import uniform_failure_schedule
from repro.topology.base import Topology
from repro.workloads.values import zipf_values


@dataclass(frozen=True)
class ValiditySweepRow:
    """One (protocol, R) point of a Figure 7/8/9 style plot."""

    protocol: str
    departures: int
    value: TrialStats
    oracle_lower: TrialStats
    oracle_upper: TrialStats
    fraction_valid: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "R": self.departures,
            "value_mean": round(self.value.mean, 2),
            "value_ci": round(self.value.ci, 2),
            "oracle_lower": round(self.oracle_lower.mean, 2),
            "oracle_upper": round(self.oracle_upper.mean, 2),
            "valid_fraction": round(self.fraction_valid, 2),
        }


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
) -> List[ValiditySweepRow]:
    """Run the churn sweep and return one row per (protocol, R) point.

    Args:
        topology: the network to evaluate on (Gnutella-like for Figs. 7-8,
            Grid for Fig. 9).
        query_kind: ``"count"`` or ``"sum"`` in the paper's figures.
        departures: the R values to sweep (paper: 256 ... 4096).
        protocols: protocols to compare; defaults to WILDFIRE, SPANNINGTREE
            and DAG with k = 2 and k = 3.
        values: per-host attribute values; Zipf [10, 500] when omitted.
        querying_host: the querying host (never fails, as in the paper).
        num_trials: independent trials per point (paper: 10).
        fm_repetitions: FM repetitions for sketch-based combiners.
        d_hat: stable-diameter overestimate; estimated when omitted.
        delta: per-hop message delay.
        seed: base RNG seed.
        sketch_epsilon: multiplicative slack used when judging validity of
            protocols whose answers are FM estimates (Approximate Single-Site
            Validity); exact-combiner protocols are judged with zero slack.
    """
    if values is None:
        values = zipf_values(topology.num_hosts, seed=seed)
    protocols = list(protocols) if protocols is not None else default_protocols()
    oracle = Oracle(topology, values, querying_host)
    query = AggregateQuery.of(query_kind)
    resolved_d_hat = resolve_d_hat(topology, d_hat, seed=seed)
    horizon = 2.0 * resolved_d_hat * delta

    epsilons: Dict[str, float] = {
        protocol.name: sketch_slack(protocol, query, sketch_epsilon)
        for protocol in protocols
    }

    rows: List[ValiditySweepRow] = []
    for num_departures in departures:
        per_protocol_values: Dict[str, List[float]] = {p.name: [] for p in protocols}
        per_protocol_valid: Dict[str, int] = {p.name: 0 for p in protocols}
        lower_samples: List[float] = []
        upper_samples: List[float] = []
        for trial in range(num_trials):
            trial_seed = seed + 131 * trial + num_departures
            # One failure schedule per trial, shared by every protocol, with
            # the R departures spread uniformly over the query interval.
            churn = uniform_failure_schedule(
                candidates=range(topology.num_hosts),
                num_failures=min(num_departures, topology.num_hosts - 1),
                start=0.5,
                end=max(1.0, horizon - 0.5),
                seed=trial_seed,
                protect=[querying_host],
            )
            bounds = oracle.bounds(query_kind, churn, horizon=horizon)
            lower_samples.append(bounds.lower_value)
            upper_samples.append(bounds.upper_value)
            for protocol in protocols:
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
                )
                declared = result.value if result.value is not None else 0.0
                per_protocol_values[protocol.name].append(declared)
                # Every protocol here terminates at the sweep's horizon, so
                # the trial's bounds are the run's; recompute if one did not.
                run_bounds = bounds if result.termination_time == horizon \
                    else oracle.bounds(query_kind, churn,
                                       horizon=result.termination_time)
                if oracle.judge(declared, run_bounds, query_kind,
                                epsilons[protocol.name]):
                    per_protocol_valid[protocol.name] += 1

        lower_stats = aggregate_trials(lower_samples)
        upper_stats = aggregate_trials(upper_samples)
        for protocol in protocols:
            rows.append(
                ValiditySweepRow(
                    protocol=protocol.name,
                    departures=num_departures,
                    value=aggregate_trials(per_protocol_values[protocol.name]),
                    oracle_lower=lower_stats,
                    oracle_upper=upper_stats,
                    fraction_valid=per_protocol_valid[protocol.name] / num_trials,
                )
            )
    return rows
