"""Theorem 4.4: best-effort protocols can be arbitrarily wrong.

The construction arranges 2n + 2 hosts in a cycle with one pendant host.
The querying host builds a spanning tree with two chains around the cycle;
failing the querying host's neighbor on the longer chain right after
Broadcast discards at least half of the stable core, so the declared count
is at most |H_C| / e with e = 2 (and larger e for deeper constructions).
WILDFIRE on the same instance still returns a valid answer because the
surviving arc of the cycle carries every remaining host's contribution.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.obs.provenance import EstimateProvenance, ProvenanceTracer
from repro.protocols.base import run_protocol
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.semantics.oracle import Oracle
from repro.sketches.combiners import ExactCountCombiner, FMCountCombiner
from repro.simulation.churn import ChurnSchedule
from repro.topology.primitives import cycle_with_pendant_topology
from repro.workloads.values import constant_values


class BadCaseResult(NamedTuple):
    """Outcome of the Theorem 4.4 construction for one protocol."""

    protocol: str
    declared: float
    stable_core_size: int
    error_factor: float
    is_valid: bool
    #: Contribution-set attribution, only populated when the experiment
    #: ran with ``provenance=True``.  The Theorem 4.4 story in set form:
    #: SPANNINGTREE's ``lost_alive`` holds the severed chain's survivors
    #: while WILDFIRE's contributors cover the stable core.
    provenance: Optional[EstimateProvenance] = None

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "protocol": self.protocol,
            "declared": round(self.declared, 2),
            "|H_C|": self.stable_core_size,
            "error_factor": round(self.error_factor, 2),
            "valid": self.is_valid,
        }
        if self.provenance is not None:
            row["lost_alive"] = len(self.provenance.lost_alive)
            row["lost_to_churn"] = len(self.provenance.lost_to_churn)
        return row


def run_theorem_44_experiment(
    cycle_size: int = 42,
    fm_repetitions: int = 16,
    seed: int = 0,
    provenance: bool = False,
) -> List[BadCaseResult]:
    """Run the Theorem 4.4 construction for SPANNINGTREE and WILDFIRE.

    Args:
        cycle_size: number of hosts on the cycle (2n + 2 in the paper).
        fm_repetitions: FM repetitions for WILDFIRE's count sketch.
        seed: RNG seed.
        provenance: attach each protocol's contribution-set attribution
            (see :mod:`repro.obs.provenance`) to its result; the declared
            values are unaffected (tracers only observe).
    """
    topology = cycle_with_pendant_topology(cycle_size)
    values = constant_values(topology.num_hosts, 1)
    querying_host = 0
    # Fail host 1 (the querying host's neighbor on one chain) right after
    # the Broadcast message passed through it.
    churn = ChurnSchedule(failures=[(1.6, 1)])
    oracle = Oracle(topology, values, querying_host)
    d_hat = max(2, cycle_size)

    results: List[BadCaseResult] = []
    for protocol, combiner in (
        (SpanningTree(), ExactCountCombiner()),
        (Wildfire(), FMCountCombiner(repetitions=fm_repetitions)),
    ):
        tracer = ProvenanceTracer() if provenance else None
        run = run_protocol(
            protocol=protocol,
            topology=topology,
            values=values,
            query="count",
            querying_host=querying_host,
            combiner=combiner,
            d_hat=d_hat,
            churn=churn,
            seed=seed,
            tracer=tracer,
        )
        attribution = (
            tracer.provenance(querying_host, run.termination_time,
                              topology.num_hosts)
            if tracer is not None else None
        )
        declared = run.value if run.value is not None else 0.0
        bounds = oracle.bounds("count", churn, horizon=run.termination_time)
        core_size = bounds.core_size
        error_factor = core_size / declared if declared else float("inf")
        epsilon = 0.0 if isinstance(combiner, ExactCountCombiner) else 0.75
        valid = oracle.is_valid(declared, "count", churn,
                                horizon=run.termination_time, epsilon=epsilon)
        results.append(
            BadCaseResult(
                protocol=protocol.name,
                declared=declared,
                stable_core_size=core_size,
                error_factor=error_factor,
                is_valid=valid,
                provenance=attribution,
            )
        )
    return results
