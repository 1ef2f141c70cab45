"""The seven benchmark workloads: inputs, the timed call, what to verify.

Each workload builds its inputs from ``(hosts, seed)``, exposes one timed
call (:meth:`Workload.rep`) that enters the program through a public
function, and turns the call's public result into *operations*
(``op id -> digest``) plus the layer numbers that can be read off result
objects.  Only the network (topology wiring and attribute values) derives
from ``--seed``; the protocol coin flips, the sweep's churn draws and the
query mix use :data:`PROGRAM_SEED`.  Measured on the parent commit, FM
coin flips alone move a flood's message count by 8 % (IQR / median over
ten run seeds) and a seed-drawn query mix moves a service rep's work by
37 %, either of which would drown the 10 % regression bound; the
topology moves it by about 2 %.
"""

from __future__ import annotations

import hashlib
import random
import time
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

from repro.experiments import validity_sweep
from repro.experiments.query_mix import run_query_mix
from repro.protocols import base as protocols_base
from repro.protocols.base import resolve_d_hat, run_protocol
from repro.protocols.wildfire import Wildfire
from repro.semantics.oracle import Oracle
from repro.service import AdmissionConfig, QueryService
from repro.service import service as service_module
from repro.service import session as session_module
from repro.service.admission import AdmissionController
from repro.simulation import vector_lane
from repro.simulation.engine import Simulator
from repro.simulation.network import DynamicNetwork
from repro.topology.base import Topology
from repro.topology.gnutella import gnutella_like_topology
from repro.workloads.query_mix import (QueryMixConfig, duplicate_heavy_mix,
                                       generate_query_mix)
from repro.workloads.values import zipf_values

#: Seed of every random stream the *program* draws (see module docstring).
PROGRAM_SEED = 7

Ops = Dict[str, Optional[str]]


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _network(hosts: int, seed: int, values) -> SimpleNamespace:
    """One fresh set-up: topology, values, and the memoised ``d_hat``."""
    start = time.perf_counter()
    topology = gnutella_like_topology(hosts, seed=seed)
    built = time.perf_counter()
    resolve_d_hat(topology, None, seed=PROGRAM_SEED)
    return SimpleNamespace(
        topology=topology, values=values(hosts, seed), hosts=hosts,
        timings={"topology.build_s": built - start,
                 "topology.diameter_s": time.perf_counter() - built})


def _uniform_values(hosts: int, seed: int):
    rng = random.Random(seed)
    return [rng.random() * 100.0 for _ in range(hosts)]


class Workload:
    """Base class; subclasses fill in build / rep / observe."""

    name = ""
    hosts = 0
    #: Name of the workload whose operations this one must reproduce
    #: bit for bit (the python-lane twin of an opt-in lane), if any.
    twin: Optional[str] = None

    def build(self, hosts: int, seed: int) -> SimpleNamespace:
        raise NotImplementedError

    def rep(self, inputs):
        raise NotImplementedError

    def observe(self, inputs, result) -> Tuple[Ops, dict]:
        """``(operations, layer numbers)`` of one rep's public result."""
        raise NotImplementedError

    def reference(self, inputs) -> Tuple[Ops, Ops, dict]:
        """The untimed warm-up rep: ``(rep ops, pinned ops, numbers)``.

        ``rep ops`` is what every timed rep is compared with; ``pinned
        ops`` is what ``expected.json`` and the lane twin are compared
        with.  They differ only where the timed call's result is coarser
        than one operation (``churn_sweep``).
        """
        ops, numbers = self.observe(inputs, self.rep(inputs))
        return ops, ops, numbers

    def twin_ops(self, inputs) -> Ops:
        raise NotImplementedError


class Flood(Workload):
    """One WILDFIRE ``count`` flood over the whole network."""

    def __init__(self, name, hosts, lane, shards=1, delay="fixed",
                 stats="streaming"):
        self.name, self.hosts = name, hosts
        self.lane, self.shards, self.delay, self.stats = (
            lane, shards, delay, stats)
        self.twin = None if lane == "python" else "flood_py"

    def build(self, hosts, seed):
        return _network(hosts, seed, _uniform_values)

    def _run(self, inputs, lane):
        return run_protocol(
            Wildfire(), inputs.topology, inputs.values, "count",
            seed=PROGRAM_SEED, stats=self.stats, delay=self.delay,
            lane=lane, shards=self.shards)

    def rep(self, inputs):
        return self._run(inputs, self.lane)

    def observe(self, inputs, result):
        # A lane that silently declined measured a different program.
        ok = result.value is not None and result.fallback_reason is None
        costs = result.costs
        numbers = {
            "simulation.stats.messages": costs.messages_sent,
            "simulation.stats.computation_cost": costs.computation_cost,
            "simulation.stats.accounting_bytes": costs.footprint_bytes(),
        }
        sharded = result.extra.get("sharded")
        if sharded is not None:
            numbers.update(_sharded_numbers(sharded))
        op = digest(result.value, costs.fingerprint(), result.finished_at)
        return {"flood": op if ok else None}, numbers

    def twin_ops(self, inputs):
        return self.observe(inputs, self._run(inputs, "python"))[0]


def _sharded_numbers(sharded: dict) -> dict:
    """Max over shards of the per-epoch sums of the public timeline."""
    per_shard: dict = {}
    for row in sharded["timeline"]:
        cell = per_shard.setdefault(row["shard"], [0.0, 0.0, 0.0])
        cell[0] += row["compute_s"]
        # The worker times the barrier inside the exchange; split them.
        cell[1] += row["exchange_s"] - row["barrier_wait_s"]
        cell[2] += row["barrier_wait_s"]
    workers = sharded["workers"]
    return {
        "simulation.sharded.compute_s": max(c[0] for c in per_shard.values()),
        "simulation.sharded.exchange_s": max(c[1] for c in per_shard.values()),
        "simulation.sharded.barrier_wait_s":
            max(c[2] for c in per_shard.values()),
        "simulation.sharded.busy_s": max(sum(c) for c in per_shard.values()),
        "simulation.sharded.cross_bytes_in":
            max(w["cross_bytes_in"] for w in workers),
        "simulation.sharded.epochs": max(w["epochs"] for w in workers),
    }


class ChurnSweep(Workload):
    """The paper's Figure 7: declared answers vs churn, with ORACLE bounds."""

    name = "churn_sweep"
    hosts = 700
    trials = 2
    departure_percent = (1, 3, 6, 10)

    def build(self, hosts, seed):
        inputs = _network(hosts, seed, lambda n, s: zipf_values(n, seed=s))
        inputs.departures = [max(1, hosts * percent // 100)
                             for percent in self.departure_percent]
        return inputs

    def rep(self, inputs):
        return validity_sweep.run_validity_sweep(
            inputs.topology, "count", inputs.departures,
            values=inputs.values, num_trials=self.trials,
            fm_repetitions=16, seed=PROGRAM_SEED)

    def observe(self, inputs, rows):
        ops: Ops = {}
        for row in rows:
            op = digest(row.value.mean, row.value.ci, row.oracle_lower.mean,
                        row.oracle_upper.mean, row.fraction_valid)
            for trial in range(self.trials):
                ops[f"{row.protocol}/R{row.departures}/t{trial}"] = op
        tree = [row.fraction_valid for row in rows
                if row.protocol != Wildfire.name]
        return ops, {"semantics.tree_valid_frac": sum(tree) / len(tree)}

    def reference(self, inputs):
        """Warm-up rep with every ``run_protocol`` call of the sweep kept.

        The sweep returns per-point means only; the per-run digests, the
        message counts and the WILDFIRE validity verdicts come from the
        calls themselves, seen through a shim that is gone again before
        the first timed rep.
        """
        calls = []
        original = validity_sweep.run_protocol

        def keep(**kwargs):
            result = original(**kwargs)
            calls.append((kwargs["churn"], result))
            return result

        validity_sweep.run_protocol = keep
        try:
            rows = self.rep(inputs)
        finally:
            validity_sweep.run_protocol = original
        ops, numbers = self.observe(inputs, rows)

        oracle = Oracle(inputs.topology, inputs.values, 0)
        pinned: Ops = {}
        seen: dict = {}
        for churn, result in calls:
            point = f"{result.protocol}/R{len(churn.failures)}"
            trial = seen[point] = seen.get(point, -1) + 1
            valid = result.value is not None and (
                result.protocol != Wildfire.name or oracle.is_valid(
                    result.value, "count", churn,
                    horizon=result.termination_time, epsilon=0.5))
            pinned[f"{point}/t{trial}"] = digest(
                result.value, result.costs.fingerprint(),
                result.finished_at) if valid else None
        wildfire_runs = sum(1 for _, r in calls if r.protocol == Wildfire.name)
        numbers.update({
            "simulation.stats.messages":
                sum(r.costs.messages_sent for _, r in calls),
            "simulation.stats.computation_cost":
                max(r.costs.computation_cost for _, r in calls),
            "simulation.stats.accounting_bytes":
                max(r.costs.footprint_bytes() for _, r in calls),
            "sketch_inits": wildfire_runs * inputs.hosts,
            # Neighbour views each failure invalidates (and a later send
            # rebuilds): the operation count of the cold-neighbours kernel.
            "stale_views": sum(len(inputs.topology.adjacency[host])
                               for churn, _ in calls
                               for _, host in churn.failures),
        })
        return ops, pinned, numbers


class Serve(Workload):
    """One pre-generated query mix through the multi-tenant service."""

    def __init__(self, name, hosts, mix, share_floods=False,
                 admission=None):
        self.name, self.hosts = name, hosts
        self.mix, self.share_floods, self.admission = (
            mix, share_floods, admission)

    def build(self, hosts, seed):
        inputs = _network(hosts, seed, _uniform_values)
        inputs.queries = len(generate_query_mix(
            hosts, self.mix, seed=PROGRAM_SEED))
        return inputs

    def rep(self, inputs):
        return run_query_mix(
            prebuilt_topology=inputs.topology, mix=self.mix,
            seed=PROGRAM_SEED, stats="streaming",
            share_floods=self.share_floods, admission=self.admission)

    def observe(self, inputs, result):
        # Every submitted query must end in exactly one terminal outcome,
        # and that outcome must be an answer.
        ops: Ops = {f"q{qid}": None for qid in range(1, inputs.queries + 1)}
        seen = set()
        for row in result["rows"]:
            op_id = f"q{row['query_id']}"
            answered = (row["status"] == "done" and row["value"] is not None
                        and op_id not in seen)
            seen.add(op_id)
            ops[op_id] = digest(
                row["value"], row.get("cost_fingerprint"),
                row["declared_at"]) if answered else None
        summary, metrics = result["summary"], result["metrics"]
        return ops, {
            "simulation.stats.messages": summary["messages_sent"],
            "service.engine.events_processed": summary["events_processed"],
            "service.engine.peak_active_sessions":
                summary["peak_active_sessions"],
            "service.sharing.hits": summary["cache_hits"],
            "service.sharing.hit_rate":
                metrics.get("service.cache.hit_rate", 0.0),
            "service.admission.deferrals": summary["deferrals"],
            "service.admission.shed": summary["shed"],
        }


# Sizes give a rep of 0.2-1.0 s on the quiet 2-core box, so that 10 s of
# timing hold ten or more reps and a run still fits the driver's budget when
# the box runs 3x slow; BENCHMARK.json and README.md say why each exists.
WORKLOADS = {w.name: w for w in (
    Flood("flood_py", hosts=6000, lane="python"),
    # Same input on the two opt-in lanes, so the three rows compare.
    Flood("flood_vec", hosts=6000, lane="vector"),
    Flood("flood_shard2", hosts=6000, lane="sharded", shards=2),
    Flood("flood_jitter", hosts=2000, lane="python", delay="uniform",
          stats="full"),
    ChurnSweep(),
    Serve("serve_mix", hosts=500, mix=QueryMixConfig(qps=4, duration=6)),
    # max_active_sessions=100 defers about 120 launches and sheds none.
    Serve("serve_dup", hosts=500, mix=duplicate_heavy_mix(qps=32, duration=6),
          share_floods=True,
          admission=AdmissionConfig(policy="defer", max_active_sessions=100)),
)}


#: Wrapped public callables: ``(owner, attribute, span name)``.  Coarse on
#: purpose -- the busiest (``fail_host``) is called ~1600 times per rep.
WRAPPED = (
    (Topology, "to_network", "simulation.network.to_network"),
    (DynamicNetwork, "fail_host", "simulation.network.fail_host"),
    (protocols_base, "prepare_protocol_run", "protocols.prepare"),
    (session_module, "prepare_protocol_run", "protocols.prepare"),
    (Simulator, "run", "simulation.engine.run"),
    (vector_lane, "maybe_run", "simulation.vector_lane.run"),
    (Oracle, "bounds", "semantics.oracle"),
    (Oracle, "is_valid", "semantics.oracle"),
    (QueryService, "run", "service.engine.run"),
    (QueryService, "submit", "service.submit"),
    (service_module, "computation_key", "service.sharing.key"),
    (service_module, "consensus_seed", "service.sharing.key"),
    (AdmissionController, "decide", "service.admission.decide"),
)

#: Span name -> whether a ``<name>_calls`` metric is declared beside
#: ``<name>_s``.
SPAN_CALLS = {
    "simulation.network.to_network": False,
    "simulation.network.fail_host": True,
    "protocols.prepare": True,
    "simulation.engine.run": False,
    "simulation.vector_lane.run": False,
    "semantics.oracle": True,
    "service.engine.run": False,
    "service.submit": False,
    "service.sharing.key": True,
    "service.admission.decide": True,
}
