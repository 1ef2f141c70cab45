"""Shared protocol plumbing: the Protocol interface and the run harness."""

from __future__ import annotations

import random
from itertools import repeat
from math import inf
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Type

from repro.queries.query import AggregateQuery
from repro.simulation.churn import ChurnSchedule
from repro.simulation.delay import DelayModel, delay_model_from_spec
from repro.simulation.engine import SimulationResult, Simulator
from repro.simulation.host import ProtocolHost
from repro.simulation.stats import CostAccounting
from repro.simulation.vector_lane import DEFAULT_LANE
from repro.sketches.combiners import Combiner, combiner_for_query
from repro.topology.base import Topology


class ProtocolRunResult:
    """The outcome of running one protocol once on one network.

    Attributes:
        protocol: the protocol's short name.
        query: the aggregate query that was processed.
        value: the answer declared at the querying host (``None`` if the
            protocol produced none, e.g. the querying host failed).
        costs: message/computation/time cost accounting for the run.
        finished_at: simulation time when the run stopped.
        querying_host: id of the querying host.
        d_hat: the stable-diameter overestimate used by the run.
        termination_time: the protocol's nominal termination time ``T``.
        extra: protocol-specific details (tree depth, reports received, ...).
        lane_used: the kernel lane that executed the run.
        fallback_reason: why the gate of the tick lane asked for
            (``vector``, the default, or ``sharded``) refused this run
            and the spec loop ran instead (``None``: the lane asked for
            ran, or the spec lane was requested).
    """

    __slots__ = ("protocol", "query", "value", "costs", "finished_at",
                 "querying_host", "d_hat", "termination_time", "extra",
                 "lane_used", "fallback_reason")

    def __init__(self, protocol: str, query: AggregateQuery,
                 value: Optional[float], costs: CostAccounting,
                 finished_at: float, querying_host: int, d_hat: int,
                 termination_time: float,
                 extra: Optional[Dict[str, Any]] = None,
                 lane_used: str = "python",
                 fallback_reason: Optional[str] = None) -> None:
        self.protocol = protocol
        self.query = query
        self.value = value
        self.costs = costs
        self.finished_at = finished_at
        self.querying_host = querying_host
        self.d_hat = d_hat
        self.termination_time = termination_time
        self.extra = {} if extra is None else extra
        self.lane_used = lane_used
        self.fallback_reason = fallback_reason


class Protocol:
    """A runnable aggregation protocol.

    A protocol names its per-host state machine (:attr:`host_class`) and,
    where it departs from the paper's defaults, says how the host table
    is built and how long a run nominally lasts; everything else
    (network construction, churn, cost accounting) is shared in
    :func:`run_protocol`.
    """

    #: Short name used in experiment tables.
    name: str = "protocol"

    #: The per-host state machine, constructed by :meth:`create_hosts` as
    #: ``host_class(host_id, value, run)``, where ``run`` is the one
    #: ``host_class.run_class`` record of the run -- the shape every
    #: in-tree protocol shares.  A protocol whose hosts take anything
    #: else overrides :meth:`create_hosts` instead of naming one.
    host_class: Type[ProtocolHost]

    #: Whether the protocol needs a duplicate-insensitive combiner to return
    #: meaningful answers for count/sum/avg.
    requires_duplicate_insensitive: bool = False

    #: Whether the protocol's message schedule itself consumes the run RNG
    #: (beyond combiner state), so its declared result can depend on the
    #: seed even with an exact combiner under fixed delay.  Protocols whose
    #: stochasticity depends on configuration set this per instance.
    stochastic: bool = False

    def config_spec(self) -> tuple:
        """Digest-relevant constructor configuration not already in ``name``.

        The shared-flood cache keys computations on ``(name, *config_spec())``
        so two same-name protocol objects configured differently (e.g.
        ALLREPORT at different report probabilities) never share a flood.
        """
        return ()

    def host_options(self, num_hosts: int) -> Dict[str, Any]:
        """The protocol's own constants for a run over ``num_hosts``
        hosts: extra keyword arguments of the host class's
        ``run_class``."""
        return {}

    def create_hosts(
        self,
        topology: Topology,
        values: Sequence[float],
        querying_host: int,
        query: AggregateQuery,
        combiner: Combiner,
        d_hat: int,
        delta: float,
        rng: random.Random,
    ) -> List[ProtocolHost]:
        """Build one protocol host per topology host, all sharing one
        run record (one ``map`` over the ids, the values and the record
        repeated: no per-host Python loop)."""
        host_class, num_hosts = self.host_class, topology.num_hosts
        run = host_class.run_class(querying_host, query, combiner, d_hat,
                                   delta, rng, **self.host_options(num_hosts))
        return list(map(host_class, range(num_hosts), values,
                        repeat(run, num_hosts)))

    def termination_time(self, d_hat: int, delta: float) -> float:
        """The nominal time ``T`` at which the querying host declares:
        the paper's ``2 * D_hat * delta`` (one Broadcast sweep out, one
        Convergecast sweep back, each at most ``D_hat`` hops of at most
        ``delta``)."""
        return 2.0 * d_hat * delta

    def default_combiner(self, query: AggregateQuery, repetitions: int = 8) -> Combiner:
        """The combiner this protocol would pick for a query by default."""
        exact = not self.requires_duplicate_insensitive and not query.kind.duplicate_insensitive_exact
        return combiner_for_query(query.kind.value, exact=exact, repetitions=repetitions)


#: The names :func:`protocol_from_spec` resolves, one line on each.
PROTOCOL_SPECS = {
    "wildfire": "the paper's Single-Site Valid flooding protocol",
    "spanning-tree": "best-effort TAG-style tree aggregation",
    "dagK": "best-effort multi-parent aggregation, K >= 2 (dag = dag2)",
    "allreport": "direct delivery of every value (valid, expensive)",
    "randomized-report": "sampled direct delivery for size estimates",
    "gossip": "push-sum epidemic baseline (eventual consistency)",
}


def protocol_from_spec(spec: "Protocol | str") -> Protocol:
    """Build a protocol from a compact spec string.

    A ready-made :class:`Protocol` passes through unchanged.  Strings name
    the registered protocols: ``wildfire``, ``spanning-tree``, ``dagK``
    (K >= 2 parents, e.g. ``dag2``), ``allreport``, ``randomized-report``
    and ``gossip``.  This is the single resolver behind ``repro bench``,
    ``repro serve``, ``repro delay-sweep`` and the query-mix workload
    generator, so every surface accepts the same names.
    """
    if isinstance(spec, Protocol):
        return spec
    name = str(spec).strip().lower().replace("_", "-")
    if name == "wildfire":
        from repro.protocols.wildfire import Wildfire

        return Wildfire()
    if name == "spanning-tree":
        from repro.protocols.spanning_tree import SpanningTree

        return SpanningTree()
    if name.startswith("dag"):
        from repro.protocols.dag import DirectedAcyclicGraph

        suffix = name[3:] or "2"
        if suffix.startswith("-k"):  # the protocol's own name, "dag-kK"
            suffix = suffix[2:]
        if suffix.isdigit() and int(suffix) >= 2:
            return DirectedAcyclicGraph(num_parents=int(suffix))
    elif name == "allreport":
        from repro.protocols.allreport import AllReport

        return AllReport()
    elif name == "randomized-report":
        from repro.protocols.randomized_report import RandomizedReport

        return RandomizedReport()
    elif name in ("gossip", "push-sum-gossip"):
        from repro.protocols.gossip import PushSumGossip

        return PushSumGossip()
    raise KeyError(f"unknown protocol {spec!r}; known: "
                   f"{', '.join(PROTOCOL_SPECS)} (dagK: K >= 2, e.g. dag2)")


def resolve_d_hat(
    topology: Topology,
    d_hat: Optional[int],
    overestimate_factor: float = 1.5,
    seed: int = 0,
) -> int:
    """Pick a stable-diameter overestimate when the caller did not give one.

    The paper assumes the querying host can overestimate the stable diameter
    by a reasonably small constant; we estimate the diameter by double-sweep
    BFS and pad it.
    """
    if d_hat is not None:
        if d_hat < 1:
            raise ValueError("d_hat must be at least 1")
        return int(d_hat)
    estimate = topology.diameter_estimate(seed=seed)
    return max(1, int(round(estimate * overestimate_factor)) + 1)


class PreparedRun(NamedTuple):
    """Everything one protocol execution derives from ``(query, seed)``.

    This is the shared seed-derivation seam between :func:`run_protocol`
    (one private simulator per query) and the multi-tenant
    :class:`~repro.service.QueryService` (many queries multiplexed over
    one shared simulator): both build their per-query state through
    :func:`prepare_protocol_run`, so a query executed inside the service
    with seed ``s`` is bit-identical to ``run_protocol(..., seed=s)``.

    Attributes:
        query: the parsed aggregate query.
        combiner: the combine function the run will use.
        d_hat: the resolved stable-diameter overestimate.
        termination: the protocol's nominal termination time ``T``.
        hosts: one freshly built protocol state machine per topology host.
        rng: the run RNG.  Building the hosts draws nothing from it;
            the run does, in spec order (an activation's contribution,
            ALLREPORT's report coin, gossip's round targets).
        delay_model: resolved realised-delay model (``None`` = fixed).
    """

    query: AggregateQuery
    combiner: Combiner
    d_hat: int
    termination: float
    hosts: List[ProtocolHost]
    rng: random.Random
    delay_model: Optional[DelayModel]


def prepare_protocol_run(
    protocol: Protocol,
    topology: Topology,
    values: Sequence[float],
    query: "AggregateQuery | str",
    querying_host: int = 0,
    combiner: Optional[Combiner] = None,
    d_hat: Optional[int] = None,
    delta: float = 1.0,
    seed: int = 0,
    repetitions: int = 8,
    delay: "DelayModel | str | None" = None,
) -> PreparedRun:
    """Derive one protocol execution's state from its seed.

    The derivation order is load-bearing: ``rng`` seeds both sketch
    initialisation and protocol randomness, stochastic delay models are
    reseeded from a *separate* stream (consuming the shared RNG there
    would shift every host's sketch randomness, making fixed- and
    variable-delay columns of one sweep differ by coin noise rather than
    timing alone), and the golden snapshots pin the resulting fixed-delay
    bitstream.  Any caller that goes through this function -- the solo
    harness or the query service -- reproduces the same derivation.
    """
    if not 0 < delta < inf:
        raise ValueError(f"delta must be finite and positive, not {delta!r}")
    if isinstance(query, str):
        query = AggregateQuery.of(query)
    if len(values) < topology.num_hosts:
        raise ValueError("need one attribute value per host")
    if not 0 <= querying_host < topology.num_hosts:
        raise ValueError("querying_host is not part of the topology")

    rng = random.Random(seed)
    delay_model = delay_model_from_spec(delay, float(delta), seed=seed)
    if delay_model is not None and delay_model.stochastic:
        delay_model.reseed(
            random.Random(f"{seed}:delay-model").getrandbits(64))
    resolved_d_hat = resolve_d_hat(topology, d_hat, seed=seed)
    if combiner is None:
        combiner = protocol.default_combiner(query, repetitions=repetitions)
    if protocol.requires_duplicate_insensitive and not combiner.duplicate_insensitive:
        raise ValueError(
            f"{protocol.name} floods partial aggregates along multiple paths and "
            f"requires a duplicate-insensitive combiner; got {combiner.name!r}"
        )
    hosts = protocol.create_hosts(
        topology=topology,
        values=values,
        querying_host=querying_host,
        query=query,
        combiner=combiner,
        d_hat=resolved_d_hat,
        delta=delta,
        rng=rng,
    )
    return PreparedRun(
        query=query,
        combiner=combiner,
        d_hat=resolved_d_hat,
        termination=protocol.termination_time(resolved_d_hat, delta),
        hosts=hosts,
        rng=rng,
        delay_model=delay_model,
    )


def run_protocol(
    protocol: Protocol,
    topology: Topology,
    values: Sequence[float],
    query: AggregateQuery | str,
    querying_host: int = 0,
    combiner: Optional[Combiner] = None,
    d_hat: Optional[int] = None,
    delta: float = 1.0,
    churn: Optional[ChurnSchedule] = None,
    wireless: bool = False,
    seed: int = 0,
    repetitions: int = 8,
    max_time: Optional[float] = None,
    delay: "DelayModel | str | None" = None,
    stats: "CostAccounting | str | None" = None,
    tracer=None,
    lane: str = DEFAULT_LANE,
    shards: int = 1,
) -> ProtocolRunResult:
    """Run ``protocol`` once and return its declared answer and costs.

    This is the seam between the experiment drivers and the batched
    simulation kernel: the topology hands its freshly built adjacency to
    :class:`~repro.simulation.network.DynamicNetwork` without re-copying
    or re-validating, the diameter estimate behind ``d_hat`` is memoised
    on the topology (drivers re-run many trials on one graph), and the
    per-trial RNG seeds both sketch initialisation and protocol
    randomness so a (topology, seed) pair is fully reproducible at any
    network size.

    Args:
        protocol: the protocol to execute.
        topology: initial network topology.
        values: one attribute value per host.
        query: the aggregate query (an :class:`AggregateQuery` or a string
            kind such as ``"count"``).
        querying_host: host at which the query is issued at time 0.
        combiner: combine function; defaults to the protocol's natural choice
            for the query (FM sketches for WILDFIRE count/sum, exact addition
            for the tree protocols).
        d_hat: stable-diameter overestimate ``D_hat``; estimated from the
            topology when omitted.
        delta: per-hop message delay.
        churn: failure schedule applied during the run (``None`` = static).
        wireless: model a broadcast medium (sensor grid experiments).
        seed: RNG seed for sketch initialisation and protocol randomness.
        repetitions: FM repetitions used when a default combiner is built.
        max_time: override for the simulator's runaway backstop (defaults
            to four times the nominal termination time; tighten it to
            fail fast on non-terminating regressions in large-scale runs).
            NaN or a negative value is refused.
        delay: realised link-delay model (a spec string such as
            ``"uniform"`` / ``"heavy_tail:1.5"``, a ready-made
            :class:`~repro.simulation.delay.DelayModel` with bound
            ``delta``, or ``None``/``"fixed"`` for the paper's exact-
            ``delta`` worst case).  ``delta`` stays the *bound* the
            protocols' timer math uses regardless of the model.
        stats: a ready-made
            :class:`~repro.simulation.stats.CostAccounting` to account
            into, or ``None`` for a fresh one.
        tracer: structured trace sink from :mod:`repro.obs.trace`
            (``None``: untraced).  Tracers
            observe; the declared value and every cost counter are
            bit-identical with tracing on or off.
        lane: kernel lane -- ``"vector"`` (the default) asks for the
            per-tick batch lane (:mod:`repro.simulation.vector_lane`)
            and ``"sharded"`` for the multiprocess epoch-synchronous
            lane (:mod:`repro.simulation.sharded`); each engages when
            its gate admits the run and otherwise falls back to the
            spec loop, with the reason on ``fallback_reason``.  Both are
            locked bit-identical to ``"python"``, the executable spec,
            which stays the explicit request for the spec loop itself.
        shards: worker-process count for the sharded lane (ignored by
            the other lanes).
    """
    prepared = prepare_protocol_run(
        protocol, topology, values, query,
        querying_host=querying_host, combiner=combiner, d_hat=d_hat,
        delta=delta, seed=seed, repetitions=repetitions, delay=delay,
    )
    network = topology.to_network()
    termination = prepared.termination
    simulator = Simulator(
        network=network,
        hosts=prepared.hosts,
        querying_host=querying_host,
        delta=delta,
        churn=churn,
        wireless=wireless,
        max_time=termination * 4 + 16 if max_time is None else max_time,
        delay_model=prepared.delay_model,
        stats=stats,
        tracer=tracer,
        lane=lane,
        shards=shards,
    )
    sim_result: SimulationResult = simulator.run(until=termination)
    return ProtocolRunResult(
        protocol=protocol.name,
        query=prepared.query,
        value=sim_result.value,
        costs=sim_result.costs,
        finished_at=sim_result.finished_at,
        querying_host=querying_host,
        d_hat=prepared.d_hat,
        termination_time=termination,
        extra=dict(sim_result.extra),
        lane_used=sim_result.lane_used,
        fallback_reason=sim_result.fallback_reason,
    )
