"""The :class:`ValidAggregator` facade.

This is the main entry point for library users: it wraps topology, per-host
values and configuration, and exposes one-call aggregate queries with any of
the implemented protocols, returning answers together with oracle-checked
validity certificates when churn is simulated.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.core.config import ProtocolConfig, SimulationConfig
from repro.core.results import QueryResult, ValidityCertificate
from repro.protocols.base import (PROTOCOL_SPECS, Protocol,
                                  protocol_from_spec, run_protocol)
from repro.queries.query import AggregateQuery, QueryKind
from repro.semantics.oracle import Oracle, sketch_slack
from repro.simulation.churn import ChurnSchedule
from repro.topology.base import Topology


class ValidAggregator:
    """Run validity-aware aggregate queries over a (simulated) network.

    Args:
        topology: the network topology.
        values: one attribute value per host.
        querying_host: host at which queries are issued (default 0).
        seed: base RNG seed.
        simulation: network-model configuration.
        protocol_config: protocol-level knobs.

    Example:
        >>> from repro import ValidAggregator, topology, workloads
        >>> topo = topology.random_topology(100, seed=3)
        >>> values = workloads.zipf_values(len(topo), seed=3)
        >>> agg = ValidAggregator(topo, values, seed=3)
        >>> agg.query("max").value == max(values)
        True
    """

    def __init__(
        self,
        topology: Topology,
        values: Sequence[float],
        querying_host: int = 0,
        seed: int = 0,
        simulation: Optional[SimulationConfig] = None,
        protocol_config: Optional[ProtocolConfig] = None,
    ) -> None:
        if len(values) < topology.num_hosts:
            raise ValueError("need one attribute value per host")
        if not 0 <= querying_host < topology.num_hosts:
            raise ValueError("querying_host is not part of the topology")
        self.topology = topology
        self.values = list(values)
        self.querying_host = querying_host
        self.seed = seed
        self.simulation = simulation or SimulationConfig()
        self.protocol_config = protocol_config or ProtocolConfig()
        self._oracle = Oracle(topology, self.values, querying_host)

    def available_protocols(self) -> Dict[str, str]:
        """Map of protocol spec name to a one-line description (the names
        :func:`~repro.protocols.base.protocol_from_spec` resolves)."""
        return dict(PROTOCOL_SPECS)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        kind: Union[str, QueryKind, AggregateQuery],
        protocol: Union[str, Protocol] = "wildfire",
        churn: Optional[ChurnSchedule] = None,
        epsilon_for_certificate: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> QueryResult:
        """Run one aggregate query and return the certified result.

        Args:
            kind: the aggregate ("min", "max", "count", "sum", "avg"), or a
                ready-made :class:`AggregateQuery`.
            protocol: a spec name (see :meth:`available_protocols`;
                ``"dag3"``, not a config field, picks three parents) or a
                ready-made :class:`~repro.protocols.base.Protocol`, e.g.
                ``PushSumGossip(num_rounds=60)``.
            churn: optional failure schedule to apply during the run; when
                given, the result carries an oracle validity certificate.
            epsilon_for_certificate: check Approximate Single-Site Validity
                with this slack instead of exact validity; defaults to
                :func:`~repro.semantics.oracle.sketch_slack` -- 0 for an
                exact answer (min/max, any exact-addition count/sum/avg
                such as the spanning tree's) and ``query.epsilon`` or
                the sketch default for an FM estimate (count/sum/avg
                under WILDFIRE or DAG).
            seed: override the per-query RNG seed.
        """
        if isinstance(kind, AggregateQuery):
            query = kind
        elif isinstance(kind, QueryKind):
            query = AggregateQuery(kind=kind)
        else:
            query = AggregateQuery.of(kind)

        protocol_obj = protocol_from_spec(protocol)
        run_seed = self.seed if seed is None else seed
        run = run_protocol(
            protocol=protocol_obj,
            topology=self.topology,
            values=self.values,
            query=query,
            querying_host=self.querying_host,
            d_hat=self.protocol_config.d_hat,
            delta=self.simulation.delta,
            churn=churn,
            wireless=self.simulation.wireless,
            seed=run_seed,
            repetitions=self.protocol_config.fm_repetitions,
            delay=self.simulation.delay,
            lane=self.simulation.lane,
        )

        certificate = None
        if churn is not None and run.value is not None:
            bounds = self._oracle.bounds(
                query.kind.value, churn, horizon=run.termination_time
            )
            epsilon = self._certificate_epsilon(query, protocol_obj, epsilon_for_certificate)
            valid = self._oracle.judge(run.value, bounds, query.kind.value,
                                       epsilon)
            certificate = ValidityCertificate(
                bounds=bounds, is_single_site_valid=valid, epsilon=epsilon
            )

        return QueryResult(
            value=run.value,
            protocol=run.protocol,
            kind=query.kind.value,
            run=run,
            certificate=certificate,
        )

    def _certificate_epsilon(
        self,
        query: AggregateQuery,
        protocol: Protocol,
        override: Optional[float],
    ) -> float:
        if override is not None:
            return override
        # The oracle's slack rule, the one the sweeps judge by: an FM
        # estimate gets ``query.epsilon`` (or the sketch default), an
        # exact answer -- min/max, an exact-addition count -- none.
        if query.epsilon is not None:
            return sketch_slack(protocol, query, query.epsilon)
        return sketch_slack(protocol, query)

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def minimum(self, **kwargs) -> QueryResult:
        return self.query("min", **kwargs)

    def maximum(self, **kwargs) -> QueryResult:
        return self.query("max", **kwargs)

    def count(self, **kwargs) -> QueryResult:
        return self.query("count", **kwargs)

    def sum(self, **kwargs) -> QueryResult:
        return self.query("sum", **kwargs)

    def average(self, **kwargs) -> QueryResult:
        return self.query("avg", **kwargs)

    def oracle(self) -> Oracle:
        """The oracle bound to this aggregator's topology and values."""
        return self._oracle

    def true_value(self, kind: Union[str, QueryKind]) -> float:
        """The failure-free exact answer (for tests and reports)."""
        if isinstance(kind, QueryKind):
            query = AggregateQuery(kind=kind)
        else:
            query = AggregateQuery.of(kind)
        return query.evaluate(self.values)
