"""Open-world query workloads for the multi-tenant service.

The paper's motivating scenario is a network where many users issue
aggregate queries concurrently and continuously.  This module generates
that load as an explicit, reproducible submission schedule:

* **arrivals** follow a Poisson process of configurable rate (``qps``)
  over the service interval ``[0, duration)``;
* each arrival draws a **protocol** (WILDFIRE / tree / DAG mix) and an
  **aggregate kind** from configurable weight tables, and a querying
  host uniformly at random (tenants query from wherever they sit);
* a configurable fraction of arrivals are **continuous** streams: one
  user registering a periodic query, expanded into a chain of report
  submissions separated by the period plus a configurable **think
  time** (the closed-loop pause between reading one report and asking
  for the next);
* the whole schedule is a pure function of ``(config, seed)`` -- the
  generator returns plain data, so two runs of the same mix submit the
  identical sequence and the service's determinism contract makes the
  results bit-identical too.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional

__all__ = [
    "QuerySubmission",
    "QueryMixConfig",
    "generate_query_mix",
    "duplicate_heavy_mix",
    "adversarial_overload_mix",
    "DEFAULT_PROTOCOL_MIX",
    "DEFAULT_AGGREGATE_MIX",
]

#: Default protocol weights: the valid protocol shares the substrate with
#: the cheaper best-effort tree/DAG baselines, mirroring a population
#: where most tenants accept best-effort answers and some pay the price
#: of validity.
DEFAULT_PROTOCOL_MIX: Dict[str, float] = {
    "wildfire": 0.25,
    "spanning-tree": 0.5,
    "dag2": 0.25,
}

#: Default aggregate weights over the paper's query kinds.
DEFAULT_AGGREGATE_MIX: Dict[str, float] = {
    "count": 0.4,
    "sum": 0.2,
    "min": 0.2,
    "max": 0.2,
}


class QuerySubmission(NamedTuple):
    """One scheduled query submission.

    Attributes:
        time: engine time at which the query launches.
        protocol: protocol spec string (``wildfire`` / ``spanning-tree``
            / ``dagK``).
        aggregate: query kind (``count`` / ``sum`` / ``min`` / ``max``).
        querying_host: host the query is issued at.
        stream: user-stream id; reports of one continuous query share it.
        report_index: 0 for one-shot queries and the first report of a
            stream; consecutive for follow-on reports.
        continuous: whether this submission belongs to a periodic stream.
    """

    time: float
    protocol: str
    aggregate: str
    querying_host: int
    stream: int
    report_index: int = 0
    continuous: bool = False


class QueryMixConfig:
    """Parameters of one open-world query mix.

    Attributes:
        qps: mean arrival rate of user streams (Poisson).
        duration: arrival window ``[0, duration)``; the service keeps
            running until the last launched query declares.
        protocol_mix: ``protocol spec -> weight`` (need not sum to 1).
        aggregate_mix: ``query kind -> weight``.
        continuous_fraction: probability that an arrival is a continuous
            stream rather than a one-shot query.
        period: gap between consecutive report launches of a continuous
            stream.
        reports: number of reports per continuous stream.
        think_time: extra closed-loop pause added between consecutive
            reports of one stream (0 = strictly periodic).
        max_queries: hard cap on the number of submissions (earliest
            kept); ``None`` = unbounded.
        hot_fraction: probability that an arrival is redirected to one
            of ``hot_targets`` pre-drawn (protocol, aggregate, host)
            triples -- the duplicate-heavy knob: redirected arrivals
            submit *identical* queries, which is what the shared-flood
            cache deduplicates.  0 (the default) leaves the schedule
            bit-identical to the pre-knob generator.
        hot_targets: size of the hot-triple pool.
        burst_every: inject a synchronised burst every this many
            simulated seconds (``None`` = no bursts) -- the adversarial
            overload knob: bursts arrive faster than any admission
            window can drain.
        burst_size: one-shot submissions per burst (drawn from the hot
            pool when one exists, else from the mixes).
    """

    __slots__ = ("qps", "duration", "protocol_mix", "aggregate_mix",
                 "continuous_fraction", "period", "reports", "think_time",
                 "max_queries", "hot_fraction", "hot_targets", "burst_every",
                 "burst_size")

    def __init__(self, qps: float = 1.0, duration: float = 60.0,
                 protocol_mix: Optional[Dict[str, float]] = None,
                 aggregate_mix: Optional[Dict[str, float]] = None,
                 continuous_fraction: float = 0.15, period: float = 10.0,
                 reports: int = 3, think_time: float = 0.0,
                 max_queries: Optional[int] = None,
                 hot_fraction: float = 0.0, hot_targets: int = 3,
                 burst_every: Optional[float] = None,
                 burst_size: int = 0) -> None:
        if qps <= 0:
            raise ValueError("qps must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if protocol_mix is None:
            protocol_mix = dict(DEFAULT_PROTOCOL_MIX)
        if aggregate_mix is None:
            aggregate_mix = dict(DEFAULT_AGGREGATE_MIX)
        if not protocol_mix:
            raise ValueError("protocol_mix cannot be empty")
        if not aggregate_mix:
            raise ValueError("aggregate_mix cannot be empty")
        if not 0.0 <= continuous_fraction <= 1.0:
            raise ValueError("continuous_fraction must be in [0, 1]")
        if period <= 0:
            raise ValueError("period must be positive")
        if reports < 1:
            raise ValueError("continuous streams need at least one report")
        if think_time < 0:
            raise ValueError("think_time cannot be negative")
        if max_queries is not None and max_queries < 1:
            raise ValueError("max_queries must be at least 1")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if hot_targets < 1:
            raise ValueError("hot_targets must be at least 1")
        if burst_every is not None:
            if burst_every <= 0:
                raise ValueError("burst_every must be positive")
            if burst_size < 1:
                raise ValueError("bursts need burst_size >= 1")
        self.qps = qps
        self.duration = duration
        self.protocol_mix = protocol_mix
        self.aggregate_mix = aggregate_mix
        self.continuous_fraction = continuous_fraction
        self.period = period
        self.reports = reports
        self.think_time = think_time
        self.max_queries = max_queries
        self.hot_fraction = hot_fraction
        self.hot_targets = hot_targets
        self.burst_every = burst_every
        self.burst_size = burst_size

    def replace(self, **changes) -> "QueryMixConfig":
        """A validated copy with ``changes`` applied to its fields."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return QueryMixConfig(**fields)


def duplicate_heavy_mix(**overrides) -> QueryMixConfig:
    """A mix dominated by identical WILDFIRE floods.

    Most arrivals are redirected to a two-triple hot pool, so the bulk
    of the load is the same expensive flood submitted again and again --
    the workload the shared-flood cache is built for, and the one the
    qps-vs-latency knee sweep measures.
    """
    config = dict(
        protocol_mix={"wildfire": 0.7, "spanning-tree": 0.2, "dag2": 0.1},
        aggregate_mix={"count": 0.5, "min": 0.3, "max": 0.2},
        continuous_fraction=0.05,
        hot_fraction=0.8,
        hot_targets=2,
    )
    config.update(overrides)
    return QueryMixConfig(**config)


def adversarial_overload_mix(**overrides) -> QueryMixConfig:
    """Synchronised bursts of hot queries on top of a Poisson base load.

    Every few seconds a burst of identical one-shot floods lands at one
    instant -- faster than any admission window can drain -- which is
    the workload the overload test matrix drives the shed/defer/degrade
    policies with.
    """
    config = dict(
        protocol_mix={"wildfire": 0.5, "spanning-tree": 0.35,
                      "dag2": 0.15},
        aggregate_mix={"count": 0.5, "min": 0.3, "max": 0.2},
        continuous_fraction=0.05,
        hot_fraction=0.5,
        hot_targets=2,
        burst_every=5.0,
        burst_size=12,
    )
    config.update(overrides)
    return QueryMixConfig(**config)


def _weighted_choice(rng: random.Random,
                     table: Dict[str, float]) -> str:
    # Sorted iteration keeps the draw independent of dict construction
    # order, so two configs with equal weights generate equal mixes.
    keys = sorted(table)
    total = float(sum(table[k] for k in keys))
    if total <= 0:
        raise ValueError("mix weights must sum to a positive value")
    pick = rng.random() * total
    acc = 0.0
    for key in keys:
        acc += table[key]
        if pick < acc:
            return key
    return keys[-1]


def generate_query_mix(
    num_hosts: int,
    config: Optional[QueryMixConfig] = None,
    seed: int = 0,
    **overrides,
) -> List[QuerySubmission]:
    """Generate the submission schedule of one open-world query mix.

    Args:
        num_hosts: number of hosts querying hosts are drawn from.
        config: mix parameters; keyword ``overrides`` build/replace one
            (``generate_query_mix(n, qps=5.0, duration=200.0)``).
        seed: RNG seed; the schedule is a pure function of
            ``(num_hosts, config, seed)``.

    Returns:
        Submissions sorted by launch time (ties keep arrival order).
    """
    if num_hosts < 1:
        raise ValueError("need at least one host to query from")
    if config is None:
        config = QueryMixConfig(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    rng = random.Random(f"{seed}:query-mix")
    # The hot/burst knobs draw from *separate* streams so schedules with
    # the knobs off stay bit-identical to the pre-knob generator (the
    # sharded drive and the goldens depend on that).
    hot_pool: List[tuple] = []
    hot_rng = None
    if config.hot_fraction > 0:
        hot_rng = random.Random(f"{seed}:query-mix:hot")
        hot_pool = [
            (_weighted_choice(hot_rng, config.protocol_mix),
             _weighted_choice(hot_rng, config.aggregate_mix),
             hot_rng.randrange(num_hosts))
            for _ in range(config.hot_targets)
        ]
    submissions: List[QuerySubmission] = []
    stream = 0
    now = rng.expovariate(config.qps)
    while now < config.duration:
        protocol = _weighted_choice(rng, config.protocol_mix)
        aggregate = _weighted_choice(rng, config.aggregate_mix)
        host = rng.randrange(num_hosts)
        continuous = rng.random() < config.continuous_fraction
        if hot_rng is not None and hot_rng.random() < config.hot_fraction:
            protocol, aggregate, host = hot_pool[
                hot_rng.randrange(len(hot_pool))]
        reports = config.reports if continuous else 1
        launch = now
        for index in range(reports):
            submissions.append(QuerySubmission(
                time=round(launch, 9),
                protocol=protocol,
                aggregate=aggregate,
                querying_host=host,
                stream=stream,
                report_index=index,
                continuous=continuous,
            ))
            launch += config.period + config.think_time
        stream += 1
        now += rng.expovariate(config.qps)
    if config.burst_every is not None:
        burst_rng = random.Random(f"{seed}:query-mix:burst")
        burst_time = config.burst_every
        while burst_time < config.duration:
            for _ in range(config.burst_size):
                if hot_pool:
                    protocol, aggregate, host = hot_pool[
                        burst_rng.randrange(len(hot_pool))]
                else:
                    protocol = _weighted_choice(burst_rng,
                                                config.protocol_mix)
                    aggregate = _weighted_choice(burst_rng,
                                                 config.aggregate_mix)
                    host = burst_rng.randrange(num_hosts)
                submissions.append(QuerySubmission(
                    time=round(burst_time, 9),
                    protocol=protocol,
                    aggregate=aggregate,
                    querying_host=host,
                    stream=stream,
                ))
                stream += 1
            burst_time += config.burst_every
    submissions.sort(key=lambda s: (s.time, s.stream, s.report_index))
    if config.max_queries is not None:
        submissions = submissions[:config.max_queries]
    return submissions
