"""Beyond-paper scale benchmarks for the simulation kernel.

The paper's experiments top out at the ~39k-host Gnutella crawl; the
batched-ring kernel opens network sizes an order of magnitude past that,
and the packed cost sink keeps accounting memory bounded all the way to
million-host runs.
:func:`run_scale_benchmark` runs one protocol/topology/aggregate cell at an
arbitrary host count and reports wall-clock throughput alongside the
paper's cost measures, the process's peak RSS, and the accounting
footprint, so kernel regressions show up as a number, not a feeling.
The ``repro bench`` CLI and ``benchmarks/test_kernel_scale.py`` both
route through here.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter
from typing import Any, Dict, Optional, Sequence

from repro.experiments.query_mix import run_query_mix
from repro.obs.stream import status_mb
from repro.protocols.base import protocol_from_spec, run_protocol
from repro.simulation.vector_lane import DEFAULT_LANE
from repro.topology import Topology, topology_from_spec


def peak_rss_mb() -> Optional[float]:
    """The process's peak resident set size in MiB (None if unavailable).

    On Linux this reads ``VmHWM`` from ``/proc/self/status`` rather than
    ``getrusage``'s ``ru_maxrss``: the kernel does *not* reset
    ``ru_maxrss`` across ``execve``, so a benchmark subprocess spawned
    from a large parent (e.g. the perf-smoke pytest session) would
    inherit the parent's high-water mark and report it as its own.
    ``VmHWM`` lives on the fresh ``mm`` and measures only this process.
    """
    peak = status_mb("VmHWM")
    if peak is not None:
        return peak
    try:
        import resource
    except ImportError:  # pragma: no cover - non-unix platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux/BSD but *bytes* on macOS.
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(peak / divisor, 1)


def run_scale_benchmark(
    num_hosts: int,
    topology: str = "gnutella",
    protocol: str = "wildfire",
    aggregate: str = "count",
    seed: int = 0,
    repetitions: int = 8,
    values: Optional[Sequence[float]] = None,
    prebuilt_topology: Optional[Topology] = None,
    delay: str = "fixed",
    tracer=None,
    lane: str = DEFAULT_LANE,
    shards: int = 1,
) -> Dict[str, Any]:
    """Run one protocol once at ``num_hosts`` scale and measure it.

    Returns one table row with the wall-clock split (topology generation
    vs. simulation), the three paper cost measures, the kernel throughput
    in delivered messages per second, the process's peak RSS and the
    accounting structures' footprint.

    Args:
        num_hosts: network size (the paper stops at ~39k; a
            1,000,000-host run completes).
        topology: a :func:`~repro.topology.topology_from_spec` name
            (``gnutella``, ``power-law``, ``grid``, ``random``, ...).
        protocol: ``wildfire``, ``spanning-tree`` or ``dagK``.
        aggregate: query kind (``count``, ``sum``, ``min``, ...).
        seed: seed for topology generation, values and the protocol run.
        repetitions: FM repetitions for sketch-based combiners.
        values: per-host attribute values (default: uniform floats in
            [0, 100) drawn from ``seed``).
        prebuilt_topology: reuse an existing topology (e.g. to time several
            protocols on one graph without regenerating it).
        delay: link-delay model spec (``"fixed"``, ``"uniform"``,
            ``"per_edge"``, ``"heavy_tail"``, with optional ``:``
            arguments).
        tracer: structured trace sink threaded into the simulation; the
            benchmark's own phases (topology generation, simulation)
            land in the same trace as wall-clock ``phase`` spans.
        lane: kernel lane, ``"vector"`` (the per-tick batch lane, the
            default), ``"sharded"`` (the epoch-synchronous multiprocess
            lane) or ``"python"`` (the executable spec); the tick lanes
            fall back to the spec loop when their gate refuses the run.
        shards: worker-process count for ``lane="sharded"`` (ignored by
            the other lanes beyond validation).
    """
    if num_hosts < 2:
        raise ValueError("scale benchmarks need at least 2 hosts")

    origin = perf_counter()
    if prebuilt_topology is not None:
        topo = prebuilt_topology
    else:
        topo = topology_from_spec(topology, num_hosts, seed)
    gen_seconds = perf_counter() - origin
    if tracer is not None:
        tracer.phase("generate_topology", 0.0, gen_seconds,
                     detail=num_hosts)

    if values is None:
        rng = random.Random(seed)
        values = [rng.random() * 100.0 for _ in range(topo.num_hosts)]

    start = perf_counter()
    result = run_protocol(
        protocol_from_spec(protocol),
        topo,
        values,
        aggregate,
        querying_host=0,
        seed=seed,
        repetitions=repetitions,
        delay=delay,
        tracer=tracer,
        lane=lane,
        shards=shards,
    )
    run_seconds = perf_counter() - start
    if tracer is not None:
        tracer.phase("simulate", start - origin, run_seconds,
                     detail=num_hosts)

    messages = result.costs.messages_sent
    row = {
        "hosts": topo.num_hosts,
        "topology": topology if prebuilt_topology is None else topo.name,
        "protocol": protocol,
        "aggregate": aggregate,
        "seed": seed,
        "delay": delay,
        "lane": lane,
        # A tick lane's gate may refuse the run: the row records what
        # was *asked for*, what *ran*, and the reason when they differ.
        "lane_used": result.lane_used,
        "fallback_reason": result.fallback_reason,
        "shards": shards,
        "value": result.value,
        "d_hat": result.d_hat,
        "messages": messages,
        "computation_cost": result.costs.computation_cost,
        "time_cost": result.costs.time_cost,
        "gen_seconds": round(gen_seconds, 4),
        "run_seconds": round(run_seconds, 4),
        "messages_per_second": (
            round(messages / run_seconds) if run_seconds > 0 else 0
        ),
        "peak_rss_mb": peak_rss_mb(),
        "accounting_bytes": result.costs.footprint_bytes(),
    }
    sharded_info = (result.extra or {}).get("sharded")
    if sharded_info is not None:
        # The coordinator's per-shard block (worker metrics + the
        # epoch/barrier timeline) rides along verbatim so ``repro obs
        # report`` can read straggler attribution straight off a saved
        # bench artifact.
        row["sharded"] = sharded_info
    return row


def run_service_benchmark(
    num_hosts: int,
    qps: float = 1.0,
    duration: float = 20.0,
    topology: str = "gnutella",
    seed: int = 0,
    delay: Optional[str] = None,
    tracer=None,
    **mix_overrides,
) -> Dict[str, Any]:
    """Measure concurrent-query throughput of the multi-tenant service.

    Runs one Poisson query mix (WILDFIRE/tree/DAG, see
    :mod:`repro.workloads.query_mix`) over a shared ``num_hosts``-host
    network and reports queries answered, wall-clock queries/sec and
    message throughput alongside the determinism digest -- the service
    counterpart of :func:`run_scale_benchmark`'s single-query row.
    """
    result = run_query_mix(
        num_hosts=num_hosts, topology=topology, qps=qps,
        duration=duration, seed=seed, delay=delay, tracer=tracer,
        **mix_overrides)
    summary = result["summary"]
    elapsed = summary["elapsed_seconds"]
    return {
        "hosts": summary["hosts"],
        "topology": summary["topology"],
        "qps": summary["qps"],
        "duration": summary["duration"],
        "seed": seed,
        "queries": summary["queries"],
        "answered": summary["answered"],
        "failed": summary["failed"],
        "run_seconds": elapsed,
        "queries_per_second": summary["queries_per_second"],
        "messages": summary["messages_sent"],
        "messages_per_second": (
            round(summary["messages_sent"] / elapsed) if elapsed > 0 else 0
        ),
        "peak_rss_mb": peak_rss_mb(),
        "determinism_digest": summary["determinism_digest"],
    }
