"""The epoch-synchronous sharded execution lane (``--lane sharded``).

Partitions the host range across ``K`` worker processes that advance in
lockstep ``delta``-wide epochs and exchange canonically keyed message
batches at each barrier -- bit-identical (value, cost fingerprint,
declaration time) to the single-process engine at any shard count,
including ``K=1``.  See :mod:`.coordinator` for the engagement gate and
protocol and :mod:`.worker` for the per-shard lane; the body of an
instant and the WILDFIRE batch kernel are the ones the vector lane runs
(:mod:`repro.simulation.vector_lane`).  Unlike the vector lane, which
the engine's calendar steps, the shards run on their own clock and
apply the failure plan themselves, so a sharded run is one-shot: it
runs to its horizon in one ``Simulator.run`` call.

Like the vector lane, engagement is conservative and observable:
:func:`maybe_run` returns the reason it declined beside the result, and
``Simulator.run`` records it on ``SimulationResult.fallback_reason``.
"""

from __future__ import annotations

__all__ = ["maybe_run", "pool_context"]


def pool_context():
    """The ``multiprocessing`` context every worker pool of the package is
    forked from (shard workers here and ``repro run``'s figure-trial
    pool): ``fork`` where the platform has it -- fast, and workers
    inherit the loaded modules and the live simulator -- else the
    platform default.  ``multiprocessing`` is imported here, so
    a run that never forks does not load it."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def maybe_run(simulator, until):
    """Run the simulation on the sharded lane to ``until`` in one go:
    ``(result, None)``, or ``(None, reason)`` to fall back to the spec
    loop (consuming nothing)."""
    from repro.simulation.sharded.coordinator import run_sharded

    return run_sharded(simulator, simulator._bound(until))
