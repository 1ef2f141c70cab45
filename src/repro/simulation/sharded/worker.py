"""The per-shard execution lane and worker-process entry point.

One :class:`_ShardLane` drives one shard's slice of a run.  The body of
an instant, the in-flight batch and timer calendar, the bulk accounting
and the WILDFIRE batch kernel are the shared tick-lane skeleton's
(:mod:`repro.simulation.vector_lane`); this module adds what a
partitioned run needs on top: the own-clock driver that applies the
failure plan between instants (shards advance in lockstep, so no
calendar steps them), canonical keys for the records a shard emits, the
epoch barriers that rank and exchange them, the RNG tape that makes
activation draws identical to the spec engine no matter which shard a
host landed on, and the per-epoch timeline.  The barrier itself
(who talks to whom) is a callable the coordinator injects -- the same
lane runs in-process for ``--shards 1`` and inside a forked worker for
``K > 1``.

Determinism rests on two invariants, each enforced loudly:

* every record crossing an epoch barrier gets a canonical integer key
  (:meth:`_ShardLane.keyed_out`) and the exchange assigns dense global
  ranks by key order, so all shards agree on the spec FIFO order;
* activation RNG draws are recorded by the coordinator in global
  activation order and replayed here (:class:`_ReplayRng`); a draw of
  the wrong type or past the recorded tape means the content-independent
  activation pre-pass diverged from the run -- impossible by the
  Broadcast-first argument, so it raises.
"""

from __future__ import annotations

import gc
import marshal
import traceback
from bisect import bisect_left, bisect_right
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.protocols.wildfire import BROADCAST
from repro.simulation.vector_lane import _TickLane

__all__ = ["_ShardLane", "_RecordingRng", "_ReplayRng", "_worker_main"]


class _RecordingRng:
    """Wraps the shared run RNG, recording every tagged draw.

    Exposes exactly the two methods combiner ``initial`` hooks use; any
    other RNG method would make the pre-draw replay incomplete, so it is
    deliberately absent (an ``AttributeError`` is the fail-loud signal).
    """

    __slots__ = ("_rng", "draws")

    def __init__(self, rng) -> None:
        self._rng = rng
        self.draws: List[Tuple[str, Any]] = []

    def getrandbits(self, bits: int) -> int:
        value = self._rng.getrandbits(bits)
        self.draws.append(("g", value))
        return value

    def random(self) -> float:
        value = self._rng.random()
        self.draws.append(("r", value))
        return value


class _ReplayRng:
    """Replays a recorded draw tape; any divergence raises."""

    __slots__ = ("_draws", "_pos")

    def __init__(self, draws: Sequence[Tuple[str, Any]]) -> None:
        self._draws = draws
        self._pos = 0

    def _next(self, tag: str):
        try:
            recorded_tag, value = self._draws[self._pos]
        except IndexError:
            raise RuntimeError(
                "sharded lane: RNG replay tape exhausted (activation "
                "pre-pass diverged from the run)") from None
        if recorded_tag != tag:
            raise RuntimeError(
                f"sharded lane: RNG draw kind mismatch at position "
                f"{self._pos} (wanted {tag!r}, recorded {recorded_tag!r})")
        self._pos += 1
        return value

    def getrandbits(self, bits: int) -> int:
        return self._next("g")

    def random(self) -> float:
        return self._next("r")


class _ShardLane(_TickLane):
    """One shard's slice of one sharded-lane run.

    The :class:`~repro.simulation.vector_lane._TickLane` skeleton plus
    what only a partitioned run needs: ownership of hosts
    ``[bounds[shard], bounds[shard + 1])``, its own clock and failure
    plan (:meth:`run`), canonical keys for the records it emits
    (:meth:`keyed_out`), the injected epoch barrier, the RNG tape, its
    own tracer and the per-epoch timeline.
    """

    def __init__(self, engine, session, kernel, horizon: float,
                 fails: Sequence[Tuple[float, int]], shard: int,
                 bounds: Sequence[int], act_rank: Sequence[Optional[int]],
                 barrier: Callable[["_ShardLane", float], Tuple[list, int]],
                 tracer=None, wall_base: float = 0.0) -> None:
        super().__init__(engine, session, kernel,
                         lo=bounds[shard], hi=bounds[shard + 1])
        #: Last query-local instant whose emissions are still filed.
        self.horizon = horizon
        #: The run's whole failure plan (:func:`~.coordinator.failure_plan`),
        #: which every shard applies to its own network, so alive bitmaps
        #: agree at every instant.
        self.fails = fails
        self._fail_index = 0
        self.clock = engine.clock
        self.shard = shard
        self.act_rank = act_rank
        #: Who talks to whom at an epoch boundary: ``local_exchange`` in
        #: process, a pipe exchange inside a forked worker.
        self.barrier = barrier
        # Canonical-key arithmetic base: host ids, per-record sequence
        # numbers and activation ranks are all < n + 1.
        self._nh1 = self.num_hosts + 1
        #: Phase separator for this instant's canonical keys (shared by
        #: all shards: ``max(num_hosts, records this instant) + 1``).
        self.rank_bound = self._nh1
        self._saved_rng: Optional[tuple] = None
        # Per-shard observability, surfaced via result.extra["sharded"].
        self.epochs = 0
        self.barrier_wait = 0.0
        self.cross_records_in = 0
        self.cross_bytes_in = 0
        self.max_epoch_records = 0
        self.queue_depth_peak = 0
        #: This worker's own tracer (a fresh per-process RingTracer, or
        #: None).  Hot paths guard every hook with one pointer check --
        #: the spec engine's zero-cost-when-disabled contract, per shard.
        self.tracer = tracer
        #: Wall-clock origin shared by all shards (the coordinator's
        #: pre-fork ``perf_counter()``; CLOCK_MONOTONIC survives fork).
        self.wall_base = wall_base
        #: Per-epoch ``(epoch, t, wall_start, exchange_s, compute_s,
        #: barrier_wait_s, cross_records, queue_depth)`` samples.
        self.timeline: List[tuple] = []
        self._epoch_open: tuple = ()

    # ------------------------------------------------------------------
    # Canonical keys
    # ------------------------------------------------------------------
    def keyed_out(self) -> Tuple[List[int], List[tuple]]:
        """Take this epoch's emissions with their canonical integer keys.

        A key is a pure function of content-independent quantities,
        identical on every shard count, so sorting the union by key
        reproduces the spec loop's global FIFO order.  Phase 0: a
        Broadcast is keyed by its sender's global activation rank
        (broadcasts of one instant are emitted in activation order).
        Phase 1: a flush emission is keyed
        ``((rank_bound + causing rank) * nh1 + host) * nh1 + seq`` --
        ``rank_bound`` places it after every Broadcast of the instant,
        and ``(rank, host, seq)`` orders the emissions as the spec's
        single global timer bucket would (a host flushes once per
        instant, so equal bases are one flush's unicast replies).
        Emission order is key order within a shard (deliveries are
        processed in rank order), so nothing is sorted here; an
        inversion raises.
        """
        out = self.out_records
        self.out_records = []
        nh1 = self._nh1
        nh1_sq = nh1 * nh1
        act_rank = self.act_rank
        rank_bound = self.rank_bound
        keys: List[int] = []
        previous = last_base = seq = -1
        for rank, sender, _dests, kind, _agg, _dist, _depth in out:
            if kind == BROADCAST:
                key = act_rank[sender]
                if key is None:
                    raise RuntimeError(
                        "sharded lane: broadcast from a host the "
                        "activation pre-pass never ranked")
                key *= nh1_sq
            else:
                base = ((rank_bound + rank) * nh1 + sender) * nh1
                seq = seq + 1 if base == last_base else 0
                last_base = base
                key = base + seq
            if key <= previous:
                raise RuntimeError(
                    "sharded lane: emissions left canonical key order")
            keys.append(key)
            previous = key
        return keys, out

    # ------------------------------------------------------------------
    # RNG replay
    # ------------------------------------------------------------------
    def install_replay_rng(self, draws: Sequence[tuple]) -> None:
        """Swap the run RNG, on the one run record every host shares,
        for a replay of this shard's tape (a shard that owns no host
        activates none and swaps nothing)."""
        if self.lo < self.hi:
            run = self.hosts[self.lo].run
            self._saved_rng = (run, run.rng)
            run.rng = _ReplayRng(draws)

    def restore_rng(self) -> None:
        """Undo :meth:`install_replay_rng` (in-process ``K=1`` runs only;
        forked workers die with their copies)."""
        if self._saved_rng is not None:
            run, rng = self._saved_rng
            run.rng = rng
            self._saved_rng = None

    # ------------------------------------------------------------------
    # The own-clock driver
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drive the shard on its own clock and failure plan: the shards
        advance in lockstep, so none of them is stepped from a calendar.

        Instant ordering matches the spec calendar exactly: query start
        (QUERY_START outranks FAIL at time 0), then failures up to each
        boundary, then the instant (:meth:`step`), then failures at the
        instant itself (FAIL has the lowest calendar priority).  Ends
        when nothing is pending or the next instant would pass the
        horizon; failures scheduled after that still happen, as the spec
        loop drains them.
        """
        horizon = self.horizon
        clock = self.clock
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t_next = self.start()
            self._apply_fails(0.0, inclusive=True)
            while t_next <= horizon:
                self._apply_fails(t_next, inclusive=False)
                clock._now = t = t_next
                t_next = self.step()
                self._apply_fails(t, inclusive=True)
            self._apply_fails(horizon, inclusive=True)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _apply_fails(self, limit: float, inclusive: bool) -> None:
        """Apply the scheduled failures before (or through) ``limit``."""
        fails = self.fails
        index = self._fail_index
        while index < len(fails):
            time, host = fails[index]
            if time > limit or (time == limit and not inclusive):
                break
            index += 1
            self.clock._now = time
            if not self.alive_bytes[host]:
                continue
            self.network.fail_host(host, time)
            if self.tracer is not None and self.lo <= host < self.hi:
                # Only the owning shard records the churn event: every
                # shard replays the full schedule, and one copy per shard
                # would break a merged trace's exact counts.
                self.tracer.fail(time, host)
            self.hosts[host].on_fail(time)
        self._fail_index = index

    # ------------------------------------------------------------------
    # Epoch hooks of the instant loop
    # ------------------------------------------------------------------
    def exchange(self, t_next: float, sent_at: float) -> None:
        """Meet the other shards at the epoch barrier and file this
        shard's slice of what lands at ``t_next`` -- an empty slice too
        while anything is in flight run-wide, so every shard keeps
        meeting the barrier until all can stop together.  Nothing lands
        past the horizon: the run stops first, so no shard meets the
        barrier for it.

        Timeline instrumentation is always on: three ``perf_counter()``
        calls and one tuple per epoch (epochs number in the tens to
        hundreds), invisible next to one barrier's pipe round-trip.
        """
        if t_next > self.horizon:
            return
        depth_now = len(self.out_records)
        if depth_now > self.queue_depth_peak:
            self.queue_depth_peak = depth_now
        wall_start = perf_counter()
        barrier_before = self.barrier_wait
        cross_before = self.cross_records_in
        entries, total = self.barrier(self, t_next)
        self._epoch_open = (wall_start, perf_counter(), barrier_before,
                            cross_before, depth_now, total)
        self.rank_bound = (total if total > self.num_hosts
                           else self.num_hosts) + 1
        if total:
            self.in_flight = (t_next, entries, sent_at)

    def end_instant(self, t: float) -> None:
        (wall_start, wall_mid, barrier_before, cross_before, depth_now,
         total) = self._epoch_open
        self.epochs += 1
        if total > self.max_epoch_records:
            self.max_epoch_records = total
        self.timeline.append((
            self.epochs, t, wall_start - self.wall_base,
            wall_mid - wall_start, perf_counter() - wall_mid,
            self.barrier_wait - barrier_before,
            self.cross_records_in - cross_before, depth_now))

    # ------------------------------------------------------------------
    # Result shipping
    # ------------------------------------------------------------------
    def collect_result(self) -> Dict[str, Any]:
        qh = self.querying_host
        result = self.accounting()
        result.update({
            "shard": self.shard,
            "finished_at": self.clock.now,
            "metrics": {
                "epochs": self.epochs,
                "barrier_wait_s": round(self.barrier_wait, 6),
                "cross_records_in": self.cross_records_in,
                "cross_bytes_in": self.cross_bytes_in,
                "max_epoch_records": self.max_epoch_records,
                "queue_depth_peak": self.queue_depth_peak,
            },
            "timeline": [
                {"shard": self.shard, "epoch": epoch, "t": t,
                 "wall_start": round(wall_start, 6),
                 "exchange_s": round(exchange_s, 6),
                 "compute_s": round(compute_s, 6),
                 "barrier_wait_s": round(barrier_s, 6),
                 "cross_records": cross, "queue_depth": depth}
                for (epoch, t, wall_start, exchange_s, compute_s,
                     barrier_s, cross, depth) in self.timeline
            ],
        })
        tracer = self.tracer
        if tracer is not None:
            # Raw ring tuples plus exact counts: everything the parent's
            # RingTracer.ingest_process needs, all pickle-safe scalars.
            result["trace"] = {"records": tracer.raw_records(),
                               "counts": dict(tracer.counts)}
        if self.lo <= qh < self.hi:
            result["has_value"] = True
            result["value"] = self.hosts[qh].local_result()
        return result


# ----------------------------------------------------------------------
# Epoch exchanges
# ----------------------------------------------------------------------
def local_exchange(lane: _ShardLane, t_next: float) -> Tuple[list, int]:
    """The ``K=1`` barrier: rank this shard's own records canonically."""
    _keys, out = lane.keyed_out()
    entries = [(rank,) + record[1:] for rank, record in enumerate(out)]
    return entries, len(out)


def split_by_shard(records: List[tuple], bounds: Sequence[int],
                   shards: int) -> List[List[tuple]]:
    """Split each record's destination list by owning shard.

    Destinations ascend within a record, so each record contributes one
    contiguous slice per shard; the common whole-record-in-one-shard
    case is detected with two bisections and no copying.
    """
    per_peer: List[List[tuple]] = [[] for _ in range(shards)]
    for record in records:
        dests = record[2]
        first = bisect_right(bounds, dests[0]) - 1
        if dests[-1] < bounds[first + 1]:
            per_peer[first].append(record)
            continue
        key, sender, _, kind, agg, dist, depth = record
        start = 0
        num_dests = len(dests)
        while start < num_dests:
            shard = bisect_right(bounds, dests[start]) - 1
            end = bisect_left(dests, bounds[shard + 1], start, num_dests)
            per_peer[shard].append(
                (key, sender, dests[start:end], kind, agg, dist, depth))
            start = end
    return per_peer


def make_pipe_exchange(shard: int, shards: int, bounds: Sequence[int],
                       senders: Sequence[Any],
                       receivers: Sequence[Any]) -> Callable:
    """Build the multi-process barrier for worker ``shard``.

    ``senders[j]`` / ``receivers[j]`` are this worker's pipe ends to and
    from peer ``j``.  Each barrier runs three sub-phases:

    1. *rank request*: every spoke sends worker 0 its sorted key list.
    2. *rank reply*: worker 0 concatenates the K sorted lists, sorts the
       union once, assigns each sender the dense global ranks of its
       records (one monotone bisect pass per sender) and ships each
       sender its rank list.  One global sort and one full-key
       deserialisation per epoch, instead of one per worker -- on a
       shared core the broadcast scheme's duplicated ranking work is
       pure wall-clock.
    3. *content*: each sender re-keys its records to their global ranks
       and splits them by destination shard, so multicast slices that
       land on different shards carry the shared rank with no
       receiver-side lookup.  Blobs are exchanged pairwise in ascending
       peer order, the lower id sending first: worker 0's pair is every
       peer's first pair, so by induction no two workers ever block
       sending to each other even when a blob exceeds the pipe buffer.

    The hub phases are deadlock-free as well: spokes only send to
    worker 0 and then block receiving from it, while worker 0 receives
    from every spoke before it sends anything back.
    """
    hub = shard == 0

    def exchange(lane: _ShardLane, t_next: float) -> Tuple[list, int]:
        keys, out = lane.keyed_out()

        barrier_start = perf_counter()
        if hub:
            key_lists: List[list] = [keys]
            for peer in range(1, shards):
                blob = receivers[peer].recv_bytes()
                lane.cross_bytes_in += len(blob)
                key_lists.append(marshal.loads(blob))
            all_keys: List[int] = []
            for peer_keys in key_lists:
                all_keys.extend(peer_keys)
            total = len(all_keys)
            all_keys.sort()
            rank_lists: List[List[int]] = []
            for peer_keys in key_lists:
                rank = 0
                ranks: List[int] = []
                append = ranks.append
                for key in peer_keys:
                    # Keys are globally unique and every sender's list
                    # is sorted, so each rank is one monotone bisect; a
                    # mismatch means the canonical order broke -- fail
                    # loud rather than deliver out of order.
                    rank = bisect_left(all_keys, key, rank)
                    if rank >= total or all_keys[rank] != key:
                        raise RuntimeError(
                            "sharded lane: record key missing from the "
                            "global key order")
                    append(rank)
                rank_lists.append(ranks)
            for peer in range(1, shards):
                senders[peer].send_bytes(
                    marshal.dumps((total, rank_lists[peer])))
            ranks = rank_lists[0]
        else:
            senders[0].send_bytes(marshal.dumps(keys))
            blob = receivers[0].recv_bytes()
            lane.cross_bytes_in += len(blob)
            total, ranks = marshal.loads(blob)
        lane.barrier_wait += perf_counter() - barrier_start

        if total == 0:
            return [], 0
        if len(ranks) != len(out):
            raise RuntimeError(
                "sharded lane: rank reply does not align with the "
                "outgoing records")
        ranked = [(rank,) + record[1:] for rank, record in zip(ranks, out)]
        per_peer = split_by_shard(ranked, bounds, shards)
        entries = per_peer[shard]
        barrier_start = perf_counter()
        for peer in range(shards):
            if peer == shard:
                continue
            blob = marshal.dumps(per_peer[peer])
            if shard < peer:
                senders[peer].send_bytes(blob)
                incoming = receivers[peer].recv_bytes()
            else:
                incoming = receivers[peer].recv_bytes()
                senders[peer].send_bytes(blob)
            lane.cross_bytes_in += len(incoming)
            peer_records = marshal.loads(incoming)
            entries.extend(peer_records)
            lane.cross_records_in += len(peer_records)
        lane.barrier_wait += perf_counter() - barrier_start
        entries.sort(key=itemgetter(0))
        return entries, total

    return exchange


def _worker_main(simulator, kernel, shard: int, shards: int,
                 bounds: Sequence[int], act_rank: Sequence[Optional[int]],
                 draws: Sequence[tuple], fails: Sequence[Tuple[float, int]],
                 horizon: float, trace_conf, wall_base: float,
                 senders, receivers, result_conn) -> None:
    """Forked worker body: run one shard, ship one result dict.

    ``trace_conf`` is ``(capacity, sampling)`` when the run is traced:
    the worker binds a *fresh* RingTracer mirroring the parent's
    configuration (never the inherited parent ring, which may hold a
    previous run's records) and ships its raw tuples in the result.
    """
    try:
        tracer = None
        if trace_conf is not None:
            from repro.obs.trace import RingTracer

            capacity, sampling = trace_conf
            tracer = RingTracer(capacity, sampling)
        lane = _ShardLane(
            simulator, simulator.session, kernel, horizon, fails, shard,
            bounds, act_rank,
            make_pipe_exchange(shard, shards, bounds, senders, receivers),
            tracer=tracer, wall_base=wall_base)
        lane.install_replay_rng(draws)
        lane.run()
        result_conn.send(lane.collect_result())
    except BaseException:
        try:
            result_conn.send(
                {"shard": shard, "error": traceback.format_exc()})
        except Exception:
            pass
    finally:
        result_conn.close()
