"""The tick-lane skeleton, one per session, stepped by the event loop.

Under the fixed-delay model every send of instant ``t`` lands one
``delta`` later, so the spec engine's one-Python-iteration-per-message
drain can be replaced by *instant-at-a-time* processing.
:class:`_TickLane` is that replacement, once: the one flat list of
delivery records in flight, a timer calendar, the bulk cost counters,
and the body of an instant stated as one resumable step
(:meth:`_TickLane.step`: the instant's deliveries, then its timers, then
file what it emitted and return the next pending instant) that hands
each batch to the batch kernel the host class names
(:class:`~repro.protocols.wildfire.WildfireBatchKernel`,
:class:`~repro.protocols.dag.ConvergecastBatchKernel` for SPANNINGTREE
and DAG-k).  Per delivery this costs a couple of index operations and a
comparison instead of a calendar-queue round trip, a
:class:`~repro.simulation.messages.Message` allocation, a context rebind
and a method-dispatch chain; cost accounting is accumulated flat and
replayed into the stats sink in bulk (:func:`replay_accounting`).

A lane belongs to one :class:`~repro.simulation.engine.Session` -- its
host table, query id and querying host -- on one engine's network, and
works in the session's query-local time throughout.  It never orders
itself against anything else: the engine's calendar does, for a solo
run (the one-session case) exactly as for a service session.
:meth:`~repro.simulation.engine.EventEngine.start_query` runs the
lane's instant 0 and files one calendar entry per session instant, at
engine time ``t0 + v``; popping it runs :meth:`_TickLane.step`.  Failures,
query starts and retirement stay calendar events, ordered against the
step by the calendar's own priorities, so the rule of which messages a
host failing at ``t`` still handles is stated once
(``events._KIND_PRIORITY``); after the query start and each failure the
kernel's ``refresh_host`` re-mirrors the host it touched.  The sharded lane
(:mod:`repro.simulation.sharded`) is the one exception: its shards run
on their own clock, in lockstep, and apply the failure schedule
themselves.

The batch in flight reaches the kernel as an iterator that consumes it:
each record, and the target list it carries, is freed once delivered
rather than when the instant ends, while the next batch is being built.

The timer calendar is a dict of per-instant registration lists keyed by
the float the spec host files its timer at (at most ``2 * d_hat`` keys:
one per tree depth).  A WILDFIRE flush registers ``(host_id,
chain_depth, causing_rank)`` at ``now`` and fires in the instant that
registered it; a convergecast report registers the bare host id at the
deadline :meth:`~repro.protocols.dag.DagHost.adopt` returns.  Every
instant is ``k * delta`` from :mod:`~repro.simulation.clock` -- no two
sit an ulp apart -- so whatever is in flight is one batch, the next
instant is the earlier of its landing and the earliest timer key, and a
lane is done when nothing is in flight and no timer is pending.

Used as is, the skeleton is the vector lane: one process owns every
host, :meth:`_TickLane.exchange` files the list just emitted (append
order already is the spec loop's global FIFO order) and activations draw
the live run RNG in place.  The sharded lane subclasses it with what
genuinely differs across processes -- host-range ownership, canonical
keys and the rank exchange, an RNG tape, per-worker tracing, the epoch
timeline, and the own-clock driver with its failure plan.

The lanes are locked bit-identical to the spec path by construction plus
harness:

* deliveries are processed in the exact global FIFO order of the spec
  loop (records in send order, destinations ascending within a record,
  instants in time order, deliveries before timers before failures),
  and every inlined branch reads live host state, so the sequence of
  state transitions is the spec loop's, step for step;
* the query start executes the unmodified ``on_query_start`` hook
  against a real :class:`~repro.simulation.host.HostContext`, and
  activations call the real ``combiner.initial``, so RNG consumption
  order, send order and declaration times are those of the spec engine;
* both cost-accounting sides -- per-(tick, kind) send totals and
  per-host receive counts, all commutative sums -- are replayed into the
  same :class:`~repro.simulation.stats.CostAccounting`, so
  ``costs.fingerprint()`` matches;
* the golden matrix and the differential axes in
  ``tests/integration/test_protocol_matrix.py`` pin value, fingerprint
  and declaration time across topologies, churn and combiners, and
  ``tests/service/test_service.py`` pins a service session to its solo
  spec run across launch offsets, ``delta`` and failure placements;
  ``tests/integration/test_time_laws.py`` holds both to the spec loop
  when a run is sliced into several ``run(until=...)`` calls.

Engagement is the gate's decision, not the caller's (:func:`plan_run`):
``"vector"`` is :data:`DEFAULT_LANE`, and a lane runs only when delay is
fixed, churn has no joins, nothing was queued before a solo run's first
``run()`` and the host class names a batch kernel that accepts the host
table; the sharded lane additionally refuses any kernel but WILDFIRE's
and any tracer but the exact ``RingTracer``.  The gate reads the query's
inputs, never the queue's contents.  What it refuses is also what lets
a lane trust its own sends: with no joins, structural adjacency is
fixed, so a unicast back to a former sender (WILDFIRE's catch-up reply,
a DAG Report to a parent) needs only both ends alive, which each kernel
reads from its own liveness source, and no ``has_alive_edge`` lookup.
Every send after the query start is filed by the kernel itself: the
record appended to :attr:`_TickLane.out_records`, one tally per
``(instant, kind)`` added to ``send_acc`` and, under a tracer, the
spec loop's ``send`` record (dest -1 and the width as the count for a
multicast).
A solo run consults the gate before the queue is primed, then primes it
once either way (churn schedule, query start): the query start runs the
spec hook of a refused run and launches the lane of an admitted one, and
``Simulator.run`` records the reason on
``SimulationResult.fallback_reason`` and ``lane_used``.  The service
consults it at each session's launch and records the same two facts on
the session's row; a refused session runs the spec loop beside the
admitted ones.  Traced or not, a configuration has one execution: the
lane reports to the engine's tracer through the same hooks, at the same
points, with the same floats and under the session's query id, as the
spec loop does.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.simulation.clock import instant_after
from repro.simulation.host import HostContext

#: Lane names understood by the engine and every CLI/config surface.
LANES = ("python", "vector", "sharded")

#: The lane every surface asks for unless told otherwise.  Asking is not
#: engaging: :func:`plan_run` admits the runs the batch kernel provably
#: reproduces and sends every other one to the spec loop with the reason
#: on the result, so the default costs an unsupported run one gate check.
#: ``"python"`` stays the explicit request for the executable spec.
DEFAULT_LANE = "vector"

_NEVER = float("inf")

#: ``_TickLane.in_flight`` with nothing in flight: no records, landing never.
_NOTHING = (_NEVER, (), 0.0)

#: Ends the consuming iterator :meth:`_TickLane.step` hands a kernel.
_DELIVERED = object()


def validate_lane(lane: str) -> str:
    """Check that ``lane`` names a known kernel lane; returns it."""
    if lane not in LANES:
        raise ValueError(
            f"unknown kernel lane {lane!r}; known: {', '.join(LANES)}"
        )
    return lane


def plan_run(engine, session, lane_reason: Optional[str] = None,
             kernels: Optional[tuple] = None):
    """The engagement gate every tick lane shares.

    A pure function of what the query was given: returns
    ``(kernel, None)`` when ``session`` can be driven instant-at-a-time
    on ``engine``'s network, or ``(None, reason)`` -- and then nothing
    was consumed because nothing was touched.  ``lane_reason`` is the
    verdict of the calling lane's own checks (what forking and the trace
    merge need); ``None`` = passed.  An engine that has not primed its
    calendar yet (a solo run's first ``run()``, vector or sharded: the
    gate is asked before the churn schedule and the query start are
    filed) must hold an empty queue: anything a driver pushed before
    then (timers, custom events, external deliveries) belongs to a
    protocol the lanes do not know about.  On a running calendar (the
    query service) whatever else is filed there keeps its place.  The
    kernel is the one the querying host's class names as
    ``batch_kernel``; whether it accepts this host table is its
    ``try_build``'s call, made over the network's alive bitmap (a kernel
    that mirrors liveness starts from it).  ``kernels`` is the sharded
    lane's restriction to the kernel classes it can drive (``None`` =
    any).
    """
    if session.sample is not None:
        return None, "variable delay model"
    if lane_reason is not None:
        return None, lane_reason
    if engine._churn.joins:
        return None, "join churn scheduled"
    if not engine._churn_scheduled and len(engine._queue) != 0:
        return None, "unexpected pre-queued events"
    hosts = session.hosts
    querying_host = session.querying_host
    kernel_class = getattr(type(hosts[querying_host]), "batch_kernel", None)
    kernel = None
    if kernel_class is not None and (kernels is None
                                     or kernel_class in kernels):
        kernel = kernel_class.try_build(
            hosts, engine.network._alive, querying_host)
    if kernel is None:
        return None, "unsupported protocol hosts or combiner"
    return kernel, None


def maybe_run(simulator, until: Optional[float]):
    """Run the simulation on the vector lane.

    Returns ``(result, None)`` on engagement or ``(None, reason)`` on
    fallback.  Called by :meth:`Simulator.run` on its first call, before
    anything is queued; a fallback consumes nothing.  An engaged run is
    primed like a spec run, its query start launching the lane, and is
    then drained to ``until`` by ``Simulator.run`` itself, which finds
    it primed -- as a later call does, resuming the calendar.
    """
    kernel, reason = plan_run(simulator, simulator.session)
    if reason is not None:
        return None, reason
    simulator._prime(kernel)
    return simulator.run(until), None


class _TickLane:
    """One session's engaged tick lane over hosts ``[lo, hi)`` (see the
    module docstring); the whole host range unless a subclass narrows it.

    It keeps what it needs of the engine and the session by value -- the
    network, the tracer, the host table, the query id -- and no
    reference to either, so a live lane closes no cycle through the
    session that holds it.
    """

    def __init__(self, engine, session, kernel, lo: int = 0,
                 hi: Optional[int] = None) -> None:
        self.kernel = kernel
        #: Stamped on every trace record (0 for a solo run).
        self.qid = session.qid
        self.querying_host = session.querying_host
        network = engine.network
        n = network.num_hosts
        self.num_hosts = n
        self.lo = lo
        self.hi = n if hi is None else hi
        self.hosts = session.hosts
        self.network = network
        self.delta = engine.delta
        self.wireless = engine.wireless
        #: Trace sink the kernel and the query start report to (one
        #: pointer check per hook when there is none).
        self.tracer = engine.tracer
        #: The network's own packed alive bitmap (one byte per host);
        #: failures show through immediately.  The query start and the
        #: convergecast kernel read it; the WILDFIRE kernel reads no
        #: bitmap per delivery (its deadline mirror carries death).
        self.alive_bytes = network._alive
        #: The network's own sorted alive-neighbor view table: a failure
        #: clears rows in place (``None``: rebuild through
        #: ``alive_neighbors_sorted``) and ``copy()`` gives every network
        #: its own list, so the binding stays this network's.
        self.alive_sorted = network._alive_sorted
        #: Records emitted this instant, landing one ``delta`` later:
        #: ``(rank, sender, dests, kind, agg, dist, depth)``.
        self.out_records: List[tuple] = []
        #: ``(landing instant, records, send instant)`` of the one batch
        #: in flight: grid instants are a whole ``delta`` apart, so a
        #: batch lands before the next is filed.
        self.in_flight: Tuple[float, Sequence[tuple], float] = _NOTHING
        #: Send instant of the batch being delivered: the float the spec
        #: stamps on ``Message.sent_at``, carried, never re-derived.
        self.sent_at = 0.0
        #: Where the current instant's sends land, one ``delta`` later
        #: (also the earliest next flush of a host flushing now).
        self.lands_at = self.delta
        #: The timer calendar: per-instant registrations in spec order,
        #: in the kernel's own shape (a WILDFIRE flush's ``(host_id,
        #: chain_depth, causing_rank)``, a report timer's bare host id),
        #: keyed by the float the spec host files the timer at; a kernel
        #: appends to the list under that key (creating it on first use).
        self.timers: Dict[float, List[Any]] = {}
        # Accounting, accumulated flat and replayed into the stats sink
        # in bulk (sends and drops per stepped instant, the rest whenever
        # a drain returns -- :meth:`settle`): per-host receive counts, and
        # per (time, kind) send totals -- the sink counters these feed are
        # commutative sums, so a handful of ``record_send_batch`` calls
        # rebuild exactly what per-send recording would have.
        self.counts: List[int] = [0] * n
        self.dropped = 0
        self.max_depth = 0
        self.send_acc: Dict[tuple, int] = defaultdict(int)
        self.wireless_groups = 0

    # ------------------------------------------------------------------
    # The query-start hook's send target
    # ------------------------------------------------------------------
    def session_multicast(self, session, sender: int, dests: Sequence[int],
                          kind: str, payload, time: float, chain_depth: int,
                          trusted_dests: bool = False) -> None:
        """``EventEngine.session_multicast`` as the query-start hook sees it.

        The real ``on_query_start`` runs against a plain
        :class:`HostContext` whose engine is this lane (and whose session
        is none: the lane keeps its own accounting); the kernel flattens
        the spec payload to the record's ``(agg, dist)`` slots.
        The gate admits only host classes whose query start multicasts
        and does nothing else, so the context's unicast and timer
        targets (``session_send``, ``_queue``) are deliberately
        absent: reaching one means the gate was wrong, and the
        ``AttributeError`` is the fail-loud signal.  ``dests`` comes from
        the network's own alive-neighbor view (the ``send_to_neighbors``
        contract), so no destination is re-checked here: one that dies
        before the delivery instant is dropped then, as in the spec path.
        Every later send is filed by the kernel itself, straight onto
        :attr:`out_records` with the same tally and trace record.
        """
        agg, dist = self.kernel.flatten(payload)
        if self.wireless:
            # One over-the-air transmission for the whole batch.
            self.send_acc[(time, kind)] += 1
            self.wireless_groups += len(dests) - 1
        else:
            self.send_acc[(time, kind)] += len(dests)
        if self.tracer is not None:
            # The spec engine's session_multicast record: one send with
            # dest -1 and the multicast width as its count.
            self.tracer.send(time, sender, -1, kind, len(dests), self.qid)
        self.out_records.append(
            (0, sender, dests, kind, agg, dist, chain_depth))

    # ------------------------------------------------------------------
    # The instant: one step
    # ------------------------------------------------------------------
    def exchange(self, t_next: float, sent_at: float) -> None:
        """File the records emitted at instant ``sent_at`` under their
        landing instant ``t_next``.  In process that is the list itself:
        append order already is spec order, so it is moved, not sorted."""
        if self.out_records:
            self.in_flight = (t_next, self.out_records, sent_at)
            self.out_records = []

    def take_in_flight(self) -> Tuple[float, Sequence[tuple], float]:
        """Hand over the batch in flight, leaving nothing in flight."""
        batch, self.in_flight = self.in_flight, _NOTHING
        return batch

    def end_instant(self, t: float) -> None:
        """Per-instant bookkeeping hook (nothing in process)."""

    def next_instant(self) -> float:
        """The earliest pending query-local instant -- the earlier of
        the landing instant and the earliest timer instant -- or ``inf``
        when nothing is in flight (run-wide: every lane files the same
        landing instants) and no timer is pending."""
        return min(self.in_flight[0], min(self.timers, default=_NEVER))

    def _file(self, t: float) -> float:
        """File what instant ``t`` emitted and return the next pending
        instant."""
        self.exchange(self.lands_at, t)
        return self.next_instant()

    def start(self) -> float:
        """Instant 0: the unmodified query-start hook at the querying
        host (when this lane owns it and it is alive), run against this
        lane; returns as :meth:`step` does."""
        qh = self.querying_host
        if self.lo <= qh < self.hi and self.alive_bytes[qh]:
            self.hosts[qh].on_query_start(HostContext(self, None, qh, 0.0, 0))
            self.kernel.refresh_host(qh)
        return self._file(0.0)

    def step(self) -> float:
        """Run the earliest pending instant; return the next one.

        The body of an instant, stated once for every lane: its
        deliveries in rank order, then its timers in registration order
        (those registered by the instant's own deliveries included),
        then file what it emitted.  All of it happens in query-local
        time, and none of it touches a clock or applies a failure: the
        calendar (a shard: its own clock) orders the lane's instants
        against everything else.
        """
        t = self.next_instant()
        self.lands_at = instant_after(t, self.delta, self.delta)
        kernel = self.kernel
        if self.in_flight[0] == t:
            _, entries, self.sent_at = self.take_in_flight()
            if entries:
                # Consumed as delivered: each record (and its target
                # list) is freed once the kernel moves past it, not when
                # the instant ends, while the next batch is built.
                entries.append(_DELIVERED)
                entries.reverse()
                kernel.process_instant(t, iter(entries.pop, _DELIVERED),
                                       self)
        bucket = self.timers.pop(t, None)
        if bucket:
            kernel.process_timer_bucket(t, bucket, self)
        self.end_instant(t)
        return self._file(t)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """The work this lane holds, in the calendar's own weights: one
        per destination of every in-flight record, one per registered
        timer (dead hosts' included: the spec calendar holds both until
        their instant pops)."""
        return (sum(len(record[2]) for record in self.in_flight[1])
                + sum(map(len, self.timers.values())))

    def flush_tallies(self, costs) -> Tuple[int, int]:
        """Replay the sends and drops counted since the last call into
        ``costs`` and forget them; returns ``(sent, dropped)``.  The
        engine calls it per stepped instant, so its own tallies move as
        the spec loop's do; :meth:`settle` carries the rest."""
        sent = 0
        for (time, kind), count in self.send_acc.items():
            costs.record_send_batch(kind, time, count)
            sent += count
        self.send_acc.clear()
        dropped, self.dropped = self.dropped, 0
        costs.dropped_messages += dropped
        return sent, dropped

    def settle(self, costs) -> None:
        """Replay every flat counter kept since the last call (receive
        counts, chain depth, wireless groups) into ``costs`` and reset
        them.  Called whenever a drain returns and when the session
        declares, so a sink read between two drains reads what the spec
        loop's reads there."""
        replay_accounting(costs, [self.accounting()])
        self.counts = [0] * self.num_hosts
        self.send_acc.clear()
        self.dropped = self.max_depth = self.wireless_groups = 0

    def accounting(self) -> Dict[str, Any]:
        """This lane's flat counters, as :func:`replay_accounting` (and
        the sharded result pipe) take them."""
        return {
            "send_acc": dict(self.send_acc),
            "wireless_groups": self.wireless_groups,
            "dropped": self.dropped,
            "max_depth": self.max_depth,
            "counts": (self.lo, self.counts[self.lo:self.hi]),
        }


def replay_accounting(costs, parts: Sequence[Dict[str, Any]]) -> None:
    """Fold the lanes' flat counters into the stats sink.

    Everything the batch path bypassed commutes -- per-host and
    per-(tick, kind) sums, a running max, scalars -- so replaying the
    totals later (one lane's whenever a drain returns, every shard's at
    the end of a sharded run) produces
    counter-for-counter the state the spec loop's per-send /
    per-delivery recording would have built.
    """
    sends: Dict[tuple, int] = defaultdict(int)
    for part in parts:
        for key, count in part["send_acc"].items():
            sends[key] += count
    for (time, kind), count in sorted(sends.items()):
        costs.record_send_batch(kind, time, count)
    wireless_groups = sum(part["wireless_groups"] for part in parts)
    if wireless_groups:
        costs.record_wireless_group(wireless_groups)
    costs.dropped_messages += sum(part["dropped"] for part in parts)
    max_depth = max(part["max_depth"] for part in parts)
    if max_depth > costs.max_chain_depth:
        costs.max_chain_depth = max_depth
    for part in parts:
        costs.add_processed(*part["counts"])
