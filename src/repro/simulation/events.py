"""Event queue for the discrete-event simulator.

Events are ordered by ``(time, kind priority, sequence number)`` so that
ties are broken deterministically in insertion order, which keeps
simulations reproducible for a fixed random seed.

The queue is implemented as a *calendar queue* over batched delivery
slots rather than a single binary heap of events:

* each distinct timestamp owns one *slot* -- six FIFO lists, one per
  :data:`_KIND_PRIORITY` level -- and pushing an event is a dict lookup
  plus a list append (no per-event heap sift, no event comparisons);
* slots are grouped into calendar *days* of configurable ``width``
  (the engine uses the delay bound ``delta``): a small heap of day
  indices orders the days, and a per-day heap of bare floats orders the
  timestamps within one day.  Under the fixed-delay model nearly all
  pending events share a handful of distinct timestamps (``t + delta``
  for messages, a few timer deadlines, the churn schedule), so each day
  holds one or two slots and the structure degenerates to the original
  batched ring.  Under variable-delay models almost every delivery gets
  a unique timestamp; the calendar keeps each heap bounded by one
  bound-window of traffic instead of the whole simulation's future;
* within a slot, events drain in priority order and, within a priority, in
  insertion order -- exactly the ``(time, priority, seq)`` total order the
  original heap implementation produced, including events appended to the
  slot *while it is draining* (a zero-delay timer scheduled at the current
  instant still runs after the instant's remaining deliveries, and a
  delivery appended mid-drain still precedes the instant's timers).

Because day indices are a monotone function of time and timestamps heap
within a day, the drain order is identical to a single global heap of
timestamps for every ``width`` -- the calendar only changes how much
heap work each push and pop performs.

The engine drives the queue through the fast paths -- ``push_deliver`` /
``push_multicast`` / ``push_timer`` in, ``pop_due`` out (one call site:
``EventEngine._drain``); ``push`` / ``cancel`` are the generic
:class:`Event` API (churn, query starts, custom events), ``pop_tick``
detaches one whole instant, and the tick lanes' gate only asks ``len``.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.simulation.messages import Message


class EventKind(enum.Enum):
    """The kinds of events the simulator understands."""

    DELIVER = "deliver"  # deliver a message to its destination host
    TIMER = "timer"      # a host timer expires
    FAIL = "fail"        # a host leaves the network
    JOIN = "join"        # a host joins the network
    QUERY_START = "query_start"  # the querying host initiates the protocol
    # A callable run with the engine: driver hooks, and each instant of
    # a service session's tick lane.
    CUSTOM = "custom"


#: Tie-breaking priority for events scheduled at the same instant.  Message
#: deliveries are processed before timers so that a report arriving exactly
#: at a host's deadline is still folded in (the deadline-based convergecast
#: of the tree protocols relies on this); failures are applied last so a
#: host processes everything addressed to it "up to" its failure instant.
_KIND_PRIORITY = {
    EventKind.QUERY_START: 0,
    EventKind.JOIN: 1,
    EventKind.DELIVER: 2,
    EventKind.CUSTOM: 3,
    EventKind.TIMER: 4,
    EventKind.FAIL: 5,
}

_NUM_PRIORITIES = 6
_DELIVER_PRIORITY = _KIND_PRIORITY[EventKind.DELIVER]
_TIMER_PRIORITY = _KIND_PRIORITY[EventKind.TIMER]


@dataclass(order=True, slots=True)
class Event:
    """A scheduled simulation event.

    The dataclass ordering is (time, priority, seq); the payload fields are
    excluded from comparison.  ``queued``/``cancelled`` are queue-internal
    lifecycle markers: ``queued`` holds the owning :class:`EventQueue`
    exactly while the event sits unconsumed in it (``None`` otherwise), and
    ``cancelled`` marks a lazy cancellation the drain has not yet
    discarded.  Keeping them on the event (rather than in a queue-side seq
    set) makes cancelling a consumed, foreign, or never-scheduled event a
    natural no-op.
    """

    time: float
    priority: int
    seq: int
    kind: EventKind = field(compare=False)
    host: Optional[int] = field(compare=False, default=None)
    message: Optional[Message] = field(compare=False, default=None)
    timer_name: Optional[str] = field(compare=False, default=None)
    data: Any = field(compare=False, default=None)
    queued: Any = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)


class _DeliverBatch:
    """One multicast's deliveries, expanded lazily at pop time.

    A multicast to ``d`` neighbors used to materialise ``d`` Message
    objects up front; at 100k+ hosts one flood wave keeps hundreds of
    thousands of them alive in the ring at once, dominating peak RSS.
    The batch stores the shared fields once (the destination tuple is the
    network's cached packed view, so it is not even copied) and the pop
    path mints each per-destination :class:`Message` only at its delivery
    instant, so at most one exists at a time.  FIFO position in the slot
    bucket encodes the exact (time, priority, seq) order the materialised
    list produced, so drain order -- and therefore every golden snapshot
    -- is unchanged.  Batches cannot be cancelled (deliveries never are).
    """

    __slots__ = ("sender", "dests", "kind", "payload", "sent_at",
                 "chain_depth", "wireless", "query_id", "vtime", "pos")

    def __init__(self, sender, dests, kind, payload, sent_at, chain_depth,
                 wireless, query_id, vtime):
        self.sender = sender
        self.dests = dests
        self.kind = kind
        self.payload = payload
        self.sent_at = sent_at
        self.chain_depth = chain_depth
        self.wireless = wireless
        self.query_id = query_id
        self.vtime = vtime
        self.pos = 0


class _Slot:
    """All events scheduled at one instant: six priority-ordered FIFOs.

    ``cursors[p]`` is the index of the next undrained event in
    ``buckets[p]``; appends during draining land beyond the cursor and are
    therefore picked up before the slot is released.  ``min_pri`` is a
    lower bound on the smallest priority level with pending events, so the
    drain scan can skip the (usually empty) levels below it; pushes lower
    it when they schedule below the current bound.
    """

    __slots__ = ("buckets", "cursors", "min_pri")

    def __init__(self) -> None:
        self.buckets: List[List[Event]] = [[] for _ in range(_NUM_PRIORITIES)]
        self.cursors: List[int] = [0] * _NUM_PRIORITIES
        self.min_pri = _NUM_PRIORITIES


class EventQueue:
    """A calendar queue of :class:`Event` objects ordered by (time, prio, seq).

    Supports lazy cancellation: cancelled events stay in their slot but are
    skipped when popped.  Cancelling an event that was already consumed
    (or that was never scheduled on this queue) is a no-op, so ``len`` and
    ``occupancy()`` stay exact under any interleaving of push/pop/cancel.

    Time-validity contract: **every** scheduling entry point (``push``,
    ``push_deliver``, ``push_timer``, ``push_multicast``) rejects
    negative times with :class:`ValueError`.
    The check is performed inline on all four paths -- it is one float
    comparison per call, which is not measurable against the dict lookup
    and list append each push already performs, and it keeps the contract
    in one place instead of hoisting it to every caller.

    Args:
        width: calendar day width.  Purely a performance knob (drain order
            is width-independent); the engine passes the delay bound
            ``delta`` so one day covers one bound-window of traffic.
    """

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError("calendar day width must be positive")
        self._width = float(width)
        self._slots: Dict[float, _Slot] = {}
        self._days: Dict[int, List[float]] = {}  # day -> heap of timestamps
        self._day_heap: List[int] = []           # heap of day indices
        # Cache of the minimal non-empty day (index, timestamp heap): the
        # drain revisits it once per event, so resolving it through the
        # day heap every time would cost a peek plus a dict lookup on the
        # hottest path.  Invalidated when a day earlier than the cached
        # one appears or the cached day drains.
        self._front_day = -1
        self._front_times: Optional[List[float]] = None
        self._counter = itertools.count()
        self._num_cancelled = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size - self._num_cancelled

    def __bool__(self) -> bool:
        return len(self) > 0

    def _slot_at(self, time: float) -> _Slot:
        """The slot for ``time``, creating (and calendar-filing) it once."""
        slot = self._slots.get(time)
        if slot is None:
            slot = _Slot()
            self._slots[time] = slot
            day = int(time / self._width)
            bucket = self._days.get(day)
            if bucket is None:
                self._days[day] = bucket = []
                heapq.heappush(self._day_heap, day)
                if day < self._front_day:
                    self._front_times = None  # new earlier day: re-resolve
            heapq.heappush(bucket, time)
        return slot

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(
        self,
        time: float,
        kind: EventKind,
        host: Optional[int] = None,
        message: Optional[Message] = None,
        timer_name: Optional[str] = None,
        data: Any = None,
    ) -> Event:
        """Schedule a new event and return it (useful for ``cancel``)."""
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        priority = _KIND_PRIORITY[kind]
        event = Event(
            time=time,
            priority=priority,
            seq=next(self._counter),
            kind=kind,
            host=host,
            message=message,
            timer_name=timer_name,
            data=data,
            queued=self,
        )
        slot = self._slot_at(time)
        slot.buckets[priority].append(event)
        if priority < slot.min_pri:
            slot.min_pri = priority
        self._size += 1
        return event

    def push_deliver(self, time: float, message: Message) -> None:
        """Fast-path scheduling of a message delivery (the hot event kind).

        The bare :class:`Message` is stored in the slot's deliver bucket --
        FIFO position alone encodes its place in the (time, priority, seq)
        total order, so no :class:`Event` wrapper (and no sequence number)
        is allocated.  Ordering semantics are identical to
        ``push(time, EventKind.DELIVER, message=message)``; the only
        difference is that fast-path deliveries cannot be cancelled (the
        simulator never cancels deliveries).
        """
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        slot = self._slot_at(time)
        slot.buckets[_DELIVER_PRIORITY].append(message)
        if _DELIVER_PRIORITY < slot.min_pri:
            slot.min_pri = _DELIVER_PRIORITY
        self._size += 1

    def push_timer(self, time: float, host: int, name: str, info: Any) -> Event:
        """Fast-path scheduling of a host timer.

        Equivalent to ``push(time, EventKind.TIMER, host=host,
        timer_name=name, data=info)`` minus the keyword plumbing; the
        returned event carries a sequence number and can be cancelled like
        any other event.
        """
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        event = Event(time, _TIMER_PRIORITY, next(self._counter),
                      EventKind.TIMER, host, None, name, info, self)
        slot = self._slot_at(time)
        slot.buckets[_TIMER_PRIORITY].append(event)
        if _TIMER_PRIORITY < slot.min_pri:
            slot.min_pri = _TIMER_PRIORITY
        self._size += 1
        return event

    def push_multicast(
        self,
        time: float,
        sender: int,
        dests: Sequence[int],
        kind: str,
        payload: Any,
        sent_at: float,
        chain_depth: int,
        wireless: bool = False,
        query_id: int = 0,
        vtime: float = 0.0,
    ) -> None:
        """Schedule one multicast's deliveries without materialising them.

        Drain-order-equivalent to one :meth:`push_deliver` per
        destination, in ``dests`` order, but the ring holds one compact
        :class:`_DeliverBatch` record instead of ``len(dests)`` message
        objects; :meth:`pop_due` mints each message at its delivery
        instant.  This is the engine's fixed-delay multicast fast path.
        """
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        if not dests:
            return
        slot = self._slot_at(time)
        slot.buckets[_DELIVER_PRIORITY].append(
            _DeliverBatch(sender, dests, kind, payload, sent_at,
                          chain_depth, wireless, query_id, vtime))
        if _DELIVER_PRIORITY < slot.min_pri:
            slot.min_pri = _DELIVER_PRIORITY
        self._size += len(dests)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal).

        Cancelling an event that was already consumed (popped or drained),
        already cancelled, or never scheduled here is a **no-op** -- the
        queue's ``len``/``occupancy`` bookkeeping only counts events that
        are actually still pending, so cancellation can never drive
        ``len(queue)`` negative or make it undercount.  An event pending
        on a *different* queue is likewise left untouched.
        """
        if (event.__class__ is Event and event.queued is self
                and not event.cancelled):
            event.cancelled = True
            self._num_cancelled += 1

    # ------------------------------------------------------------------
    # Introspection (pull-based; never touched by the drain hot path)
    # ------------------------------------------------------------------
    def occupancy(self) -> Dict[str, Any]:
        """Queue depth and calendar occupancy, computed on demand.

        Walks the day index (one entry per non-empty day) plus, for the
        ``horizon``/``current_epoch`` fields, the slot table (one entry
        per distinct timestamp, scanning each slot only until the first
        live entry) -- still far from touching every event, so a metrics
        snapshot stays safe to take mid-run at any scale.

        ``horizon`` is the latest timestamp that still has a live
        (non-cancelled, unconsumed) entry, ``current_epoch`` the calendar
        day index of the earliest such timestamp -- exactly the window the
        sharded lane's barrier scheduler reasons about.  Both are ``None``
        when no live entries remain; cancelled events and already-drained
        slot positions never count.
        """
        day_sizes = [len(bucket) for bucket in self._days.values()]
        total = sum(day_sizes)
        horizon: Optional[float] = None
        earliest: Optional[float] = None
        for time, slot in self._slots.items():
            if not self._slot_has_live(slot):
                continue
            if horizon is None or time > horizon:
                horizon = time
            if earliest is None or time < earliest:
                earliest = time
        return {
            "pending": len(self),
            "cancelled": self._num_cancelled,
            "slots": len(self._slots),
            "days": len(self._days),
            "max_day_occupancy": max(day_sizes, default=0),
            "mean_day_occupancy": (round(total / len(day_sizes), 2)
                                   if day_sizes else 0),
            "horizon": horizon,
            "current_epoch": (None if earliest is None
                              else int(earliest / self._width)),
        }

    @staticmethod
    def _slot_has_live(slot: _Slot) -> bool:
        """Whether any live entry remains in ``slot`` (non-mutating)."""
        buckets = slot.buckets
        cursors = slot.cursors
        for priority in range(_NUM_PRIORITIES):
            bucket = buckets[priority]
            for index in range(cursors[priority], len(bucket)):
                entry = bucket[index]
                if entry is None:
                    continue
                if entry.__class__ is Event and entry.cancelled:
                    continue
                return True
        return False

    def iter_pending(self) -> Iterator[Any]:
        """Yield ``(entry, weight)`` for every live queued entry.

        Non-destructive and unordered (slot-table order).  ``entry`` is
        a bare :class:`Message`, a :class:`_DeliverBatch` (``weight`` =
        destinations not yet delivered), or an :class:`Event`; cancelled
        events and already-popped positions are skipped.  Intended for
        metrics collectors, not for draining.
        """
        for slot in self._slots.values():
            buckets = slot.buckets
            cursors = slot.cursors
            for priority in range(_NUM_PRIORITIES):
                bucket = buckets[priority]
                for index in range(cursors[priority], len(bucket)):
                    entry = bucket[index]
                    if entry is None:
                        continue
                    if entry.__class__ is Event and entry.cancelled:
                        continue
                    if entry.__class__ is _DeliverBatch:
                        yield entry, len(entry.dests) - entry.pos
                    else:
                        yield entry, 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _locate_front(self):
        """Advance past cancelled events and locate the earliest live one.

        Returns ``(time, slot, priority, index, entry)`` without consuming
        the entry, or ``None`` when the queue is empty.  Cancelled events
        encountered on the way are discarded, exhausted slots are released
        (their timestamp popped from their day's heap), and exhausted days
        are retired from the calendar, so the scan never revisits them.
        Both :meth:`pop_due` and :meth:`pop_tick` share this scan, keeping
        the cursor/``min_pri``/``_size`` bookkeeping in exactly one place.
        """
        day_heap = self._day_heap
        days = self._days
        while True:
            times = self._front_times
            if not times:  # cached front day drained or invalidated
                while day_heap:
                    day = day_heap[0]
                    times = days.get(day)
                    if times:
                        self._front_day = day
                        self._front_times = times
                        break
                    # Day exhausted (or retired): leave the calendar.
                    heapq.heappop(day_heap)
                    days.pop(day, None)
                else:
                    self._front_times = None
                    return None
            time = times[0]
            slot = self._slots.get(time)
            if slot is None:  # released slot whose timestamp lingered
                heapq.heappop(times)
                continue
            buckets = slot.buckets
            cursors = slot.cursors
            priority = slot.min_pri
            while priority < _NUM_PRIORITIES:
                bucket = buckets[priority]
                index = cursors[priority]
                length = len(bucket)
                while index < length:
                    entry = bucket[index]
                    # Only Event wrappers can be cancelled (bare messages
                    # and multicast batches never are).
                    if entry.__class__ is Event and entry.cancelled:
                        entry.queued = None
                        self._num_cancelled -= 1
                        self._size -= 1
                        bucket[index] = None  # type: ignore[call-overload]
                        index += 1
                        continue
                    cursors[priority] = index
                    return time, slot, priority, index, entry
                cursors[priority] = index
                # Level drained; remember so future scans skip it (a later
                # push at a lower level lowers ``min_pri`` again).
                priority += 1
                slot.min_pri = priority
            # Every bucket drained: release the slot and its timestamp.
            del self._slots[time]
            heapq.heappop(times)
        return None

    def pop_due(self, horizon: Optional[float]):
        """Consume and return ``(time, entry)`` for the earliest live event.

        This is the drain API: one traversal locates and consumes the
        front, and deliveries carry no ``Event`` wrapper.  ``entry`` is
        a bare :class:`Message` for fast-path deliveries and an
        :class:`Event` for everything else.  When ``horizon`` is given,
        an event due after it is *not* consumed and ``None`` is
        returned; ``None`` consumes unconditionally.
        """
        front = self._locate_front()
        if front is None:
            return None
        time, slot, priority, index, entry = front
        if horizon is not None and time > horizon:
            return None
        self._size -= 1
        if entry.__class__ is _DeliverBatch:
            # Mint this pop's Message from the batch record; the batch
            # stays at the bucket cursor until its last destination pops,
            # preserving the contiguous FIFO order of the materialised
            # equivalent.
            pos = entry.pos
            message = Message(entry.sender, entry.dests[pos], entry.kind,
                              entry.payload, entry.sent_at,
                              entry.chain_depth, entry.wireless,
                              entry.query_id, entry.vtime)
            pos += 1
            if pos == len(entry.dests):
                slot.cursors[priority] = index + 1
                slot.buckets[priority][index] = None  # type: ignore[call-overload]
            else:
                entry.pos = pos
            return time, message
        slot.cursors[priority] = index + 1
        slot.buckets[priority][index] = None  # type: ignore[call-overload]
        if entry.__class__ is Event:
            entry.queued = None
        return time, entry

    def pop_tick(self, horizon: Optional[float] = None):
        """Consume *every* event of the earliest instant in one call.

        This is the vector lane's batch drain: instead of one
        :meth:`pop_due` per message, the whole calendar slot is detached
        at once.  Returns ``(time, buckets)`` where ``buckets`` is a list
        of ``_NUM_PRIORITIES`` lists in priority order; each entry is a
        bare :class:`Message`, an *unexpanded* :class:`_DeliverBatch`
        (``entry.dests[entry.pos:]`` are its undelivered destinations, in
        FIFO/ascending order), or an :class:`Event`.  Cancelled events are
        discarded, consumed events are unqueued, and the slot is released,
        exactly as if the instant had been drained with ``pop_due`` --
        the per-entry order within each bucket is the (time, priority,
        seq) drain order.  When ``horizon`` is given, an instant due after
        it is left untouched and ``None`` is returned; an empty queue also
        returns ``None``.

        Unlike ``pop_due``, events appended to the instant *while the
        caller processes the returned buckets* land in a fresh slot and
        surface on the next call, so callers that schedule same-instant
        work (zero-delay timers) must drain the instant repeatedly or
        manage that work themselves -- the vector lane does the latter.
        """
        front = self._locate_front()
        if front is None:
            return None
        time = front[0]
        if horizon is not None and time > horizon:
            return None
        slot = self._slots[time]
        removed = 0
        buckets_out: List[List[Any]] = []
        for priority in range(_NUM_PRIORITIES):
            bucket = slot.buckets[priority]
            start = slot.cursors[priority]
            live: List[Any] = []
            for index in range(start, len(bucket)):
                entry = bucket[index]
                if entry is None:
                    continue
                cls = entry.__class__
                if cls is Event:
                    if entry.cancelled:
                        entry.queued = None
                        self._num_cancelled -= 1
                        removed += 1
                        continue
                    entry.queued = None
                    removed += 1
                elif cls is _DeliverBatch:
                    removed += len(entry.dests) - entry.pos
                else:
                    removed += 1
                live.append(entry)
            buckets_out.append(live)
        self._size -= removed
        # Release the slot and its timestamp ( _locate_front resolved the
        # front day, so the cached heap's head is exactly ``time``).
        del self._slots[time]
        heapq.heappop(self._front_times)
        return time, buckets_out
