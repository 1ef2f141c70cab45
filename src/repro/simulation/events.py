"""Event queue for the discrete-event simulator.

Events drain in ``(time, kind priority, insertion)`` order, so ties are
broken deterministically and a run is reproducible for a fixed seed.

One structure holds them: one ``heapq`` of items ``(time, priority,
seq, x)``.  ``seq`` counts the queue's items, so items of one ``(time,
priority)`` key drain in filing order; ``x`` is one entry or a
*bucket*, the FIFO list of entries filed at one key (position *is*
insertion order).  There is no key table and no key hashing.  For each
hot kind (deliveries, timers) the queue remembers the time of its last
push and the bucket open there: a push at that time appends to it (the
second such push opens it, an item whose later ``seq`` sorts it behind
the first, lone entry), a push at any other time files a one-entry
item, and ``push`` always does.  A pop takes a one-entry item with one
``heappop``; a bucket stays at the heap's front while a cursor walks it
and leaves with one ``heappop`` in the pop that drains it.  One entry
*or* a bucket per item because the traffic is bimodal (counted on the
benchmark's ``flood_py`` and ``flood_jitter`` floods): at fixed delay
84 215 pushes file 38 entries -- 38 items, never more than 4 in the
heap, 38 pops -- under a variable-delay model 61 394 pushes file
61 394 items -- one tuple and one C-level sift each, and nothing else.
A heap of one item per entry would sift thousands of live entries per
pop at fixed delay; a key table beside the heap costs a tuple hash per
lookup and a list per variable-delay push.

Three cases keep the order exact:

* an entry filed at the key of the bucket *being drained* (a zero-delay
  timer) lands beyond the cursor and still runs in that instant;
* a new item below a half-drained bucket becomes the front at once: the
  pre-empted bucket drops its drained prefix when the cursor next walks
  another bucket, and later resumes where it stopped;
* a key filed at again after its bucket drained is a new item: its
  later ``seq`` sorts it after everything already popped and before
  every larger key.

At fixed delay every send of an instant lands at one instant and every
WILDFIRE flush is a zero-delay timer, so one entry stands for a *run*
of same-key stimuli.  A send (a multicast, or a unicast as a
one-destination send) filed right behind an unpopped
:class:`_DeliverBatch` with its key -- time, kind, send instant, chain
depth, medium, query and delivery instant -- joins it; a batch is
filed, popped and counted out of ``len`` whole, weighing its
destinations: the :class:`Message` they receive, plus its ``(sender,
dests, payload)`` sends.  This module never builds a per-destination
:class:`Message`: whoever pops a batch delivers it.  A host timer is the
plain tuple ``(host, name, info)`` -- what its handler reads, and
nothing else -- unless it is filed right behind an unpopped timer of
its key (time, name, ``data`` and session *objects*, chain depth and
query-local instant) in the bucket open at its time: then the two are
one :class:`_TimerBatch` of host ids.  A batch grows only while it is
the last unpopped entry at its key; a popped one never grows, and a
bare message, another key or another session closes the open one.  So
a drain, expanded, is exactly the ``(time, priority, insertion)`` order
of the single stimuli.  A timer alone at its key stays a tuple (a batch
per timer would cost the variable-delay loop, where every timer is
alone, an object per timer).

The engine pushes through ``push_deliver`` / ``push_multicast`` /
``push_timer``, pops through ``pop_due`` (one call site:
``EventEngine._drain``) and delivers batches there; ``push`` is the
:class:`Event` API for the other kinds (churn, query starts, custom
events; it refuses a DELIVER or TIMER), and the tick lanes' gate only
asks ``len``.  Nothing filed is ever withdrawn:
there is no cancellation, so ``len`` is the count of what was filed and
not yet popped.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from itertools import count, islice
from math import inf, nan
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.simulation.clock import tick_index
from repro.simulation.messages import Message


class EventKind(enum.Enum):
    """The kinds of events the simulator understands."""

    DELIVER = "deliver"  # deliver a message to its destination host
    TIMER = "timer"      # a host timer expires
    FAIL = "fail"        # a host leaves the network
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
    EventKind.DELIVER: 1,
    EventKind.CUSTOM: 2,
    EventKind.TIMER: 3,
    EventKind.FAIL: 4,
}

_NUM_PRIORITIES = 5
_DELIVER_PRIORITY = _KIND_PRIORITY[EventKind.DELIVER]
_TIMER_PRIORITY = _KIND_PRIORITY[EventKind.TIMER]

#: The kinds :meth:`EventQueue.push` files as an :class:`Event`: a
#: delivery is filed as a message, a timer as a tuple, and the engine
#: handles them in no other shape.
_EVENT_PRIORITY = {kind: priority for kind, priority in _KIND_PRIORITY.items()
                   if kind not in (EventKind.DELIVER, EventKind.TIMER)}


class Event:
    """A scheduled simulation event filed through :meth:`EventQueue.push`.

    Events are never compared: each is a heap item of its own, ordered
    by the item's ``seq``.
    """

    __slots__ = ("time", "priority", "kind", "host", "data")

    def __init__(self, time: float, priority: int, kind: EventKind,
                 host: Optional[int] = None, data: Any = None) -> None:
        self.time = time
        self.priority = priority
        self.kind = kind
        self.host = host
        self.data = data


class _DeliverBatch(Message):
    """A run of fixed-delay sends that share one key: the
    :class:`Message` every destination receives, plus the ``sends`` --
    ``(sender, dests, payload)`` triples, in filing order -- and their
    total ``weight`` (destinations).

    It is a single queue entry standing for ``weight`` deliveries.  A
    multicast to ``d`` neighbors filed as ``d`` messages keeps hundreds
    of thousands of them alive in the queue during one flood wave at
    100k+ hosts, dominating peak RSS; and at fixed delay every send of
    an instant lands at one instant, so filing each multicast (or
    unicast) as an entry of its own pays one calendar round trip per
    send.  The batch stores the shared fields once (a destination tuple
    is the network's cached packed view, so it is not even copied) and
    is popped whole; the engine then hands this same object to each
    destination's handler, binding ``sender`` and ``payload`` before
    each send and ``dest`` before each call (``-1`` until the first).
    """

    __slots__ = ("sends", "weight")

    def __init__(self, sender, dests, kind, payload, sent_at, chain_depth,
                 wireless, query_id, vtime):
        self.sender = sender
        self.dest = -1
        self.sends = [(sender, dests, payload)]
        self.weight = len(dests)
        self.kind = kind
        self.payload = payload
        self.sent_at = sent_at
        self.chain_depth = chain_depth
        self.wireless = wireless
        self.query_id = query_id
        self.vtime = vtime


class _TimerBatch:
    """A run of timers that share one key: the ``hosts`` they fire at,
    in filing order, and the ``name`` and ``info`` they share.  It pops
    whole and weighs ``len(hosts)``.  Only a second same-key timer
    behind another makes one: a timer alone at its key stays its
    ``(host, name, info)`` tuple."""

    __slots__ = ("hosts", "name", "info")

    def __init__(self, hosts: List[int], name: str, info: Any) -> None:
        self.hosts = hosts
        self.name = name
        self.info = info


def _same_timer(info: Any, other: Any) -> bool:
    """Whether two timers' ``info`` share a key: the one object, or the
    engine's ``(data, chain_depth, session, vfire)`` with the same
    ``data`` and session *objects* and equal depth and instant (an
    equal but distinct ``data`` may be mutated apart, so it splits)."""
    if info is other:
        return True
    return (info.__class__ is tuple and other.__class__ is tuple
            and len(info) == len(other) == 4
            and info[0] is other[0] and info[2] is other[2]
            and info[1] == other[1] and info[3] == other[3])


def _weight(entry: Any) -> int:
    """How many stimuli one queue entry stands for."""
    cls = entry.__class__
    if cls is _DeliverBatch:
        return entry.weight
    if cls is _TimerBatch:
        return len(entry.hosts)
    return 1


def _check_time(time: float) -> None:
    if not 0.0 <= time < inf:  # NaN would silently break the heap
        raise ValueError(
            f"events need a finite, non-negative time, not {time!r}")


class EventQueue:
    """Events ordered by ``(time, kind priority, insertion)``.

    Time-validity contract: **every** scheduling entry point (``push``,
    ``push_deliver``, ``push_timer``, ``push_multicast``) rejects a
    negative, infinite or NaN time with :class:`ValueError` -- stated
    once, in :func:`_check_time`, which :meth:`_file` applies to each
    time it has not just filed at (and so before it remembers one),
    ``push`` to every event and an empty multicast, which files
    nothing, to itself.

    Args:
        width: the epoch unit of ``occupancy()["current_epoch"]`` (the
            engine passes the delay bound ``delta``).  No push or pop
            reads it: the drain order and its cost are width-independent.
    """

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError("epoch width must be positive")
        self._width = float(width)
        # heapq of (time, priority, seq, one entry or a FIFO bucket list).
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = count().__next__
        # Per priority: the time of the last hot-kind push and the bucket
        # open there (None until a second push at that time opens one).
        # NaN equals no time, so the first push of a kind files an item.
        self._open_at = [nan] * _NUM_PRIORITIES
        self._open: List[Optional[List[Any]]] = [None] * _NUM_PRIORITIES
        # The bucket the cursor walks (the front's, or a pre-empted one);
        # ``_walk`` sets the cursor before anything reads it.
        self._walked: Optional[List[Any]] = None
        # The last DELIVER entry filed, while it is an unpopped batch:
        # the one a same-key send may still join.
        self._batch: Optional[_DeliverBatch] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _file(self, time: float, priority: int, entry: Any) -> None:
        """File a hot-kind entry: into the bucket open at ``time``, as
        the item that opens it, or -- at a time of its own -- alone."""
        if time == self._open_at[priority]:
            bucket = self._open[priority]
            if bucket is not None:
                bucket.append(entry)
                return
            entry = self._open[priority] = [entry]
        else:
            _check_time(time)
            self._open_at[priority] = time
            self._open[priority] = None
        heappush(self._heap, (time, priority, self._seq(), entry))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, kind: EventKind, host: Optional[int] = None,
             data: Any = None) -> Event:
        """Schedule a QUERY_START, CUSTOM or FAIL event and return it.

        The event is one heap item of its own.  A DELIVER or TIMER is
        refused here, at the call, with :class:`ValueError`: the engine
        takes those kinds only as :meth:`push_deliver` /
        :meth:`push_multicast` messages and :meth:`push_timer` tuples.
        """
        try:
            priority = _EVENT_PRIORITY[kind]
        except KeyError:
            raise ValueError(
                f"{kind!r} is not filed as an Event: use push_deliver / "
                f"push_multicast for a delivery, push_timer for a timer"
            ) from None
        _check_time(time)
        event = Event(time, priority, kind, host, data)
        heappush(self._heap, (time, priority, self._seq(), event))
        self._size += 1
        return event

    def push_deliver(self, time: float, message: Message) -> None:
        """Fast-path scheduling of a message delivery (the hot event kind).

        The bare :class:`Message` is filed with no :class:`Event`
        wrapper, and a bare message is what the engine delivers.
        """
        self._file(time, _DELIVER_PRIORITY, message)
        self._batch = None  # filed behind the open batch: it closes
        self._size += 1

    def push_timer(self, time: float, host: int, name: str, info: Any) -> None:
        """Schedule a host timer: the tuple ``(host, name, info)``.

        A timer filed right behind an unpopped same-key one (same time,
        ``name`` and :func:`_same_timer` ``info``) in the bucket open at
        its time joins it instead: the two become one
        :class:`_TimerBatch`, which later same-key timers grow.  A timer
        alone at its key is filed, and pops, as its tuple.  (The open
        bucket's last entry is never popped: the pop that takes it
        drains and retires the bucket.)
        """
        bucket = self._open[_TIMER_PRIORITY]
        if bucket is not None and time == self._open_at[_TIMER_PRIORITY]:
            last = bucket[-1]
            if last.__class__ is _TimerBatch:
                if last.name == name and _same_timer(last.info, info):
                    last.hosts.append(host)
                    self._size += 1
                    return
            elif (last.__class__ is tuple and last[1] == name
                  and _same_timer(last[2], info)):
                bucket[-1] = _TimerBatch([last[0], host], name, last[2])
                self._size += 1
                return
        self._file(time, _TIMER_PRIORITY, (host, name, info))
        self._size += 1

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
        """Schedule one send's deliveries without materialising them.

        The send joins the open :class:`_DeliverBatch` -- the last
        DELIVER entry filed, while it is unpopped -- when it shares that
        batch's key: the same time, ``kind``, ``sent_at``,
        ``chain_depth``, ``wireless``, ``query_id`` and ``vtime``.
        Otherwise it is filed as a new batch, which then is the open
        one.  Either way it drains exactly where one :meth:`push_deliver`
        per destination would: ``len`` counts it as ``len(dests)`` and
        the engine delivers its destinations in order, right behind the
        batch's earlier sends.  This is the engine's fixed-delay send
        path (a unicast is a one-destination send).  An empty ``dests``
        files nothing.
        """
        if not dests:
            _check_time(time)
            return
        batch = self._batch
        if (batch is not None and time == self._open_at[_DELIVER_PRIORITY]
                and batch.sent_at == sent_at
                and batch.chain_depth == chain_depth
                and batch.query_id == query_id and batch.kind == kind
                and batch.wireless == wireless and batch.vtime == vtime):
            batch.sends.append((sender, dests, payload))
            batch.weight += len(dests)
        else:
            batch = _DeliverBatch(sender, dests, kind, payload, sent_at,
                                  chain_depth, wireless, query_id, vtime)
            self._file(time, _DELIVER_PRIORITY, batch)
            self._batch = batch
        self._size += len(dests)

    # ------------------------------------------------------------------
    # Introspection (pull-based; never touched by the drain hot path)
    # ------------------------------------------------------------------
    def _live(self, x: Any) -> Iterator[Any]:
        """The unconsumed entries of one heap item's ``x``, in order
        (only the walked bucket has a consumed prefix)."""
        if x.__class__ is not list:
            return iter((x,))
        return islice(x, self._cursor if x is self._walked else 0, None)

    def occupancy(self) -> Dict[str, Any]:
        """Queue depth and the pending time window, computed on demand.

        Walks the heap (one item per lone entry or bucket, never into a
        bucket) -- far from touching every event, so a metrics snapshot
        stays safe to take mid-run at any scale.

        ``slots`` counts the distinct timestamps that still have an
        unconsumed entry, ``horizon`` is the latest of them and
        ``current_epoch`` the index, in units of ``width``, of the
        earliest -- exactly the window the sharded lane's barrier
        scheduler reasons about.  Both are ``None`` when nothing is
        pending.  Every item in the heap holds a live entry: a drained
        bucket leaves it in the pop that drains it.
        """
        heap = self._heap
        live = {item[0] for item in heap}
        return {
            "pending": self._size,
            "slots": len(live),
            "horizon": max(live, default=None),
            "current_epoch": (tick_index(heap[0][0], self._width) if heap
                              else None),
        }

    def iter_pending(self) -> Iterator[Any]:
        """Yield ``(entry, weight)`` for every queued entry.

        Non-destructive and unordered (heap order).  ``entry`` is a bare
        :class:`Message`, a :class:`_DeliverBatch` (``weight`` = its
        destinations), a timer's ``(host, name, info)`` tuple, a
        :class:`_TimerBatch` (``weight`` = its hosts) or an
        :class:`Event`; already-popped positions are skipped.  The
        weights sum to ``len(queue)``.  Intended for metrics collectors,
        not for draining.
        """
        for item in self._heap:
            for entry in self._live(item[3]):
                yield entry, _weight(entry)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _walk(self, bucket: List[Any]) -> None:
        """Point the cursor at ``bucket``, the new front.  A bucket the
        cursor leaves half drained was pre-empted by a lower item: it
        drops its drained prefix, to resume at index 0 like any other."""
        if self._walked is not None:
            del self._walked[:self._cursor]
        self._walked = bucket
        self._cursor = 0

    def _retire(self, priority: int, bucket: List[Any]) -> None:
        """Forget a bucket whose item just left the heap: a later push at
        its time opens a new one, behind everything already popped."""
        if bucket is self._walked:
            self._walked = None
        if bucket is self._open[priority]:
            self._open[priority] = None

    def pop_due(self, horizon: Optional[float]):
        """Consume and return ``(time, entry)`` for the earliest live entry.

        This is the drain API.  ``entry`` is a bare :class:`Message` for
        a fast-path delivery, a whole :class:`_DeliverBatch` for a run
        of same-key sends (``len`` drops by ``entry.weight``; delivering
        it to each destination is the caller's job), the ``(host, name,
        info)`` tuple of a lone :meth:`push_timer` timer, a whole
        :class:`_TimerBatch` for a run of same-key timers and an
        :class:`Event` for everything else.  When ``horizon`` is given,
        an entry due after it is *not* consumed and ``None`` is
        returned; ``None`` consumes unconditionally.  An empty queue
        returns ``None``.

        A lone entry leaves the heap with one ``heappop``.  A bucket
        stays at the front while the cursor walks it, so an entry filed
        at its key meanwhile (a zero-delay timer) lands beyond the cursor
        and still runs in that instant; the pop that takes its last entry
        retires it with one ``heappop``.

        A popped batch never grows.  Whatever is filed while the caller
        works through it sorts against the *popped* position: at the
        batch's own key it lands behind it, at a later key it drains
        later -- both as if the batch's stimuli had been filed one by
        one.  Only an item *below* an in-progress batch (a QUERY_START
        at this very instant) would have cut in between two of its
        stimuli and now runs after the last; no handler can file one
        (``HostContext.send`` delays lie in ``(0, delta]``,
        ``set_timer`` files at TIMER priority).
        """
        heap = self._heap
        if not heap:
            return None
        item = heap[0]
        time = item[0]
        if horizon is not None and time > horizon:
            return None
        entry = item[3]
        if entry.__class__ is list:
            bucket = entry
            if bucket is not self._walked:
                self._walk(bucket)
            index = self._cursor
            entry = bucket[index]
            bucket[index] = None  # release the popped position
            index += 1
            if index == len(bucket):
                heappop(heap)
                self._retire(item[1], bucket)
            else:
                self._cursor = index
        else:
            heappop(heap)
        cls = entry.__class__
        if cls is _DeliverBatch:
            self._size -= entry.weight
            if entry is self._batch:
                self._batch = None
        elif cls is _TimerBatch:
            self._size -= len(entry.hosts)
        else:
            self._size -= 1
        return time, entry

    def pop_tick(self, horizon: Optional[float] = None):
        """Consume *every* event of the earliest instant in one call.

        Returns ``(time, buckets)`` where ``buckets`` is a list of
        ``_NUM_PRIORITIES`` lists in priority order; each entry is what
        ``pop_due`` would have returned -- a bare :class:`Message`, a
        whole :class:`_DeliverBatch`, a timer tuple, a whole
        :class:`_TimerBatch` or an :class:`Event`.
        Each of the instant's items leaves the heap with one ``heappop``
        in drain order, a bucket as one slice (its live part), so the
        per-entry order within each list is the ``pop_due`` order.  When
        ``horizon`` is given, an instant due after it is left untouched
        and ``None`` is returned; an empty queue also returns ``None``.

        Unlike ``pop_due``, events filed at the instant *while the
        caller processes the returned lists* open fresh items and
        surface on the next call.  Nothing under ``src/`` calls this
        since the tick lanes got their own flat lists; it stays for the
        frozen ``perf_kernels.events_tick`` benchmark kernel.
        """
        heap = self._heap
        if not heap:
            return None
        time = heap[0][0]
        if horizon is not None and time > horizon:
            return None
        out: List[List[Any]] = [[] for _ in range(_NUM_PRIORITIES)]
        removed = 0
        while heap and heap[0][0] == time:
            _, priority, _, x = heappop(heap)
            entries = list(self._live(x))
            if x.__class__ is list:
                self._retire(priority, x)
            out[priority] += entries
            for entry in entries:
                removed += _weight(entry)
                if entry is self._batch:
                    self._batch = None
        self._size -= removed
        return time, out
