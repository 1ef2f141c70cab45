"""Event queue for the discrete-event simulator.

Events drain in ``(time, kind priority, insertion)`` order, so ties are
broken deterministically and a run is reproducible for a fixed seed.

One structure holds them: a dict ``(time, priority) -> bucket`` -- a
FIFO list, position *is* insertion order -- plus one ``heapq`` of those
keys, with the front bucket and its cursor cached on the queue.  A push
is a tuple, a dict lookup and an append (a new key adds a list and a
``heappush``); a pop reads the cached front and retires an exhausted
key with one ``heappop``.  Keys rather than per-timestamp slots because
the traffic is bimodal (counted on the benchmark's 6000-host floods):
at fixed delay 84 215 pushes share 23 keys and the heap is never deeper
than 3, under a variable-delay model 61 394 pushes make 61 394 keys --
one tuple, one list and one C-level sift each, and nothing else.

Three cases keep the order exact:

* an event appended to the bucket *being drained* (a zero-delay timer)
  lands beyond the cursor and still runs in that instant: a bucket that
  ran dry stays filed until the next pop finds it so;
* a new key below the front becomes the front at once: the pre-empted
  bucket drops its drained prefix and later resumes where it stopped;
* a key re-created after its bucket was retired is a new bucket: it
  sorts after everything already popped and before every larger key.

A multicast is *one* entry weighing ``len(dests)``: it is filed, popped
and counted out of ``len`` whole as one :class:`_DeliverBatch` -- the
:class:`Message` its destinations receive, plus their ids -- and this
module never builds a per-destination :class:`Message`: whoever pops a
batch delivers it.  A host timer is the plain tuple
``(host, name, info)`` -- what its handler reads, and nothing else.

The engine pushes through ``push_deliver`` / ``push_multicast`` /
``push_timer``, pops through ``pop_due`` (one call site:
``EventEngine._drain``) and delivers multicasts there; ``push`` is the
:class:`Event` API for the other kinds (churn, query starts, custom
events; it refuses a DELIVER or TIMER), and the tick lanes' gate only
asks ``len``.  Nothing filed is ever withdrawn:
there is no cancellation, so ``len`` is the count of what was filed and
not yet popped.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from itertools import islice
from math import inf
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.simulation.clock import tick_index
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

#: The kinds :meth:`EventQueue.push` files as an :class:`Event`: a
#: delivery is filed as a message, a timer as a tuple, and the engine
#: handles them in no other shape.
_EVENT_PRIORITY = {kind: priority for kind, priority in _KIND_PRIORITY.items()
                   if kind not in (EventKind.DELIVER, EventKind.TIMER)}


class Event:
    """A scheduled simulation event filed through :meth:`EventQueue.push`.

    Events are never compared: FIFO position in their bucket is their
    order.
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
    """One multicast: the :class:`Message` every destination receives,
    plus the ``dests`` it goes to, in delivery order.

    It is a single queue entry standing for ``len(dests)`` deliveries.
    A multicast to ``d`` neighbors filed as ``d`` messages keeps hundreds
    of thousands of them alive in the queue during one flood wave at
    100k+ hosts, dominating peak RSS.  The batch stores the shared fields
    once (the destination tuple is the network's cached packed view, so
    it is not even copied) and is popped whole; the engine then hands
    this same object to each destination's handler, setting ``dest``
    before each call (``-1`` until the first).
    """

    __slots__ = ("dests",)

    def __init__(self, sender, dests, kind, payload, sent_at, chain_depth,
                 wireless, query_id, vtime):
        self.sender = sender
        self.dest = -1
        self.dests = dests
        self.kind = kind
        self.payload = payload
        self.sent_at = sent_at
        self.chain_depth = chain_depth
        self.wireless = wireless
        self.query_id = query_id
        self.vtime = vtime


def _check_time(time: float) -> None:
    if not 0.0 <= time < inf:  # NaN would silently break the heap
        raise ValueError(
            f"events need a finite, non-negative time, not {time!r}")


class EventQueue:
    """Events ordered by ``(time, kind priority, insertion)``.

    Time-validity contract: **every** scheduling entry point (``push``,
    ``push_deliver``, ``push_timer``, ``push_multicast``) rejects a
    negative, infinite or NaN time with :class:`ValueError` -- stated
    once, in :func:`_check_time`, which :meth:`_bucket_at` applies to
    each new key (a key already filed passed it) and an empty multicast,
    which files nothing, applies itself.

    Args:
        width: the epoch unit of ``occupancy()["current_epoch"]`` (the
            engine passes the delay bound ``delta``).  No push or pop
            reads it: the drain order and its cost are width-independent.
    """

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError("epoch width must be positive")
        self._width = float(width)
        self._buckets: Dict[Tuple[float, int], List[Any]] = {}
        self._keys: List[Tuple[float, int]] = []  # heap; one entry per bucket
        # The bucket of ``_keys[0]``, the index of its next entry and its
        # time; with no key pending, an empty list (exhausted, like a
        # drained bucket, so the pop path needs no separate test for it).
        self._front: List[Any] = []
        self._cursor = 0
        self._time = 0.0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _bucket_at(self, time: float, priority: int) -> List[Any]:
        """The FIFO bucket of ``(time, priority)``, filing a new key once."""
        key = (time, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            _check_time(time)
            bucket = self._buckets[key] = []
            heappush(self._keys, key)
            if self._keys[0] is key:
                # A new minimum pre-empts the front, which drops its
                # drained prefix to resume at index 0 like any other.
                del self._front[:self._cursor]
                self._front = bucket
                self._cursor = 0
                self._time = time
        return bucket

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, kind: EventKind, host: Optional[int] = None,
             data: Any = None) -> Event:
        """Schedule a QUERY_START, JOIN, CUSTOM or FAIL event and return it.

        A DELIVER or TIMER is refused here, at the call, with
        :class:`ValueError`: the engine takes those kinds only as
        :meth:`push_deliver` / :meth:`push_multicast` messages and
        :meth:`push_timer` tuples.
        """
        try:
            priority = _EVENT_PRIORITY[kind]
        except KeyError:
            raise ValueError(
                f"{kind!r} is not filed as an Event: use push_deliver / "
                f"push_multicast for a delivery, push_timer for a timer"
            ) from None
        event = Event(time, priority, kind, host, data)
        self._bucket_at(time, priority).append(event)
        self._size += 1
        return event

    def push_deliver(self, time: float, message: Message) -> None:
        """Fast-path scheduling of a message delivery (the hot event kind).

        The bare :class:`Message` is stored in the deliver bucket of its
        instant with no :class:`Event` wrapper, and a bare message is
        what the engine delivers.
        """
        self._bucket_at(time, _DELIVER_PRIORITY).append(message)
        self._size += 1

    def push_timer(self, time: float, host: int, name: str, info: Any) -> None:
        """Schedule a host timer: the tuple ``(host, name, info)`` in the
        TIMER bucket of its instant, and that tuple is what pops.  Like a
        bare message it is the one shape the engine handles for its kind.
        """
        self._bucket_at(time, _TIMER_PRIORITY).append((host, name, info))
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
        """Schedule one multicast's deliveries without materialising them.

        The bucket holds one :class:`_DeliverBatch` -- the one message
        all destinations receive -- where one :meth:`push_deliver` per
        destination would hold ``len(dests)`` messages; ``len`` counts it
        as ``len(dests)`` and the engine delivers it in ``dests`` order,
        exactly as those messages would drain.  This is the engine's
        fixed-delay multicast fast path.  An empty ``dests`` files
        nothing.
        """
        if not dests:
            _check_time(time)
            return
        self._bucket_at(time, _DELIVER_PRIORITY).append(
            _DeliverBatch(sender, dests, kind, payload, sent_at,
                          chain_depth, wireless, query_id, vtime))
        self._size += len(dests)

    # ------------------------------------------------------------------
    # Introspection (pull-based; never touched by the drain hot path)
    # ------------------------------------------------------------------
    def _live(self, bucket: List[Any]) -> Iterator[Any]:
        """The unconsumed entries of ``bucket``, in order (only the front
        bucket has a consumed prefix)."""
        return islice(bucket, self._cursor if bucket is self._front else 0,
                      None)

    def occupancy(self) -> Dict[str, Any]:
        """Queue depth and the pending time window, computed on demand.

        Walks the bucket table (one entry per key, looking at most at
        one entry of each bucket) -- far from touching every event, so a
        metrics snapshot stays safe to take mid-run at any scale.

        ``slots`` counts the distinct timestamps that still have an
        unconsumed entry, ``horizon`` is the latest of them and
        ``current_epoch`` the index, in units of ``width``, of the
        earliest -- exactly the window the sharded lane's barrier
        scheduler reasons about.  Both are ``None`` when nothing is
        pending; already-drained positions never count.
        """
        live = [key[0] for key, bucket in self._buckets.items()
                if next(self._live(bucket), None) is not None]
        return {
            "pending": self._size,
            "slots": len(set(live)),
            "horizon": max(live, default=None),
            "current_epoch": (tick_index(min(live), self._width) if live
                              else None),
        }

    def iter_pending(self) -> Iterator[Any]:
        """Yield ``(entry, weight)`` for every queued entry.

        Non-destructive and unordered (bucket-table order).  ``entry`` is
        a bare :class:`Message`, a :class:`_DeliverBatch` (``weight`` =
        its destinations), a timer's ``(host, name, info)`` tuple or an
        :class:`Event`; already-popped positions are skipped.  The
        weights sum to ``len(queue)``.  Intended for metrics collectors,
        not for draining.
        """
        for bucket in self._buckets.values():
            for entry in self._live(bucket):
                if entry.__class__ is _DeliverBatch:
                    yield entry, len(entry.dests)
                else:
                    yield entry, 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _next_bucket(self) -> bool:
        """Retire the exhausted front bucket and cache the next one.

        Returns whether there is one.  Called by the pop *after* the
        bucket ran dry, so an event appended to the instant being drained
        needs no new key: it is met at the cursor.
        """
        keys = self._keys
        if not keys:
            return False
        del self._buckets[heappop(keys)]
        self._cursor = 0
        if not keys:
            self._front = []
            return False
        key = keys[0]
        self._front = self._buckets[key]
        self._time = key[0]
        return True

    def pop_due(self, horizon: Optional[float]):
        """Consume and return ``(time, entry)`` for the earliest live entry.

        This is the drain API.  ``entry`` is a bare :class:`Message` for
        a fast-path delivery, a whole :class:`_DeliverBatch` for a
        multicast (``len`` drops by ``len(entry.dests)``; delivering it
        to each destination is the caller's job), the ``(host, name,
        info)`` tuple of a :meth:`push_timer` timer and an :class:`Event`
        for everything else.  When ``horizon`` is given, an entry due
        after it is *not* consumed and ``None`` is returned; ``None``
        consumes unconditionally.  An empty queue returns ``None``.

        Whatever is filed while the caller works through a batch sorts
        against the *popped* position: at the batch's own key it lands
        behind it, at a later key it drains later -- both as if the
        batch's deliveries had been filed one by one.  Only a key *below*
        an in-progress DELIVER bucket (a QUERY_START or JOIN at this very
        instant) would have cut in between two destinations and now runs
        after the last; no message handler can file one
        (``HostContext.send`` delays lie in ``(0, delta]``,
        ``set_timer`` files at TIMER priority).
        """
        while True:
            bucket = self._front
            index = self._cursor
            if index == len(bucket):
                if not self._next_bucket():
                    return None
                continue
            time = self._time
            if horizon is not None and time > horizon:
                return None
            entry = bucket[index]
            bucket[index] = None  # release the popped position
            self._cursor = index + 1
            if entry.__class__ is _DeliverBatch:
                self._size -= len(entry.dests)
            else:
                self._size -= 1
            return time, entry

    def pop_tick(self, horizon: Optional[float] = None):
        """Consume *every* event of the earliest instant in one call.

        Returns ``(time, buckets)`` where ``buckets`` is a list of
        ``_NUM_PRIORITIES`` lists in priority order; each entry is what
        ``pop_due`` would have returned -- a bare :class:`Message`, a
        whole :class:`_DeliverBatch`, a timer tuple or an :class:`Event`.
        The instant's keys are retired exactly as if it had been drained
        with ``pop_due`` -- the per-entry order within each list is the
        drain order.  When ``horizon`` is given, an instant due after it
        is left untouched and ``None`` is returned; an empty queue also
        returns ``None``.

        Unlike ``pop_due``, events appended to the instant *while the
        caller processes the returned lists* land in fresh buckets and
        surface on the next call.  Nothing under ``src/`` calls this
        since the tick lanes got their own flat lists; it stays for the
        frozen ``perf_kernels.events_tick`` benchmark kernel.
        """
        keys = self._keys
        while self._cursor < len(self._front) or self._next_bucket():
            time = self._time
            if horizon is not None and time > horizon:
                return None
            out: List[List[Any]] = [[] for _ in range(_NUM_PRIORITIES)]
            removed = 0
            while True:  # each bucket of the instant in turn
                bucket = self._front
                entries = bucket[self._cursor:]
                out[keys[0][1]] += entries
                for entry in entries:
                    removed += (len(entry.dests)
                                if entry.__class__ is _DeliverBatch else 1)
                self._cursor = len(bucket)
                if not self._next_bucket() or self._time != time:
                    break
            self._size -= removed
            if any(out):
                return time, out
        return None
