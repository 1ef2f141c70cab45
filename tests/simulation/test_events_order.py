"""Scheduling-guard and ordering tests for the event queue.

``push()`` once rejected negative times while the fast paths
(``push_deliver``/``push_timer``/``push_multicast``) silently accepted
them; all four entry points now share one contract.

The drawn fuzz interleaves all four push paths, ``pop_due`` (with and
without a horizon) and ``pop_tick`` on a shared time grid, on float
times that each own a key, and at the times the queue's structure turns
on: a kind's last time, the last popped time and below the front.  It
checks ``len``, ``occupancy()`` and the ``iter_pending`` weights after
every operation and the drain order against a reference heap model.  A multicast is
one model entry weighing ``len(dests)``: it pops whole and leaves
``len`` whole.  A timer pops as its ``(host, name, info)`` tuple.
"""

import heapq
import itertools

import pytest
from hypothesis import strategies as st

from repro.simulation.events import (
    EventKind,
    EventQueue,
    _DeliverBatch,
    _KIND_PRIORITY,
)
from repro.simulation.messages import Message
from tests.drawn import drawn


# ---------------------------------------------------------------------------
# Regression: one time-validity contract across all four entry points
# ---------------------------------------------------------------------------

def test_negative_time_rejected_on_every_entry_point():
    """Negative, NaN and infinite times alike: a NaN key would enter the
    heap and silently break its order."""
    queue = EventQueue()
    message = Message(0, 1, "QUERY", None)
    for bad in (-1.0, -5e-324, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="time"):
            queue.push(bad, EventKind.FAIL, host=0)
        with pytest.raises(ValueError, match="time"):
            queue.push_deliver(bad, message)
        with pytest.raises(ValueError, match="time"):
            queue.push_timer(bad, 0, "flush", None)
        with pytest.raises(ValueError, match="time"):
            queue.push_multicast(bad, 0, (1, 2), "QUERY", None, 0.0, 1)
        # An empty multicast files nothing, but the contract is on the
        # call, not on what it files.
        with pytest.raises(ValueError, match="time"):
            queue.push_multicast(bad, 0, (), "QUERY", None, 0.0, 1)
    # Nothing leaked into the queue from the rejected calls.
    assert len(queue) == 0
    assert queue.occupancy()["slots"] == 0
    assert queue.pop_due(None) is None


# One filing per entry point, in the shape the law's ``_file`` takes.
_ENTRY_POINTS = {
    "push": ("push", 1),
    "push_deliver": ("deliver",),
    "push_timer": ("timer",),
    "push_multicast": ("multicast", 2),
}


def _drain(queue):
    out = []
    while (front := queue.pop_due(None)) is not None:
        out.append((front[0], front[1].__class__, _label(front[1])))
    return out


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
def test_a_refused_push_leaves_the_queue_as_it_was(entry_point, bad):
    """A refused time is never remembered as the time last filed at: the
    same refusal repeats, and pushes at the time last filed at (here
    2.0) and at others drain exactly as on a queue that never saw it."""
    labels = itertools.count()
    before = [(name, time, next(labels)) for time in (1.0, 2.0, 2.0)
              for name in sorted(_ENTRY_POINTS)]
    after = [(name, time, next(labels)) for time in (2.0, 2.0, 1.0, 3.0, 2.0)
             for name in sorted(_ENTRY_POINTS)]
    queue, fresh = EventQueue(), EventQueue()
    for target in (queue, fresh):
        for name, time, label in before:
            _file(target, _ENTRY_POINTS[name], time, label)
        assert target.pop_due(None)[0] == 1.0
    for _ in range(2):
        with pytest.raises(ValueError, match="time"):
            _file(queue, _ENTRY_POINTS[entry_point], bad, "refused")
        assert len(queue) == len(fresh)
    for target in (queue, fresh):
        for name, time, label in after:
            _file(target, _ENTRY_POINTS[name], time, label)
    assert len(queue) == len(fresh)
    assert _drain(queue) == _drain(fresh)
    assert len(queue) == 0


def test_zero_time_accepted_on_every_entry_point():
    queue = EventQueue()
    queue.push(0.0, EventKind.QUERY_START, host=0)
    queue.push_deliver(0.0, Message(0, 1, "QUERY", None))
    queue.push_timer(0.0, 0, "flush", None)
    queue.push_multicast(0.0, 0, (1, 2), "QUERY", None, 0.0, 1)
    assert len(queue) == 5


# ---------------------------------------------------------------------------
# What a pop hands out and leaves behind
# ---------------------------------------------------------------------------

def test_a_popped_timer_is_its_tuple_and_leaves_the_queue_empty():
    queue = EventQueue()
    assert queue.push_timer(1.0, 0, "flush", "info") is None
    assert queue.pop_due(None) == (1.0, (0, "flush", "info"))
    assert len(queue) == 0
    assert bool(queue) is False
    occupancy = queue.occupancy()
    assert (occupancy["pending"], occupancy["slots"],
            occupancy["horizon"]) == (0, 0, None)


def test_len_stays_exact_for_entries_filed_after_a_pop():
    queue = EventQueue()
    queue.push_timer(1.0, 0, "flush", None)
    queue.pop_due(None)
    queue.push_timer(2.0, 1, "flush", None)
    queue.push_multicast(2.0, 0, (1, 2, 3), "QUERY", None, 1.0, 1)
    assert len(queue) == queue.occupancy()["pending"] == 4
    assert queue.pop_due(None)[1].dests == (1, 2, 3)  # DELIVER first
    assert len(queue) == 1
    assert queue.pop_due(None)[1] == (1, "flush", None)
    assert len(queue) == 0


def test_a_popped_fast_path_delivery_is_the_message_itself():
    """No wrapper is built on either side of a fast-path delivery."""
    queue = EventQueue()
    message = Message(0, 1, "QUERY", None)
    queue.push_deliver(1.0, message)
    time, entry = queue.pop_due(None)
    assert time == 1.0 and entry is message
    assert len(queue) == 0
    assert queue.occupancy()["pending"] == 0


def test_two_queues_share_no_state():
    """Filing into or draining one queue leaves another's counts and
    order untouched."""
    queue, other = EventQueue(), EventQueue()
    other.push_timer(1.0, 0, "flush", None)
    queue.push_timer(0.5, 1, "flush", None)
    queue.push_timer(1.0, 2, "flush", None)
    assert (len(queue), len(other)) == (2, 1)
    assert other.pop_due(None) == (1.0, (0, "flush", None))
    assert len(queue) == 2
    assert [queue.pop_due(None)[1][0] for _ in range(2)] == [1, 2]
    assert queue.pop_due(None) is None and other.pop_due(None) is None


# ---------------------------------------------------------------------------
# Drawn fuzz: interleaved pushes and pops vs a reference heap model
# ---------------------------------------------------------------------------

_TIMES = (0.0, 0.5, 1.0, 1.5, 2.5, 7.25)
_KINDS = (EventKind.CUSTOM, EventKind.FAIL, EventKind.QUERY_START)

# The grid makes many events share a key (the fixed-delay regime); the
# floats give nearly every event a key of its own (variable delay).
_time = st.one_of(st.sampled_from(_TIMES), st.floats(0, 8, allow_nan=False))

# What is filed: an Event of one of ``_KINDS``, a bare delivery, a
# multicast to 1..4 destinations or a timer.
_what = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(range(len(_KINDS)))),
    st.tuples(st.just("deliver")),
    st.tuples(st.just("multicast"), st.integers(1, 4)),
    st.tuples(st.just("timer")),
)

# Where it is filed: a drawn time; "again", the time this priority was
# last filed at (repeats at one key, between pushes of the same kind at
# others); "popped", the time of the last pop (a key whose entries, a
# lone one included, have already popped); "under", a fraction of the
# front's time, at most the front's own (a lower key filed while the
# front may be half drained).
_where = st.one_of(
    st.tuples(st.just("at"), _time),
    st.tuples(st.just("again")),
    st.tuples(st.just("popped")),
    st.tuples(st.just("under"), st.floats(0, 1)),
)

# A file or pop op repeats 1..3 times, so buckets open and half drain
# often enough for one to be pre-empted by another.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("file"), _what, _where, st.integers(1, 3)),
        st.tuples(st.just("pop"), st.one_of(st.none(), _time),
                  st.integers(1, 3)),
        st.tuples(st.just("tick")),
    ),
    min_size=1, max_size=80,
)


def _label(entry):
    """Model label of one queue entry: ``data`` of an Event, ``info`` of
    a timer tuple, ``(payload, dest)`` of a message, ``(payload, dests)``
    of a whole multicast."""
    if entry.__class__ is Message:
        return entry.payload, entry.dest
    if entry.__class__ is _DeliverBatch:
        return entry.payload, entry.dests
    if entry.__class__ is tuple:
        return entry[2]
    return entry.data


def _labelled(front):
    """``(time, model label)`` of a popped ``(time, entry)`` pair."""
    time, entry = front
    return time, _label(entry)


def _file(queue, what, time, label):
    """File ``what`` at ``time`` through its entry point; return its
    model ``(priority, label, weight)``."""
    if what[0] == "push":
        kind = _KINDS[what[1]]
        queue.push(time, kind, host=0, data=label)
        return _KIND_PRIORITY[kind], label, 1
    if what[0] == "timer":
        queue.push_timer(time, 0, "flush", label)
        return _KIND_PRIORITY[EventKind.TIMER], label, 1
    deliver = _KIND_PRIORITY[EventKind.DELIVER]
    if what[0] == "deliver":
        # Fast-path bare message: FIFO position is its order.
        queue.push_deliver(time, Message(0, 0, "QUERY", label))
        return deliver, (label, 0), 1
    # One reference entry for the lot, weighing its destinations.
    dests = tuple(range(what[1]))
    queue.push_multicast(time, 0, dests, "QUERY", label, 0.0, 1)
    return deliver, (label, dests), len(dests)


def _push_pop_law(ops):
    queue = EventQueue(width=1.0)
    counter = itertools.count()
    labels = itertools.count()
    heap = []  # reference model: (time, priority, seq, label, weight)
    last_at = {}  # priority -> the time it was last filed at
    popped_at = 0.0

    for op in ops:
        if op[0] == "file":
            what, where = op[1], op[2]
            priority = (_KIND_PRIORITY[_KINDS[what[1]]] if what[0] == "push"
                        else _KIND_PRIORITY[EventKind.TIMER]
                        if what[0] == "timer"
                        else _KIND_PRIORITY[EventKind.DELIVER])
            if where[0] == "at":
                time = where[1]
            elif where[0] == "again":
                time = last_at.get(priority, 0.0)
            elif where[0] == "popped":
                time = popped_at
            else:
                time = where[1] * (heap[0][0] if heap else 8.0)
            last_at[priority] = time
            for _ in range(op[3]):
                priority, label, weight = _file(queue, what, time,
                                                next(labels))
                heapq.heappush(heap, (time, priority, next(counter), label,
                                      weight))
        elif op[0] == "pop":
            horizon = op[1]
            for _ in range(op[2]):
                if not heap or horizon is not None and heap[0][0] > horizon:
                    assert queue.pop_due(horizon) is None
                else:
                    expected = heapq.heappop(heap)
                    popped_at = expected[0]
                    assert _labelled(queue.pop_due(horizon)) == (
                        expected[0], expected[3])
        elif op[0] == "tick":
            # Reference: every entry of the front time, by priority.
            if not heap:
                assert queue.pop_tick() is None
            else:
                front = popped_at = heap[0][0]
                expected = [[] for _ in _KIND_PRIORITY]
                while heap and heap[0][0] == front:
                    entry = heapq.heappop(heap)
                    expected[entry[1]].append(entry[3])
                time, buckets = queue.pop_tick()
                assert time == front
                assert [[_label(entry) for entry in bucket]
                        for bucket in buckets] == expected
        pending = sum(entry[4] for entry in heap)
        assert len(queue) == queue.occupancy()["pending"] == pending
        assert sum(weight for _, weight in queue.iter_pending()) == pending
        times = {entry[0] for entry in heap}
        occupancy = queue.occupancy()
        assert (occupancy["slots"], occupancy["horizon"]) == (
            len(times), max(times, default=None))

    # Drain whatever is left and require the exact reference order.
    remaining = [heapq.heappop(heap) for _ in range(len(heap))]
    drained = [_labelled(queue.pop_due(None)) for _ in remaining]
    assert drained == [(entry[0], entry[3]) for entry in remaining]
    assert queue.pop_due(None) is None
    assert len(queue) == 0
    assert queue.occupancy()["pending"] == 0


def test_interleaved_push_pop_matches_reference_heap(request):
    """80 drawn op sequences in tier-1, ten times the named profile's
    count in CI."""
    drawn(request, _push_pop_law, plain=80, wide=10, ops=_ops)


# ---------------------------------------------------------------------------
# Pre-emption and re-created keys: the cases the cached front must get right
# ---------------------------------------------------------------------------

def test_preempted_bucket_resumes_behind_the_multicast_that_was_out():
    queue = EventQueue()
    queue.push_multicast(2.0, 0, (10, 11, 12), "QUERY", "batch", 0.0, 1)
    queue.push_deliver(2.0, Message(0, 13, "QUERY", "after"))
    assert queue.pop_due(None)[1].dests == (10, 11, 12)
    assert len(queue) == 1
    # An earlier key arrives while the multicast is being delivered: it
    # is the next pop, and the 2.0 bucket then resumes behind the batch,
    # whose three destinations are not counted (or met) a second time.
    queue.push_deliver(1.0, Message(0, 99, "QUERY", "earlier"))
    queue.push_deliver(2.0, Message(0, 14, "QUERY", "appended"))
    assert len(queue) == queue.occupancy()["pending"] == 3
    assert [(time, message.dest) for time, message in
            (queue.pop_due(None) for _ in range(3))] == [
        (1.0, 99), (2.0, 13), (2.0, 14)]
    assert queue.pop_due(None) is None


def test_a_bucket_preempted_by_a_bucket_resumes_where_it_stopped():
    """A half-drained bucket loses the front to a lower key that holds
    several entries: those drain first, then the first bucket resumes
    at its next entry, neither repeating nor skipping one."""
    queue = EventQueue()
    for dest in (10, 11, 12, 13):
        queue.push_deliver(2.0, Message(0, dest, "QUERY", None))
    assert [queue.pop_due(None)[1].dest for _ in range(2)] == [10, 11]
    for host in (1, 2, 3):
        queue.push_timer(1.0, host, "flush", None)
    queue.push_deliver(2.0, Message(0, 14, "QUERY", None))
    assert len(queue) == queue.occupancy()["pending"] == 6
    assert [queue.pop_due(None)[1][0] for _ in range(3)] == [1, 2, 3]
    assert sorted(message.dest for message, _ in queue.iter_pending()) == [
        12, 13, 14]
    assert [queue.pop_due(None)[1].dest for _ in range(3)] == [12, 13, 14]
    assert queue.pop_due(None) is None


def test_key_recreated_after_retirement_is_a_new_bucket():
    queue = EventQueue()
    queue.push_timer(1.0, 0, "flush", None)
    queue.push_timer(3.0, 3, "flush", None)
    assert queue.pop_due(None)[1] == (0, "flush", None)
    assert queue.pop_due(None)[1] == (3, "flush", None)  # retires 1.0
    # Both keys come back: 1.0 after its bucket was retired, 3.0 while its
    # exhausted bucket is still the cached front; 2.0 is new.
    queue.push_timer(3.0, 4, "flush", None)
    queue.push_timer(1.0, 1, "flush", None)
    queue.push_timer(2.0, 2, "flush", None)
    assert [queue.pop_due(None)[1][0] for _ in range(3)] == [1, 2, 4]
    assert len(queue) == 0
    assert queue.occupancy()["horizon"] is None


def test_pop_tick_of_a_preempted_bucket_returns_exactly_the_remainder():
    queue = EventQueue()
    queue.push_deliver(2.0, Message(0, 9, "QUERY", "first"))
    queue.push_multicast(2.0, 0, (10, 11, 12), "QUERY", "batch", 0.0, 1)
    queue.push_multicast(2.0, 0, (13, 14), "QUERY", "rest", 0.0, 1)
    queue.push_timer(2.0, 5, "flush", None)
    assert queue.pop_due(None)[1].dest == 9
    queue.push_deliver(1.0, Message(0, 99, "QUERY", "earlier"))
    assert queue.pop_due(None)[1].dest == 99
    assert queue.pop_due(None)[1].payload == "batch"
    assert len(queue) == 3

    time, buckets = queue.pop_tick()
    assert time == 2.0
    assert [_label(entry) for entry in
            buckets[_KIND_PRIORITY[EventKind.DELIVER]]] == [("rest", (13, 14))]
    assert buckets[_KIND_PRIORITY[EventKind.TIMER]] == [(5, "flush", None)]
    assert len(queue) == 0
    assert queue.pop_tick() is None


def test_pop_tick_of_an_earlier_bucket_keeps_the_walked_one_resumable():
    """``pop_tick`` retires every bucket it takes, and only the one the
    cursor walks may reset the cursor: a half-drained bucket at 2.0,
    pre-empted by a bucket at 1.0 that ``pop_tick`` takes whole, resumes
    at its next entry, never at its released prefix."""
    queue = EventQueue()
    for dest in (1, 2, 3):
        queue.push_deliver(2.0, Message(0, dest, "QUERY", "later"))
    assert queue.pop_due(None)[1].dest == 1  # the lone first entry
    assert queue.pop_due(None)[1].dest == 2  # the bucket, now walked
    queue.push_deliver(1.0, Message(0, 7, "QUERY", "earlier"))
    queue.push_deliver(1.0, Message(0, 8, "QUERY", "earlier"))
    time, buckets = queue.pop_tick()
    assert time == 1.0
    assert [message.dest for message in
            buckets[_KIND_PRIORITY[EventKind.DELIVER]]] == [7, 8]
    assert queue.pop_due(None)[1].dest == 3
    assert len(queue) == 0 and queue.pop_due(None) is None


# ---------------------------------------------------------------------------
# pop_tick: one whole instant per call
# ---------------------------------------------------------------------------

def test_pop_tick_returns_whole_instant_in_priority_order():
    queue = EventQueue()
    queue.push_timer(1.0, 7, "flush", None)
    queue.push_deliver(1.0, Message(0, 1, "QUERY", "a"))
    queue.push_multicast(1.0, 0, (2, 3), "QUERY", "b", 0.0, 1)
    queue.push(1.0, EventKind.FAIL, host=9)
    queue.push_timer(2.0, 8, "flush", None)

    time, buckets = queue.pop_tick()
    assert time == 1.0
    assert [len(bucket) for bucket in buckets] == [0, 0, 2, 0, 1, 1]
    deliveries = buckets[_KIND_PRIORITY[EventKind.DELIVER]]
    assert deliveries[0].payload == "a"          # bare message first (FIFO)
    assert deliveries[1].dests == (2, 3)         # unexpanded batch record
    assert buckets[_KIND_PRIORITY[EventKind.TIMER]] == [(7, "flush", None)]
    assert buckets[_KIND_PRIORITY[EventKind.FAIL]][0].host == 9
    # Weight accounting: 1 bare + 2 batched + timer + fail consumed.
    assert len(queue) == 1
    assert queue.pop_due(None)[0] == 2.0


def test_pop_tick_respects_horizon():
    queue = EventQueue()
    queue.push_timer(3.0, 0, "flush", None)
    queue.push_timer(3.0, 1, "flush", None)
    assert queue.pop_tick(horizon=2.0) is None
    assert len(queue) == 2

    time, buckets = queue.pop_tick(horizon=3.0)
    assert time == 3.0
    timers = buckets[_KIND_PRIORITY[EventKind.TIMER]]
    assert [timer[0] for timer in timers] == [0, 1]
    assert len(queue) == 0
    assert queue.pop_tick() is None


def test_pop_tick_after_partial_pop_due_returns_remainder():
    queue = EventQueue()
    queue.push_deliver(1.0, Message(0, 1, "QUERY", "first"))
    queue.push_deliver(1.0, Message(0, 2, "QUERY", "second"))
    queue.push_timer(1.0, 5, "flush", None)
    time, first = queue.pop_due(None)
    assert (time, first.payload) == (1.0, "first")

    time, buckets = queue.pop_tick()
    assert time == 1.0
    assert [m.payload for m in buckets[_KIND_PRIORITY[EventKind.DELIVER]]] \
        == ["second"]
    assert buckets[_KIND_PRIORITY[EventKind.TIMER]] == [(5, "flush", None)]
    assert len(queue) == 0
