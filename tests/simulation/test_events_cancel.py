"""Cancellation-lifecycle and scheduling-guard tests for the event queue.

Two confirmed bugs are locked down here:

* ``cancel()`` on an already-consumed event used to park the seq in the
  queue's cancelled set forever, so ``len()`` undercounted (and could go
  negative) and ``occupancy()["pending"]`` drifted.  Cancellation of
  consumed/unknown events must be a no-op.
* ``push()`` rejected negative times but the fast paths
  (``push_deliver``/``push_timer``/``push_multicast``) silently accepted
  them.  All four entry points now share one contract.

The hypothesis fuzz interleaves push/pop/cancel (including cancel-after-pop
and double-cancel) and checks ``len``, ``occupancy()["pending"]`` and the
drain order against a reference heap model after every operation.
"""

import heapq
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation.events import EventKind, EventQueue, _KIND_PRIORITY
from repro.simulation.messages import Message


# ---------------------------------------------------------------------------
# Regression: cancel of consumed/unknown events is a no-op
# ---------------------------------------------------------------------------

def test_cancel_after_pop_is_noop():
    """The ISSUE repro: push one timer, pop it, cancel it, take len()."""
    queue = EventQueue()
    event = queue.push_timer(1.0, 0, "flush", None)
    queue.pop_due(None)
    queue.cancel(event)  # already consumed: must not poison the queue
    assert len(queue) == 0
    assert bool(queue) is False
    assert queue.occupancy()["pending"] == 0
    assert queue.occupancy()["cancelled"] == 0


def test_cancel_after_pop_keeps_len_exact_for_later_events():
    queue = EventQueue()
    consumed = queue.push_timer(1.0, 0, "flush", None)
    queue.pop_due(None)
    queue.cancel(consumed)
    queue.push_timer(2.0, 1, "flush", None)
    assert len(queue) == 1  # used to report 0 (and -1 before the push)
    assert queue.pop_due(None)[1].host == 1


def test_double_cancel_counts_once():
    queue = EventQueue()
    event = queue.push_timer(1.0, 0, "flush", None)
    queue.push_timer(2.0, 1, "flush", None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 1
    assert queue.occupancy()["cancelled"] == 1
    assert queue.pop_due(None)[1].host == 1
    assert len(queue) == 0


def test_cancel_after_lazy_discard_is_noop():
    """Once the drain has discarded a cancelled event, cancelling it again
    (or re-cancelling after it left the queue) must not recount it."""
    queue = EventQueue()
    event = queue.push_timer(1.0, 0, "flush", None)
    queue.push_timer(2.0, 1, "flush", None)
    queue.cancel(event)
    # The drain discards the cancelled event.
    assert queue.pop_due(None)[1].host == 1
    queue.cancel(event)
    assert len(queue) == 0
    assert queue.occupancy()["cancelled"] == 0


def test_cancel_foreign_event_is_noop():
    """An event never scheduled on *this* queue cannot disturb its counts."""
    queue = EventQueue()
    other = EventQueue()
    foreign = other.push_timer(1.0, 0, "flush", None)
    queue.push_timer(1.0, 1, "flush", None)
    queue.cancel(foreign)
    assert len(queue) == 1
    assert queue.occupancy()["cancelled"] == 0
    # The foreign queue still drains its (cancelled) event's slot cleanly.
    other.cancel(foreign)
    assert len(other) == 0


def test_cancel_popped_fast_path_delivery_is_noop():
    """A fast-path delivery pops as its bare message; cancelling that
    must be a no-op (only Event wrappers are ever cancellable)."""
    queue = EventQueue()
    queue.push_deliver(1.0, Message(0, 1, "QUERY", None))
    _, message = queue.pop_due(None)
    queue.cancel(message)
    assert len(queue) == 0
    assert queue.occupancy()["pending"] == 0


# ---------------------------------------------------------------------------
# Regression: one time-validity contract across all four entry points
# ---------------------------------------------------------------------------

def test_negative_time_rejected_on_every_entry_point():
    queue = EventQueue()
    message = Message(0, 1, "QUERY", None)
    with pytest.raises(ValueError):
        queue.push(-1.0, EventKind.TIMER, host=0)
    with pytest.raises(ValueError):
        queue.push_deliver(-1.0, message)
    with pytest.raises(ValueError):
        queue.push_timer(-5.0, 0, "flush", None)
    with pytest.raises(ValueError):
        queue.push_multicast(-2.0, 0, (1, 2), "QUERY", None, 0.0, 1)
    # Nothing leaked into the queue from the rejected calls.
    assert len(queue) == 0
    assert queue.pop_due(None) is None


def test_zero_time_accepted_on_every_entry_point():
    queue = EventQueue()
    queue.push(0.0, EventKind.QUERY_START, host=0)
    queue.push_deliver(0.0, Message(0, 1, "QUERY", None))
    queue.push_timer(0.0, 0, "flush", None)
    queue.push_multicast(0.0, 0, (1, 2), "QUERY", None, 0.0, 1)
    assert len(queue) == 5


# ---------------------------------------------------------------------------
# Hypothesis fuzz: interleaved push/pop/cancel vs a reference heap model
# ---------------------------------------------------------------------------

_TIMES = (0.0, 0.5, 1.0, 1.5, 2.5, 7.25)
_KINDS = (EventKind.TIMER, EventKind.CUSTOM, EventKind.FAIL,
          EventKind.DELIVER, EventKind.QUERY_START)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from(range(len(_TIMES))),
                  st.sampled_from(range(len(_KINDS)))),
        st.tuples(st.just("deliver"), st.sampled_from(range(len(_TIMES)))),
        st.tuples(st.just("pop")),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    ),
    min_size=1, max_size=80,
)


def _labelled(front):
    """``(time, model label)`` of a popped ``(time, entry)`` pair: the
    label rides in ``data`` of an Event, in the payload of a message."""
    time, entry = front
    return time, (entry.payload if entry.__class__ is Message
                  else entry.data)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ops)
def test_interleaved_push_pop_cancel_matches_reference_heap(ops):
    queue = EventQueue(width=1.0)
    counter = itertools.count()
    heap = []            # reference model: (time, priority, seq, label)
    alive = {}           # label -> heap entry still pending in the model
    handles = []         # push-returned events, cancellable by index
    handle_labels = []   # parallel: model label per handle

    def model_pop():
        while heap:
            entry = heapq.heappop(heap)
            if entry[3] in alive:
                del alive[entry[3]]
                return entry
        return None

    def check_counts():
        assert len(queue) == len(alive)
        assert len(queue) >= 0
        assert queue.occupancy()["pending"] == len(alive)

    label_counter = itertools.count()
    for op in ops:
        if op[0] == "push":
            time, kind = _TIMES[op[1]], _KINDS[op[2]]
            label = next(label_counter)
            event = queue.push(time, kind, host=0, data=label)
            seq = next(counter)
            entry = (time, _KIND_PRIORITY[kind], seq, label)
            heapq.heappush(heap, entry)
            alive[label] = entry
            handles.append(event)
            handle_labels.append(label)
        elif op[0] == "deliver":
            # Fast-path bare message: no seq, FIFO position is its order.
            time = _TIMES[op[1]]
            label = next(label_counter)
            queue.push_deliver(time, Message(0, 1, "QUERY", label))
            seq = next(counter)
            entry = (time, _KIND_PRIORITY[EventKind.DELIVER], seq, label)
            heapq.heappush(heap, entry)
            alive[label] = entry
        elif op[0] == "pop":
            expected = model_pop()
            if expected is None:
                assert queue.pop_due(None) is None
            else:
                assert _labelled(queue.pop_due(None)) == (
                    expected[0], expected[3])
        elif op[0] == "cancel":
            if handles:
                index = op[1] % len(handles)
                queue.cancel(handles[index])
                alive.pop(handle_labels[index], None)
        check_counts()

    # Drain whatever is left and require the exact reference order.
    remaining = [model_pop() for _ in range(len(alive))]
    drained = [_labelled(queue.pop_due(None)) for _ in remaining]
    assert drained == [(entry[0], entry[3]) for entry in remaining]
    assert len(queue) == 0
    assert queue.occupancy()["pending"] == 0


# ---------------------------------------------------------------------------
# pop_tick: the vector lane's batch drain
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
    assert buckets[_KIND_PRIORITY[EventKind.TIMER]][0].host == 7
    assert buckets[_KIND_PRIORITY[EventKind.FAIL]][0].host == 9
    # Weight accounting: 1 bare + 2 batched + timer + fail consumed.
    assert len(queue) == 1
    assert queue.pop_due(None)[0] == 2.0


def test_pop_tick_respects_horizon_and_skips_cancelled():
    queue = EventQueue()
    keep = queue.push_timer(3.0, 0, "flush", None)
    dropped = queue.push_timer(3.0, 1, "flush", None)
    queue.cancel(dropped)
    assert queue.pop_tick(horizon=2.0) is None
    assert len(queue) == 1

    time, buckets = queue.pop_tick(horizon=3.0)
    assert time == 3.0
    timers = buckets[_KIND_PRIORITY[EventKind.TIMER]]
    assert [event.host for event in timers] == [0]
    assert len(queue) == 0
    assert queue.occupancy()["cancelled"] == 0
    assert queue.pop_tick() is None
    # The instant's events were consumed: cancelling them now is a no-op.
    queue.cancel(keep)
    assert len(queue) == 0


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
    assert [e.host for e in buckets[_KIND_PRIORITY[EventKind.TIMER]]] == [5]
    assert len(queue) == 0
