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
one model entry weighing ``len(dests)``, and a timer one weighing 1.  The
queue files a run of same-key sends (or timers) as one batch that pops
whole, so each pop is expanded into its single stimuli
(``tests/simulation/stimuli.py``) and compared with as many model
entries; a lone timer pops as its ``(host, name, info)`` tuple.
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
    _TimerBatch,
)
from repro.simulation.messages import Message
from tests.drawn import drawn
from tests.simulation.stimuli import Drain, Send, stimuli


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
        out += [(front[0], stimulus.__class__, _label(stimulus))
                for stimulus in stimuli(front[1])]
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
    [send] = stimuli(queue.pop_due(None)[1])
    assert send.dests == (1, 2, 3)  # DELIVER first
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
    """Model label of one stimulus: ``data`` of an Event, ``info`` of a
    timer tuple, ``(payload, dest)`` of a message, ``(payload, dests)``
    of a whole multicast."""
    if entry.__class__ is Message:
        return entry.payload, entry.dest
    if entry.__class__ is Send:
        return entry.payload, entry.dests
    if entry.__class__ is tuple:
        return entry[2]
    return entry.data


def _labelled(front):
    """``(time, model label)`` of each stimulus of a popped ``(time,
    entry)`` pair."""
    time, entry = front
    return [(time, _label(stimulus)) for stimulus in stimuli(entry)]


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
                    # One pop hands out a whole batch: as many model
                    # entries, the next ones in the reference order.
                    got = _labelled(queue.pop_due(horizon))
                    expected = [heapq.heappop(heap) for _ in got]
                    popped_at = expected[0][0]
                    assert got == [(entry[0], entry[3])
                                   for entry in expected]
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
                assert [[_label(stimulus) for entry in bucket
                         for stimulus in stimuli(entry)]
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
    drained = []
    while len(drained) < len(remaining):
        drained += _labelled(queue.pop_due(None))
    assert drained == [(entry[0], entry[3]) for entry in remaining]
    assert queue.pop_due(None) is None
    assert len(queue) == 0
    assert queue.occupancy()["pending"] == 0


def test_interleaved_push_pop_matches_reference_heap(request):
    """80 drawn op sequences in tier-1, ten times the named profile's
    count in CI."""
    drawn(request, _push_pop_law, plain=80, wide=10, ops=_ops)


# ---------------------------------------------------------------------------
# Batches: same-key runs share one entry, and drain as their stimuli would
# ---------------------------------------------------------------------------

class _Session:
    """A stand-in for the engine's session: compared by identity."""

    __slots__ = ("qid",)

    def __init__(self, qid):
        self.qid = qid


_SESSIONS = (_Session(1), _Session(2))
_SHARED = {"shared": True}

# A send's key (kind, sent_at, chain_depth, wireless, query_id, vtime
# offset): the first, and one per field that differs from it.
_SEND_KEYS = (
    ("QUERY", 0.0, 1, False, 1, 0.0),
    ("REPLY", 0.0, 1, False, 1, 0.0),
    ("QUERY", 0.5, 1, False, 1, 0.0),
    ("QUERY", 0.0, 2, False, 1, 0.0),
    ("QUERY", 0.0, 1, True, 1, 0.0),
    ("QUERY", 0.0, 1, False, 2, 0.0),
    ("QUERY", 0.0, 1, False, 1, 0.25),
)

# A timer's key (name, data, chain_depth, session, vfire offset), the
# same way; ``"fresh"`` data is a new dict per push, equal to every
# other one and never the same object, so it must never merge.
_TIMER_KEYS = (
    ("flush", None, 1, 0, 0.0),
    ("flush", _SHARED, 1, 0, 0.0),
    ("deadline", None, 1, 0, 0.0),
    ("flush", "fresh", 1, 0, 0.0),
    ("flush", None, 2, 0, 0.0),
    ("flush", None, 1, 1, 0.0),
    ("flush", None, 1, 0, 0.25),
)

# A key index: the first key half the time, so that runs of it and near
# misses (a key differing from it in one field) are frequent.
def _key(keys):
    return st.one_of(st.just(0), st.sampled_from(range(len(keys))))


# One filing of a run: a send to 1..3 destinations, a timer, a bare
# message (which must close an open send batch) or an Event.
_item = st.one_of(
    st.tuples(st.just("send"), _key(_SEND_KEYS), st.integers(1, 3)),
    st.tuples(st.just("timer"), _key(_TIMER_KEYS)),
    st.tuples(st.just("deliver")),
    st.tuples(st.just("push"), st.sampled_from(range(len(_KINDS)))),
)

# Where a run is filed: a grid time; the time the last run was filed at
# (the open keys); the time of the last pop (a popped batch's key, maybe
# the one mid-drain); under the front (a smaller item pre-empting a
# half-drained bucket).
_batch_where = st.one_of(
    st.tuples(st.just("at"), st.sampled_from((0.0, 1.0, 2.0))),
    st.tuples(st.just("again")),
    st.tuples(st.just("popped")),
    st.tuples(st.just("under"), st.floats(0, 1)),
)

_batch_ops = st.lists(
    st.one_of(
        st.tuples(st.just("file"), _batch_where,
                  st.lists(_item, min_size=1, max_size=8)),
        st.tuples(st.just("pop"), st.integers(1, 3)),
        st.tuples(st.just("tick")),
    ),
    min_size=1, max_size=40,
)


def _stimulus_label(stimulus):
    """What one stimulus must carry: a send's every field, a timer's host,
    name and ``info`` (its data and session by identity), a message's
    payload and an event's data."""
    if stimulus.__class__ is Send:
        return tuple(stimulus)
    if stimulus.__class__ is tuple:
        host, name, (data, depth, session, vfire) = stimulus
        return host, name, id(data), depth, id(session), vfire
    if stimulus.__class__ is Message:
        return stimulus.payload
    return stimulus.data


def _file_batchable(queue, what, time, label, keep):
    """File one stimulus; return its ``(priority, label, weight)``."""
    if what[0] == "send":
        kind, sent_at, depth, wireless, qid, offset = _SEND_KEYS[what[1]]
        dests = tuple(range(what[2]))
        queue.push_multicast(time, label, dests, kind, label, sent_at, depth,
                             wireless, qid, time + offset)
        return (_KIND_PRIORITY[EventKind.DELIVER],
                (label, dests, label, kind, sent_at, depth, wireless, qid,
                 time + offset), len(dests))
    if what[0] == "timer":
        name, data, depth, session, offset = _TIMER_KEYS[what[1]]
        if data == "fresh":
            data = {"shared": True}
            keep.append(data)  # its id stays its own
        session = _SESSIONS[session]
        info = (data, depth, session, time + offset)
        queue.push_timer(time, label, name, info)
        return (_KIND_PRIORITY[EventKind.TIMER],
                (label, name, id(data), depth, id(session), time + offset), 1)
    if what[0] == "deliver":
        queue.push_deliver(time, Message(0, 0, "QUERY", label))
        return _KIND_PRIORITY[EventKind.DELIVER], label, 1
    kind = _KINDS[what[1]]
    queue.push(time, kind, host=0, data=label)
    return _KIND_PRIORITY[kind], label, 1


def _batching_law(ops):
    queue = EventQueue(width=1.0)
    counter = itertools.count()
    labels = itertools.count()
    heap = []  # reference model: (time, priority, seq, label, weight)
    filed_at = popped_at = 0.0
    keep = []

    for op in ops:
        if op[0] == "file":
            _, where, items = op
            if where[0] == "at":
                time = where[1]
            elif where[0] == "again":
                time = filed_at
            elif where[0] == "popped":
                time = popped_at
            else:
                time = where[1] * (heap[0][0] if heap else 2.0)
            filed_at = time
            for what in items:
                filed = _file_batchable(queue, what, time, next(labels), keep)
                heapq.heappush(heap, (time, filed[0], next(counter),
                                      filed[1], filed[2]))
        elif op[0] == "pop":
            for _ in range(op[1]):
                front = queue.pop_due(None)
                if not heap:
                    assert front is None
                    continue
                time, entry = front
                got = [_stimulus_label(stimulus)
                       for stimulus in stimuli(entry)]
                expected = [heapq.heappop(heap) for _ in got]
                popped_at = time
                assert [(time, label) for label in got] == [
                    (model[0], model[3]) for model in expected]
        else:
            if not heap:
                assert queue.pop_tick() is None
            else:
                front = popped_at = heap[0][0]
                expected = [[] for _ in _KIND_PRIORITY]
                while heap and heap[0][0] == front:
                    model = heapq.heappop(heap)
                    expected[model[1]].append(model[3])
                time, buckets = queue.pop_tick()
                assert time == front
                assert [[_stimulus_label(stimulus) for entry in bucket
                         for stimulus in stimuli(entry)]
                        for bucket in buckets] == expected
        pending = sum(model[4] for model in heap)
        assert len(queue) == pending
        assert sum(weight for _, weight in queue.iter_pending()) == pending

    drained = []
    while (front := queue.pop_due(None)) is not None:
        drained += [(front[0], _stimulus_label(stimulus))
                    for stimulus in stimuli(front[1])]
    remaining = [heapq.heappop(heap) for _ in range(len(heap))]
    assert drained == [(model[0], model[3]) for model in remaining]
    assert len(queue) == 0


def test_batches_drain_as_their_stimuli_in_the_reference_order(request):
    """Runs of sends, timers and bare messages at one time, filed at the
    open keys, at a popped batch's key and under a half-drained bucket;
    keys repeat or miss by one field (two sessions or queries alternating
    among them), and equal-but-distinct timer data must split.  Expanded,
    every pop is the reference heap's next stimuli, each with its own
    payload, data and session.  80 drawn op sequences in tier-1, ten
    times the named profile's count in CI."""
    drawn(request, _batching_law, plain=80, wide=10, ops=_batch_ops)


def test_a_run_of_same_key_sends_is_one_entry():
    queue = EventQueue()
    for sender in (4, 5, 6):
        queue.push_multicast(1.0, sender, (sender, 9), "QUERY", sender, 0.0,
                             1, False, 1, 1.0)
    assert len(queue) == 6
    time, batch = queue.pop_due(None)
    assert batch.sends == [(4, (4, 9), 4), (5, (5, 9), 5), (6, (6, 9), 6)]
    assert batch.weight == 6 and len(queue) == 0
    assert queue.pop_due(None) is None


@pytest.mark.parametrize("variant", range(1, len(_SEND_KEYS)))
def test_a_send_that_misses_the_key_by_one_field_opens_a_batch(variant):
    queue = EventQueue()
    for label, key in enumerate((0, 0, variant)):
        kind, sent_at, depth, wireless, qid, offset = _SEND_KEYS[key]
        queue.push_multicast(1.0, label, (label,), kind, label, sent_at,
                             depth, wireless, qid, 1.0 + offset)
    popped = [queue.pop_due(None)[1] for _ in range(2)]
    assert [batch.sends for batch in popped] == [
        [(0, (0,), 0), (1, (1,), 1)], [(2, (2,), 2)]]
    assert queue.pop_due(None) is None


@pytest.mark.parametrize("variant", range(1, len(_TIMER_KEYS)))
def test_a_timer_that_misses_the_key_by_one_field_stays_its_own(variant):
    """Missed by a lone tuple (host 2) and by a batch (host 5) alike."""
    queue = EventQueue()
    for host, key in enumerate((0, 0, variant, 0, 0, variant)):
        name, data, depth, session, offset = _TIMER_KEYS[key]
        if data == "fresh":
            data = {"shared": True}
        queue.push_timer(1.0, host, name,
                         (data, depth, _SESSIONS[session], 1.0 + offset))
    popped = [queue.pop_due(None)[1] for _ in range(5)]
    assert [entry[0] for entry in popped[:3]] == [0, 1, 2]
    assert popped[3].hosts == [3, 4]
    assert popped[4][:2] == (5, _TIMER_KEYS[variant][0])
    assert queue.pop_due(None) is None


def test_a_bare_message_or_another_key_closes_the_open_batch():
    queue = EventQueue()
    queue.push_multicast(1.0, 0, (1,), "QUERY", "a", 0.0, 1)
    queue.push_deliver(1.0, Message(0, 2, "QUERY", "bare"))
    queue.push_multicast(1.0, 0, (3,), "QUERY", "b", 0.0, 1)
    queue.push_multicast(1.0, 0, (4,), "QUERY", "c", 0.0, 2)  # deeper
    queue.push_multicast(1.0, 0, (5,), "QUERY", "d", 0.0, 2)
    popped = [queue.pop_due(None)[1] for _ in range(4)]
    assert [[send.payload for send in stimuli(entry)] for entry in popped
            ] == [["a"], ["bare"], ["b"], ["c", "d"]]


def test_a_popped_batch_never_grows():
    """A send filed at the key of a batch being delivered is filed
    behind it, as a new entry, and still drains in that instant."""
    queue = EventQueue()
    queue.push_multicast(1.0, 0, (1, 2), "QUERY", "out", 0.0, 1)
    time, batch = queue.pop_due(None)
    queue.push_multicast(1.0, 0, (3,), "QUERY", "after", 0.0, 1)
    assert batch.sends == [(0, (1, 2), "out")] and batch.weight == 2
    assert queue.pop_due(None)[1].sends == [(0, (3,), "after")]
    assert len(queue) == 0


def test_a_batch_popped_by_pop_tick_never_grows():
    queue = EventQueue()
    queue.push_multicast(1.0, 0, (1, 2), "QUERY", "out", 0.0, 1)
    _, buckets = queue.pop_tick()
    queue.push_multicast(1.0, 0, (3,), "QUERY", "after", 0.0, 1)
    [batch] = buckets[_KIND_PRIORITY[EventKind.DELIVER]]
    assert batch.sends == [(0, (1, 2), "out")] and len(queue) == 1
    assert queue.pop_due(None)[1].sends == [(0, (3,), "after")]


def test_same_key_timers_share_one_entry_behind_the_first():
    """The first timer at a time is a lone item, so it stays its tuple;
    the run behind it is one batch.  Equal but distinct data, another
    session or another name each start a new entry."""
    queue = EventQueue()
    session, other = _Session(1), _Session(2)
    for host in (1, 2, 3, 4):
        queue.push_timer(2.0, host, "flush", (None, 1, session, 2.0))
    queue.push_timer(2.0, 5, "flush", (None, 1, other, 2.0))
    queue.push_timer(2.0, 6, "flush", ({}, 1, session, 2.0))
    queue.push_timer(2.0, 7, "flush", ({}, 1, session, 2.0))
    assert len(queue) == 7
    popped = [queue.pop_due(None)[1] for _ in range(5)]
    assert popped[0] == (1, "flush", (None, 1, session, 2.0))
    assert popped[1].__class__ is _TimerBatch
    assert (popped[1].hosts, popped[1].name) == ([2, 3, 4], "flush")
    assert [entry[0] for entry in popped[2:]] == [5, 6, 7]
    assert len(queue) == 0 and queue.pop_due(None) is None


# ---------------------------------------------------------------------------
# Pre-emption and re-created keys: the cases the cached front must get right
# ---------------------------------------------------------------------------

def test_preempted_bucket_resumes_behind_the_multicast_that_was_out():
    queue = EventQueue()
    queue.push_multicast(2.0, 0, (10, 11, 12), "QUERY", "batch", 0.0, 1)
    queue.push_deliver(2.0, Message(0, 13, "QUERY", "after"))
    [send] = stimuli(queue.pop_due(None)[1])
    assert send.dests == (10, 11, 12)
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
    drain = Drain(queue)
    for dest in (10, 11, 12, 13):
        queue.push_deliver(2.0, Message(0, dest, "QUERY", None))
    assert [drain.pop()[1].dest for _ in range(2)] == [10, 11]
    for host in (1, 2, 3):
        queue.push_timer(1.0, host, "flush", None)
    queue.push_deliver(2.0, Message(0, 14, "QUERY", None))
    assert len(queue) == queue.occupancy()["pending"] == 6
    assert [drain.pop()[1][0] for _ in range(3)] == [1, 2, 3]
    assert sorted(message.dest for message, _ in queue.iter_pending()) == [
        12, 13, 14]
    assert [drain.pop()[1].dest for _ in range(3)] == [12, 13, 14]
    assert drain.pop() is None


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
    # A chain depth of its own keeps "rest" out of the "batch" batch, so
    # the bucket still holds an entry of its own behind the popped one.
    queue.push_multicast(2.0, 0, (13, 14), "QUERY", "rest", 0.0, 2)
    queue.push_timer(2.0, 5, "flush", None)
    assert queue.pop_due(None)[1].dest == 9
    queue.push_deliver(1.0, Message(0, 99, "QUERY", "earlier"))
    assert queue.pop_due(None)[1].dest == 99
    assert queue.pop_due(None)[1].payload == "batch"
    assert len(queue) == 3

    time, buckets = queue.pop_tick()
    assert time == 2.0
    assert [_label(send) for entry in buckets[_KIND_PRIORITY[EventKind.DELIVER]]
            for send in stimuli(entry)] == [("rest", (13, 14))]
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
    assert [len(bucket) for bucket in buckets] == [0, 2, 0, 1, 1]
    deliveries = buckets[_KIND_PRIORITY[EventKind.DELIVER]]
    assert deliveries[0].payload == "a"          # bare message first (FIFO)
    assert deliveries[1].__class__ is _DeliverBatch  # popped whole
    assert [send.dests for send in stimuli(deliveries[1])] == [(2, 3)]
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
