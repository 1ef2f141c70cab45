"""Tests for the event queue."""

import ast
import heapq
import pathlib

import pytest

from repro.simulation.clock import tick_index
from repro.simulation.events import (
    _KIND_PRIORITY,
    EventKind,
    EventQueue,
    _DeliverBatch,
)
from repro.simulation.messages import Message


def make_message(sender=0, dest=1):
    return Message(sender=sender, dest=dest, kind="test", payload={})


def pop(queue):
    """Consume the earliest live entry: an :class:`Event`, the bare
    :class:`Message` of a delivery, a whole multicast or a timer's
    ``(host, name, info)`` tuple."""
    return queue.pop_due(None)[1]


def kind_of(entry):
    """The kind of a popped entry: a message is a delivery, a tuple a
    timer, anything else an :class:`Event`."""
    if isinstance(entry, Message):
        return EventKind.DELIVER
    if entry.__class__ is tuple:
        return EventKind.TIMER
    return entry.kind


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push_timer(5.0, 1, "b", None)
        queue.push_timer(1.0, 1, "a", None)
        queue.push_timer(3.0, 1, "c", None)
        times = [queue.pop_due(None)[0] for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_ties_broken_by_insertion_order_within_same_kind(self):
        queue = EventQueue()
        queue.push_timer(2.0, 1, "first", None)
        queue.push_timer(2.0, 2, "second", None)
        assert pop(queue) == (1, "first", None)
        assert pop(queue) == (2, "second", None)

    def test_deliveries_precede_timers_at_same_instant(self):
        queue = EventQueue()
        queue.push_timer(2.0, 1, "deadline", None)
        queue.push_deliver(2.0, make_message())
        assert kind_of(pop(queue)) is EventKind.DELIVER
        assert kind_of(pop(queue)) is EventKind.TIMER

    def test_failures_processed_last_at_same_instant(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.FAIL, host=3)
        queue.push_deliver(2.0, make_message())
        queue.push_timer(2.0, 1, "t", None)
        kinds = [kind_of(pop(queue)) for _ in range(3)]
        assert kinds == [EventKind.DELIVER, EventKind.TIMER, EventKind.FAIL]

    def test_query_start_runs_before_everything(self):
        queue = EventQueue()
        queue.push_deliver(0.0, make_message())
        queue.push(0.0, EventKind.QUERY_START, host=0)
        assert kind_of(pop(queue)) is EventKind.QUERY_START

    def test_query_start_runs_before_a_join_filed_first(self):
        """A query launched at a join's instant starts on the network as
        it was: its QUERY_START outranks the JOIN, whatever the filing
        order."""
        queue = EventQueue()
        queue.push(1.0, EventKind.JOIN, data=(0,))
        queue.push(1.0, EventKind.QUERY_START, host=0)
        assert kind_of(pop(queue)) is EventKind.QUERY_START
        assert kind_of(pop(queue)) is EventKind.JOIN


class TestEventQueueBehaviour:
    def test_len_and_bool(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue
        queue.push_timer(1.0, 0, "x", None)
        assert len(queue) == 1
        assert queue

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-0.5, EventKind.FAIL, host=0)

    def test_pop_due_on_an_empty_queue_returns_none(self):
        assert EventQueue().pop_due(None) is None

    def test_horizon_leaves_a_later_front_queued(self):
        queue = EventQueue()
        queue.push_timer(0.5, 0, "first", None)
        queue.push_timer(2.0, 0, "keep", None)
        assert queue.pop_due(1.0)[0] == 0.5
        # The front is now the 2.0 timer: not due by 1.0, and left queued.
        assert queue.pop_due(1.0) is None
        assert len(queue) == 1
        assert queue.pop_due(2.0)[0] == 2.0

    def test_horizon_bounded_pop_on_an_empty_queue_returns_none(self):
        assert EventQueue().pop_due(1.0) is None

    def test_draining_yields_all_in_order(self):
        queue = EventQueue()
        for t in (3.0, 1.0, 2.0):
            queue.push_timer(t, 0, str(t), None)
        times = []
        while queue:
            times.append(queue.pop_due(None)[0])
        assert times == [1.0, 2.0, 3.0]
        assert queue.pop_due(None) is None


class TestTieBreakingRegression:
    """Same-timestamp events must drain in deterministic insertion order
    regardless of queue internals (regression for the batched-ring
    rewrite; the original binary heap provided this via (time, priority,
    seq) tuples and the ring must reproduce it exactly)."""

    def test_many_same_time_events_fifo_within_kind(self):
        queue = EventQueue()
        for i in range(200):
            queue.push_timer(7.0, i, f"t{i}", None)
        assert [pop(queue)[0] for _ in range(200)] == list(range(200))

    def test_interleaved_kinds_at_one_instant_follow_priority_then_fifo(self):
        queue = EventQueue()
        # Push in an adversarial kind order; drain must be priority-major
        # (JOIN < DELIVER < TIMER < FAIL), insertion-minor.
        queue.push(1.0, EventKind.FAIL, host=10)
        queue.push_timer(1.0, 20, "a", None)
        queue.push_deliver(1.0, make_message(0, 30))
        queue.push(1.0, EventKind.FAIL, host=11)
        queue.push_deliver(1.0, make_message(0, 31))
        queue.push_timer(1.0, 21, "b", None)
        queue.push(1.0, EventKind.JOIN, data=(1, 2))
        drained = [pop(queue) for _ in range(7)]
        kinds = [kind_of(e) for e in drained]
        assert kinds == [EventKind.JOIN, EventKind.DELIVER, EventKind.DELIVER,
                         EventKind.TIMER, EventKind.TIMER, EventKind.FAIL,
                         EventKind.FAIL]
        assert [e.dest for e in drained[1:3]] == [30, 31]
        assert [e[1] for e in drained[3:5]] == ["a", "b"]
        assert [e.host for e in drained[5:]] == [10, 11]

    def test_events_pushed_mid_drain_at_same_instant_keep_order(self):
        """A zero-delay timer scheduled while its instant is draining still
        runs within that instant, after already-queued higher-priority
        events -- and a lower-priority-level push never jumps the queue."""
        queue = EventQueue()
        queue.push_deliver(2.0, make_message(0, 1))
        queue.push_timer(2.0, 5, "first", None)
        assert kind_of(pop(queue)) is EventKind.DELIVER
        # Mid-drain: schedule another timer and a delivery at time 2.0.
        queue.push_timer(2.0, 6, "second", None)
        queue.push_deliver(2.0, make_message(0, 2))
        # The late delivery outranks both timers; timers stay FIFO.
        assert pop(queue).dest == 2
        assert pop(queue)[1] == "first"
        assert pop(queue)[1] == "second"
        assert not queue

    def test_fast_path_delivers_interleave_with_generic_pushes(self):
        queue = EventQueue()
        queue.push_deliver(3.0, make_message(0, 1))
        queue.push(3.0, EventKind.FAIL, host=7)
        queue.push_deliver(3.0, make_message(0, 2))
        queue.push(3.0, EventKind.JOIN, data=(1,))
        queue.push_deliver(3.0, make_message(0, 3))
        drained = [pop(queue) for _ in range(5)]
        assert [kind_of(e) for e in drained] == [
            EventKind.JOIN, EventKind.DELIVER, EventKind.DELIVER,
            EventKind.DELIVER, EventKind.FAIL]
        assert [e.dest for e in drained[1:4]] == [1, 2, 3]

    def test_push_multicast_pops_whole_at_its_fifo_position(self):
        """A multicast is one entry weighing ``len(dests)``: it keeps the
        FIFO position of its push among the deliveries filed before and
        after it, pops whole, and takes its whole weight out of ``len``
        in that one pop.  (That the engine then delivers it exactly like
        per-destination deliveries is ``test_multicast_expansion.py``.)"""
        queue = EventQueue()
        payload = {"x": 1}
        queue.push_deliver(1.0, make_message(9, 100))
        queue.push_multicast(1.0, 7, (1, 2, 3), "kind", payload, 0.25, 2,
                             True, 5, 0.75)
        queue.push_timer(1.0, 5, "t", None)
        queue.push_deliver(1.0, make_message(9, 200))
        assert len(queue) == queue.occupancy()["pending"] == 6
        assert pop(queue).dest == 100
        time, batch = queue.pop_due(None)
        assert batch.__class__ is _DeliverBatch and isinstance(batch, Message)
        assert time == 1.0 and batch.payload is payload
        # One Message plus its destinations; ``dest`` is bound per
        # delivery by the engine, so a filed batch names none.
        assert _DeliverBatch.__slots__ == ("dests",)
        assert batch.dests == (1, 2, 3)
        assert [getattr(batch, field) for field in Message.__slots__] == [
            7, -1, "kind", payload, 0.25, 2, True, 5, 0.75]
        assert len(queue) == queue.occupancy()["pending"] == 2
        assert sum(weight for _, weight in queue.iter_pending()) == 2
        assert pop(queue).dest == 200
        assert pop(queue) == (5, "t", None)  # a timer pops as its tuple
        assert not queue

    def test_event_filed_while_a_multicast_is_out_runs_after_it(self):
        """While the engine works through a popped multicast the bucket's
        cursor is already past it: a delivery a handler files at that
        very key lands behind the multicast and still runs in the
        instant, ahead of the instant's timers."""
        queue = EventQueue()
        queue.push_multicast(2.0, 0, (10, 11, 12), "QUERY", "batch", 0.0, 1)
        queue.push_deliver(2.0, make_message(0, 13))
        queue.push_timer(2.0, 5, "t", None)
        assert queue.pop_due(None)[1].dests == (10, 11, 12)
        # Filed "from inside the second destination's handler".
        queue.push_deliver(2.0, make_message(0, 14))
        queue.push_multicast(2.0, 0, (15,), "QUERY", "next", 0.0, 1)
        assert len(queue) == 4
        assert pop(queue).dest == 13
        assert pop(queue).dest == 14
        assert pop(queue).dests == (15,)
        assert pop(queue) == (5, "t", None)
        assert queue.pop_due(None) is None

    def test_push_multicast_defaults_to_a_wired_batch_of_query_zero(self):
        """The engine passes every field; the frozen replay kernels of
        ``benchmarks/perf/perf_kernels.py`` file multicasts with the
        defaults, which make a wired batch of query 0 at vtime 0."""
        queue = EventQueue()
        queue.push_multicast(1.0, 7, (1, 2), "kind", None, 0.5, 1)
        batch = pop(queue)
        assert (batch.wireless, batch.query_id, batch.vtime) == (
            False, 0, 0.0)

    def test_push_multicast_with_no_destinations_is_a_noop(self):
        queue = EventQueue()
        queue.push_multicast(1.0, 7, (), "kind", {}, 0.0, 1)
        assert len(queue) == 0
        assert queue.pop_due(None) is None

    def test_fuzz_matches_reference_heap_order(self):
        """Randomized differential test against the original heap
        semantics: order by (time, kind priority, global insertion seq)."""
        import itertools
        import random as stdlib_random

        rng = stdlib_random.Random(1234)
        kinds = list(_KIND_PRIORITY)
        for _ in range(20):
            queue = EventQueue()
            reference = []
            counter = itertools.count()
            labels = iter(range(10_000))
            # Random pushes, interleaved with partial drains.
            for _ in range(rng.randrange(5, 60)):
                time = rng.choice([0.0, 1.0, 1.0, 2.0, 2.5, 3.0])
                kind = rng.choice(kinds)
                label = next(labels)
                if kind is EventKind.DELIVER:
                    queue.push_deliver(time, make_message(label, 0))
                elif kind is EventKind.TIMER:
                    queue.push_timer(time, label, "t", None)
                else:
                    queue.push(time, kind, host=label)
                heapq.heappush(
                    reference,
                    (time, _KIND_PRIORITY[kind], next(counter), label))
                if rng.random() < 0.25 and queue:
                    assert _popped(queue) == _expected(reference)
            while queue:
                assert _popped(queue) == _expected(reference)
            assert not reference


def _popped(queue):
    """``(time, priority, label)`` of the next entry: a message's sender,
    a timer tuple's host or an event's host is its label."""
    time, entry = queue.pop_due(None)
    label = (entry.sender if isinstance(entry, Message)
             else entry[0] if entry.__class__ is tuple else entry.host)
    return time, _KIND_PRIORITY[kind_of(entry)], label


def _expected(reference):
    time, priority, _, label = heapq.heappop(reference)
    return time, priority, label


class TestOccupancyWindow:
    """``occupancy()``'s horizon/current_epoch fields must be *exact*
    under any interleaving of push / pop -- they are the window the
    sharded lane's barrier scheduler reasons about, so an off-by-one (a
    drained slot lingering) would mis-place an epoch barrier."""

    def test_empty_queue_reports_no_window(self):
        occupancy = EventQueue().occupancy()
        assert occupancy["horizon"] is None
        assert occupancy["current_epoch"] is None

    def test_window_tracks_pushes(self):
        queue = EventQueue(width=2.0)
        queue.push_timer(3.0, 0, "t", None)
        queue.push_timer(7.5, 1, "t", None)
        occupancy = queue.occupancy()
        assert occupancy["horizon"] == 7.5
        assert occupancy["current_epoch"] == int(3.0 / 2.0)

    def test_pop_advances_the_window_front(self):
        queue = EventQueue()
        queue.push_timer(1.0, 0, "t", None)
        queue.push_timer(2.0, 1, "t", None)
        pop(queue)
        occupancy = queue.occupancy()
        assert occupancy["horizon"] == 2.0
        assert occupancy["current_epoch"] == 2

    def test_slots_count_only_timestamps_with_a_live_entry(self):
        queue = EventQueue()
        queue.push_timer(1.0, 0, "t", None)
        queue.push_timer(2.0, 1, "t", None)
        pop(queue)
        occupancy = queue.occupancy()
        assert (occupancy["pending"], occupancy["slots"]) == (1, 1)
        pop(queue)  # the drained 2.0 bucket stays filed until the next pop
        occupancy = queue.occupancy()
        assert (occupancy["pending"], occupancy["slots"],
                occupancy["horizon"]) == (0, 0, None)

    def test_timer_tuples_count_like_every_other_entry(self):
        queue = EventQueue()
        queue.push_timer(1.0, 0, "flush", None)
        queue.push(1.0, EventKind.FAIL, host=1)
        queue.push_timer(9.0, 2, "flush", None)
        occupancy = queue.occupancy()
        assert (occupancy["pending"], occupancy["slots"],
                occupancy["horizon"], occupancy["current_epoch"]) == (
                    3, 2, 9.0, 1)
        assert sorted((entry, weight) for entry, weight
                      in queue.iter_pending()
                      if entry.__class__ is tuple) == [
                          ((0, "flush", None), 1), ((2, "flush", None), 1)]
        pop(queue)
        pop(queue)
        occupancy = queue.occupancy()
        assert (occupancy["pending"], occupancy["slots"],
                occupancy["current_epoch"]) == (1, 1, 9)

    def test_fuzz_exact_under_push_pop_interleaving(self):
        import random as stdlib_random

        rng = stdlib_random.Random(99)
        for width in (1.0, 2.5):
            queue = EventQueue(width=width)
            live = []  # (time, event) pairs still live in the queue
            for _ in range(400):
                if rng.random() < 0.5 or not live:
                    time = float(rng.randrange(0, 40)) / 4.0
                    event = queue.push(time, EventKind.FAIL,
                                       host=rng.randrange(8))
                    live.append((time, event))
                else:
                    popped = pop(queue)
                    expected_time, _ = min(live, key=lambda p: p[0])
                    assert popped.time == expected_time
                    for index, (_, event) in enumerate(live):
                        if event is popped:
                            live.pop(index)
                            break
                occupancy = queue.occupancy()
                if not live:
                    assert occupancy["horizon"] is None
                    assert occupancy["current_epoch"] is None
                else:
                    times = [t for t, _ in live]
                    assert occupancy["horizon"] == max(times)
                    assert (occupancy["current_epoch"]
                            == tick_index(min(times), width))

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.7, 3.3, 1e-3])
    def test_grid_instant_lies_in_its_own_epoch(self, delta):
        """The instant ``k * delta`` opens epoch ``k``: a plain
        ``int(time / width)`` reads ``k - 1`` for 11 of these 234 cells
        (``delta = 0.7``, ``k = 3`` among them)."""
        for k in range(1, 40):
            queue = EventQueue(width=delta)
            queue.push_timer(k * delta, 0, "t", None)
            assert queue.occupancy()["current_epoch"] == k


class TestOneStructure:
    """``width`` cannot grow back into a performance knob, the drain loop
    cannot fork, the queue cannot grow lazy expansion back and it keeps
    no key table beside its heap."""

    @staticmethod
    def _readers(path, attr):
        """Names of the functions in ``path`` that read ``<obj>.attr``."""
        found = []
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [function.name for node in ast.walk(function)
                          if isinstance(node, ast.Attribute)
                          and node.attr == attr
                          and isinstance(node.ctx, ast.Load)]
        return found

    def test_width_is_read_by_occupancy_only(self):
        import repro.simulation.events as events

        assert self._readers(pathlib.Path(events.__file__),
                             "_width") == ["occupancy"]

    def test_no_attribute_is_a_dict_after_mixed_traffic(self):
        """1 000 pushes through all four entry points, at shared and at
        lone times, with partial drains between them: no lookup table
        stands beside the heap at any point."""
        import random as stdlib_random

        rng = stdlib_random.Random(43)
        queue = EventQueue()
        message = make_message()
        for index in range(1000):
            time = (rng.choice((1.0, 2.0, 2.0, 3.5)) if rng.random() < 0.5
                    else rng.uniform(0.0, 8.0))
            which = index % 4
            if which == 0:
                queue.push(time, EventKind.CUSTOM, data=index)
            elif which == 1:
                queue.push_deliver(time, message)
            elif which == 2:
                queue.push_multicast(time, 0, (1, 2, 3), "k", None, 0.0, 1)
            else:
                queue.push_timer(time, index, "t", None)
            if rng.random() < 0.3:
                for _ in range(rng.randrange(1, 6)):
                    queue.pop_due(None)
            assert not [name for name, value in vars(queue).items()
                        if isinstance(value, dict)]
        assert queue

    def test_the_queue_builds_no_message_and_resumes_no_batch(self):
        """Expansion lives in the engine: ``events.py`` never calls
        ``Message(...)`` and a batch carries no cursor of its own."""
        import repro.simulation.events as events

        tree = ast.parse(pathlib.Path(events.__file__).read_text())
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert "_DeliverBatch" in called and "Message" not in called
        assert "pos" not in _DeliverBatch.__slots__
        assert not self._readers(pathlib.Path(events.__file__), "pos")

    def test_pop_due_has_one_call_site_under_src(self):
        import repro

        root = pathlib.Path(repro.__file__).parent
        sites = [(str(path.relative_to(root)), name)
                 for path in sorted(root.rglob("*.py"))
                 for name in self._readers(path, "pop_due")]
        assert sites == [("simulation/engine.py", "_drain")]
