"""Tests for cost accounting (the one sink)."""

import ast
import copy
import pathlib
import random
from collections import Counter

import pytest

from repro.simulation.clock import tick_time
from repro.simulation.stats import CostAccounting, make_stats_sink


class TestCostAccounting:
    def test_initially_zero(self):
        costs = CostAccounting()
        assert costs.communication_cost == 0
        assert costs.computation_cost == 0
        assert costs.time_cost == 0

    def test_record_send_counts_messages_and_time_buckets(self):
        costs = CostAccounting()
        costs.record_send("broadcast", time=1.0)
        costs.record_send("broadcast", time=1.0)
        costs.record_send("report", time=2.0)
        assert costs.communication_cost == 3
        assert costs.messages_per_instant() == {1.0: 2, 2.0: 1}
        assert costs.messages_by_time == {1.0: 2, 2.0: 1}
        assert costs.messages_by_kind["broadcast"] == 2

    def test_wireless_group_counts_once(self):
        costs = CostAccounting()
        costs.record_send("broadcast", time=0.0, wireless_group=False)
        costs.record_send("broadcast", time=0.0, wireless_group=True)
        costs.record_send("broadcast", time=0.0, wireless_group=True)
        assert costs.communication_cost == 1
        assert costs.wireless_transmissions == 2

    def test_computation_cost_is_max_over_hosts(self):
        costs = CostAccounting()
        for _ in range(3):
            costs.record_processed(7, chain_depth=1)
        costs.record_processed(8, chain_depth=1)
        assert costs.computation_cost == 3
        assert costs.messages_processed[7] == 3
        # Hosts that processed nothing are left out of the mapping.
        assert sorted(costs.messages_processed) == [7, 8]

    def test_time_cost_is_max_chain_depth(self):
        costs = CostAccounting()
        costs.record_processed(0, chain_depth=4)
        costs.record_processed(1, chain_depth=2)
        assert costs.time_cost == 4

    def test_computation_histogram(self):
        costs = CostAccounting()
        costs.record_processed(0, 1)
        costs.record_processed(0, 1)
        costs.record_processed(1, 1)
        histogram = costs.computation_histogram()
        assert histogram == {2: 1, 1: 1}

    def test_computation_histogram_keeps_first_seen_key_order(self):
        """Counted in C, keyed as the per-host loop it replaced keyed
        it: each nonzero cost in the order a host first shows it."""
        costs = CostAccounting(num_hosts=9)
        costs.add_processed(0, [0, 3, 1, 0, 3, 7, 1, 0, 2])
        expected = {}
        for count in costs._processed:
            if count:
                expected[count] = expected.get(count, 0) + 1
        assert list(costs.computation_histogram().items()) == list(
            expected.items()) == [(3, 2), (1, 2), (7, 1), (2, 1)]

    def test_dropped_messages_counted(self):
        costs = CostAccounting()
        costs.record_dropped()
        costs.record_dropped()
        assert costs.dropped_messages == 2

    def test_summary_contains_all_measures(self):
        costs = CostAccounting()
        costs.record_send("x", 0.0)
        costs.record_processed(0, 2)
        summary = costs.summary()
        assert summary["communication_cost"] == 1
        assert summary["computation_cost"] == 1
        assert summary["time_cost"] == 2

    def test_sends_are_bucketed_by_clock_tick(self):
        """Raw float send times from a variable-delay run collapse onto
        the tick grid, keyed by the tick's start time."""
        costs = CostAccounting(tick_width=1.0)
        costs.record_send("x", 0.4)
        costs.record_send("x", 0.9)
        costs.record_send("x", 1.0)
        costs.record_send_batch("x", 1.6, 2)
        assert costs.messages_per_instant() == {0.0: 2, 1.0: 3}
        # Accumulated float drift just below a boundary still lands in
        # the intended bucket.
        drifty = CostAccounting(tick_width=1.0)
        drifty.record_send("x", 2.9999999996)
        assert drifty.messages_per_instant() == {3.0: 1}

    def test_tick_bucketing_is_identity_under_fixed_delay_times(self):
        """Fixed-delay runs only send at multiples of delta, so tick
        bucketing must not change keys (the golden snapshots pin this)."""
        costs = CostAccounting(tick_width=1.0)
        for time in (0.0, 1.0, 7.0, 13.0):
            costs.record_send("x", time)
        assert sorted(costs.messages_per_instant()) == [0.0, 1.0, 7.0, 13.0]

    def test_memory_is_bounded_by_hosts_and_ticks_not_traffic(self):
        sink = CostAccounting(num_hosts=100, tick_width=1.0)
        sink.record_processed(7, 1)
        sink.record_send("x", 9.5)
        before = sink.footprint_bytes()
        for _ in range(10_000):
            sink.record_processed(7, 1)
            sink.record_send("x", 9.5)
        assert sink.footprint_bytes() == before

    @pytest.mark.parametrize("stats", [None, "full", "streaming"])
    def test_one_late_send_does_not_allocate_the_ticks_before_it(self, stats):
        """The per-tick map is sparse under every name a run can ask by:
        the dense per-tick array ``"streaming"`` used to mean held ten
        million zero slots (85 MB) for this one send."""
        sink = make_stats_sink(stats, tick_width=1.0)
        sink.record_send("x", 1e7)
        assert sink.messages_per_instant() == {1e7: 1}
        assert sink.footprint_bytes() < 10_000

    def test_per_host_counts_are_packed(self):
        """Four bytes per host, where a ``Counter`` entry takes ~90."""
        sink = CostAccounting(num_hosts=5000)
        for host in range(5000):
            sink.record_processed(host, 0)
        assert sink.footprint_bytes() < 5000 * 5

    def test_growth_allocates_elements_not_bytes(self):
        """Regression: array growth must append zero *elements*, not one
        element per zero byte (which would 4x the footprint)."""
        sink = CostAccounting(num_hosts=0)
        sink.record_processed(4, 0)
        assert len(sink._processed) == 5

    def test_hosts_past_the_array_grow_it(self):
        sink = CostAccounting(num_hosts=3)
        sink.record_processed(10, 2)  # past the end: grows on demand
        sink.record_processed(10, 2)
        sink.add_processed(11, [0, 3])  # past the end: grows on demand
        assert len(sink._processed) == 13
        assert sink.computation_cost == 3
        assert sink.computation_histogram() == {2: 1, 3: 1}

    def test_computation_cost_is_the_max_at_read_time(self):
        """No running maximum to keep in step (the drain counts into the
        array in place): the cost is the array's maximum whenever read,
        after single records, bulk records, growth and on no records."""
        def agrees(sink):
            return sink.computation_cost == max(
                sink.messages_processed.values(), default=0)

        sink = CostAccounting(num_hosts=4)
        assert agrees(sink) and sink.computation_cost == 0
        assert agrees(CostAccounting())
        for _ in range(3):
            sink.record_processed(1, 0)
        sink.record_processed(2, 0)
        assert agrees(sink) and sink.computation_cost == 3
        assert sink.time_cost == 0
        sink.add_processed(0, [1, 0, 4])
        assert agrees(sink) and sink.computation_cost == 5
        sink.reserve(9)
        sink.reserve(2)  # never shrinks
        assert len(sink._processed) == 9
        assert agrees(sink) and sink.computation_cost == 5
        sink._processed[8] += 6  # as the drain counts a delivery
        sink.record_processed(20, 0)  # past the reserve: grows again
        assert agrees(sink) and sink.computation_cost == 6

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            CostAccounting(num_hosts=-1)
        with pytest.raises(ValueError):
            CostAccounting(tick_width=0.0)


class _NaiveModel:
    """The measures as Section 6.3 words them, on plain ``Counter``s: the
    reference the packed sink is held to."""

    def __init__(self, tick_width: float = 1.0) -> None:
        self.tick_width = tick_width
        self.sent = Counter()         # (tick start, kind) -> messages
        self.processed = Counter()    # host -> messages processed
        self.wireless = 0
        self.dropped = 0
        self.depth = 0

    def record_send(self, kind, time, wireless_group=False):
        if wireless_group:
            self.wireless += 1
        else:
            self.record_send_batch(kind, time, 1)

    def record_send_batch(self, kind, time, count):
        if count > 0:
            self.sent[(tick_time(time, self.tick_width), kind)] += count

    def record_wireless_group(self, count):
        self.wireless += count

    def record_processed(self, host, chain_depth):
        self.processed[host] += 1
        self.depth = max(self.depth, chain_depth)

    def record_dropped(self):
        self.dropped += 1


def _drive(sink, seed: int = 4, hosts: int = 50, events: int = 400,
           span: float = 12.0):
    """Feed one synthetic event stream into a sink (same for any sink)."""
    rng = random.Random(seed)
    for _ in range(events):
        roll = rng.random()
        time = rng.random() * span
        if roll < 0.45:
            sink.record_send(rng.choice("abc"), time)
        elif roll < 0.6:
            sink.record_send_batch(rng.choice("abc"), time, rng.randrange(5))
        elif roll < 0.65:
            sink.record_send(rng.choice("abc"), time, wireless_group=True)
        elif roll < 0.7:
            sink.record_wireless_group(rng.randrange(3))
        elif roll < 0.95:
            sink.record_processed(rng.randrange(hosts), rng.randrange(9))
        else:
            sink.record_dropped()
    return sink


@pytest.mark.parametrize("seed,tick_width,span", [
    (4, 1.0, 12.0), (5, 0.25, 3.0), (6, 0.1, 40.0)])
def test_matches_the_naive_model_on_any_event_stream(seed, tick_width, span):
    sink = _drive(CostAccounting(num_hosts=20, tick_width=tick_width),
                  seed=seed, span=span)
    model = _drive(_NaiveModel(tick_width), seed=seed, span=span)

    def total_by(index):
        totals = Counter()
        for key, count in model.sent.items():
            totals[key[index]] += count
        return dict(totals)

    assert sink.summary() == {
        "communication_cost": sum(model.sent.values()),
        "computation_cost": max(model.processed.values()),
        "time_cost": model.depth,
        "wireless_transmissions": model.wireless,
        "dropped_messages": model.dropped,
    }
    assert sink.messages_processed == dict(model.processed)
    assert sink.computation_histogram() == dict(
        Counter(model.processed.values()))
    assert sink.messages_by_time == total_by(0)
    assert sink.messages_by_kind == total_by(1)


def test_bulk_replay_equals_per_delivery_recording():
    """What the tick lanes rely on: adding per-host totals in at the end,
    in runs that start anywhere (a shard's ``lo``), builds the state
    per-delivery recording would have -- the histogram's key order
    included."""
    one_by_one = _drive(CostAccounting(num_hosts=50))
    counts = list(one_by_one._processed)
    bulk = CostAccounting(num_hosts=50)
    for lo, hi in ((0, 17), (17, 40), (40, 50)):
        bulk.add_processed(lo, counts[lo:hi])
    assert bulk.messages_processed == one_by_one.messages_processed
    assert bulk.computation_cost == one_by_one.computation_cost
    assert list(bulk.computation_histogram().items()) == list(
        one_by_one.computation_histogram().items())


def _measures(sink):
    """Everything a sink reports, in the order it reports it."""
    return (sink.summary(), sink.fingerprint(), sink.tick_width,
            list(sink.messages_by_kind.items()),
            list(sink.messages_per_instant().items()),
            list(sink.messages_processed.items()),
            list(sink.computation_histogram().items()),
            sink.footprint_bytes())


@pytest.mark.parametrize("seed,tick_width", [(7, 1.0), (8, 0.25), (9, 0.1)])
def test_copy_agrees_with_deepcopy_and_shares_no_container(seed,
                                                           tick_width):
    """A subscriber's private sink is ``copy()``, not ``copy.deepcopy``:
    every reported measure agrees, and neither the processed array nor
    either dict is shared, so driving the copy leaves the original (and
    driving the original leaves the copy) as it was."""
    sink = _drive(CostAccounting(num_hosts=20, tick_width=tick_width),
                  seed=seed, span=9.0)
    twin = sink.copy()
    assert type(twin) is CostAccounting
    assert _measures(twin) == _measures(copy.deepcopy(sink))
    assert vars(twin).keys() == vars(sink).keys()
    for name, value in vars(sink).items():
        if not isinstance(value, (int, float)):
            assert getattr(twin, name) is not value, name
    before = _measures(sink)
    _drive(twin, seed=seed + 1, span=9.0)
    twin.reserve(40)
    assert _measures(sink) == before != _measures(twin)
    driven = _measures(twin)
    _drive(sink, seed=seed + 2, span=9.0)
    sink.reserve(60)
    assert _measures(twin) == driven


class TestMakeStatsSink:
    def test_fresh_sink_and_passthrough(self):
        fresh = make_stats_sink(None, num_hosts=7, tick_width=2.0)
        assert type(fresh) is CostAccounting
        assert fresh.tick_width == 2.0 and len(fresh._processed) == 7
        ready = CostAccounting()
        assert make_stats_sink(ready) is ready

    def test_historical_mode_names_are_synonyms(self):
        """``benchmarks/perf`` still passes them; nothing else is taken."""
        for name in ("full", "streaming"):
            assert type(make_stats_sink(name)) is CostAccounting
        for bogus in ("verbose", "", 3):
            with pytest.raises(ValueError):
                make_stats_sink(bogus)


class TestOneSink:
    """No second accumulator, and nothing left that chose between two."""

    def test_stats_module_defines_one_sink_class(self):
        import repro.simulation.stats as stats

        tree = ast.parse(pathlib.Path(stats.__file__).read_text())
        sinks = [node.name for node in tree.body
                 if isinstance(node, ast.ClassDef) and any(
                     isinstance(item, ast.FunctionDef)
                     and item.name == "record_processed"
                     for item in node.body)]
        assert sinks == ["CostAccounting"]
        assert stats.StreamingCostAccounting is CostAccounting

    def test_no_stats_option_in_the_parser(self):
        from repro.orchestration.cli import _build_parser

        def option_strings(parser):
            for action in parser._actions:
                yield from action.option_strings
                if isinstance(action.choices, dict):  # the subcommands
                    for sub in action.choices.values():
                        yield from option_strings(sub)

        options = set(option_strings(_build_parser()))
        assert "--lane" in options      # the walk reaches the subcommands
        assert "--stats" not in options

    def test_no_default_mode_global_under_src(self):
        """No module assigns, declares ``global`` or defines a name that
        carries a process-wide stats mode."""
        import repro

        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = list(getattr(node, "names", ()))
                for attr in ("id", "attr", "name"):
                    names.append(getattr(node, attr, None))
                for name in names:
                    if isinstance(name, str):
                        assert "stats_mode" not in name, (path, name)
                        assert name != "_default_mode", path
