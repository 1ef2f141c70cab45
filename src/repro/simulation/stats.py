"""Cost accounting: the paper's three cost measures, accumulated once.

The paper evaluates protocols on three measures (Section 6.3):

* **Communication cost** -- total number of messages sent between host
  pairs.  On a wireless broadcast medium a message addressed to all
  neighbors of a host counts once.
* **Computation cost** -- the maximum, over hosts, of the number of messages
  *processed* at a host.
* **Time cost** -- the length of the longest causal chain of messages,
  starting with the query initiation at the querying host.

:class:`CostAccounting` is the one sink every run accounts into.  Every
measure is exact; the representation is sized for million-host runs:
per-host processed counts live in a packed ``array('I')`` (4 bytes per
host, which the engine's drain increments in place; the computation
cost is their maximum, taken when read), per-kind send counts in a dict,
and per-instant send counts in a *sparse* dict keyed by clock tick
(:func:`~repro.simulation.clock.tick_index`), so memory follows the
host count and the number of ticks that saw a send -- never traffic,
and never the run's duration.  Per-message work is O(1) with no
allocation.

Bucketing by tick keeps the Figure 13(b) histogram well-defined when a
variable delay model spreads sends over arbitrary float timestamps;
under the fixed-delay model it is the identity.  The per-host, per-tick
and per-kind counts read back as plain mappings (``messages_processed``,
``messages_by_time``, ``messages_by_kind``), which is what the golden
seeded snapshots pin.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from collections import Counter
from operator import add
from typing import Dict, Mapping, Sequence, Union

from repro.simulation.clock import _TICK_EPSILON

__all__ = ["CostAccounting", "StreamingCostAccounting", "make_stats_sink"]


class CostAccounting:
    """Accumulator of the paper's three cost measures for one run.

    The engine reports raw events (sends, processed deliveries, drops)
    and updates ``max_chain_depth`` / ``dropped_messages`` directly from
    its bulk paths; this class turns them into the paper's measures.
    The drain also counts a delivery straight into the processed array,
    which it sizes with :meth:`reserve` (every host of the network when
    a session starts) so that no delivery needs a bounds check.

    Args:
        num_hosts: number of host slots to pre-size the processed-count
            array for; a host past them grows it on demand.
        tick_width: per-instant histogram bucket width (the engine
            passes the delay bound ``delta``).
    """

    def __init__(self, num_hosts: int = 0, tick_width: float = 1.0) -> None:
        if num_hosts < 0:
            raise ValueError("num_hosts cannot be negative")
        if tick_width <= 0:
            raise ValueError("tick_width must be positive")
        self.tick_width = float(tick_width)
        self.messages_sent = 0
        self.wireless_transmissions = 0
        self.dropped_messages = 0
        self.max_chain_depth = 0
        # bytes(4 * n) zero-fills without materialising a Python int list.
        self._processed = array("I", bytes(4 * num_hosts))
        # Sparse on purpose: one late send must not allocate every tick
        # before it.
        self._by_tick: Dict[int, int] = {}
        self.messages_by_kind: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_send(self, kind: str, time: float, wireless_group: bool = False) -> None:
        """Record one message transmission.

        Args:
            kind: protocol message kind (for per-kind breakdowns).
            time: simulation time of the send.
            wireless_group: True when this send is part of a wireless
                broadcast that was already counted; only the first message of
                the group should be recorded with ``wireless_group=False``.
        """
        if wireless_group:
            self.wireless_transmissions += 1
        else:
            self.record_send_batch(kind, time, 1)

    def record_send_batch(self, kind: str, time: float, count: int) -> None:
        """Record ``count`` point-to-point transmissions of one multicast."""
        if count <= 0:
            return
        self.messages_sent += count
        tick = int(time / self.tick_width + _TICK_EPSILON)  # tick_index()
        ticks = self._by_tick
        ticks[tick] = ticks.get(tick, 0) + count
        kinds = self.messages_by_kind
        kinds[kind] = kinds.get(kind, 0) + count

    def record_wireless_group(self, count: int) -> None:
        """Record ``count`` follow-on members of one wireless broadcast."""
        self.wireless_transmissions += count

    def record_processed(self, host: int, chain_depth: int) -> None:
        """Record that ``host`` processed a message with given chain depth."""
        processed = self._processed
        if host >= len(processed):
            self.reserve(host + 1)
        processed[host] += 1
        if chain_depth > self.max_chain_depth:
            self.max_chain_depth = chain_depth

    def reserve(self, num_hosts: int) -> None:
        """Zero-extend the processed array, in place, to at least
        ``num_hosts`` slots (a sink built smaller, or empty, by its
        caller)."""
        processed = self._processed
        if num_hosts > len(processed):
            # frombytes appends zero-filled *elements* (extend would
            # treat the bytes as an iterable, one element per byte).
            processed.frombytes(
                bytes(processed.itemsize * (num_hosts - len(processed))))

    def record_dropped(self) -> None:
        """Record a message dropped because its destination failed."""
        self.dropped_messages += 1

    def add_processed(self, lo: int, counts: Sequence[int]) -> None:
        """Add a run of per-host processed counts: ``counts[i]`` to host
        ``lo + i`` (the array grows to cover them).

        Equivalent to ``counts[i]`` calls to :meth:`record_processed` for
        each host, done as one slice assignment over
        ``map(operator.add, ...)`` -- no per-host Python loop -- except
        that chain depths are **not** folded here: the caller (a tick
        lane's replay of its flat counts) updates ``max_chain_depth``
        directly.
        """
        hi = lo + len(counts)
        self.reserve(hi)
        processed = self._processed
        processed[lo:hi] = array("I", map(add, processed[lo:hi], counts))

    def copy(self) -> "CostAccounting":
        """A private copy that reports every measure this sink reports:
        the processed array and the two dicts are copied, the scalars
        assigned, and no container is shared with ``self``."""
        twin = object.__new__(type(self))
        twin.tick_width = self.tick_width
        twin.messages_sent = self.messages_sent
        twin.wireless_transmissions = self.wireless_transmissions
        twin.dropped_messages = self.dropped_messages
        twin.max_chain_depth = self.max_chain_depth
        twin._processed = self._processed[:]
        twin._by_tick = dict(self._by_tick)
        twin.messages_by_kind = dict(self.messages_by_kind)
        return twin

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------
    @property
    def communication_cost(self) -> int:
        """Total messages sent (the paper's communication cost)."""
        return self.messages_sent

    @property
    def computation_cost(self) -> int:
        """Maximum number of messages processed by any single host."""
        return max(self._processed, default=0)

    @property
    def time_cost(self) -> int:
        """Length of the longest causal message chain."""
        return self.max_chain_depth

    @property
    def messages_processed(self) -> Dict[int, int]:
        """Map ``host -> messages processed``, hosts that processed none
        left out."""
        return {host: count
                for host, count in enumerate(self._processed) if count}

    def computation_histogram(self) -> Dict[int, int]:
        """Map ``cost -> number of hosts`` that processed exactly that many
        messages (the Figure 12 distribution)."""
        histogram = Counter(self._processed)  # first-seen key order
        histogram.pop(0, None)
        return histogram

    def messages_per_instant(self) -> Dict[float, int]:
        """Messages sent in each clock tick, keyed by the tick's start time
        (the Figure 13(b) series)."""
        width = self.tick_width
        return {tick * width: count for tick, count in self._by_tick.items()}

    messages_by_time = property(messages_per_instant)

    def footprint_bytes(self) -> int:
        """Approximate resident size of the accounting structures."""
        total = sys.getsizeof(self._processed)
        for counter in (self._by_tick, self.messages_by_kind):
            total += sys.getsizeof(counter)
            for key, value in counter.items():
                total += sys.getsizeof(key) + sys.getsizeof(value)
        return total

    def summary(self) -> Mapping[str, int]:
        """A compact summary used by the experiment reports."""
        return {
            "communication_cost": self.communication_cost,
            "computation_cost": self.computation_cost,
            "time_cost": self.time_cost,
            "wireless_transmissions": self.wireless_transmissions,
            "dropped_messages": self.dropped_messages,
        }

    def fingerprint(self) -> str:
        """A stable hex digest of every measure this sink reports.

        Two sinks fingerprint identically iff they agree on the summary
        measures, the per-kind send counts, the computation histogram and
        the per-tick send histogram.  The multi-tenant query service uses
        this to assert that a query's cost attribution is bit-identical
        across re-runs and to a solo run.
        """
        by_kind = self.messages_by_kind
        payload = json.dumps(
            {
                "summary": dict(self.summary()),
                "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
                "computation_histogram": sorted(
                    self.computation_histogram().items()),
                "per_instant": sorted(self.messages_per_instant().items()),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


#: ``benchmarks/perf`` (frozen between benchmark-typed PRs) still imports
#: the bounded-memory sink under its historical name.
StreamingCostAccounting = CostAccounting


def make_stats_sink(
    stats: Union[CostAccounting, str, None] = None,
    num_hosts: int = 0,
    tick_width: float = 1.0,
) -> CostAccounting:
    """The sink one run accounts into.

    Args:
        stats: a ready-made sink (passed through unchanged) or ``None``
            for a fresh one.  ``"full"`` and ``"streaming"``, which used
            to pick between two accumulators, both mean a fresh one.
        num_hosts: host count used to pre-size a fresh sink.
        tick_width: per-instant histogram bucket width of a fresh sink.
    """
    if isinstance(stats, CostAccounting):
        return stats
    if stats not in (None, "full", "streaming"):
        raise ValueError(
            f"stats must be a CostAccounting or None, got {stats!r}")
    return CostAccounting(num_hosts=num_hosts, tick_width=tick_width)
