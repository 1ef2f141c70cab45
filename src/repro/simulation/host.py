"""Protocol host interface.

Protocols are written as per-host state machines.  Each host reacts to three
stimuli -- the local query start (only at the querying host), the receipt of
a message, and the expiry of a local timer -- and may respond by sending
messages to neighbors or setting further timers.  The engine mediates all
interaction through a :class:`HostContext`, which also enforces the network
model (messages only travel along alive edges, each hop taking at most
``delta`` -- the realised delay comes from the session's
:class:`~repro.simulation.delay.DelayModel`).

There is one context class.  It is bound to the engine and to the *session*
(one query's hosts, cost sink, delay stream and launch instant ``t0``, see
:class:`~repro.simulation.engine.Session`) the stimulus belongs to; ``now``
is query-local time, so a protocol computes its deadlines as if its query
started at 0 whether it runs alone (``t0 = 0.0``) or as one of many tenants
of the query service.
"""

from __future__ import annotations

import abc
from math import inf
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence, Set

from repro.simulation.clock import instant_after
from repro.simulation.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simulation.engine import EventEngine, Session


class HostContext:
    """The engine-facing API available to a protocol host.

    The context handed to the host for a stimulus is bound to the session
    the stimulus belongs to, the host id, the current query-local time, and
    the causal chain depth of the triggering event so that the time-cost
    metric can be computed without protocol cooperation.  The engine
    *reuses* one context object across stimuli (rebinding it between
    handler calls), so protocol code must not retain a context past the
    handler invocation it was passed to.
    """

    __slots__ = ("_simulator", "session", "host_id", "now", "_chain_depth")

    def __init__(
        self,
        simulator: "EventEngine",
        session: "Optional[Session]",
        host: int,
        now: float,
        chain_depth: int,
    ) -> None:
        self._simulator = simulator
        #: The session whose sink, delay stream and clock sends go through.
        self.session = session
        #: The id of the host this context is bound to.
        self.host_id = host
        #: Current query-local time (engine time minus the session's ``t0``).
        self.now = now
        self._chain_depth = chain_depth

    @property
    def delta(self) -> float:
        """The per-hop message delay *bound* of the network model.

        Protocol timer math (deadlines, participation windows,
        termination times) must be computed from this bound, never from
        observed message timings: the paper's Single-Site Validity
        arguments hold for any realised delay in ``(0, delta]``, and the
        engine may be running a variable
        :class:`~repro.simulation.delay.DelayModel` underneath.
        """
        return self._simulator.delta

    def neighbors(self) -> Set[int]:
        """Currently alive neighbors of this host.

        Protocol code may use this to address messages; the paper's model
        allows hosts to monitor neighbors via heartbeats, so knowledge of
        which neighbors are alive (within one heartbeat period) is fair.
        """
        return self._simulator.network.neighbors(self.host_id)

    def neighbors_sorted(self) -> Sequence[int]:
        """Alive neighbors in ascending id order (the packed cached view).

        Equal, element for element, to ``sorted(ctx.neighbors())`` --
        prefer it when iterating or sampling deterministically: it is
        served straight off the network's packed adjacency without
        materialising a set.  Treat the returned tuple as read-only.
        """
        return self._simulator.network.alive_neighbors_sorted(self.host_id)

    def send(self, dest: int, kind: str, payload: Mapping[str, Any]) -> bool:
        """Send one message to neighbor ``dest``.

        Returns True if the message was handed to the network (the
        destination may still fail before delivery), False if ``dest`` is not
        an alive neighbor at send time.
        """
        return self._simulator.session_send(
            self.session, self.host_id, dest, kind, payload,
            self.now, self._chain_depth + 1,
        )

    def send_to_neighbors(
        self,
        kind: str,
        payload: Mapping[str, Any],
        exclude: Optional[Iterable[int]] = None,
    ) -> int:
        """Send the same message to every alive neighbor.

        On a wireless broadcast medium (``SimulationConfig.wireless``) the
        whole batch is accounted as a single transmission, matching the
        paper's Grid experiments.  Returns the number of neighbors addressed.
        """
        targets: Sequence[int] = self._simulator.network.alive_neighbors_sorted(
            self.host_id
        )
        if exclude is not None:
            # Callers exclude one or two ids: copy the shared view only
            # when one of them is in it.
            for host in exclude:
                if host in targets:
                    targets = list(targets)
                    targets.remove(host)
        if not targets:
            return 0
        # ``targets`` was just derived from the network's alive-neighbor
        # view, so the multicast can skip re-checking each destination
        # (positional call: this is the kernel's hottest send path).
        self._simulator.session_multicast(
            self.session, self.host_id, targets, kind, payload, self.now,
            self._chain_depth + 1, True,
        )
        return len(targets)

    def set_timer(self, delay: float, name: str, data: Any = None) -> None:
        """Schedule a timer for this host ``delay`` time units from now
        (a whole number of ``delta`` after a grid instant is a grid
        instant: :func:`~repro.simulation.clock.instant_after`)."""
        self.set_timer_at(
            instant_after(self.now, delay, self._simulator.delta), name, data)

    def set_timer_at(self, instant: float, name: str, data: Any = None) -> None:
        """Schedule a timer for this host at query-local ``instant`` --
        how a deadline is set: by the float that states it, not by a wait
        whose sum with ``now`` would have to round back to it."""
        if not self.now <= instant < inf:
            raise ValueError("a timer fires at a finite instant, now or later")
        session = self.session
        # The query-local fire time rides with the timer: re-deriving it
        # from the absolute instant (``abs - t0``) would lose float
        # precision and perturb deadline comparisons against a solo run.
        self._simulator._queue.push_timer(
            session.t0 + instant, self.host_id, name,
            (data, self._chain_depth, session, instant),
        )


class RunRecord:
    """The constants every host of one run shares (slotted: one per run).

    :meth:`~repro.protocols.base.Protocol.create_hosts` builds one record
    per run and hands the same object to every host it builds, which
    reaches it as ``host.run``.  A host class names the record it reads
    as ``run_class``; a protocol with constants of its own (WILDFIRE's
    participation window, DAG-k's ``k``, ...) subclasses this record and
    checks them in its ``__init__``, once per run.

    Attributes:
        querying_host: id of the host the query was issued at.
        query: the aggregate query.
        combiner: the run's combine function.
        d_hat: the stable-diameter overestimate.
        delta: the per-hop delay *bound* protocol timer math uses.
        rng: the run RNG, drawn from in spec order (a host's
            contribution, ALLREPORT's report coin, gossip's targets).
        global_deadline: the paper's ``2 * D_hat * delta``, when the
            querying host declares.
    """

    __slots__ = ("querying_host", "query", "combiner", "d_hat", "delta",
                 "rng", "global_deadline")

    def __init__(self, querying_host: int, query: Any, combiner: Any,
                 d_hat: int, delta: float, rng: Any) -> None:
        self.querying_host = querying_host
        self.query = query
        self.combiner = combiner
        self.d_hat = d_hat
        self.delta = delta
        self.rng = rng
        self.global_deadline = 2.0 * d_hat * delta


class ProtocolHost(abc.ABC):
    """Base class for per-host protocol state machines.

    Subclasses hold their per-host protocol state (activity flag, partial
    aggregate, parent pointers, ...) as instance attributes and implement
    the three reaction hooks.

    One state machine exists per network host, so at million-host scale
    the per-instance footprint is a first-order memory cost: the base
    class and every in-tree protocol host declare ``__slots__``, which
    drops the per-instance ``__dict__``, and a slot holds per-host state
    only -- whatever is the same for every host of a run lives once, on
    the :class:`RunRecord` in ``run``.  New protocols should follow the
    convention (declare every attribute the ``__init__`` assigns in
    ``__slots__``); a subclass that skips it merely reintroduces a dict
    for its own attributes -- nothing breaks, it just costs memory.
    """

    __slots__ = ("host_id", "value", "run")

    #: The record :meth:`~repro.protocols.base.Protocol.create_hosts`
    #: builds once per run and passes every host as ``run``.
    run_class = RunRecord

    def __init__(self, host_id: int, value: float,
                 run: Optional[RunRecord] = None) -> None:
        self.host_id = host_id
        self.value = value
        self.run = run

    @abc.abstractmethod
    def on_query_start(self, ctx: HostContext) -> None:
        """Called once, at the querying host, when the query is issued."""

    @abc.abstractmethod
    def on_message(self, message: Message, ctx: HostContext) -> None:
        """Called when a message addressed to this host is delivered.

        ``message.dest`` is this host.  At fixed delay the engine hands
        every delivery of one batch -- an instant's same-key sends,
        multicasts and unicasts alike -- the same object, rebinding
        ``sender``, ``payload`` and ``dest`` between calls, so, like
        ``ctx``, the message must not be kept past this call: copy the
        fields the host needs.
        """

    def on_timer(self, name: str, data: Any, ctx: HostContext) -> None:
        """Called when one of this host's timers expires.

        The default implementation ignores timers; protocols that use them
        override this hook.
        """

    def on_fail(self, time: float) -> None:
        """Called when this host fails (for protocols that track state)."""

    def local_result(self) -> Any:
        """The value this host would report if asked right now.

        Only meaningful at the querying host after the protocol terminates;
        other hosts may return partial state for debugging.
        """
        return None
