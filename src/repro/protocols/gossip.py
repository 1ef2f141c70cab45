"""Push-sum gossip: an eventual-consistency baseline (Section 2.2).

Epidemic algorithms compute aggregates by having every host repeatedly
exchange state with randomly chosen neighbors.  They tolerate random
failures well but only offer *eventual* consistency -- there is no instant
at which the answer carries Single-Site Validity guarantees.  This module
implements the classic push-sum protocol (Kempe et al.) over the network's
neighbor relation so the experiment harness and tests can contrast the two
semantics.

Each host maintains a pair ``(s, w)``.  For sum/avg queries ``s`` starts as
the host's value; for count queries ``s`` starts as 1.  The querying host
starts with weight 1, every other host with weight 0.  Every round each host
splits its pair in half, keeps one half, and sends the other half to a
random alive neighbor; ``s / w`` at the querying host converges to the
average of the initial ``s`` values, from which sum and count follow by
multiplying with the (known or estimated) network size -- here we instead
track the mass-conservation form where the querying host's estimate of
``sum = s / w`` directly, since total weight is 1.

Rounds are paced by ``delta`` timers, i.e. by the delay *bound*: under a
variable :class:`~repro.simulation.delay.DelayModel` a share sent in
round ``r`` still arrives before the recipient's round ``r + 1`` timer
fires, so mass conservation (and hence convergence) is unaffected.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.protocols.base import Protocol
from repro.queries.query import QueryKind
from repro.simulation.host import HostContext, ProtocolHost, RunRecord
from repro.simulation.messages import Message

START = "gs-start"
SHARE = "gs-share"


class PushSumRun(RunRecord):
    """Push-sum's run constants: the shared record plus the number of
    gossip rounds."""

    __slots__ = ("num_rounds",)

    def __init__(self, *shared: Any, num_rounds: int) -> None:
        super().__init__(*shared)
        self.num_rounds = num_rounds


class PushSumHost(ProtocolHost):
    """Per-host push-sum state machine driven by per-round timers (slotted)."""

    __slots__ = ("mass", "weight", "extremum", "rounds_done", "started")

    run_class = PushSumRun

    def __init__(self, host_id: int, value: float, run: PushSumRun) -> None:
        super().__init__(host_id, value, run)
        query = run.query
        if query.kind is QueryKind.COUNT:
            self.mass = 1.0
        elif query.kind in (QueryKind.SUM, QueryKind.AVG):
            self.mass = float(value)
        else:
            # Min/max gossip degenerates to flooding the extremum.
            self.mass = float(value)
        if query.kind is QueryKind.AVG:
            # For averages every host starts with weight 1, so s/w converges
            # to (sum of values) / (number of hosts).
            self.weight = 1.0
        else:
            # For sum/count only the querying host holds weight, so the total
            # weight is 1 and s/w converges to the total mass.
            self.weight = 1.0 if host_id == run.querying_host else 0.0
        self.extremum = float(value)
        self.rounds_done = 0
        self.started = False

    def on_query_start(self, ctx: HostContext) -> None:
        # The querying host kicks every host off by flooding a start signal.
        self.started = True
        ctx.send_to_neighbors(START, {"rounds": self.run.num_rounds})
        ctx.set_timer(self.run.delta, "round")

    def on_message(self, message: Message, ctx: HostContext) -> None:
        if message.kind == START:
            if not self.started:
                self.started = True
                ctx.send_to_neighbors(START, {"rounds": self.run.num_rounds},
                                      exclude=(message.sender,))
                ctx.set_timer(self.run.delta, "round")
            return
        if message.kind == SHARE:
            self.mass += float(message.payload["mass"])
            self.weight += float(message.payload["weight"])
            self.extremum = self._combine_extremum(
                self.extremum, float(message.payload["extremum"])
            )

    def _combine_extremum(self, a: float, b: float) -> float:
        if self.run.query.kind is QueryKind.MIN:
            return min(a, b)
        return max(a, b)

    def on_timer(self, name: str, data: Any, ctx: HostContext) -> None:
        run = self.run
        if name != "round" or self.rounds_done >= run.num_rounds:
            return
        self.rounds_done += 1
        # The packed sorted view is element-for-element what
        # ``sorted(ctx.neighbors())`` produced, so the rng draw -- and the
        # golden bitstream -- is unchanged.
        neighbors = ctx.neighbors_sorted()
        if neighbors:
            target = run.rng.choice(neighbors)
            half_mass = self.mass / 2.0
            half_weight = self.weight / 2.0
            self.mass -= half_mass
            self.weight -= half_weight
            ctx.send(target, SHARE, {
                "mass": half_mass,
                "weight": half_weight,
                "extremum": self.extremum,
            })
        if self.rounds_done < run.num_rounds:
            ctx.set_timer(run.delta, "round")

    def local_result(self) -> Optional[float]:
        if self.run.query.kind in (QueryKind.MIN, QueryKind.MAX):
            return self.extremum
        if self.weight <= 0.0:
            return None
        return self.mass / self.weight


class PushSumGossip(Protocol):
    """Protocol object for push-sum gossip runs.

    Args:
        num_rounds: gossip rounds to execute; the answer only converges as
            the number of rounds grows (eventual consistency).
    """

    name = "push-sum-gossip"
    requires_duplicate_insensitive = False

    stochastic = True  # random neighbor choice every round
    host_class = PushSumHost

    def __init__(self, num_rounds: int = 50) -> None:
        if num_rounds < 1:
            raise ValueError("num_rounds must be at least 1")
        self.num_rounds = num_rounds

    def config_spec(self) -> tuple:
        return (self.num_rounds,)

    def host_options(self, num_hosts: int) -> dict:
        return {"num_rounds": self.num_rounds}

    def termination_time(self, d_hat: int, delta: float) -> float:
        # One flood to start plus the configured number of rounds.
        return (self.num_rounds + d_hat + 1) * delta
