"""The ALLREPORT protocol (Fig. 2): direct delivery of every value.

ALLREPORT is the constructive proof that Single-Site Validity is achievable:
the querying host floods the query, every host that hears it sends its raw
attribute value back to the querying host, and at time ``2 * D_hat * delta``
the querying host aggregates whatever arrived.  Values are routed hop-by-hop
back along the reverse of the Broadcast path (with a fallback to any other
alive neighbor when the upstream hop has failed), so the communication cost
is one message per hop of every value's route -- the "Direct Delivery" price
the paper contrasts with in-network aggregation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.protocols.base import Protocol
from repro.simulation.host import HostContext, ProtocolHost, RunRecord
from repro.simulation.messages import Message

BROADCAST = "ar-broadcast"
REPORT = "ar-report"


class ReportRun(RunRecord):
    """ALLREPORT's run constants: the shared record plus the probability
    with which a host reports (checked here, once per run)."""

    __slots__ = ("report_probability",)

    def __init__(self, *shared: Any, report_probability: float) -> None:
        super().__init__(*shared)
        if not 0.0 < report_probability <= 1.0:
            raise ValueError("report_probability must be in (0, 1]")
        self.report_probability = report_probability


class AllReportHost(ProtocolHost):
    """Per-host ALLREPORT state machine (slotted: one per network host)."""

    __slots__ = ("active", "upstream", "collected", "forward_targets")

    run_class = ReportRun

    def __init__(self, host_id: int, value: float, run: ReportRun) -> None:
        super().__init__(host_id, value, run)
        self.active = False
        self.upstream: Optional[int] = None
        self.collected: Dict[int, float] = {}
        # Per-origin set of neighbors this host has already forwarded the
        # origin's report to; a report is never resent to the same target.
        self.forward_targets: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    def on_query_start(self, ctx: HostContext) -> None:
        self.active = True
        self.collected[self.host_id] = self.value
        ctx.send_to_neighbors(BROADCAST, {"d_hat": self.run.d_hat})

    def on_message(self, message: Message, ctx: HostContext) -> None:
        if message.kind == BROADCAST:
            self._on_broadcast(message, ctx)
        elif message.kind == REPORT:
            self._on_report(message, ctx)

    def _on_broadcast(self, message: Message, ctx: HostContext) -> None:
        run = self.run
        if self.active or ctx.now >= run.global_deadline:
            return
        self.active = True
        self.upstream = message.sender
        ctx.send_to_neighbors(BROADCAST, {"d_hat": run.d_hat},
                              exclude=(self.upstream,))
        if run.rng.random() <= run.report_probability:
            self._emit_report(
                origin=self.host_id,
                value=self.value,
                ttl=2 * run.d_hat,
                came_from=None,
                ctx=ctx,
            )

    def _on_report(self, message: Message, ctx: HostContext) -> None:
        origin = int(message.payload["origin"])
        value = float(message.payload["value"])
        ttl = int(message.payload["ttl"])
        deadline = self.run.global_deadline
        if self.host_id == self.run.querying_host:
            if ctx.now <= deadline:
                self.collected[origin] = value
            return
        if ctx.now > deadline or ttl <= 0:
            return
        self._emit_report(origin=origin, value=value, ttl=ttl - 1,
                          came_from=message.sender, ctx=ctx)

    def _emit_report(
        self,
        origin: int,
        value: float,
        ttl: int,
        came_from: Optional[int],
        ctx: HostContext,
    ) -> None:
        """Forward a value one hop toward the querying host.

        The preferred next hop is the querying host itself (if adjacent),
        then the upstream neighbor recorded during Broadcast, then any other
        alive neighbor; the neighbor the report arrived from is used only as
        a last resort.  A host never sends the same origin's report to the
        same target twice, which bounds traffic and prevents loops while
        still letting reports route around failed hosts (e.g. the long way
        around a ring).  A retry timer re-routes reports whose chosen target
        failed while the message was in flight.
        """
        used = self.forward_targets.setdefault(origin, set())
        alive = ctx.neighbors()
        payload = {"origin": origin, "value": value, "ttl": ttl}
        querying_host = self.run.querying_host

        preferences = []
        if querying_host in alive:
            preferences.append(querying_host)
        if self.upstream is not None and self.upstream != came_from:
            # Routing back where the report came from would just bounce it
            # between the two hosts; prefer making progress elsewhere.
            preferences.append(self.upstream)
        preferences.extend(sorted(h for h in alive if h != came_from))
        if came_from is not None:
            preferences.append(came_from)

        for target in preferences:
            if target in used or target not in alive:
                continue
            used.add(target)
            ctx.send(target, REPORT, payload)
            if target != querying_host:
                # Re-check later: if the target failed before delivery, the
                # report is silently dropped by the network, so re-route it.
                ctx.set_timer(2.0 * self.run.delta, "ar-retry",
                              data={"origin": origin, "value": value,
                                    "ttl": ttl, "target": target})
            return

    def on_timer(self, name: str, data, ctx: HostContext) -> None:
        if name != "ar-retry" or not isinstance(data, dict):
            return
        if ctx.now > self.run.global_deadline:
            return
        target = data.get("target")
        if target in ctx.neighbors():
            return  # target survived; the report was delivered
        self._emit_report(origin=data["origin"], value=data["value"],
                          ttl=int(data["ttl"]) - 1, came_from=None, ctx=ctx)

    def local_result(self) -> Optional[float]:
        run = self.run
        if self.host_id != run.querying_host or not self.collected:
            return None
        values = list(self.collected.values())
        if run.report_probability < 1.0 and run.query.kind.value == "count":
            # RANDOMIZEDREPORT estimate: |M| / p.
            return len(values) / run.report_probability
        return run.query.evaluate(values)


class AllReport(Protocol):
    """Protocol object for ALLREPORT (Direct Delivery) runs."""

    name = "allreport"
    requires_duplicate_insensitive = False
    host_class = AllReportHost

    def __init__(self, report_probability: float = 1.0) -> None:
        if not 0.0 < report_probability <= 1.0:
            raise ValueError("report_probability must be in (0, 1]")
        self.report_probability = report_probability
        # At p = 1.0 every host reports regardless of its coin flips, so
        # the run is seed-independent; any true sampling is not.
        self.stochastic = report_probability < 1.0

    def config_spec(self) -> tuple:
        return (self.report_probability,)

    def host_options(self, num_hosts: int) -> dict:
        return {"report_probability": self.report_probability}
