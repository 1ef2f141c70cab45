"""Structured trace layer: typed simulation events in a bounded ring.

The paper's evaluation is entirely about *observing* a distributed
aggregate computation; this module is the substrate that makes a run
observable without perturbing it.  A :class:`Tracer` receives typed
records at the engine's seams -- message send/deliver, timer fire, host
fail, session submit/declare/retire, phase transitions -- and the
concrete :class:`RingTracer` files them into a bounded ring buffer with
per-kind sampling so 100k-1M-host runs stay memory-capped.

Zero-cost-when-disabled contract
--------------------------------
Engines hold ``tracer = None`` when tracing is off and guard every
record point with a single ``if tracer is not None`` pointer check; no
record object is built, no method is called, and the goldens stay
bit-identical because a tracer only ever *observes* -- it never touches
RNG streams, event ordering, or cost accounting.  A run traces only
when its caller passes a tracer in: there is no process-wide default.

Exporters
---------
:meth:`RingTracer.export_jsonl` writes one JSON object per record with a
metadata header line; :meth:`RingTracer.export_chrome` writes the Chrome
trace-event format (``{"traceEvents": [...]}``), which loads directly in
Perfetto / ``chrome://tracing`` -- simulation seconds are mapped onto
microseconds, hosts onto threads, sessions onto async spans.

Multi-process merge
-------------------
A distributed run (the sharded lane) traces in every worker and merges
in the coordinator: each worker ships its ring's raw tuples plus exact
counts over its result pipe, and the parent tracer files them with
:meth:`RingTracer.ingest_process` under a named *process track*.  The
Chrome export then renders one Perfetto process per shard (host events
on its own pid, named via ``M`` metadata events), plus one extra
process of wall-clock epoch/barrier spans -- the view that shows the
barrier protocol's actual cross-core overlap.  Ingested counts fold
into the parent's exact counts, so ``counts["send"]`` remains the
run-wide total regardless of which process recorded the event.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Tracer",
    "RingTracer",
    "DEFAULT_SAMPLING",
    "DEFAULT_CAPACITY",
]

#: Ring capacity bounding the resident trace (records, not bytes); at
#: ~40 bytes per compact tuple this keeps even a fully hot ring well
#: under the 64 MiB export budget.
DEFAULT_CAPACITY = 200_000

#: Per-kind sampling steps: record every Nth event of a kind (exact
#: per-kind *counts* are always maintained).  Send/deliver dominate
#: traffic by orders of magnitude, so they are sampled; rare lifecycle
#: kinds are always recorded.
DEFAULT_SAMPLING: Dict[str, int] = {"send": 16, "deliver": 16, "timer": 4}


class Tracer:
    """The tracer interface: every hook is a no-op on the base class.

    Subclasses override the hooks they care about.  Engines treat a
    ``None`` tracer as *disabled* (no call at all); passing a base
    ``Tracer()`` instance exercises the call sites without recording.

    Times are simulation times (multi-tenant call sites pass session
    *virtual* time plus the session's ``query_id`` so one trace can be
    demultiplexed per tenant); ``phase`` alone takes wall-clock seconds.
    """

    __slots__ = ()

    def send(self, time: float, sender: int, dest: int, kind: str,
             count: int = 1, query_id: int = 0) -> None:
        """A message (or a ``count``-destination multicast) was sent."""

    def deliver(self, time: float, sender: int, dest: int, kind: str,
                chain_depth: int, sent_at: float = 0.0,
                query_id: int = 0) -> None:
        """A message was delivered to (and processed by) ``dest``."""

    def timer(self, time: float, host: int, name: str,
              query_id: int = 0) -> None:
        """A host timer fired."""

    def drop(self, time: float, dest: int, query_id: int = 0) -> None:
        """A message was dropped (destination failed in flight)."""

    def late(self, time: float, dest: int, query_id: int = 0) -> None:
        """A delivery arrived after its query had already declared."""

    def fail(self, time: float, host: int) -> None:
        """A host failed (churn)."""

    def session(self, time: float, query_id: int, event: str,
                detail: Any = None) -> None:
        """A session lifecycle transition (submit/launch/declare/...)."""

    def phase(self, name: str, start: float, duration: float,
              detail: Any = None) -> None:
        """A wall-clock phase section (profiling hook)."""


class RingTracer(Tracer):
    """Bounded-ring tracer with per-kind sampling and exact counts.

    Records are compact tuples in a ``deque(maxlen=capacity)``; when the
    ring is full the oldest records are evicted (the *end* of a run is
    usually the interesting part).  ``sampling[kind] = n`` keeps every
    n-th record of that kind; the per-kind counters in :attr:`counts`
    stay exact regardless (a multicast ``send`` with ``count=k`` bumps
    the send counter by ``k``).
    """

    __slots__ = ("capacity", "sampling", "_ring", "_state",
                 "_send_state", "_deliver_state", "_timer_state",
                 "_processes")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sampling: Optional[Mapping[str, int]] = None) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be at least 1")
        self.capacity = int(capacity)
        self.sampling = dict(DEFAULT_SAMPLING if sampling is None
                             else sampling)
        for kind, step in self.sampling.items():
            if step < 1:
                raise ValueError(
                    f"sampling step for {kind!r} must be >= 1, got {step}")
        self._ring: deque = deque(maxlen=self.capacity)
        # Per-kind [exact_count, step, countdown]: slot attribute access
        # plus integer arithmetic per event for the three kinds on the
        # kernel's hot path, budgeted at <=1.15x untraced wall-clock.
        self._state: Dict[str, list] = {}
        for kind in ("send", "deliver", "timer"):
            self._state[kind] = [0, self.sampling.get(kind, 1), 1]
        self._send_state = self._state["send"]
        self._deliver_state = self._state["deliver"]
        self._timer_state = self._state["timer"]
        #: Ingested child-process tracks (sharded workers), in ingest
        #: order: ``{"label", "records", "counts", "spans"}`` dicts.
        self._processes: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def counts(self) -> Dict[str, int]:
        """Exact per-kind event counts (independent of sampling)."""
        return {kind: state[0] for kind, state in self._state.items()
                if state[0]}

    def _admit(self, kind: str, weight: int = 1) -> bool:
        """Bump the exact count; True when this record should be kept."""
        state = self._state.get(kind)
        if state is None:
            state = self._state[kind] = [0, self.sampling.get(kind, 1), 1]
        state[0] += weight
        countdown = state[2] - 1
        if countdown == 0:
            state[2] = state[1]
            return True
        state[2] = countdown
        return False

    # send/deliver/timer dominate event traffic; each inlines the
    # _admit logic over a pre-bound slot state list to stay one call
    # deep (and dict-lookup free) on the kernel's hot path.
    def send(self, time, sender, dest, kind, count=1, query_id=0):
        state = self._send_state
        state[0] += count
        countdown = state[2] - 1
        if countdown:
            state[2] = countdown
            return
        state[2] = state[1]
        self._ring.append(("send", time, sender, dest, kind, count,
                           query_id))

    def deliver(self, time, sender, dest, kind, chain_depth, sent_at=0.0,
                query_id=0):
        state = self._deliver_state
        state[0] += 1
        countdown = state[2] - 1
        if countdown:
            state[2] = countdown
            return
        state[2] = state[1]
        self._ring.append(("deliver", time, sender, dest, kind,
                           chain_depth, sent_at, query_id))

    def timer(self, time, host, name, query_id=0):
        state = self._timer_state
        state[0] += 1
        countdown = state[2] - 1
        if countdown:
            state[2] = countdown
            return
        state[2] = state[1]
        self._ring.append(("timer", time, host, name, query_id))

    def drop(self, time, dest, query_id=0):
        if self._admit("drop"):
            self._ring.append(("drop", time, dest, query_id))

    def late(self, time, dest, query_id=0):
        if self._admit("late"):
            self._ring.append(("late", time, dest, query_id))

    def fail(self, time, host):
        if self._admit("fail"):
            self._ring.append(("fail", time, host))

    def session(self, time, query_id, event, detail=None):
        if self._admit("session"):
            self._ring.append(("session", time, query_id, event, detail))

    def phase(self, name, start, duration, detail=None):
        if self._admit("phase"):
            self._ring.append(("phase", start, duration, name, detail))

    # ------------------------------------------------------------------
    # Multi-process merge
    # ------------------------------------------------------------------
    def raw_records(self) -> List[Tuple]:
        """The resident ring as raw record tuples, oldest first.

        The tuples are plain ints/floats/strings, so a forked worker can
        ship them over a result pipe and the coordinator can hand them
        to :meth:`ingest_process` unchanged.
        """
        return list(self._ring)

    def merge_counts(self, counts: Mapping[str, int]) -> None:
        """Fold another tracer's exact per-kind counts into this one."""
        for kind, value in counts.items():
            state = self._state.get(kind)
            if state is None:
                state = self._state[kind] = [
                    0, self.sampling.get(kind, 1), 1]
            state[0] += value

    def ingest_process(self, label: str, records: List[Tuple],
                       counts: Optional[Mapping[str, int]] = None,
                       spans: Optional[List[Tuple]] = None) -> None:
        """Attach one child process's trace as a named track.

        ``records`` are raw ring tuples (:meth:`raw_records`) recorded
        in the child; ``counts`` its exact per-kind counts, folded into
        this tracer's own so run-wide totals stay exact; ``spans`` an
        optional list of wall-clock ``(name, start_s, duration_s, args)``
        tuples (epoch/barrier sections) rendered as complete spans on a
        dedicated timeline process in the Chrome export.
        """
        self._processes.append({
            "label": str(label),
            "records": list(records),
            "counts": dict(counts or {}),
            "spans": list(spans or ()),
        })
        if counts:
            self.merge_counts(counts)

    @property
    def processes(self) -> List[Dict[str, Any]]:
        """Ingested process tracks (label/records/counts/spans dicts)."""
        return list(self._processes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def records(self) -> List[Dict[str, Any]]:
        """The resident ring as a list of plain dicts, oldest first."""
        return [self._as_dict(record) for record in self._ring]

    def summary(self) -> Dict[str, Any]:
        """Exact per-kind counts plus ring occupancy/sampling config."""
        summary = {
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "recorded": len(self._ring),
            "capacity": self.capacity,
            "sampling": {k: self.sampling[k] for k in sorted(self.sampling)},
        }
        if self._processes:
            summary["processes"] = [
                {"label": proc["label"],
                 "recorded": len(proc["records"]),
                 "counts": {k: proc["counts"][k]
                            for k in sorted(proc["counts"])}}
                for proc in self._processes
            ]
        return summary

    @staticmethod
    def _as_dict(record: Tuple) -> Dict[str, Any]:
        kind = record[0]
        if kind == "send":
            _, time, sender, dest, msg_kind, count, qid = record
            return {"type": "send", "time": time, "sender": sender,
                    "dest": dest, "kind": msg_kind, "count": count,
                    "query_id": qid}
        if kind == "deliver":
            _, time, sender, dest, msg_kind, depth, sent_at, qid = record
            return {"type": "deliver", "time": time, "sender": sender,
                    "dest": dest, "kind": msg_kind, "chain_depth": depth,
                    "sent_at": sent_at, "query_id": qid}
        if kind == "timer":
            _, time, host, name, qid = record
            return {"type": "timer", "time": time, "host": host,
                    "name": name, "query_id": qid}
        if kind in ("drop", "late"):
            _, time, dest, qid = record
            return {"type": kind, "time": time, "dest": dest,
                    "query_id": qid}
        if kind == "fail":
            _, time, host = record
            return {"type": "fail", "time": time, "host": host}
        if kind == "session":
            _, time, qid, event, detail = record
            row = {"type": "session", "time": time, "query_id": qid,
                   "event": event}
            if detail is not None:
                row["detail"] = detail
            return row
        # phase
        _, start, duration, name, detail = record
        row = {"type": "phase", "name": name, "start": start,
               "duration": duration}
        if detail is not None:
            row["detail"] = detail
        return row

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write a metadata header plus one JSON object per record.

        Ingested process tracks follow the main ring, each record tagged
        with its track label (``"track": "shard 2"``).  Returns the
        number of records written (header excluded).
        """
        with open(path, "w") as handle:
            header = dict(self.summary())
            header["type"] = "meta"
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            n = 0
            for record in self._ring:
                handle.write(json.dumps(self._as_dict(record),
                                        sort_keys=True) + "\n")
                n += 1
            for proc in self._processes:
                label = proc["label"]
                for record in proc["records"]:
                    row = self._as_dict(record)
                    row["track"] = label
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
                    n += 1
        return n

    def export_chrome(self, path: str) -> int:
        """Write the ring in Chrome trace-event format (Perfetto-loadable).

        Mapping: one simulation second becomes one trace microsecond,
        hosts become threads of pid 0, point events are thread-scoped
        instants, sessions become async ``b``/``e`` spans keyed by query
        id, and wall-clock phases become complete (``X``) spans on their
        own pid.  Ingested process tracks (sharded workers) land on pids
        2, 3, ... -- one Perfetto process per shard, named via ``M``
        metadata events -- and their wall-clock epoch/barrier spans
        share one extra timeline process with one thread per shard.
        Returns the number of trace events written.
        """
        events: List[Dict[str, Any]] = []
        scale = 1e6  # simulation seconds -> trace microseconds
        self._append_record_events(events, self._ring, 0, scale)
        for index, proc in enumerate(self._processes):
            pid = 2 + index
            events.append({
                "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                "args": {"name": proc["label"]}})
            self._append_record_events(events, proc["records"], pid, scale)
        if self._processes:
            # One shared wall-clock timeline process: thread k carries
            # shard k's epoch/barrier complete spans, so Perfetto shows
            # the actual cross-core overlap on adjacent rows.
            timeline_pid = 2 + len(self._processes)
            events.append({
                "ph": "M", "pid": timeline_pid, "tid": 0,
                "name": "process_name",
                "args": {"name": "epoch barriers (wall clock)"}})
            for index, proc in enumerate(self._processes):
                if proc["spans"]:
                    events.append({
                        "ph": "M", "pid": timeline_pid, "tid": index,
                        "name": "thread_name",
                        "args": {"name": proc["label"]}})
                for name, start, duration, args in proc["spans"]:
                    events.append({
                        "ph": "X", "pid": timeline_pid, "tid": index,
                        "ts": start * scale, "dur": duration * scale,
                        "cat": ("barrier" if name.startswith("barrier")
                                else "epoch"),
                        "name": name, "args": dict(args or {})})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "metadata": self.summary()}, handle)
            handle.write("\n")
        return len(events)

    def _append_record_events(self, events: List[Dict[str, Any]],
                              records, pid: int, scale: float) -> None:
        """Convert raw ring tuples to trace events on process ``pid``.

        Wall-clock ``phase`` records always land on pid 1 (they are
        process-global sections, not per-shard activity).
        """
        for record in records:
            row = self._as_dict(record)
            kind = row["type"]
            if kind == "send":
                events.append({
                    "ph": "i", "s": "t", "pid": pid, "tid": row["sender"],
                    "ts": row["time"] * scale, "cat": "message",
                    "name": f"send {row['kind']}",
                    "args": {"dest": row["dest"], "count": row["count"],
                             "query_id": row["query_id"]}})
            elif kind == "deliver":
                events.append({
                    "ph": "i", "s": "t", "pid": pid, "tid": row["dest"],
                    "ts": row["time"] * scale, "cat": "message",
                    "name": f"deliver {row['kind']}",
                    "args": {"sender": row["sender"],
                             "chain_depth": row["chain_depth"],
                             "sent_at": row["sent_at"],
                             "query_id": row["query_id"]}})
            elif kind == "timer":
                events.append({
                    "ph": "i", "s": "t", "pid": pid, "tid": row["host"],
                    "ts": row["time"] * scale, "cat": "timer",
                    "name": f"timer {row['name']}",
                    "args": {"query_id": row["query_id"]}})
            elif kind in ("drop", "late"):
                events.append({
                    "ph": "i", "s": "t", "pid": pid, "tid": row["dest"],
                    "ts": row["time"] * scale, "cat": "message",
                    "name": kind,
                    "args": {"query_id": row["query_id"]}})
            elif kind == "fail":
                events.append({
                    "ph": "i", "s": "g", "pid": pid, "tid": row["host"],
                    "ts": row["time"] * scale, "cat": "churn",
                    "name": f"fail host {row['host']}", "args": {}})
            elif kind == "session":
                event = row["event"]
                phase = {"launch": "b", "declare": "e",
                         "failed": "e"}.get(event)
                base = {"pid": pid, "tid": 0, "ts": row["time"] * scale,
                        "cat": "session", "id": row["query_id"],
                        "name": f"query {row['query_id']}"}
                if phase is None:
                    base.update({"ph": "n",
                                 "args": {"event": event}})
                else:
                    base.update({"ph": phase,
                                 "args": {"event": event}})
                if row.get("detail") is not None:
                    base["args"]["detail"] = row["detail"]
                events.append(base)
            else:  # phase: wall-clock complete span on its own pid
                events.append({
                    "ph": "X", "pid": 1, "tid": 0,
                    "ts": row["start"] * scale,
                    "dur": row["duration"] * scale, "cat": "phase",
                    "name": row["name"],
                    "args": ({} if row.get("detail") is None
                             else {"detail": row["detail"]})})

