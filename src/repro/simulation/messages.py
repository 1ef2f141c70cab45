"""Message model.

All protocols exchange small fixed-size messages (the paper's cost model is
message counts, not bytes).  A :class:`Message` records sender, destination,
payload, the time it was sent and the causal depth used to compute the
paper's *time cost* (length of the longest chain of messages).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


class Message:
    """A single protocol message in flight.

    Treated as immutable by protocol code (no ``__setattr__`` guard: a
    per-field ``object.__setattr__`` would show up on the kernel's
    per-message hot path).  The one writer is the engine: a fixed-delay
    multicast is ONE message from send to delivery
    (:class:`~repro.simulation.events._DeliverBatch`, this class plus its
    ``dests``), and ``EventEngine._drain`` hands that same object to each
    destination in turn, rebinding ``dest`` before each call.  So, as
    with the reused :class:`~repro.simulation.host.HostContext`, a
    handler must not keep a message past its call -- copy the fields it
    needs.  Messages compare and hash by identity.  Payloads are shared
    the same way: a receiver mutating one would corrupt what its
    multicast's later destinations read
    (``tests/simulation/test_messages.py`` pins this with read-only
    payload proxies across every protocol).

    Attributes:
        sender: host id of the sending host.
        dest: host id of the destination host (a neighbor of the sender);
            for a multicast, the destination being delivered to.
        kind: protocol-defined message kind (e.g. ``"broadcast"``).
        payload: protocol-defined immutable mapping of message fields.
        sent_at: query-local time at which the message was sent (on the
            clock ``vtime`` is on).
        chain_depth: 1 + the chain depth of the message whose receipt caused
            this one to be sent; used for the time-cost metric.
        wireless: True when the message was sent over a broadcast medium to
            all neighbors at once (counted once for communication cost).
        query_id: identifier of the query session this message belongs to,
            stamped at send time so the one event loop can demultiplex
            traffic from many concurrent queries back to the right
            per-query protocol instances.  A
            :class:`~repro.simulation.engine.Simulator`'s single session
            is query 0; the multi-tenant :mod:`repro.service` numbers
            its sessions from 1.
        vtime: the *query-local* (virtual) delivery time.  A session
            launched at engine time ``t0`` runs its protocol on a clock
            where the query starts at 0; carrying the virtual delivery
            instant explicitly (the float a lone query computes for
            it, rather than one re-derived as ``engine_time - t0``) keeps per-query event timing exact in
            floating point, which the bit-identical solo-equivalence
            guarantee relies on.  For a session launched at 0 it equals
            the engine delivery time.
    """

    __slots__ = ("sender", "dest", "kind", "payload", "sent_at",
                 "chain_depth", "wireless", "query_id", "vtime")

    def __init__(self, sender: int, dest: int, kind: str,
                 payload: Optional[Mapping[str, Any]] = None,
                 sent_at: float = 0.0, chain_depth: int = 1,
                 wireless: bool = False, query_id: int = 0,
                 vtime: float = 0.0) -> None:
        self.sender = sender
        self.dest = dest
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.sent_at = sent_at
        self.chain_depth = chain_depth
        self.wireless = wireless
        self.query_id = query_id
        self.vtime = vtime
