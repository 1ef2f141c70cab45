"""The single stimuli a popped queue entry stands for.

At fixed delay the event queue files a run of same-key sends as one
:class:`~repro.simulation.events._DeliverBatch` and a run of same-key
timers as one :class:`~repro.simulation.events._TimerBatch`, and pops
each whole.  The order contract is stated per *stimulus* -- per filed
send, per filed timer -- so the queue tests expand what a pop hands out
before they compare it with a reference heap of what was filed.
"""

from collections import deque
from typing import Any, NamedTuple, Tuple

from repro.simulation.events import _DeliverBatch, _TimerBatch


class Send(NamedTuple):
    """One filed send of a popped batch, with the fields it shares."""

    sender: int
    dests: Tuple[int, ...]
    payload: Any
    kind: str
    sent_at: float
    chain_depth: int
    wireless: bool
    query_id: int
    vtime: float


def stimuli(entry):
    """The single stimuli of one popped entry, in drain order: a
    :class:`Send` per send of a send batch, a ``(host, name, info)``
    tuple per host of a timer batch, and any other entry itself."""
    cls = entry.__class__
    if cls is _DeliverBatch:
        return [Send(sender, dests, payload, entry.kind, entry.sent_at,
                     entry.chain_depth, entry.wireless, entry.query_id,
                     entry.vtime)
                for sender, dests, payload in entry.sends]
    if cls is _TimerBatch:
        return [(host, entry.name, entry.info) for host in entry.hosts]
    return [entry]


class Drain:
    """Pops a queue one stimulus at a time, as the engine works through
    a batch: the rest of a popped entry is handed out before the queue
    is popped again (so what is filed meanwhile sorts behind it)."""

    def __init__(self, queue) -> None:
        self.queue = queue
        self.held = deque()

    def pop(self, horizon=None):
        """``(time, stimulus)`` of the next stimulus due by ``horizon``,
        or ``None``."""
        if not self.held:
            front = self.queue.pop_due(horizon)
            if front is None:
                return None
            time, entry = front
            self.held.extend((time, stimulus) for stimulus in stimuli(entry))
        if horizon is not None and self.held[0][0] > horizon:
            return None
        return self.held.popleft()
