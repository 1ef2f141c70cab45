"""Discrete-event simulation substrate for dynamic networks.

The simulator implements the paper's relaxed asynchronous model: messages
between alive neighbors are delivered reliably within a known maximum delay
``delta``, hosts may fail (churn) at arbitrary instants, and every message
is accounted for so that communication, computation and time costs can be
measured exactly as defined in Section 6.3 of the paper.

The *realised* per-message delay (always at most ``delta``) is pluggable:
it comes from a :class:`~repro.simulation.delay.DelayModel`, whose default
:class:`~repro.simulation.delay.FixedDelay` reproduces the paper's worst
case of exactly ``delta`` per hop.  Cost measurement is not: every run
accounts into one :class:`~repro.simulation.stats.CostAccounting`, whose
packed per-host counts keep a million-host run in bounded memory.
"""

from repro.simulation.clock import SimulationClock, tick_index, tick_time
from repro.simulation.delay import (
    DelayModel,
    FixedDelay,
    HeavyTailDelay,
    PerEdgeDelay,
    UniformDelay,
    delay_model_from_spec,
)
from repro.simulation.engine import Simulator, SimulationResult
from repro.simulation.events import (
    Event,
    EventKind,
    EventQueue,
)
from repro.simulation.host import HostContext, ProtocolHost
from repro.simulation.messages import Message
from repro.simulation.network import DynamicNetwork, NetworkEvent, NetworkEventKind
from repro.simulation.stats import CostAccounting
from repro.simulation.churn import ChurnSchedule, uniform_failure_schedule

__all__ = [
    "SimulationClock",
    "tick_index",
    "tick_time",
    "Simulator",
    "SimulationResult",
    "Event",
    "EventKind",
    "EventQueue",
    "HostContext",
    "ProtocolHost",
    "Message",
    "DynamicNetwork",
    "NetworkEvent",
    "NetworkEventKind",
    "CostAccounting",
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "PerEdgeDelay",
    "HeavyTailDelay",
    "delay_model_from_spec",
    "ChurnSchedule",
    "uniform_failure_schedule",
]
