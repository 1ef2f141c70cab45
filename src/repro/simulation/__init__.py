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

from repro import lazy_exports

_EXPORTS = {
    "SimulationClock": "clock",
    "tick_index": "clock",
    "tick_time": "clock",
    "Simulator": "engine",
    "SimulationResult": "engine",
    "Event": "events",
    "EventKind": "events",
    "EventQueue": "events",
    "HostContext": "host",
    "ProtocolHost": "host",
    "Message": "messages",
    "DynamicNetwork": "network",
    "CostAccounting": "stats",
    "DelayModel": "delay",
    "FixedDelay": "delay",
    "UniformDelay": "delay",
    "PerEdgeDelay": "delay",
    "HeavyTailDelay": "delay",
    "delay_model_from_spec": "delay",
    "ChurnSchedule": "churn",
    "uniform_failure_schedule": "churn",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
