"""Configuration objects for the high-level API."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simulation.vector_lane import DEFAULT_LANE, validate_lane


@dataclass(frozen=True)
class SimulationConfig:
    """Network-model parameters shared by every protocol run.

    Attributes:
        delta: maximum per-hop message delay (the paper's ``delta``).
            This is the *bound* protocol timer math relies on; the
            realised delay of each message comes from ``delay``.
        wireless: model a broadcast medium where one transmission reaches all
            neighbors of the sender (sensor-network grids).
        delay: realised link-delay model spec (``"fixed"``, ``"uniform"``,
            ``"uniform:0.25,1.0"``, ``"per_edge"``, ``"heavy_tail:1.2"``;
            see :func:`repro.simulation.delay.delay_model_from_spec`).
            The default reproduces the paper's exact-``delta`` worst case.
        lane: kernel lane -- ``"vector"`` (the default) asks for the
            per-tick batch lane (see :mod:`repro.simulation.vector_lane`),
            which is locked bit-identical to the spec path and falls
            back to it when its gate refuses a run; ``"python"``
            requests the executable-spec loop itself.
    """

    delta: float = 1.0
    wireless: bool = False
    delay: str = "fixed"
    lane: str = DEFAULT_LANE

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        # Fail fast on malformed specs instead of at first query time.
        from repro.simulation.delay import delay_model_from_spec

        delay_model_from_spec(self.delay, self.delta)
        validate_lane(self.lane)


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs every protocol run takes.  A protocol's own parameters
    (DAG fan-out, gossip rounds, ...) travel with the protocol:
    ``ValidAggregator.query(protocol="dag3")`` or a ready-made
    ``PushSumGossip(num_rounds=60)``.

    Attributes:
        d_hat: overestimate of the stable diameter ``D_hat``; estimated from
            the topology when ``None``.
        fm_repetitions: repetitions ``c`` of the FM sketch for count/sum/avg.
    """

    d_hat: Optional[int] = None
    fm_repetitions: int = 8

    def __post_init__(self) -> None:
        if self.d_hat is not None and self.d_hat < 1:
            raise ValueError("d_hat must be at least 1 when given")
        if self.fm_repetitions < 1:
            raise ValueError("fm_repetitions must be at least 1")
