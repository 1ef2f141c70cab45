"""Configuration objects for the high-level API."""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Protocol-level knobs.

    Attributes:
        d_hat: overestimate of the stable diameter ``D_hat``; estimated from
            the topology when ``None``.
        fm_repetitions: repetitions ``c`` of the FM sketch for count/sum/avg.
        early_termination: WILDFIRE's distance-based participation window.
        dag_parents: fan-out ``k`` for DIRECTEDACYCLICGRAPH.
        gossip_rounds: rounds for the push-sum baseline.
        epsilon: approximation slack for RANDOMIZEDREPORT.
        zeta: failure probability for RANDOMIZEDREPORT.
    """

    d_hat: Optional[int] = None
    fm_repetitions: int = 8
    early_termination: bool = True
    dag_parents: int = 2
    gossip_rounds: int = 50
    epsilon: float = 0.1
    zeta: float = 0.05

    def __post_init__(self) -> None:
        if self.d_hat is not None and self.d_hat < 1:
            raise ValueError("d_hat must be at least 1 when given")
        if self.fm_repetitions < 1:
            raise ValueError("fm_repetitions must be at least 1")
        if self.dag_parents < 1:
            raise ValueError("dag_parents must be at least 1")
        if self.gossip_rounds < 1:
            raise ValueError("gossip_rounds must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError("zeta must be in (0, 1)")
