"""Configuration objects for the high-level API."""

from __future__ import annotations

from typing import Optional

from repro.simulation.vector_lane import DEFAULT_LANE, validate_lane


class SimulationConfig:
    """Network-model parameters shared by every protocol run.

    Immutable: assigning a field raises :class:`AttributeError`.

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

    __slots__ = ("delta", "wireless", "delay", "lane")

    def __init__(self, delta: float = 1.0, wireless: bool = False,
                 delay: str = "fixed", lane: str = DEFAULT_LANE) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        # Fail fast on malformed specs instead of at first query time.
        from repro.simulation.delay import delay_model_from_spec

        delay_model_from_spec(delay, delta)
        validate_lane(lane)
        for name, value in zip(self.__slots__, (delta, wireless, delay, lane)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), (self.delta, self.wireless, self.delay, self.lane)


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

    __slots__ = ("d_hat", "fm_repetitions")

    def __init__(self, d_hat: Optional[int] = None,
                 fm_repetitions: int = 8) -> None:
        if d_hat is not None and d_hat < 1:
            raise ValueError("d_hat must be at least 1 when given")
        if fm_repetitions < 1:
            raise ValueError("fm_repetitions must be at least 1")
        self.d_hat = d_hat
        self.fm_repetitions = fm_repetitions
