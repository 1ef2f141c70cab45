"""Result objects returned by the high-level API."""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional

from repro.protocols.base import ProtocolRunResult
from repro.semantics.validity import ValidityBounds


class ValidityCertificate(NamedTuple):
    """The oracle-checked validity verdict attached to a query result.

    A certificate can only be issued when the churn that occurred during the
    run is known (which a simulator always knows, and a deployment does not
    -- that asymmetry is the paper's point).

    Attributes:
        bounds: the ``H_C`` / ``H_U`` host-set bounds and their aggregates.
        is_single_site_valid: whether the declared value is consistent with
            some admissible host set.
        epsilon: the approximation slack used for the check (0 = exact).
    """

    bounds: ValidityBounds
    is_single_site_valid: bool
    epsilon: float = 0.0

    @property
    def lower_bound(self) -> float:
        return self.bounds.lower_value

    @property
    def upper_bound(self) -> float:
        return self.bounds.upper_value


class QueryResult(NamedTuple):
    """The answer to one aggregate query plus execution metadata.

    Attributes:
        value: the declared aggregate (``None`` if the protocol failed to
            produce one, e.g. the querying host left the network).
        protocol: short name of the protocol that produced the value.
        kind: the aggregate kind ("min", "count", ...).
        run: the underlying protocol run record (costs, D_hat, timings).
        certificate: oracle validity verdict, when churn was supplied.
    """

    value: Optional[float]
    protocol: str
    kind: str
    run: ProtocolRunResult
    certificate: Optional[ValidityCertificate] = None

    @property
    def communication_cost(self) -> int:
        return self.run.costs.communication_cost

    @property
    def computation_cost(self) -> int:
        return self.run.costs.computation_cost

    @property
    def time_cost(self) -> int:
        return self.run.costs.time_cost

    @property
    def is_valid(self) -> Optional[bool]:
        """The certificate verdict, or ``None`` when no certificate exists."""
        if self.certificate is None:
            return None
        return self.certificate.is_single_site_valid

    def summary(self) -> Dict[str, Any]:
        """A flat dictionary convenient for tables and DataFrames."""
        info: Dict[str, Any] = {
            "protocol": self.protocol,
            "kind": self.kind,
            "value": self.value,
            "communication_cost": self.communication_cost,
            "computation_cost": self.computation_cost,
            "time_cost": self.time_cost,
            "d_hat": self.run.d_hat,
        }
        if self.certificate is not None:
            info.update(
                {
                    "valid": self.certificate.is_single_site_valid,
                    "lower_bound": self.certificate.lower_bound,
                    "upper_bound": self.certificate.upper_bound,
                }
            )
        return info
