"""Exception types shared across the solver and lab modules."""

from dataclasses import dataclass


class ConeViolationError(ValueError):
    """A spectrum left the admissibility cone where membership is required.

    Carries the offending node indices (if any) in ``nodes``.
    """

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = [] if nodes is None else list(nodes)


class StarshapednessError(ValueError):
    """Radial field or support function violated positivity."""


class GeometryError(ValueError):
    """Discrete geometry became degenerate (e.g. non-SPD metric)."""


class StartRadiusError(ValueError):
    """The round-sphere start equation has no positive root."""


@dataclass
class SolveFailure:
    """Why and where a solve stopped.

    cause: "inadmissible_start", "max_iter", "singular" or "line_search"
    (damped_newton), or "step_underflow" (homotopy_solve).  x: the flat
    unknowns where it stopped (the last accepted rho on underflow).
    report: the failed Newton solve's SolveReport (the last rejected
    corrector's on underflow).  trace, t: the HomotopyTrace and t of a
    failure inside continuation, None outside it.
    """

    cause: str
    x: object
    report: object
    trace: object = None
    t: float | None = None


class NonconvergenceError(RuntimeError):
    """Newton or continuation failed to converge; ``diagnostics`` is the
    SolveFailure, so failed runs can still be inspected and archived."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class SamplingError(RuntimeError):
    """Rejection sampling acceptance rate fell below the cutoff."""


class ConstructionError(ValueError):
    """A manufactured solution is invalid on the requested domain."""


class ConfigError(ValueError):
    """Run configuration is malformed or violates a problem invariant."""
