"""Exception types raised across the package."""


class CptSenseError(Exception):
    """Base class for all package-specific errors."""


class InvalidScenarioError(CptSenseError):
    """A travel scenario violates its validity conditions."""


class SingularPointError(CptSenseError):
    """A derivative is non-finite at the evaluation point.

    The message names the offending term.
    """


class SingularHessianError(CptSenseError):
    """Curvature at an interior optimum is too small to invert."""


class SolverDisagreementError(CptSenseError):
    """The derivative-free oracle found more revenue than the
    derivative-based solver, and found it far from the solver's tariff
    (more than two presieve cells in ``pricing.solve``).

    The message names both revenues and both tariffs.
    """


class BracketingError(CptSenseError):
    """Root finding was attempted on an interval with no sign change."""


class ContinuationError(CptSenseError):
    """Piecewise continuation degenerated (oscillation or segment blow-up)."""


class GenerationError(CptSenseError):
    """Random scenario generation could not reach the requested count."""
