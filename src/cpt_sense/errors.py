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
    """The solver could not certify its answer.

    In ``pricing.solve``: a tariff cell's revenue bound stays above the
    solver's revenue down to the narrowest cell or the bisection budget,
    a revenue value the search took exceeds that revenue, or the
    derivative-free oracle found more revenue more than two start cells
    from the solver's tariff.  The message names the cell or tariff, the
    bound or revenue, and the solver's revenue.
    """


class BracketingError(CptSenseError):
    """Root finding was attempted on an interval with no sign change."""


class ContinuationError(CptSenseError):
    """Piecewise continuation degenerated (oscillation or segment blow-up)."""
