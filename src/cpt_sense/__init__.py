"""Behavioral dynamic-pricing model with analytic and numeric sensitivity
analysis of the optimal tariff.

The package models a rider choosing between an uncertain pooled ride and a
certain alternative, prices the ride by maximizing expected revenue over a
bounded tariff, and quantifies how the optimum moves when the behavioral
parameters are misestimated: analytically through KKT-based differentials,
Taylor predictions, active-set domains and piecewise continuation, and
numerically through brute-force re-optimization and mismatch-loss
accounting.

The scalar evaluation kernels are plain Python (``cpt_sense._core``).
"""

from cpt_sense.errors import (
    BracketingError,
    ContinuationError,
    CptSenseError,
    InvalidScenarioError,
    SingularHessianError,
    SingularPointError,
    SolverDisagreementError,
)
from cpt_sense.model import (
    BEST_CASE,
    NOMINAL_PARAMS,
    PARAM_NAMES,
    BinaryProspect,
    CptParams,
    PolicyKind,
    ReferencePolicy,
    acceptance_probability,
    expected_revenue,
    reference_line,
    resolve_reference,
)
from cpt_sense.numerics import bracket_root, grid_golden_maximize
from cpt_sense.pricing import (
    ActiveSet,
    LagrangianDerivatives,
    OptimumRecord,
    kkt_residuals,
    lagrangian_derivatives,
    revenue_function,
    revenue_gradient,
    solve,
)
from cpt_sense.scenario import (
    TravelScenario,
    fixtures,
    generate_random,
    is_valid,
    require_valid,
    utilities_at,
    validate,
)
from cpt_sense.sensitivity import (
    BindingEvent,
    LocalDomain,
    ParamSensitivity,
    all_domains,
    differentials,
    local_domain,
    taylor_predict,
)
from cpt_sense.sweeps import (
    MismatchResult,
    PiecewiseApprox,
    Segment,
    SweepRow,
    SweepSpec,
    mismatch_loss,
    numeric_sweep,
    piecewise_continuation,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the scalar kernel implementation, recorded in run metadata.

    The kernels are pure Python, so this is always ``"python"``.
    """
    return "python"


__all__ = [
    "ActiveSet", "BEST_CASE", "BinaryProspect", "BindingEvent",
    "BracketingError", "ContinuationError", "CptParams", "CptSenseError",
    "InvalidScenarioError", "LagrangianDerivatives", "LocalDomain",
    "MismatchResult", "NOMINAL_PARAMS", "OptimumRecord", "PARAM_NAMES",
    "ParamSensitivity", "PiecewiseApprox", "PolicyKind", "ReferencePolicy",
    "Segment", "SingularHessianError", "SingularPointError",
    "SolverDisagreementError", "SweepRow", "SweepSpec", "TravelScenario",
    "acceptance_probability", "all_domains", "bracket_root",
    "differentials", "expected_revenue", "fixtures", "generate_random",
    "grid_golden_maximize", "is_valid", "kernel_backend", "kkt_residuals",
    "lagrangian_derivatives", "local_domain", "mismatch_loss",
    "numeric_sweep", "piecewise_continuation", "reference_line",
    "require_valid", "resolve_reference", "revenue_function",
    "revenue_gradient", "solve", "taylor_predict", "utilities_at", "validate",
]
