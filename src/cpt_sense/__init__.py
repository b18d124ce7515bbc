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
    GenerationError,
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
    SubjectiveEvaluation,
    acceptance_probability,
    expected_revenue,
    rank_dependent_weights,
    reference_line,
    resolve_reference,
    subjective_utilities,
    value,
    weight,
)
from cpt_sense.numerics import (
    ScalarFunctionHandle,
    bracket_root,
    central_derivative,
    grid_golden_maximize,
)
from cpt_sense.pricing import (
    ActiveSet,
    ConcavityReport,
    KktResiduals,
    LagrangianDerivatives,
    OptimumRecord,
    concavity_certificate,
    kkt_residuals,
    lagrangian_derivatives,
    revenue_function,
    revenue_gradient,
    solve,
)
from cpt_sense.scenario import (
    GeneratorRanges,
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
    SensitivityDifferentials,
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
    "BracketingError", "ConcavityReport", "ContinuationError", "CptParams",
    "CptSenseError", "GenerationError", "GeneratorRanges", "InvalidScenarioError",
    "KktResiduals", "LagrangianDerivatives", "LocalDomain", "MismatchResult",
    "NOMINAL_PARAMS", "OptimumRecord", "PARAM_NAMES", "ParamSensitivity",
    "PiecewiseApprox", "PolicyKind", "ReferencePolicy", "ScalarFunctionHandle",
    "Segment", "SensitivityDifferentials", "SingularHessianError",
    "SingularPointError", "SolverDisagreementError", "SubjectiveEvaluation",
    "SweepRow", "SweepSpec", "TravelScenario", "acceptance_probability",
    "all_domains", "bracket_root",
    "central_derivative", "concavity_certificate", "differentials",
    "expected_revenue", "fixtures", "generate_random", "grid_golden_maximize",
    "is_valid", "kernel_backend", "kkt_residuals", "lagrangian_derivatives",
    "local_domain", "mismatch_loss", "numeric_sweep", "piecewise_continuation",
    "rank_dependent_weights", "reference_line", "require_valid",
    "resolve_reference", "revenue_function", "revenue_gradient", "solve",
    "subjective_utilities", "taylor_predict", "utilities_at", "validate",
    "value", "weight",
]
