"""Rider behavioral model: reference-dependent values, distorted probabilities,
rank-dependent weights, acceptance probability and expected revenue.

All operations are pure functions of their arguments and safe to call from
any number of threads.  Utilities are dimensionless "utils", tariffs are
dollars, and the tariff coefficient carries 1/$; no unit conversion is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from cpt_sense import _core
from cpt_sense.errors import InvalidScenarioError

if TYPE_CHECKING:
    from cpt_sense.scenario import TravelScenario

PARAM_NAMES = ("alpha", "beta", "lambda", "p")


def _require_finite(**values):
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError("%s must be finite, got %r" % (name, v))


@dataclass(frozen=True)
class CptParams:
    """Behavioral parameter vector of one rider.

    alpha:    probability-distortion exponent (> 0)
    beta:     diminishing-sensitivity exponent, shared by the gain and loss
              branches (> 0)
    lam:      loss-aversion coefficient (> 0)
    p_worst:  probability of the worst ride outcome, in the open (0, 1)
    """

    alpha: float
    beta: float
    lam: float
    p_worst: float

    def __post_init__(self):
        _require_finite(alpha=self.alpha, beta=self.beta, lam=self.lam,
                        p_worst=self.p_worst)
        if self.alpha <= 0.0:
            raise ValueError("alpha must be > 0, got %r" % self.alpha)
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0, got %r" % self.beta)
        if self.lam <= 0.0:
            raise ValueError("lambda must be > 0, got %r" % self.lam)
        if not 0.0 < self.p_worst < 1.0:
            raise ValueError("p_worst must be in (0, 1), got %r" % self.p_worst)

    def get(self, name: str) -> float:
        """Parameter value by public name ('alpha'|'beta'|'lambda'|'p')."""
        try:
            return {"alpha": self.alpha, "beta": self.beta,
                    "lambda": self.lam, "p": self.p_worst}[name]
        except KeyError:
            raise ValueError("unknown parameter %r" % name) from None

    def replace(self, name: str, value: float) -> "CptParams":
        """Copy of this vector with one parameter set by public name."""
        field = {"alpha": "alpha", "beta": "beta", "lambda": "lam",
                 "p": "p_worst"}.get(name)
        if field is None:
            raise ValueError("unknown parameter %r" % name)
        kwargs = {"alpha": self.alpha, "beta": self.beta, "lam": self.lam,
                  "p_worst": self.p_worst}
        kwargs[field] = value
        return CptParams(**kwargs)


#: Nominal parameter values used throughout the benchmark experiments.
NOMINAL_PARAMS = CptParams(alpha=0.82, beta=0.8, lam=2.25, p_worst=0.75)


class PolicyKind(Enum):
    STATIC_ALTERNATIVE = "static"
    EXPECTED_UTILITY = "expected"
    BEST_CASE = "best"
    WORST_CASE = "worst"
    FIXED_VALUE = "fixed"


@dataclass(frozen=True)
class ReferencePolicy:
    """How the rider's reference utility is chosen for a given offer.

    Static: the alternative's own utility.  Dynamic: expected ride utility,
    best case, or worst case.  FixedValue pins the reference to a constant
    utility level.
    """

    kind: PolicyKind
    level: float | None = None

    def __post_init__(self):
        if self.kind is PolicyKind.FIXED_VALUE:
            if self.level is None or not math.isfinite(self.level):
                raise ValueError("FixedValue policy requires a finite level")
        elif self.level is not None:
            raise ValueError("%s policy carries no level" % self.kind.name)

    @classmethod
    def static_alternative(cls) -> "ReferencePolicy":
        return cls(PolicyKind.STATIC_ALTERNATIVE)

    @classmethod
    def expected_utility(cls) -> "ReferencePolicy":
        return cls(PolicyKind.EXPECTED_UTILITY)

    @classmethod
    def best_case(cls) -> "ReferencePolicy":
        return cls(PolicyKind.BEST_CASE)

    @classmethod
    def worst_case(cls) -> "ReferencePolicy":
        return cls(PolicyKind.WORST_CASE)

    @classmethod
    def fixed(cls, level: float) -> "ReferencePolicy":
        return cls(PolicyKind.FIXED_VALUE, level)


BEST_CASE = ReferencePolicy.best_case()


@dataclass(frozen=True)
class BinaryProspect:
    """Two-outcome ride prospect: u_low with probability p_worst, else u_high."""

    u_low: float
    u_high: float
    p_worst: float

    def __post_init__(self):
        _require_finite(u_low=self.u_low, u_high=self.u_high, p_worst=self.p_worst)
        if self.u_low > self.u_high:
            raise ValueError("u_low must not exceed u_high")
        if not 0.0 < self.p_worst < 1.0:
            raise ValueError("p_worst must be in (0, 1), got %r" % self.p_worst)


@dataclass(frozen=True)
class SubjectiveEvaluation:
    """Intermediate quantities of one subjective evaluation.

    Decision weights may sum to less than one (subcertainty).  The value at
    the reference is exactly zero, so whichever outcome coincides with the
    reference contributes nothing.
    """

    reference: float
    w_low: float
    w_high: float
    v_low: float
    v_high: float
    u_smods_subjective: float
    u_alt_subjective: float


def value(u: float, reference: float, params: CptParams) -> float:
    """Subjective value of utility ``u`` relative to ``reference``.

    (u - R)^beta in the gain branch, -lambda (R - u)^beta in the loss
    branch; continuous, with value exactly 0 at u == R.
    """
    _require_finite(u=u, reference=reference)
    return _core.cpt_value(u, reference, params.beta, params.lam)


def weight(prob: float, alpha: float) -> float:
    """Distorted probability exp(-(-ln p)^alpha).

    w(0) = 0 and w(1) = 1 hold by definition (no log evaluated at the
    endpoints); strictly increasing on (0, 1).
    """
    if not math.isfinite(prob) or not 0.0 <= prob <= 1.0:
        raise ValueError("prob must lie in [0, 1], got %r" % prob)
    if not alpha > 0.0:
        raise ValueError("alpha must be > 0, got %r" % alpha)
    return _core.prelec_weight(prob, alpha)


def resolve_reference(policy: ReferencePolicy, prospect: BinaryProspect,
                      u_alt: float) -> float:
    """Reference utility level implied by ``policy`` for this offer."""
    return _reference_at(policy, prospect.u_low, prospect.u_high,
                         prospect.p_worst, u_alt)


def _reference_at(policy: ReferencePolicy, u_low: float, u_high: float,
                  p_worst: float, u_alt: float) -> float:
    """``resolve_reference`` from the outcomes themselves, no prospect."""
    kind = policy.kind
    if kind is PolicyKind.STATIC_ALTERNATIVE:
        return u_alt
    if kind is PolicyKind.EXPECTED_UTILITY:
        return p_worst * u_low + (1.0 - p_worst) * u_high
    if kind is PolicyKind.BEST_CASE:
        return u_high
    if kind is PolicyKind.WORST_CASE:
        return u_low
    return float(policy.level)  # FIXED_VALUE


def reference_line(policy: ReferencePolicy,
                   scenario: "TravelScenario") -> tuple[float, float, float]:
    """Coefficients (c, r_g, r_p) of the reference R = c + r_g*gamma + r_p*p.

    Every policy's reference is affine in the tariff and the worst-outcome
    probability p, which is what lets the ``_core`` slope and partials be
    closed forms for every policy; ``resolve_reference`` gives the same
    level from a prospect.
    """
    if policy.kind is PolicyKind.STATIC_ALTERNATIVE:
        return scenario.u0, 0.0, 0.0
    if policy.kind is PolicyKind.EXPECTED_UTILITY:
        return scenario.x_high, scenario.b_sm, scenario.x_low - scenario.x_high
    if policy.kind is PolicyKind.BEST_CASE:
        return scenario.x_high, scenario.b_sm, 0.0
    if policy.kind is PolicyKind.WORST_CASE:
        return scenario.x_low, scenario.b_sm, 0.0
    return float(policy.level), 0.0, 0.0  # FIXED_VALUE


def rank_dependent_weights(prospect: BinaryProspect, reference: float,
                           alpha: float) -> tuple[float, float]:
    """Decision weights (w_low, w_high) for the two prospect outcomes.

    Outcomes strictly below the reference are weighted by differences of the
    distorted cumulative distribution, outcomes at or above it by
    differences of the distorted decumulative distribution.  Closed forms
    for the two-outcome case:

        reference <= u_low          -> (1 - w(1-p), w(1-p))
        u_low < reference <= u_high -> (w(p),       w(1-p))
        reference > u_high          -> (w(p),       1 - w(p))
    """
    _require_finite(reference=reference)
    return _core.rank_weights(prospect.p_worst, alpha,
                              prospect.u_low < reference,
                              prospect.u_high >= reference)


def subjective_utilities(prospect: BinaryProspect, u_alt: float,
                         params: CptParams,
                         policy: ReferencePolicy = BEST_CASE) -> SubjectiveEvaluation:
    """Subjective utilities of the ride prospect and of the certain alternative.

    Requires a non-trivial choice set (u_low <= u_alt <= u_high); outside it
    one option dominates and the evaluation is refused.
    """
    if not prospect.u_low <= u_alt <= prospect.u_high:
        raise InvalidScenarioError(
            "choice set is trivial: u_alt=%r outside [%r, %r]"
            % (u_alt, prospect.u_low, prospect.u_high))
    reference = resolve_reference(policy, prospect, u_alt)
    w_low, w_high = rank_dependent_weights(prospect, reference, params.alpha)
    v_low = _core.cpt_value(prospect.u_low, reference, params.beta, params.lam)
    v_high = _core.cpt_value(prospect.u_high, reference, params.beta, params.lam)
    return SubjectiveEvaluation(
        reference=reference,
        w_low=w_low,
        w_high=w_high,
        v_low=v_low,
        v_high=v_high,
        u_smods_subjective=w_low * v_low + w_high * v_high,
        u_alt_subjective=_core.cpt_value(u_alt, reference, params.beta, params.lam),
    )


def acceptance_probability(gamma: float, scenario: "TravelScenario",
                           params: CptParams,
                           policy: ReferencePolicy = BEST_CASE) -> float:
    """Probability that the rider accepts the offer at tariff ``gamma``.

    Logistic choice between the subjective ride and alternative utilities,
    evaluated in the numerically stable single-exponential form; strictly
    inside (0, 1).  The outcomes and the reference are those of the
    ``BinaryProspect`` at this tariff and ``resolve_reference``, formed
    without building the prospect.

    Raises:
        ValueError: ``gamma`` or a ride outcome is non-finite.
        InvalidScenarioError: u0 lies outside the ride outcomes
            [u_low, u_high] at ``gamma``.
    """
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite, got %r" % gamma)
    u0 = scenario.u0
    u_low = scenario.x_low + scenario.b_sm * gamma
    u_high = scenario.x_high + scenario.b_sm * gamma
    if not u_low <= u0 <= u_high:
        raise InvalidScenarioError(
            "scenario %r is not valid at gamma=%r: u0=%r outside [%r, %r]"
            % (scenario.label, gamma, u0, u_low, u_high))
    if not (math.isfinite(u_low) and math.isfinite(u_high)):
        _require_finite(u_low=u_low, u_high=u_high)
    p_worst = params.p_worst
    return _core.acceptance_from_utilities(
        u_low, u_high, u0, _reference_at(policy, u_low, u_high, p_worst, u0),
        params.alpha, params.beta, params.lam, p_worst)


def expected_revenue(gamma: float, scenario: "TravelScenario",
                     params: CptParams,
                     policy: ReferencePolicy = BEST_CASE) -> float:
    """Expected revenue per offer: gamma times the acceptance probability.

    This is the general chain, one prospect per call.  The solver takes the
    same quantity from the closed forms behind ``pricing.revenue_function``,
    which the tests check against this function.
    """
    return gamma * acceptance_probability(gamma, scenario, params, policy)
