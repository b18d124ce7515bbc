"""Rider behavioral model: the parameter vector, the reference policies and
their reference lines, and the general acceptance chain.

The chain has one public way in, ``acceptance_probability`` (and
``expected_revenue``, the tariff times it): one
``_core.acceptance_from_utilities`` call, which composes the kernel's
value, weighting and logistic primitives.  No solve, sweep or CLI path
calls it; the tests and the benchmark check the solver's closed forms
against it.

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

#: Each behavioral parameter's public name and its ``CptParams`` field.
PARAM_FIELDS = {"alpha": "alpha", "beta": "beta", "lambda": "lam",
                "p": "p_worst"}
PARAM_NAMES = tuple(PARAM_FIELDS)


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
        return getattr(self, _field(name))

    def replace(self, name: str, value: float) -> "CptParams":
        """Copy of this vector with one parameter set by public name."""
        kwargs = vars(self).copy()  # a copy shares the instance dict's keys
        kwargs[_field(name)] = value
        return CptParams(**kwargs)


def _field(name: str) -> str:
    """The ``CptParams`` field of the public parameter name ``name``."""
    try:
        return PARAM_FIELDS[name]
    except KeyError:
        raise ValueError("unknown parameter %r" % name) from None


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
    # one kernel call, looked up on the module so that a wrapper installed
    # there counts it; a BinaryProspect and resolve_reference would double
    # the cost of a call, of which the benchmark's answer check makes ~140
    # per checked answer
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
