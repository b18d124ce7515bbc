"""Bounded expected-revenue maximization over the tariff, with KKT
multipliers, residual diagnostics, closed-form Lagrangian partials and a
concavity certificate.

The solver is a bracketed one-dimensional method: a presieve grid of
``PRESIEVE`` cells locates sign changes of the revenue slope, each is
polished by bracketed root finding, and the stationary candidates are
compared against both box endpoints, which win within 1e-9 of the tariff
span.  Every solve is cross-checked against the derivative-free
grid/golden oracle in ``numerics``; the two methods share no search logic.
The concavity certificate is defined for the best-case reference only.

Sign conventions: the optimizer maximizes the revenue f, equivalently
minimizes -f.  The Lagrangian of the minimization form is

    L(gamma; theta) = -f(gamma; theta) + mu_high*(gamma - gamma_max)
                      + mu_low*(gamma_min - gamma)

so its partials are the negated revenue partials; the bound terms carry no
parameter dependence and are linear in the tariff.  Multipliers are named
by their bound (never by index).
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from cpt_sense import _core
from cpt_sense.errors import SingularPointError, SolverDisagreementError
from cpt_sense.model import (
    BEST_CASE,
    PARAM_NAMES,
    CptParams,
    PolicyKind,
    ReferencePolicy,
    reference_line,
)
from cpt_sense.numerics import (
    ScalarFunctionHandle,
    bracket_root,
    grid_golden_maximize,
)
from cpt_sense.scenario import TravelScenario, require_valid

logger = logging.getLogger(__name__)

#: Residual gate for accepting a KKT point.
KKT_TOL = 1e-7
#: Active multipliers below this are flagged as degenerate (strict
#: complementarity effectively fails, which matters for local sensitivity).
DEGENERATE_MU = 1e-6
#: Numeric curvature threshold used by the concavity consistency check.
CURVATURE_TOL = 1e-8
#: Presieve cells of the solver's slope scan and of its oracle cross-check.
PRESIEVE = 64
#: Tariff points of the concavity certificate and of its curvature scan.
CERTIFICATE_POINTS = 101


class ActiveSet(Enum):
    INTERIOR = "interior"
    LOWER_BOUND = "lower"
    UPPER_BOUND = "upper"


@dataclass(frozen=True)
class OptimumRecord:
    """Solved tariff with multipliers, active set and diagnostics."""

    gamma_star: float
    f_star: float
    mu_low: float
    mu_high: float
    active: ActiveSet
    kkt_residual: float
    degenerate: bool
    gamma_min: float
    gamma_max: float
    gamma_oracle: float
    evaluations: int


@dataclass(frozen=True)
class KktResiduals:
    """Stationarity, complementary slackness, dual and primal residuals."""

    stationarity: float
    comp_slack_lower: float
    comp_slack_upper: float
    dual_lower_violation: float
    dual_upper_violation: float
    primal_violation: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.comp_slack_lower,
                   self.comp_slack_upper, self.dual_lower_violation,
                   self.dual_upper_violation, self.primal_violation)

    def passed(self, tol: float = KKT_TOL) -> bool:
        return self.max_residual <= tol


@dataclass(frozen=True)
class LagrangianDerivatives:
    """Partials of the minimization Lagrangian at a point.

    l_gg is the second tariff derivative; the per-parameter maps hold the
    mixed partial, the first parameter partial and the second parameter
    partial for each of alpha, beta, lambda, p.
    """

    gamma: float
    l_gg: float
    l_gtheta: dict[str, float]
    l_theta: dict[str, float]
    l_thetatheta: dict[str, float]


def _revenue_pair(scenario: TravelScenario, params: CptParams,
                  policy: ReferencePolicy
                  ) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Expected revenue and its tariff slope as functions of the tariff.

    The best-case kernels under the best-case policy; one reference-line
    evaluator from ``_core`` otherwise.
    """
    u0, xl, xh, b = scenario.u0, scenario.x_low, scenario.x_high, scenario.b_sm
    a, be, lam, p = params.alpha, params.beta, params.lam, params.p_worst
    if policy.kind is not PolicyKind.BEST_CASE:
        return _core.revenue_evaluator(u0, xl, xh, b,
                                       *reference_line(policy, scenario),
                                       a, be, lam, p)

    def f(gamma: float) -> float:
        return _core.bestcase_revenue(gamma, u0, xl, xh, b, a, be, lam, p)

    def fgrad(gamma: float) -> float:
        return _core.bestcase_revenue_gradient(gamma, u0, xl, xh, b, a, be, lam, p)
    return f, fgrad


def revenue_function(scenario: TravelScenario, params: CptParams,
                     policy: ReferencePolicy = BEST_CASE
                     ) -> Callable[[float], float]:
    """Expected revenue as a plain function of the tariff, in closed form.

    ``model.expected_revenue`` is the same quantity through the general
    acceptance chain.
    """
    return _revenue_pair(scenario, params, policy)[0]


def revenue_gradient(scenario: TravelScenario, params: CptParams,
                     policy: ReferencePolicy = BEST_CASE
                     ) -> Callable[[float], float]:
    """Tariff derivative of the expected revenue, in closed form."""
    return _revenue_pair(scenario, params, policy)[1]


def solve(scenario: TravelScenario, params: CptParams,
          policy: ReferencePolicy = BEST_CASE) -> OptimumRecord:
    """Maximize expected revenue over the tariff box.

    Stationary points of the revenue slope are located by sign scan on a
    presieve grid and polished by bracketed root finding; the best of the
    stationary candidates and the two endpoints wins.  Multipliers are
    recovered from stationarity of the minimization Lagrangian, so an
    accepted record satisfies the first-order conditions by construction.

    Raises:
        InvalidScenarioError: scenario fails validation.
        SolverDisagreementError: result differs from the derivative-free
            oracle by more than two presieve cells.
    """
    require_valid(scenario)
    lo, hi = scenario.gamma_min, scenario.gamma_max
    span = hi - lo
    gtol = 1e-9 * span

    value, fgrad = _revenue_pair(scenario, params, policy)
    f = ScalarFunctionHandle(value)

    xs = [lo + span * i / PRESIEVE for i in range(PRESIEVE + 1)]
    xs[-1] = hi
    slopes = [fgrad(x) for x in xs]

    # polish tolerance sits three decades below the gamma tolerance: the
    # root finder may stop on |slope| alone, which costs gamma accuracy of
    # roughly tol/|curvature| when the revenue is flat
    polish_tol = 1e-3 * gtol
    stationary: list[float] = []
    for i in range(PRESIEVE):
        s0, s1 = slopes[i], slopes[i + 1]
        if s0 == 0.0:
            stationary.append(xs[i])
        elif s0 * s1 < 0.0:
            stationary.append(bracket_root(fgrad, xs[i], xs[i + 1], polish_tol))
    if slopes[-1] == 0.0:
        stationary.append(xs[-1])

    # Endpoints first so that they win value ties exactly on the bound.
    f_lo, f_hi = f(lo), f(hi)
    gamma_star, f_star = lo, f_lo
    for cand, y in [(hi, f_hi)] + [(x, f(x)) for x in stationary]:
        if y > f_star:
            gamma_star, f_star = cand, y

    if gamma_star <= lo + gtol:
        gamma_star, f_star = lo, f_lo
        active = ActiveSet.LOWER_BOUND
    elif gamma_star >= hi - gtol:
        gamma_star, f_star = hi, f_hi
        active = ActiveSet.UPPER_BOUND
    else:
        active = ActiveSet.INTERIOR

    slope_star = fgrad(gamma_star)
    mu_low = max(0.0, -slope_star) if active is ActiveSet.LOWER_BOUND else 0.0
    mu_high = max(0.0, slope_star) if active is ActiveSet.UPPER_BOUND else 0.0
    degenerate = (active is not ActiveSet.INTERIOR
                  and max(mu_low, mu_high) < DEGENERATE_MU)

    gamma_oracle, _ = grid_golden_maximize(f, lo, hi, presieve=PRESIEVE,
                                           tol=1e-6 * span)
    if abs(gamma_star - gamma_oracle) > 2.0 * span / PRESIEVE:
        raise SolverDisagreementError(
            "scenario %r: solver gamma*=%r vs oracle %r exceeds 2 presieve "
            "cells" % (scenario.label, gamma_star, gamma_oracle))

    record = OptimumRecord(
        gamma_star=gamma_star, f_star=f_star, mu_low=mu_low, mu_high=mu_high,
        active=active, kkt_residual=0.0, degenerate=degenerate,
        gamma_min=lo, gamma_max=hi, gamma_oracle=gamma_oracle,
        evaluations=f.evaluations)
    residual = kkt_residuals(record, scenario, params, policy).max_residual
    return dataclasses.replace(record, kkt_residual=residual)


def kkt_residuals(record: OptimumRecord, scenario: TravelScenario,
                  params: CptParams,
                  policy: ReferencePolicy = BEST_CASE) -> KktResiduals:
    """First-order condition residuals of a solved record (diagnostic)."""
    fgrad = revenue_gradient(scenario, params, policy)
    slope = fgrad(record.gamma_star)
    return KktResiduals(
        stationarity=abs(-slope + record.mu_high - record.mu_low),
        comp_slack_lower=abs(record.mu_low * (record.gamma_min - record.gamma_star)),
        comp_slack_upper=abs(record.mu_high * (record.gamma_star - record.gamma_max)),
        dual_lower_violation=max(0.0, -record.mu_low),
        dual_upper_violation=max(0.0, -record.mu_high),
        primal_violation=max(record.gamma_min - record.gamma_star,
                             record.gamma_star - record.gamma_max, 0.0),
    )


@dataclass(frozen=True)
class ConcavityReport:
    """Certificate inequality result plus an independent curvature scan."""

    certified: bool
    margin: float
    max_numeric_curvature: float
    numerically_concave: bool
    consistent: bool


def certificate_margin(scenario: TravelScenario,
                       params: CptParams) -> tuple[bool, float]:
    """Evaluate the printed concavity inequality on a tariff grid.

    The inequality compares, at each tariff,

        exp(-lam*G^beta) * (E + gamma*lam*beta*b*G^(beta-1))  <=  -E^2

    with G the best-outcome margin over the alternative and
    E = exp(-exp(-lam*D^beta*(-ln p)^alpha)).  It is applied verbatim; see
    the consistency scan for how its verdict is audited.
    """
    lo, hi = scenario.gamma_min, scenario.gamma_max
    a, be, lam, p = params.alpha, params.beta, params.lam, params.p_worst
    big_d = scenario.x_high - scenario.x_low
    e_term = math.exp(-math.exp(-lam * big_d ** be * (-math.log(p)) ** a))
    rhs = -e_term * e_term

    margin = math.inf
    for i in range(CERTIFICATE_POINTS):
        gamma = lo + (hi - lo) * i / (CERTIFICATE_POINTS - 1)
        big_g = scenario.x_high + scenario.b_sm * gamma - scenario.u0
        if big_g == 0.0:
            lhs = -math.inf  # b < 0 drives the bracket to -inf as G -> 0+
        else:
            lhs = math.exp(-lam * big_g ** be) * (
                e_term + gamma * lam * be * scenario.b_sm * big_g ** (be - 1.0))
        margin = min(margin, rhs - lhs)
    return margin >= 0.0, margin


def concavity_certificate(scenario: TravelScenario,
                          params: CptParams) -> ConcavityReport:
    """Concavity certificate plus an independent curvature scan, best case.

    The certificate inequality is evaluated verbatim on a 101-point tariff
    grid.  Separately, the closed-form second tariff derivative f_gg of the
    best-case revenue (``_core.bestcase_partials``) is scanned on 101
    points inset from each bound by 0.4% of the span.  A certificate that
    claims concavity the scan does not confirm is reported as inconsistent
    and logged, never silently passed.
    """
    require_valid(scenario)
    certified, margin = certificate_margin(scenario, params)

    theta = (params.alpha, params.beta, params.lam, params.p_worst)
    lo, hi = scenario.gamma_min, scenario.gamma_max
    inset = 4e-3 * (hi - lo)
    inner_lo, inner_hi = lo + inset, hi - inset
    max_curv = -math.inf
    for i in range(CERTIFICATE_POINTS):
        x = inner_lo + (inner_hi - inner_lo) * i / (CERTIFICATE_POINTS - 1)
        f_gg = _core.bestcase_partials(x, scenario.u0, scenario.x_low,
                                       scenario.x_high, scenario.b_sm,
                                       *theta)[2]
        max_curv = max(max_curv, f_gg)

    numerically_concave = max_curv <= CURVATURE_TOL
    consistent = (not certified) or numerically_concave
    if not consistent:
        logger.warning(
            "scenario %r: concavity certificate holds but numeric curvature "
            "reaches %r; certificate and scan disagree",
            scenario.label, max_curv)
    return ConcavityReport(certified=certified, margin=margin,
                           max_numeric_curvature=max_curv,
                           numerically_concave=numerically_concave,
                           consistent=consistent)


def lagrangian_derivatives(gamma: float, scenario: TravelScenario,
                           params: CptParams,
                           policy: ReferencePolicy = BEST_CASE
                           ) -> LagrangianDerivatives:
    """Partials of the minimization Lagrangian at (gamma, params).

    The partials are the negated closed-form revenue partials of the
    ``_core`` kernel on the policy's reference line (docs/derivatives.md).
    The bound terms of the Lagrangian contribute nothing to any of them.

    Raises:
        SingularPointError: a value-function base vanishes at this point or
            a derivative is non-finite; the message names the offending
            base or term.
    """
    args = (gamma, scenario.u0, scenario.x_low, scenario.x_high, scenario.b_sm)
    theta = (params.alpha, params.beta, params.lam, params.p_worst)
    if policy.kind is PolicyKind.BEST_CASE:
        partials = _core.bestcase_partials(*args, *theta)
    else:
        partials = _core.revenue_partials(
            *args, *reference_line(policy, scenario), *theta)
    (f, f_g, f_gg,
     f_a, f_ga, f_aa,
     f_b, f_gb, f_bb,
     f_l, f_gl, f_ll,
     f_p, f_gp, f_pp) = partials
    result = LagrangianDerivatives(
        gamma=gamma,
        l_gg=-f_gg,
        l_gtheta={"alpha": -f_ga, "beta": -f_gb, "lambda": -f_gl, "p": -f_gp},
        l_theta={"alpha": -f_a, "beta": -f_b, "lambda": -f_l, "p": -f_p},
        l_thetatheta={"alpha": -f_aa, "beta": -f_bb, "lambda": -f_ll,
                      "p": -f_pp},
    )

    entries = [("l_gg", result.l_gg)]
    for name in PARAM_NAMES:
        entries += [("l_gtheta[%s]" % name, result.l_gtheta[name]),
                    ("l_theta[%s]" % name, result.l_theta[name]),
                    ("l_thetatheta[%s]" % name, result.l_thetatheta[name])]
    for label, v in entries:
        if not math.isfinite(v):
            raise SingularPointError(
                "%s is non-finite at gamma=%r" % (label, gamma))
    return result
