"""Local sensitivity of the solved tariff problem: analytic differentials,
Taylor prediction of perturbed optima, and first-order active-set domains.

All quantities are expressed for the maximized revenue f.  With the
minimization Lagrangian L = -f + bound terms evaluated at the optimum:

  interior:     dgamma*/dtheta = -L_gtheta / L_gg
  active bound: dgamma*/dtheta = 0, and the active multiplier moves at
                dmu/dtheta = -L_gtheta (upper) or +L_gtheta (lower),
                which follows from stationarity with a unit bound gradient.
  either case:  df*/dtheta = df/dtheta at the optimum (the bounds carry no
                parameter), and the second-order term is
                d2f*/dtheta2 = f_gg*(dgamma*)^2 + 2*f_gtheta*dgamma* + f_tt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from cpt_sense.errors import SingularHessianError
from cpt_sense.model import BEST_CASE, PARAM_NAMES, CptParams, ReferencePolicy
from cpt_sense.pricing import (
    KKT_TOL,
    ActiveSet,
    OptimumRecord,
    lagrangian_derivatives,
)
from cpt_sense.scenario import TravelScenario

#: Events beyond this many percent of the nominal value are out of horizon.
DOMAIN_HORIZON_PCT = 1000.0


@dataclass(frozen=True)
class ParamSensitivity:
    """Differentials of the optimum with respect to one parameter."""

    theta0: float
    dgamma_dtheta: float
    dmu_dtheta: float
    df_dtheta: float
    d2f_dtheta2: float


@dataclass(frozen=True)
class SensitivityDifferentials:
    """Per-parameter differentials at a solved optimum."""

    gamma_star: float
    f_star: float
    active: ActiveSet
    per_param: dict[str, ParamSensitivity]

    def __getitem__(self, name: str) -> ParamSensitivity:
        return self.per_param[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.per_param)

    def items(self):
        return self.per_param.items()


class BindingEvent(Enum):
    MULTIPLIER_VANISHES = "multiplier_vanishes"
    LOWER_BOUND_HIT = "lower_bound_hit"
    UPPER_BOUND_HIT = "upper_bound_hit"
    NONE = "none"


@dataclass(frozen=True)
class LocalDomain:
    """First-order validity domain of the nominal active set, one parameter.

    ``delta_pos``/``delta_neg`` are the signed raw perturbations to the
    nearest predicted event in each direction (+inf/-inf when no event lies
    within the horizon); the percentage fields are their magnitudes as a
    share of the nominal parameter value.  ``binding_event`` describes the
    nearer of the two.
    """

    theta_name: str
    theta0: float
    delta_pos: float
    delta_neg: float
    delta_max_pos_pct: float
    delta_max_neg_pct: float
    event_pos: BindingEvent
    event_neg: BindingEvent
    binding_event: BindingEvent

    @property
    def min_pct(self) -> float:
        """Unsigned domain size: the nearer event over both directions."""
        return min(self.delta_max_pos_pct, self.delta_max_neg_pct)


def differentials(opt: OptimumRecord, scenario: TravelScenario,
                  params: CptParams, policy: ReferencePolicy = BEST_CASE
                  ) -> SensitivityDifferentials:
    """Analytic differentials of gamma*, the active multiplier and f*.

    Requires an accepted record (KKT residual within tolerance).  At an
    interior optimum the reduced Hessian L_gg must be positive; bound-pinned
    optima have dgamma*/dtheta = 0 identically because the bounds do not
    move with the parameters.

    Raises:
        ValueError: record fails the KKT gate.
        SingularHessianError: interior optimum with |L_gg| below 1e-10.
    """
    if opt.kkt_residual > KKT_TOL:
        raise ValueError(
            "record has KKT residual %r above the %r acceptance gate"
            % (opt.kkt_residual, KKT_TOL))
    derivs = lagrangian_derivatives(opt.gamma_star, scenario, params, policy)

    interior = opt.active is ActiveSet.INTERIOR
    if interior and abs(derivs.l_gg) < 1e-10:
        raise SingularHessianError(
            "interior optimum with degenerate curvature L_gg=%r" % derivs.l_gg)

    per_param: dict[str, ParamSensitivity] = {}
    for name in PARAM_NAMES:
        l_gt = derivs.l_gtheta[name]
        f_t = -derivs.l_theta[name]
        f_tt = -derivs.l_thetatheta[name]
        f_gt = -l_gt
        f_gg = -derivs.l_gg
        if interior:
            dgamma = -l_gt / derivs.l_gg
            dmu = 0.0
        else:
            dgamma = 0.0
            dmu = -l_gt if opt.active is ActiveSet.UPPER_BOUND else l_gt
        d2f = f_gg * dgamma * dgamma + 2.0 * f_gt * dgamma + f_tt
        per_param[name] = ParamSensitivity(
            theta0=params.get(name), dgamma_dtheta=dgamma, dmu_dtheta=dmu,
            df_dtheta=f_t, d2f_dtheta2=d2f)
    return SensitivityDifferentials(gamma_star=opt.gamma_star,
                                    f_star=opt.f_star, active=opt.active,
                                    per_param=per_param)


def taylor_predict(opt: OptimumRecord, diffs: SensitivityDifferentials,
                   theta_name: str, theta_new: float, order: int = 1,
                   half_factor: bool = False) -> tuple[float, float]:
    """Taylor prediction (gamma*_pred, f*_pred) at a perturbed parameter.

    Order 1 moves the tariff along dgamma*/dtheta (clamped to the tariff
    box) and the objective along df*/dtheta.  Order 2 adds the curvature
    term with coefficient 1 on (theta - theta0)^2, which is the convention
    this model family is usually quoted with; ``half_factor=True`` switches
    to the standard series coefficient 1/2.  Empirically the 1/2 form is
    the one that improves on order 1 (see tests).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2, got %r" % order)
    if theta_name not in diffs.per_param:
        raise ValueError("unknown parameter %r" % theta_name)
    if not math.isfinite(theta_new):
        raise ValueError("theta_new must be finite, got %r" % theta_new)
    ps = diffs[theta_name]
    dtheta = theta_new - ps.theta0

    gamma_pred = opt.gamma_star + ps.dgamma_dtheta * dtheta
    gamma_pred = min(max(gamma_pred, opt.gamma_min), opt.gamma_max)
    f_pred = opt.f_star + ps.df_dtheta * dtheta
    if order == 2:
        coeff = 0.5 if half_factor else 1.0
        f_pred += coeff * ps.d2f_dtheta2 * dtheta * dtheta
    return gamma_pred, f_pred


def _directional(events: list[tuple[float, BindingEvent]], theta0: float
                 ) -> tuple[float, BindingEvent, float, BindingEvent]:
    """Nearest event per direction within the horizon."""
    horizon = DOMAIN_HORIZON_PCT / 100.0 * abs(theta0)
    pos = (math.inf, BindingEvent.NONE)
    neg = (-math.inf, BindingEvent.NONE)
    for delta, event in events:
        if not math.isfinite(delta) or abs(delta) > horizon:
            continue
        if math.copysign(1.0, delta) > 0.0:
            if delta < pos[0]:
                pos = (delta, event)
        elif delta > neg[0]:
            neg = (delta, event)
    return pos[0], pos[1], neg[0], neg[1]


def local_domain(opt: OptimumRecord, diffs: SensitivityDifferentials,
                 theta_name: str) -> LocalDomain:
    """Largest first-order parameter perturbation preserving the active set.

    Interior optimum: each inactive bound is reached when the first-order
    tariff path crosses it, at delta = (bound - gamma*) / (dgamma*/dtheta).
    Bound-pinned optimum: the active multiplier vanishes at
    delta = -mu / (dmu/dtheta).  The nearest event is reported separately
    for each perturbation direction, as a percentage of the nominal value;
    events farther than the horizon count as none.  A degenerate bound
    optimum (multiplier already ~0) therefore reports a domain of ~0 in the
    direction that releases it rather than erroring.
    """
    if theta_name not in diffs.per_param:
        raise ValueError("unknown parameter %r" % theta_name)
    ps = diffs[theta_name]
    theta0 = ps.theta0

    events: list[tuple[float, BindingEvent]] = []
    if opt.active is ActiveSet.INTERIOR:
        if ps.dgamma_dtheta != 0.0:
            events.append(((opt.gamma_min - opt.gamma_star) / ps.dgamma_dtheta,
                           BindingEvent.LOWER_BOUND_HIT))
            events.append(((opt.gamma_max - opt.gamma_star) / ps.dgamma_dtheta,
                           BindingEvent.UPPER_BOUND_HIT))
    else:
        mu = opt.mu_low if opt.active is ActiveSet.LOWER_BOUND else opt.mu_high
        if ps.dmu_dtheta != 0.0:
            delta = -mu / ps.dmu_dtheta
            if delta == 0.0:
                # already at the release point; the zero-size domain lies in
                # the direction that lowers the multiplier (signed zero)
                delta = math.copysign(0.0, -ps.dmu_dtheta)
            events.append((delta, BindingEvent.MULTIPLIER_VANISHES))

    d_pos, e_pos, d_neg, e_neg = _directional(events, theta0)
    pct_pos = abs(d_pos) / abs(theta0) * 100.0 if math.isfinite(d_pos) else math.inf
    pct_neg = abs(d_neg) / abs(theta0) * 100.0 if math.isfinite(d_neg) else math.inf
    if pct_pos <= pct_neg:
        binding = e_pos if math.isfinite(d_pos) else BindingEvent.NONE
    else:
        binding = e_neg if math.isfinite(d_neg) else BindingEvent.NONE
    return LocalDomain(theta_name=theta_name, theta0=theta0,
                       delta_pos=d_pos, delta_neg=d_neg,
                       delta_max_pos_pct=pct_pos, delta_max_neg_pct=pct_neg,
                       event_pos=e_pos, event_neg=e_neg, binding_event=binding)


def all_domains(opt: OptimumRecord, diffs: SensitivityDifferentials
                ) -> dict[str, LocalDomain]:
    """Local domains for every behavioral parameter."""
    return {name: local_domain(opt, diffs, name)
            for name in PARAM_NAMES}
