"""Parameter sweeps by exact re-optimization, piecewise-linear continuation
across active-set changes, and mismatch-loss accounting.

A numeric sweep is the brute-force benchmark: the pricing problem is
re-solved from scratch at every grid value of one parameter, while Taylor
predictions from the nominal differentials ride along for comparison.  The
continuation walks the same parameter axis analytically, re-anchoring its
linearization at every predicted active-set event and refining true
breakpoints by bisection on the active set itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from cpt_sense.errors import ContinuationError, CptSenseError, SolverDisagreementError
from cpt_sense.model import BEST_CASE, CptParams, ReferencePolicy
from cpt_sense.pricing import ActiveSet, OptimumRecord, revenue_function, solve
from cpt_sense.scenario import TravelScenario
from cpt_sense.sensitivity import (
    BindingEvent,
    SensitivityDifferentials,
    differentials,
    local_domain,
    taylor_predict,
)

#: Sweep CSV column order.  ``clamped`` marks a probability grid value
#: moved into the clamp range; ``error`` holds the exception of a failed
#: re-solve, whose ``active`` reads "error".
SWEEP_COLUMNS = ("theta_name", "theta_value", "gamma_star_numeric",
                 "f_star_numeric", "gamma_star_taylor1", "f_star_taylor1",
                 "f_star_taylor2", "mu_low", "mu_high", "active",
                 "mismatch_loss", "clamped", "error")

MAX_SEGMENTS = 32
_BP_OSCILLATION = 1e-10


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep grid specification.

    ``rel_range`` is the +- fraction of the nominal value covered;
    probability sweeps are clamped into ``clamp`` to keep the distortion
    well defined, and clamped rows are marked (``SweepRow.clamped``, the
    ``clamped`` column of the sweep files).
    """

    theta_name: str
    rel_range: float = 0.20
    steps: int = 41
    clamp: tuple[float, float] = (0.001, 0.999)

    def __post_init__(self):
        if self.steps < 3:
            raise ValueError("steps must be >= 3, got %r" % self.steps)
        if not self.rel_range > 0.0:
            raise ValueError("rel_range must be positive, got %r" % self.rel_range)

    def grid(self, theta0: float) -> list[tuple[float, bool]]:
        """(value, clamped) pairs from -rel_range to +rel_range."""
        out = []
        for i in range(self.steps):
            t = theta0 * (1.0 - self.rel_range
                          + 2.0 * self.rel_range * i / (self.steps - 1))
            clamped = False
            if self.theta_name == "p":
                lo, hi = self.clamp
                if t < lo or t > hi:
                    t, clamped = min(max(t, lo), hi), True
            out.append((t, clamped))
        return out


@dataclass(frozen=True)
class SweepRow:
    """One sweep grid point: exact re-solve plus nominal-anchor predictions."""

    theta_name: str
    theta_value: float
    gamma_star_numeric: float
    f_star_numeric: float
    gamma_star_taylor1: float
    f_star_taylor1: float
    f_star_taylor2: float
    mu_low: float
    mu_high: float
    active: ActiveSet
    mismatch_loss: float
    clamped: bool = False
    error: str | None = None


@dataclass(frozen=True)
class Segment:
    """One linearization piece: anchored slope valid on [theta_lo, theta_hi]."""

    theta_lo: float
    theta_hi: float
    theta_anchor: float
    gamma_anchor: float
    slope: float
    active: ActiveSet


@dataclass(frozen=True)
class PiecewiseApprox:
    """Piecewise-linear tariff approximation with active-set breakpoints."""

    theta_name: str
    gamma_min: float
    gamma_max: float
    breakpoints: tuple[float, ...]
    segments: tuple[Segment, ...]

    def predict_gamma(self, theta: float) -> float:
        """Segment-wise linear prediction, clamped to the tariff box."""
        seg = None
        for s in self.segments:
            if s.theta_lo <= theta <= s.theta_hi:
                seg = s
                break
        if seg is None:
            seg = self.segments[0] if theta < self.segments[0].theta_lo \
                else self.segments[-1]
        g = seg.gamma_anchor + seg.slope * (theta - seg.theta_anchor)
        return min(max(g, self.gamma_min), self.gamma_max)


@dataclass(frozen=True)
class MismatchResult:
    """Revenue forgone by pricing with misestimated parameters."""

    delta_f: float
    gamma_true: float
    gamma_assumed: float


def mismatch_loss(scenario: TravelScenario, theta_true: CptParams,
                  theta_assumed: CptParams,
                  policy: ReferencePolicy = BEST_CASE) -> MismatchResult:
    """Loss from pricing with ``theta_assumed`` when ``theta_true`` holds.

    Both problems are solved exactly; both tariffs are then valued under
    the true parameters.  The gap is nonnegative up to solver tolerance.

    Raises:
        SolverDisagreementError: the gap is below -1e-9, so the
            true-parameter solve missed the maximum.
    """
    opt_true = solve(scenario, theta_true, policy)
    opt_assumed = solve(scenario, theta_assumed, policy)
    f_true = revenue_function(scenario, theta_true, policy)
    delta = opt_true.f_star - f_true(opt_assumed.gamma_star)
    if delta < -1e-9:
        raise SolverDisagreementError(
            "mismatch loss %r below -1e-9; the true-parameter solve is not "
            "the maximum" % delta)
    return MismatchResult(delta_f=delta, gamma_true=opt_true.gamma_star,
                          gamma_assumed=opt_assumed.gamma_star)


def numeric_sweep(scenario: TravelScenario, params: CptParams,
                  policy: ReferencePolicy = BEST_CASE,
                  spec: SweepSpec | None = None,
                  nominal: OptimumRecord | None = None,
                  diffs: SensitivityDifferentials | None = None
                  ) -> list[SweepRow]:
    """Exact re-optimization along one parameter axis.

    Every grid value is solved from scratch; Taylor rows come from the
    nominal differentials; the mismatch loss treats the nominal parameters
    as the rider's true ones.  Solver failures (any ``CptSenseError``) are
    recorded per row and do not abort the sweep; other exceptions propagate.
    """
    if spec is None:
        raise ValueError("spec is required")
    theta0 = params.get(spec.theta_name)
    if nominal is None:
        nominal = solve(scenario, params, policy)
    if diffs is None:
        diffs = differentials(nominal, scenario, params, policy)
    f_nominal = revenue_function(scenario, params, policy)

    rows: list[SweepRow] = []
    for theta, clamped in spec.grid(theta0):
        g1, f1 = taylor_predict(nominal, diffs, spec.theta_name, theta, order=1)
        _, f2 = taylor_predict(nominal, diffs, spec.theta_name, theta, order=2)
        try:
            perturbed = params.replace(spec.theta_name, theta)
            opt = solve(scenario, perturbed, policy)
            mismatch = nominal.f_star - f_nominal(opt.gamma_star)
            rows.append(SweepRow(
                theta_name=spec.theta_name, theta_value=theta,
                gamma_star_numeric=opt.gamma_star, f_star_numeric=opt.f_star,
                gamma_star_taylor1=g1, f_star_taylor1=f1, f_star_taylor2=f2,
                mu_low=opt.mu_low, mu_high=opt.mu_high, active=opt.active,
                mismatch_loss=mismatch, clamped=clamped))
        except CptSenseError as exc:  # row-level marker, sweep completes
            rows.append(SweepRow(
                theta_name=spec.theta_name, theta_value=theta,
                gamma_star_numeric=math.nan, f_star_numeric=math.nan,
                gamma_star_taylor1=g1, f_star_taylor1=f1, f_star_taylor2=f2,
                mu_low=math.nan, mu_high=math.nan, active=ActiveSet.INTERIOR,
                mismatch_loss=math.nan, clamped=clamped,
                error="%s: %s" % (type(exc).__name__, exc)))
    return rows


def _domain_step(opt, diffs, name, direction):
    """Signed raw perturbation to the next predicted event, +-inf if none."""
    dom = local_domain(opt, diffs, name)
    if direction > 0:
        return dom.delta_pos if dom.event_pos is not BindingEvent.NONE else math.inf
    return dom.delta_neg if dom.event_neg is not BindingEvent.NONE else -math.inf


def piecewise_continuation(scenario: TravelScenario, params: CptParams,
                           policy: ReferencePolicy = BEST_CASE,
                           spec: SweepSpec | None = None) -> PiecewiseApprox:
    """Piecewise-linear tariff approximation over the sweep range.

    Starting from the nominal optimum the scheme predicts the next
    active-set event from the local domain, advances there, re-solves
    exactly (anchor refresh), and repeats.  When an exact solve reveals
    that the active set actually changed between two anchors, the
    breakpoint is refined by bisection on active-set membership to
    1e-6 of the nominal parameter rather than trusting the first-order
    estimate.  Both directions are walked; segments are contiguous across
    the whole range.

    Raises:
        ContinuationError: more than 32 segments, or two consecutive
            breakpoints within 1e-10 of each other (oscillation).
    """
    if spec is None:
        raise ValueError("spec is required")
    name = spec.theta_name
    theta0 = params.get(name)
    lo_range = theta0 * (1.0 - spec.rel_range)
    hi_range = theta0 * (1.0 + spec.rel_range)
    if name == "p":
        lo_range = max(lo_range, spec.clamp[0])
        hi_range = min(hi_range, spec.clamp[1])
    bp_tol = 1e-6 * abs(theta0)

    nominal = solve(scenario, params, policy)
    nominal_diffs = differentials(nominal, scenario, params, policy)

    def solve_at(theta):
        perturbed = params.replace(name, theta)
        opt = solve(scenario, perturbed, policy)
        return theta, opt, differentials(opt, scenario, perturbed, policy)

    def walk(direction: int) -> tuple[list[tuple], list[float]]:
        """Anchors (exact solves with slopes) and breakpoints, nominal outward."""
        anchors = [(theta0, nominal, nominal_diffs)]
        breakpoints: list[float] = []
        anchor_theta, anchor_opt, anchor_diffs = anchors[0]
        limit = hi_range if direction > 0 else lo_range

        while len(anchors) <= 2 * MAX_SEGMENTS:
            step = _domain_step(anchor_opt, anchor_diffs, name, direction)
            target = anchor_theta + step if math.isfinite(step) else limit
            if math.isfinite(step) and abs(step) < bp_tol:
                # prediction stalled at the anchor: probe one tolerance ahead
                target = anchor_theta + math.copysign(bp_tol, direction)
            at_limit = (direction > 0 and target >= limit) or \
                (direction < 0 and target <= limit)
            if at_limit:
                # the estimate may overshoot a change hiding inside the
                # range, so the range end itself is probed before stopping
                target = limit

            probe = solve_at(target)
            if probe[1].active is anchor_opt.active:
                if at_limit:
                    return anchors, breakpoints  # no change within range
                # event estimate fell short of a change: refresh and go on
                anchors.append(probe)
                anchor_theta, anchor_opt, anchor_diffs = probe
                continue

            # active set changed between anchor and target: bisect on it
            inside, outside = anchor_theta, target
            inside_solve = None
            while abs(outside - inside) > bp_tol:
                mid = 0.5 * (inside + outside)
                mid_solve = solve_at(mid)
                if mid_solve[1].active is anchor_opt.active:
                    inside = mid
                    inside_solve = mid_solve
                else:
                    outside = mid
            bp = 0.5 * (inside + outside)
            if breakpoints and abs(bp - breakpoints[-1]) < _BP_OSCILLATION:
                raise ContinuationError(
                    "continuation oscillates at theta=%r" % bp)
            breakpoints.append(bp)
            if inside_solve is not None:
                anchors.append(inside_solve)  # near-side anchor at the edge
            far = solve_at(outside)
            anchors.append(far)
            anchor_theta, anchor_opt, anchor_diffs = far

        raise ContinuationError(
            "continuation exceeded %d anchors on %s" % (2 * MAX_SEGMENTS, name))

    def build_segments(anchors, breakpoints, direction):
        """Contiguous segments, each predicted from its nearest anchor."""
        limit = hi_range if direction > 0 else lo_range
        bps = sorted(breakpoints, reverse=direction < 0)
        segments: list[Segment] = []
        pos = theta0
        remaining = list(bps)
        for (a, a_opt, a_diffs), nxt in zip(anchors, anchors[1:] + [None]):
            if nxt is None:
                boundary = limit
            else:
                between = [b for b in remaining
                           if min(a, nxt[0]) < b <= max(a, nxt[0])]
                if between:
                    boundary = between[0]
                    remaining.remove(boundary)
                else:
                    boundary = 0.5 * (a + nxt[0])
            segments.append(Segment(
                theta_lo=min(pos, boundary), theta_hi=max(pos, boundary),
                theta_anchor=a, gamma_anchor=a_opt.gamma_star,
                slope=a_diffs[name].dgamma_dtheta, active=a_opt.active))
            pos = boundary
        return segments

    anchors_pos, bp_pos = walk(+1)
    anchors_neg, bp_neg = walk(-1)
    seg_pos = build_segments(anchors_pos, bp_pos, +1)
    seg_neg = build_segments(anchors_neg, bp_neg, -1)
    segments = sorted(seg_neg + seg_pos, key=lambda s: (s.theta_lo, s.theta_hi))
    merged: list[Segment] = []
    for seg in segments:
        prev = merged[-1] if merged else None
        if (prev is not None and prev.theta_anchor == seg.theta_anchor
                and prev.gamma_anchor == seg.gamma_anchor
                and prev.slope == seg.slope and prev.active is seg.active):
            merged[-1] = replace(prev, theta_lo=min(prev.theta_lo, seg.theta_lo),
                                 theta_hi=max(prev.theta_hi, seg.theta_hi))
        else:
            merged.append(seg)
    if len(merged) > MAX_SEGMENTS:
        raise ContinuationError(
            "continuation produced %d segments on %s (limit %d)"
            % (len(merged), name, MAX_SEGMENTS))
    breakpoints = tuple(sorted(bp_neg + bp_pos))
    return PiecewiseApprox(theta_name=name, gamma_min=scenario.gamma_min,
                           gamma_max=scenario.gamma_max,
                           breakpoints=breakpoints, segments=tuple(merged))
