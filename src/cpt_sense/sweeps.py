"""Parameter sweeps by exact re-optimization, piecewise-linear continuation
across active-set changes, and mismatch-loss accounting.

A numeric sweep is the brute-force benchmark: the pricing problem is
re-solved from scratch at every grid value of one parameter, while Taylor
predictions from the nominal differentials ride along for comparison; it
takes the nominal optimum and its differentials from the caller.  The
continuation walks the same parameter axis analytically, re-anchoring its
linearization at every predicted active-set event and refining true
breakpoints by bisection on the active set itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

from cpt_sense.errors import ContinuationError, CptSenseError, SolverDisagreementError
from cpt_sense.model import BEST_CASE, PARAM_NAMES, CptParams, ReferencePolicy
from cpt_sense.pricing import ActiveSet, OptimumRecord, revenue_function, solve
from cpt_sense.scenario import TravelScenario
from cpt_sense.sensitivity import (
    ParamSensitivity,
    differentials,
    local_domain,
    taylor_predict,
)

MAX_SEGMENTS = 32
_BP_OSCILLATION = 1e-10


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep grid specification.

    ``rel_range`` is the +- fraction of the nominal value covered, in
    (0, 1);
    probability sweeps are clamped into ``clamp`` to keep the distortion
    well defined, and clamped rows are marked (``SweepRow.clamped``, the
    ``clamped`` column of the sweep files).
    """

    theta_name: str
    rel_range: float = 0.20
    steps: int = 41
    clamp: ClassVar[tuple[float, float]] = (0.001, 0.999)

    def __post_init__(self):
        if self.theta_name not in PARAM_NAMES:
            raise ValueError("unknown parameter %r" % self.theta_name)
        if self.steps < 3:
            raise ValueError("steps must be >= 3, got %r" % self.steps)
        # at 1 or more the grid's low end reaches a nonpositive alpha, beta
        # or lambda, which no rider has
        if not 0.0 < self.rel_range < 1.0:
            raise ValueError("rel_range must lie in (0, 1), got %r"
                             % self.rel_range)

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


#: Sweep CSV column order, ``SweepRow``'s fields.  ``clamped`` marks a
#: probability grid value moved into the clamp range; ``error`` holds the
#: exception of a failed re-solve, whose ``active`` reads "error".
SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


#: The re-solve fields of a row whose re-solve failed.
_FAILED_RESOLVE = dict(gamma_star_numeric=math.nan, f_star_numeric=math.nan,
                       mu_low=math.nan, mu_high=math.nan,
                       active=ActiveSet.INTERIOR, mismatch_loss=math.nan)


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
                  policy: ReferencePolicy, spec: SweepSpec,
                  nominal: OptimumRecord,
                  diffs: dict[str, ParamSensitivity]) -> list[SweepRow]:
    """Exact re-optimization along one parameter axis.

    ``nominal`` is the optimum at ``params`` and ``diffs`` its
    ``differentials``; the sweep solves neither again.  Every grid value is
    solved from scratch; Taylor rows come from the nominal differentials;
    the mismatch loss treats the nominal parameters as the rider's true
    ones.  Solver failures (any ``CptSenseError``) are recorded per row and
    do not abort the sweep; other exceptions propagate.
    """
    theta0 = params.get(spec.theta_name)
    f_nominal = revenue_function(scenario, params, policy)

    rows: list[SweepRow] = []
    for theta, clamped in spec.grid(theta0):
        g1, f1 = taylor_predict(nominal, diffs, spec.theta_name, theta, order=1)
        _, f2 = taylor_predict(nominal, diffs, spec.theta_name, theta, order=2)
        try:
            opt = solve(scenario, params.replace(spec.theta_name, theta),
                        policy)
            resolved = dict(
                gamma_star_numeric=opt.gamma_star, f_star_numeric=opt.f_star,
                mu_low=opt.mu_low, mu_high=opt.mu_high, active=opt.active,
                mismatch_loss=nominal.f_star - f_nominal(opt.gamma_star))
        except CptSenseError as exc:  # row-level marker, sweep completes
            resolved = dict(_FAILED_RESOLVE,
                            error="%s: %s" % (type(exc).__name__, exc))
        rows.append(SweepRow(
            theta_name=spec.theta_name, theta_value=theta,
            gamma_star_taylor1=g1, f_star_taylor1=f1, f_star_taylor2=f2,
            clamped=clamped, **resolved))
    return rows


def piecewise_continuation(scenario: TravelScenario, params: CptParams,
                           policy: ReferencePolicy, spec: SweepSpec
                           ) -> PiecewiseApprox:
    """Piecewise-linear tariff approximation over the sweep range.

    Starting from the nominal optimum the scheme predicts the next
    active-set event from the local domain, advances there, re-solves
    exactly (anchor refresh), and repeats.  When an exact solve reveals
    that the active set actually changed between two anchors, the
    breakpoint is refined by bisection on active-set membership to
    1e-6 of the nominal parameter rather than trusting the first-order
    estimate.  Both directions are walked; each anchor's segment ends at
    the breakpoint before the next anchor, or halfway to it when no
    breakpoint lies between them, so segments are contiguous across the
    whole range.  Each parameter value is solved and differentiated once
    per call.

    Raises:
        ContinuationError: more than 32 segments, or two consecutive
            breakpoints within 1e-10 of each other (oscillation).
    """
    name = spec.theta_name
    theta0 = params.get(name)
    lo_range = theta0 * (1.0 - spec.rel_range)
    hi_range = theta0 * (1.0 + spec.rel_range)
    if name == "p":
        lo_range = max(lo_range, spec.clamp[0])
        hi_range = min(hi_range, spec.clamp[1])
    bp_tol = 1e-6 * abs(theta0)

    solved: dict[float, tuple] = {}

    def solve_at(theta):
        """(optimum, differentials) at theta, solved on first use."""
        if theta not in solved:
            perturbed = params.replace(name, theta)
            opt = solve(scenario, perturbed, policy)
            solved[theta] = (opt, differentials(opt, scenario, perturbed,
                                                policy))
        return solved[theta]

    def walk(direction: int) -> tuple[list[Segment], list[float]]:
        """Segments and breakpoints, nominal outward to the range limit."""
        limit = hi_range if direction > 0 else lo_range
        segments: list[Segment] = []
        breakpoints: list[float] = []
        anchor = start = theta0

        def advance(boundary, nxt):
            """Close the anchor's segment at ``boundary``; ``nxt`` anchors
            the next one, which starts there."""
            nonlocal anchor, start
            opt, diffs = solve_at(anchor)
            segments.append(Segment(
                theta_lo=min(start, boundary), theta_hi=max(start, boundary),
                theta_anchor=anchor, gamma_anchor=opt.gamma_star,
                slope=diffs[name].dgamma_dtheta, active=opt.active))
            anchor, start = nxt, boundary

        while len(segments) < 2 * MAX_SEGMENTS:
            opt, diffs = solve_at(anchor)
            dom = local_domain(opt, diffs, name)
            step = dom.delta_pos if direction > 0 else dom.delta_neg
            target = anchor + step if math.isfinite(step) else limit
            if math.isfinite(step) and abs(step) < bp_tol:
                # prediction stalled at the anchor: probe one tolerance ahead
                target = anchor + math.copysign(bp_tol, direction)
            at_limit = target >= limit if direction > 0 else target <= limit
            if at_limit:
                # the estimate may overshoot a change hiding inside the
                # range, so the range end itself is probed before stopping
                target = limit

            if solve_at(target)[0].active is opt.active:
                if at_limit:
                    advance(limit, None)  # no change within range
                    return segments, breakpoints
                # event estimate fell short of a change: refresh and go on
                advance(0.5 * (anchor + target), target)
                continue

            # active set changed between anchor and target: bisect on it
            inside, outside = anchor, target
            while abs(outside - inside) > bp_tol:
                mid = 0.5 * (inside + outside)
                if solve_at(mid)[0].active is opt.active:
                    inside = mid
                else:
                    outside = mid
            bp = 0.5 * (inside + outside)
            if breakpoints and abs(bp - breakpoints[-1]) < _BP_OSCILLATION:
                raise ContinuationError(
                    "continuation oscillates at theta=%r" % bp)
            breakpoints.append(bp)
            if inside != anchor:  # near-side anchor at the edge
                advance(0.5 * (anchor + inside), inside)
            advance(bp, outside)

        raise ContinuationError(
            "continuation exceeded %d anchors on %s" % (2 * MAX_SEGMENTS, name))

    seg_pos, bp_pos = walk(+1)
    seg_neg, bp_neg = walk(-1)
    # both walks open with the nominal anchor: join its two halves
    nominal = replace(seg_pos[0], theta_lo=seg_neg[0].theta_lo)
    segments = seg_neg[:0:-1] + [nominal] + seg_pos[1:]
    if len(segments) > MAX_SEGMENTS:
        raise ContinuationError(
            "continuation produced %d segments on %s (limit %d)"
            % (len(segments), name, MAX_SEGMENTS))
    return PiecewiseApprox(theta_name=name, gamma_min=scenario.gamma_min,
                           gamma_max=scenario.gamma_max,
                           breakpoints=tuple(sorted(bp_neg + bp_pos)),
                           segments=tuple(segments))
