"""Bounded expected-revenue maximization over the tariff, with KKT
multipliers, residual diagnostics, closed-form Lagrangian partials and the
paper's concavity inequality.

The solver is a certified dyadic search on the 64-cell tariff lattice
lo + span*i/64.  One node pass takes the 9 tariffs i = 0, 8, ..., 64.  A
cell whose end slopes go from + to - is bisected at lattice midpoints down
to one lattice cell and polished there by Brent's root finding on the
slope, started from the slopes the cell holds at its ends and stopped
once the root's bracket is 1e-13 of the span (plus 4*eps*|gamma|) wide
each side, so the root's accuracy does not depend on the revenue's
scale.
Every other cell closes once the revenue bound of ``_core``
(docs/derivatives.md, "The revenue bound of a cell") holds it to
f* + 1e-12*|f*|, f* the best candidate so far, and is bisected otherwise,
the highest bound first and below the lattice where needed; a polished
root splits its cell into two that close the same way, most of them
whole by the bound's second-order test, which proves a cell's gap
z - log(gamma/level - 1) convex and non-negative.  The best of the
candidates and the two endpoints wins, and the endpoints win within 1e-9
of the tariff span.  The search raises ``SolverDisagreementError`` when
a cell narrower than ``MIN_CELL`` cannot close, after ``MAX_BISECTIONS``
bisections, or when a revenue value it took exceeds the certified f*.
The derivative-free grid/golden oracle of ``numerics`` still
cross-checks every solve on the 9 start nodes, refined to half a start
cell, and the solve fails when it finds more revenue (by more than
1e-12 of |f*|) more than two start cells from the answer; a bracket
whose ends both lie within two start cells of the answer holds no point
that test reads, so the oracle does not refine it.  A solve builds its
revenue closures once, and the slope at its answer is the one the search
took there (a node's, or the polish's node at its root); the
multiplier and ``kkt_residuals(gamma, lo, hi, mu_low, mu_high, slope)``,
the largest first-order residual as one float, read that slope, so the
KKT check evaluates nothing again (``revenue_gradient`` at gamma* gives
the same bits).  ``certificate_margin``, the paper's concavity
inequality, is defined for the best-case reference only.

Sign conventions: the optimizer maximizes the revenue f, equivalently
minimizes -f.  The Lagrangian of the minimization form is

    L(gamma; theta) = -f(gamma; theta) + mu_high*(gamma - gamma_max)
                      + mu_low*(gamma_min - gamma)

so its partials are the negated revenue partials; the bound terms carry no
parameter dependence and are linear in the tariff.  Multipliers are named
by their bound (never by index).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

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
from cpt_sense.numerics import _non_finite, bracket_root, grid_golden_maximize
from cpt_sense.scenario import TravelScenario, require_valid

#: Residual gate for accepting a KKT point.
KKT_TOL = 1e-7
#: Active multipliers below this are flagged as degenerate (strict
#: complementarity effectively fails, which matters for local sensitivity).
DEGENERATE_MU = 1e-6
#: Cells of the dyadic tariff lattice the search bisects on and polishes in.
LATTICE = 64
#: Cells of the search's first node pass, and of its oracle cross-check.
START_CELLS = 8
#: Relative slack of the certificate: a cell closes when its revenue bound
#: is at most f* + CERTIFY_RTOL*|f*|.
CERTIFY_RTOL = 1e-12
#: Narrowest cell the search bisects, as a share of the tariff span, and
#: as a share of the box's largest |tariff|, so that a midpoint stays
#: hundreds of float steps from either end.  A maximum on a kink of z (a
#: base zero at beta near 1) closes only in cells near 1e-12 of the span.
MIN_CELL = 1e-14
MIN_CELL_OF_TARIFF = 1e-13
#: Most cells one solve may bisect.
MAX_BISECTIONS = 1000
#: Tariff points of the concavity certificate.
CERTIFICATE_POINTS = 101


class ActiveSet(Enum):
    INTERIOR = "interior"
    LOWER_BOUND = "lower"
    UPPER_BOUND = "upper"


@dataclass(frozen=True)
class OptimumRecord:
    """Solved tariff with multipliers, active set and diagnostics.

    ``gamma_oracle`` is the oracle's best point among the 9 start nodes
    and the brackets it refines, each to about a quarter start cell (1/32
    of the span); it refines none whose ends both lie within two start
    cells of ``gamma_star``.  ``evaluations`` counts the revenue values the
    solve took: its nodes, its polished roots and the oracle's golden
    steps in those brackets.  ``kkt_residual`` is ``kkt_residuals`` at
    the answer, taken before the record and set when it is built.
    """

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
class LagrangianDerivatives:
    """Partials of the minimization Lagrangian at a point.

    l_gg is the second tariff derivative; the per-parameter maps hold the
    mixed partial, the first parameter partial and the second parameter
    partial for each of alpha, beta, lambda, p.
    """

    l_gg: float
    l_gtheta: dict[str, float]
    l_theta: dict[str, float]
    l_thetatheta: dict[str, float]


#: ``nodes(xs)``: the revenue values and slopes at every tariff of ``xs``.
Nodes = Callable[[Sequence[float]], tuple[list[float], list[float]]]
#: ``bound(a, b, f_a, f_b, level)``: an upper bound of the revenue on the
#: tariff cell [a, b] from the values at its ends; it may stop at a
#: cheaper bound once that one is <= level.
Bound = Callable[[float, float, float, float, float], float]


def _revenue_closures(scenario: TravelScenario, params: CptParams,
                      policy: ReferencePolicy
                      ) -> tuple[Callable[[float], float],
                                 Callable[[float], float], Nodes, Bound]:
    """Expected revenue and its tariff slope as functions of the tariff,
    both at a list of tariffs, and the revenue bound of a tariff cell, as
    (value, slope, nodes, bound).

    Under the best-case policy each value is one ``bestcase_revenue``
    call and each slope one call of the closure ``bestcase_slope`` builds
    once, beside ``_core``'s cell bound on the best-case line, built alone;
    one reference-line evaluator from ``_core`` otherwise.  Each value
    ``nodes`` returns is the value function's at that tariff, bit for bit.
    """
    u0, xl, xh, b = scenario.u0, scenario.x_low, scenario.x_high, scenario.b_sm
    a, be, lam, p = params.alpha, params.beta, params.lam, params.p_worst
    if policy.kind is not PolicyKind.BEST_CASE:
        return _core.revenue_evaluator(u0, xl, xh, b,
                                       *reference_line(policy, scenario),
                                       a, be, lam, p)

    # looked up per call, not bound at import, so that a wrapper installed
    # on the module (a tracer, a test's counter) sees every evaluation
    kernel = _core.bestcase_revenue
    # the slope closure takes the rider's factors once per solve; the
    # polish's root finder calls it as it is
    slope = _core.bestcase_slope(u0, xl, xh, b, a, be, lam, p)

    def f(gamma: float) -> float:
        return kernel(gamma, u0, xl, xh, b, a, be, lam, p)

    def nodes(xs: Sequence[float]) -> tuple[list[float], list[float]]:
        # each node's slope before its value: the slope raises wherever
        # the kernel does, and on a singular edge, so the first node that
        # raises does so as a scan of the slopes would.  One loop, not two
        # comprehensions, since most passes hold one node
        values, slopes = [], []
        for x in xs:
            slopes.append(slope(x))
            values.append(kernel(x, u0, xl, xh, b, a, be, lam, p))
        return values, slopes

    bound = _core._revenue_bound(u0, xl, xh, b, xh, b, 0.0, a, be, lam, p)
    return f, slope, nodes, bound


def revenue_function(scenario: TravelScenario, params: CptParams,
                     policy: ReferencePolicy = BEST_CASE
                     ) -> Callable[[float], float]:
    """Expected revenue as a plain function of the tariff, in closed form.

    ``model.expected_revenue`` is the same quantity through the general
    acceptance chain.
    """
    return _revenue_closures(scenario, params, policy)[0]


def revenue_gradient(scenario: TravelScenario, params: CptParams,
                     policy: ReferencePolicy = BEST_CASE
                     ) -> Callable[[float], float]:
    """Tariff derivative of the expected revenue, in closed form."""
    return _revenue_closures(scenario, params, policy)[1]


def solve(scenario: TravelScenario, params: CptParams,
          policy: ReferencePolicy = BEST_CASE) -> OptimumRecord:
    """Maximize expected revenue over the tariff box, certified.

    A certified search (``_certified_stationary``) finds the stationary
    candidates on the 64-cell lattice, and below it where a cell needs
    it; the best of them and the two endpoints wins, and the endpoints win
    within 1e-9 of the span.  Multipliers are recovered from stationarity
    of the minimization Lagrangian, so an accepted record satisfies the
    first-order conditions by construction.  The oracle of ``numerics``
    then runs once on the search's 9 start nodes, refining only the
    brackets that reach more than two start cells from the result.

    Raises:
        InvalidScenarioError: scenario fails validation.
        SingularPointError: the box ends on a validity edge where a base of
            the revenue vanishes with beta < 1 (such as u0 = u_high at
            gamma_max under the static or best-case reference), so the
            slope there is infinite.
        SolverDisagreementError: the certificate fails: a cell narrower
            than ``MIN_CELL`` of the span (and ``MIN_CELL_OF_TARIFF`` of
            the largest |tariff|), or the cell on top after
            ``MAX_BISECTIONS`` bisections, still has a revenue bound above
            f*, or a revenue value the search took exceeds f* by more than
            ``CERTIFY_RTOL``; the message names the cell or tariff, the
            bound or value, and f*.  Also raised when the oracle finds more
            revenue, by more than 1e-12 of |f*|, more than two start cells
            from the result; that message names both revenues and tariffs.
        ValueError: the revenue is non-finite at a probed tariff; the
            message names the tariff.
    """
    require_valid(scenario)
    lo, hi = scenario.gamma_min, scenario.gamma_max
    span = hi - lo
    gtol = 1e-9 * span

    value, fgrad, nodes, bound = _revenue_closures(scenario, params, policy)
    # the polish stops once the root's bracket is 1e-13 of the span (plus
    # 4*eps*|gamma|) wide each side, four decades below the gamma
    # tolerance, whatever the scale of the revenue
    xs, ys, slopes, stationary, taken = _certified_stationary(
        scenario.label, lo, hi, fgrad, nodes, bound, 1e-4 * gtol)

    # Endpoints first so that they win value ties exactly on the bound.
    f_lo, f_hi = ys[0], ys[-1]
    gamma_star, f_star, slope_star = lo, f_lo, slopes[0]
    if f_hi > f_star:
        gamma_star, f_star, slope_star = hi, f_hi, slopes[-1]
    if stationary:
        for cand, y, s in sorted(stationary):
            if y > f_star:
                gamma_star, f_star, slope_star = cand, y, s

    mu_low = mu_high = 0.0
    degenerate = False
    if gamma_star <= lo + gtol:
        gamma_star, f_star, slope_star = lo, f_lo, slopes[0]
        active = ActiveSet.LOWER_BOUND
        mu_low = max(0.0, -slope_star)
        degenerate = mu_low < DEGENERATE_MU
    elif gamma_star >= hi - gtol:
        gamma_star, f_star, slope_star = hi, f_hi, slopes[-1]
        active = ActiveSet.UPPER_BOUND
        mu_high = max(0.0, slope_star)
        degenerate = mu_high < DEGENERATE_MU
    else:
        active = ActiveSet.INTERIOR

    # the oracle reads the start nodes, points and values, and refines its
    # brackets to half a start cell, so that an endpoint cell takes golden
    # steps too rather than one midpoint value; the verdict asks only
    # whether it found more revenue more than two cells away, so a bracket
    # whose ends both lie within two cells, by the verdict's own test, is
    # not refined
    cell = span / START_CELLS
    gamma_oracle, f_oracle, oracle_taken = grid_golden_maximize(
        value, lo, hi, presieve=START_CELLS, tol=0.5 * cell, grid=(xs, ys),
        skip_near=(gamma_star, 2.0 * cell))
    if (f_oracle > f_star + 1e-12 * abs(f_star)
            and abs(gamma_star - gamma_oracle) > 2.0 * cell):
        raise SolverDisagreementError(
            "scenario %r: oracle revenue %r at gamma=%r beats solver revenue "
            "%r at gamma*=%r more than 2 start cells away"
            % (scenario.label, f_oracle, gamma_oracle, f_star, gamma_star))

    residual = kkt_residuals(gamma_star, lo, hi, mu_low, mu_high, slope_star)
    # the fields in their order, positionally: a keyword per field costs
    # the frozen __init__ a name match each
    return OptimumRecord(gamma_star, f_star, mu_low, mu_high, active,
                         residual, degenerate, lo, hi, gamma_oracle,
                         taken + oracle_taken)


def _certified_stationary(label: str, lo: float, hi: float,
                          fgrad: Callable[[float], float], nodes: Nodes,
                          bound: Bound, polish_tol: float
                          ) -> tuple[list[float], list[float], list[float],
                                     list[tuple[float, float, float]], int]:
    """The start nodes with their values and slopes, every stationary
    candidate (tariff, revenue, slope) the certificate needs, and the
    revenue values the search took.

    One node pass takes the ``START_CELLS + 1`` lattice tariffs
    lo + span*i/64.  A cell whose end slopes go from + to - is bisected at
    lattice midpoints down to one lattice cell and polished there by
    ``bracket_root`` from the end slopes it holds, to ``polish_tol`` of
    the root's position, and the root's revenue and slope are one node;
    below the lattice such a cell is polished at once.  The root, a
    candidate, splits its cell in two of slope 0 at the root; nodes of
    slope exactly 0 are candidates too.  Every cell but a
    + to - one closes when ``bound`` holds it to f* + CERTIFY_RTOL*|f*|,
    f* the best candidate or box end so far; otherwise it is bisected, the
    cell of the highest bound first.  Each node, a polished root's among
    them, is one revenue value taken.

    Raises:
        SolverDisagreementError: as ``solve`` states for the certificate.
        ValueError: a node's revenue is non-finite.
    """
    span = hi - lo
    index = range(0, LATTICE + 1, LATTICE // START_CELLS)
    xs = [lo + span * i / LATTICE for i in index]
    xs[-1] = hi
    ys, slopes = nodes(xs)
    taken = len(ys)
    if not all(map(math.isfinite, ys)):
        raise next(_non_finite(y, x) for x, y in zip(xs, ys)
                   if not math.isfinite(y))
    # a slope of exactly 0 is rare: scan for one only when there is one
    stationary = ([(x, y, s) for x, y, s in zip(xs, ys, slopes) if s == 0.0]
                  if 0.0 in slopes else [])
    top = max(zip(ys, xs))  # the largest node value, at its tariff

    # a cell is (a, b, f_a, f_b, s_a, s_b, i_a, i_b), i_* its ends' lattice
    # indices, or -1 below the lattice
    work = list(zip(xs, xs[1:], ys, ys[1:], slopes, slopes[1:], index,
                    index[1:]))
    heap: list = []
    min_width = max(MIN_CELL * span,
                    MIN_CELL_OF_TARIFF * max(abs(lo), abs(hi)))
    bisections = 0
    while True:
        # polish the + to - cells first, then bound the others against the
        # best candidate
        pending = []
        while work:
            a, b, f_a, f_b, s_a, s_b, i_a, i_b = cell = work.pop()
            if not s_a > 0.0 > s_b:
                pending.append(cell)
            elif i_b - i_a >= 2:
                lower, upper = _split(cell, lo, span, nodes, stationary)
                taken += 1
                work += (lower, upper)
                top = max(top, (upper[2], upper[0]))
            else:
                root, y, s = _polish(cell, fgrad, nodes, polish_tol)
                taken += 1
                stationary.append((root, y, s))
                # the root splits its cell in two of slope 0 at the root,
                # which the bound closes like any other: a second peak
                # may share the cell.  A root off the cell's interior
                # leaves the whole cell to the bound.
                if a < root < b:
                    work += [(a, root, f_a, y, s_a, 0.0, -1, -1),
                             (root, b, y, f_b, 0.0, s_b, -1, -1)]
                else:
                    pending.append(cell)
        best = max(ys[0], ys[-1])
        for _, y, _ in stationary:
            if y > best:  # the first of equal maxima, as max keeps it
                best = y
        level = best + CERTIFY_RTOL * abs(best)
        for cell in pending:
            u = bound(cell[0], cell[1], cell[2], cell[3], level)
            if u > level:
                # ties go to the narrower cell, so a search whose bounds
                # never close dives to the width guard
                heapq.heappush(heap, (-u, cell[1] - cell[0], cell))
        if not heap or -heap[0][0] <= level:
            break
        neg_u, width, cell = heapq.heappop(heap)
        if width < min_width or bisections == MAX_BISECTIONS:
            raise SolverDisagreementError(
                "scenario %r: cannot certify the tariff cell [%r, %r]: its "
                "revenue bound %r exceeds f*=%r after %d bisections"
                % (label, cell[0], cell[1], -neg_u, best, bisections))
        bisections += 1
        lower, upper = _split(cell, lo, span, nodes, stationary)
        taken += 1
        work += (lower, upper)
        top = max(top, (upper[2], upper[0]))

    if top[0] > level:
        raise SolverDisagreementError(
            "scenario %r: revenue %r at gamma=%r exceeds the certified "
            "f*=%r" % (label, top[0], top[1], best))
    return xs, ys, slopes, stationary, taken


def _split(cell: tuple, lo: float, span: float, nodes: Nodes,
           stationary: list) -> tuple[tuple, tuple]:
    """The two halves of a cell, split at its lattice midpoint, or at its
    midpoint below the lattice, by one node; a node of slope 0 joins the
    stationary candidates."""
    a, b, f_a, f_b, s_a, s_b, i_a, i_b = cell
    if i_b - i_a >= 2:
        i_m = (i_a + i_b) // 2
        x = lo + span * i_m / LATTICE
    else:
        x, i_a, i_m, i_b = 0.5 * (a + b), -1, -1, -1
    y, s = _node(x, nodes)
    if s == 0.0:
        stationary.append((x, y, s))
    return (a, x, f_a, y, s_a, s, i_a, i_m), (x, b, y, f_b, s, s_b, i_m, i_b)


def _node(x: float, nodes: Nodes) -> tuple[float, float]:
    """(revenue, slope) at x by a one-node pass; the revenue has the value
    function's bits.

    Raises:
        ValueError: the revenue is non-finite at x.
    """
    (y,), (s,) = nodes((x,))
    if not math.isfinite(y):
        raise _non_finite(y, x)
    return y, s


def _polish(cell: tuple, fgrad: Callable[[float], float], nodes: Nodes,
            polish_tol: float) -> tuple[float, float, float]:
    """(root, revenue, slope) of the slope on a + to - cell, the root
    found from the slopes the cell holds at its ends and its revenue and
    slope taken by one node."""
    a, b, f_a, f_b, s_a, s_b = cell[:6]
    root = bracket_root(fgrad, a, b, polish_tol, s_a, s_b)
    return (root,) + _node(root, nodes)


def kkt_residuals(gamma: float, lo: float, hi: float, mu_low: float,
                  mu_high: float, slope: float) -> float:
    """Largest first-order condition residual at tariff ``gamma`` in the
    box [lo, hi] with multipliers ``mu_low`` and ``mu_high``.

    ``slope`` is the revenue slope at ``gamma``: ``solve`` passes the one
    it took, and ``revenue_gradient`` gives it with the same bits.
    """
    # stationarity, both complementary slacks, both dual and the primal
    # violation
    return max(abs(-slope + mu_high - mu_low),
               abs(mu_low * (lo - gamma)),
               abs(mu_high * (gamma - hi)),
               max(0.0, -mu_low), max(0.0, -mu_high),
               max(lo - gamma, gamma - hi, 0.0))


def certificate_margin(scenario: TravelScenario,
                       params: CptParams) -> tuple[bool, float]:
    """Evaluate the printed concavity inequality on a tariff grid.

    The inequality compares, at each tariff,

        exp(-lam*G^beta) * (E + gamma*lam*beta*b*G^(beta-1))  <=  -E^2

    with G the best-outcome margin over the alternative and
    E = exp(-exp(-lam*D^beta*(-ln p)^alpha)).  It is applied verbatim, as
    printed, and it does not prove concavity: on some narrow boxes near
    the choice-set edge it holds where the revenue is convex (README, "Math
    notes").  The CLI's ``concave_certified`` column is its verdict.
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


def lagrangian_derivatives(gamma: float, scenario: TravelScenario,
                           params: CptParams,
                           policy: ReferencePolicy = BEST_CASE
                           ) -> LagrangianDerivatives:
    """Partials of the minimization Lagrangian at (gamma, params).

    The partials are the negated closed-form revenue partials of
    ``_core.revenue_partials`` on the policy's reference line
    (docs/derivatives.md), under every policy.
    The bound terms of the Lagrangian contribute nothing to any of them.

    Raises:
        SingularPointError: a value-function base vanishes at this point or
            a derivative is non-finite; the message names the offending
            base or term.
    """
    args = (gamma, scenario.u0, scenario.x_low, scenario.x_high, scenario.b_sm)
    theta = (params.alpha, params.beta, params.lam, params.p_worst)
    partials = _core.revenue_partials(
        *args, *reference_line(policy, scenario), *theta)
    l_gg = -partials[2]
    if not math.isfinite(l_gg):
        raise SingularPointError("l_gg is non-finite at gamma=%r" % gamma)
    l_gtheta, l_theta, l_thetatheta = {}, {}, {}
    # partials[3:] holds one (f_t, f_gt, f_tt) block per parameter, in
    # PARAM_NAMES order
    for name, i in zip(PARAM_NAMES, range(3, 15, 3)):
        f_t, f_gt, f_tt = partials[i:i + 3]
        for slot, label, v in ((l_gtheta, "l_gtheta", -f_gt),
                               (l_theta, "l_theta", -f_t),
                               (l_thetatheta, "l_thetatheta", -f_tt)):
            if not math.isfinite(v):
                raise SingularPointError("%s[%s] is non-finite at gamma=%r"
                                         % (label, name, gamma))
            slot[name] = v
    return LagrangianDerivatives(l_gg=l_gg, l_gtheta=l_gtheta, l_theta=l_theta,
                                 l_thetatheta=l_thetatheta)
