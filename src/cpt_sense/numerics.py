"""Generic scalar numerics: bounded maximization oracle and bracketed root
finding.

The maximizer is derivative-free: a pattern presieve plus golden-section
refinement.  When it cross-checks the tariff solver it is given the
search's own 9 start nodes and their values as its grid (``grid=``), so
that grid shares the search's node pass.  Only its golden steps are
independent of the search: they call the value closure, never the node
pass or any slope.  All kernels are deterministic and reentrant.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

from cpt_sense.errors import BracketingError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
#: Four float epsilons: ``bracket_root``'s position tolerance relative to
#: |x|.
_FOUR_EPS = 4.0 * sys.float_info.epsilon


def _non_finite(y: float, x: float) -> ValueError:
    """The error for a non-finite objective value y at x."""
    return ValueError("objective returned non-finite value %r at x=%r" % (y, x))


def _golden_section_max(f, lo, hi, tol):
    """Golden-section maximization on [lo, hi] down to interval width tol,
    as (argmax, max, values taken).

    ``f`` is called directly, and each value is checked as it comes: a
    non-finite one raises ValueError naming its probe.  A bracket of width
    w > tol takes 3 + ceil(log(w/tol) / log(1.618)) values, one when
    w <= tol.
    """
    isfinite = math.isfinite
    a, b = lo, hi
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        y = f(x)
        if not isfinite(y):
            raise _non_finite(y, x)
        return x, y, 1
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    if not isfinite(yc):
        raise _non_finite(yc, c)
    yd = f(d)
    if not isfinite(yd):
        raise _non_finite(yd, d)
    n = 3  # c, d and the midpoint at the end
    while h > tol:
        n += 1
        if yc > yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = f(c)
            if not isfinite(yc):
                raise _non_finite(yc, c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = f(d)
            if not isfinite(yd):
                raise _non_finite(yd, d)
    x = 0.5 * (a + b)
    y = f(x)
    if not isfinite(y):
        raise _non_finite(y, x)
    return x, y, n


def grid_golden_maximize(f: Callable[[float], float], lo: float, hi: float,
                         presieve: int = 64, tol: float = 1e-9,
                         grid: tuple[Sequence[float], Sequence[float]]
                         | None = None,
                         skip_near: tuple[float, float] | None = None
                         ) -> tuple[float, float, int]:
    """Global maximum of ``f`` on [lo, hi] via presieve plus golden refinement.

    Evaluates a uniform (presieve+1)-point grid, golden-refines around every
    interior pattern peak (the two cells beside it) and around both endpoint
    cells, except a bracket that ``skip_near`` excludes, and returns the
    best point found.  A refinement stops once its bracket is no wider than
    ``tol`` and returns the bracket's midpoint, so where ``f`` is unimodal
    on a bracket the point found lies within tol/2 of that bracket's
    argmax.  A bracket of width w > tol costs
    3 + ceil(log(w/tol) / log(1.618)) evaluations, one when w <= tol: at
    tol = half a cell, as ``pricing.solve`` refines, 5 per endpoint cell
    and 6 per interior peak (at tol = one cell, 1 and 5).

    Args:
        f: objective; every value it returns is checked for finiteness.
        lo, hi: bounds, lo < hi.
        presieve: grid cell count, at least 8.
        tol: absolute interval tolerance of the golden refinement.
        grid: (points, values) when the caller already has the grid: the
            points lo + (hi-lo)*i/presieve, with the first lo and the last
            hi, and f at each.  The grid is then not evaluated again, and
            these values are not counted.
        skip_near: (center, radius): a bracket whose two ends x both have
            abs(center - x) <= radius is not refined.  Rounded subtraction
            is monotone, so every point of such a bracket would read as
            within radius of center by the same test; a caller that
            disregards those points loses nothing.  None refines every
            bracket.

    Returns:
        (argmax, max value, values of ``f`` taken): the grid's values when
        it evaluated the grid, plus every golden step.

    Raises:
        ValueError: on bad arguments (a negative or non-finite radius
            among them), a grid of the wrong length or one that does not
            run from lo to hi, or a non-finite objective or grid value;
            the message names the offending probe location.
    """
    if not lo < hi:
        raise ValueError("need lo < hi, got [%r, %r]" % (lo, hi))
    if presieve < 8:
        raise ValueError("presieve must be >= 8, got %r" % presieve)
    if not tol > 0.0:
        raise ValueError("tol must be positive, got %r" % tol)
    if skip_near is None:
        center, radius = 0.0, -1.0  # a negative radius holds no bracket
    else:
        center, radius = skip_near
        if not 0.0 <= radius < math.inf:
            raise ValueError("radius must be finite and non-negative, got %r"
                             % radius)

    if grid is None:
        xs = [lo + (hi - lo) * i / presieve for i in range(presieve + 1)]
        xs[-1] = hi
        ys = [f(x) for x in xs]
        taken = len(ys)
    else:
        xs, ys = grid
        if not len(xs) == len(ys) == presieve + 1:
            raise ValueError("need %d grid points and values, got %d and %d"
                             % (presieve + 1, len(xs), len(ys)))
        if xs[0] != lo or xs[-1] != hi:
            raise ValueError("grid must run from lo to hi, got [%r, %r]"
                             % (xs[0], xs[-1]))
        taken = 0
    if not all(map(math.isfinite, ys)):
        raise next(_non_finite(y, x) for x, y in zip(xs, ys)
                   if not math.isfinite(y))

    best_y = max(ys)
    best_x = xs[ys.index(best_y)]  # the first maximum, as max keeps it

    brackets = [(xs[0], xs[1]), (xs[-2], xs[-1])]
    for i in range(1, presieve):
        if ys[i] >= ys[i - 1] and ys[i] >= ys[i + 1]:
            brackets.append((xs[i - 1], xs[i + 1]))
    for a, b in brackets:
        if abs(center - a) <= radius and abs(center - b) <= radius:
            continue
        x, y, n = _golden_section_max(f, a, b, tol)
        taken += n
        if y > best_y:
            best_x, best_y = x, y

    # Endpoints win ties: a bound optimum is reported exactly on the bound.
    if ys[0] >= best_y:
        best_x, best_y = xs[0], ys[0]
    if ys[-1] >= best_y:
        best_x, best_y = xs[-1], ys[-1]
    return best_x, best_y, taken


def bracket_root(f: Callable[[float], float], lo: float, hi: float,
                 tol: float = 1e-12, f_lo: float | None = None,
                 f_hi: float | None = None) -> float:
    """Root of ``f`` on a sign-changing bracket [lo, hi], by Brent's method.

    Brent-Dekker (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse quadratic or secant steps from the last
    three points, kept inside a bracket that always changes sign, with a
    bisection step whenever an interpolated step would not shrink the
    bracket fast enough.  It stops on the root's position, once the
    bracket's half-width is at most ``tol + 4*eps*|x|`` (x the bracket end
    of smaller |f|, which it returns), or on an exact zero; so the root
    it returns is the same whatever the scale of ``f``, and lies within
    twice that bound of a sign change of ``f``.  ``f`` is called once at
    every probe, so a caller that wraps it counts each one.

    Args:
        f: the function.
        lo, hi: the bracket.
        tol: positive absolute tolerance on the root's position.
        f_lo, f_hi: f at lo and at hi when the caller already has them;
            an end given its value is not probed again.

    Raises:
        BracketingError: when f(lo) and f(hi) have the same sign.
        ValueError: tol is not positive, or f is non-finite at a probe or
            a given end value is; the message names the probe location.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive, got %r" % tol)
    isfinite = math.isfinite
    if f_lo is None:
        f_lo = f(lo)
    if not isfinite(f_lo):
        raise _non_finite(f_lo, lo)
    if f_hi is None:
        f_hi = f(hi)
    if not isfinite(f_hi):
        raise _non_finite(f_hi, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketingError(
            "no sign change on [%r, %r]: f=%r, %r" % (lo, hi, f_lo, f_hi))

    # b is the best point so far, c the bracket's other end and a the
    # point before b; d is the last step and e the one before it
    a, b, c, fa, fb, fc = lo, hi, lo, f_lo, f_hi, f_lo
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        delta = tol + _FOUR_EPS * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= delta or fb == 0.0:
            break
        if abs(e) < delta or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # accept the step only inside the bracket and only if it is
            # less than half the step before last; bisect otherwise
            if 2.0 * p < min(3.0 * m * q - abs(delta * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > delta else (delta if m > 0.0 else -delta)
        fb = f(b)
        if not isfinite(fb):
            raise _non_finite(fb, b)
    return b
