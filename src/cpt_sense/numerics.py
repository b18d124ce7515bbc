"""Generic scalar numerics: bounded maximization oracle, bracketed root
finding, and Richardson-extrapolated finite differences.

The maximizer is deliberately derivative-free (pattern presieve plus
golden-section refinement) so that it shares no code path or failure mode
with the derivative-based tariff solver it cross-checks.  All kernels are
deterministic and reentrant.
"""

from __future__ import annotations

import math
from typing import Callable

from cpt_sense.errors import BracketingError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class ScalarFunctionHandle:
    """Callable of one real argument with an evaluation counter.

    Evaluations must be side-effect-free on the underlying problem state.
    """

    def __init__(self, fn: Callable[[float], float]):
        self._fn = fn
        self.evaluations = 0

    def __call__(self, x: float) -> float:
        self.evaluations += 1
        return self._fn(x)


def _checked(handle, x):
    y = handle(x)
    if not math.isfinite(y):
        raise ValueError("objective returned non-finite value %r at x=%r" % (y, x))
    return y


def _golden_section_max(handle, lo, hi, tol):
    """Golden-section maximization on [lo, hi] down to interval width tol."""
    a, b = lo, hi
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, _checked(handle, x)
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = _checked(handle, c)
    yd = _checked(handle, d)
    while h > tol:
        if yc > yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = _checked(handle, c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = _checked(handle, d)
    x = 0.5 * (a + b)
    return x, _checked(handle, x)


def grid_golden_maximize(f: Callable[[float], float], lo: float, hi: float,
                         presieve: int = 64, tol: float = 1e-9
                         ) -> tuple[float, float]:
    """Global maximum of ``f`` on [lo, hi] via presieve plus golden refinement.

    Evaluates a uniform (presieve+1)-point grid, golden-refines around every
    interior pattern peak and around both endpoint cells, and returns the
    best point found.  For functions that are unimodal within each grid
    cell the argmax error is at most max(tol, (hi-lo)/presieve * 1e-3).

    Args:
        f: objective; may be a plain callable or a ScalarFunctionHandle.
        lo, hi: bounds, lo < hi.
        presieve: grid cell count, at least 8.
        tol: absolute interval tolerance of the golden refinement.

    Returns:
        (argmax, max value).

    Raises:
        ValueError: on bad arguments or a non-finite objective value; the
            message names the offending probe location.
    """
    if not lo < hi:
        raise ValueError("need lo < hi, got [%r, %r]" % (lo, hi))
    if presieve < 8:
        raise ValueError("presieve must be >= 8, got %r" % presieve)
    if not tol > 0.0:
        raise ValueError("tol must be positive, got %r" % tol)
    handle = f if isinstance(f, ScalarFunctionHandle) else ScalarFunctionHandle(f)

    xs = [lo + (hi - lo) * i / presieve for i in range(presieve + 1)]
    xs[-1] = hi
    ys = [_checked(handle, x) for x in xs]

    best_x, best_y = max(zip(xs, ys), key=lambda t: t[1])

    brackets = [(xs[0], xs[1]), (xs[-2], xs[-1])]
    for i in range(1, presieve):
        if ys[i] >= ys[i - 1] and ys[i] >= ys[i + 1]:
            brackets.append((xs[i - 1], xs[i + 1]))
    for a, b in brackets:
        x, y = _golden_section_max(handle, a, b, tol)
        if y > best_y:
            best_x, best_y = x, y

    # Endpoints win ties: a bound optimum is reported exactly on the bound.
    if ys[0] >= best_y:
        best_x, best_y = xs[0], ys[0]
    if ys[-1] >= best_y:
        best_x, best_y = xs[-1], ys[-1]
    return best_x, best_y


def richardson(difference: Callable[[float], float], levels: int) -> float:
    """Richardson extrapolation of a difference quotient over halving steps.

    ``difference(s)`` is the quotient at its base step(s) scaled by
    s = 1, 1/2, 1/4, ...; its truncation error must run in even powers of
    the step from O(h^2) on, which holds for the central stencils below.
    With L levels the extrapolated error is O(h^(2L)).  Scaling by powers of
    two keeps every step exact.
    """
    estimates = [difference(0.5 ** k) for k in range(levels)]
    for level in range(1, levels):
        factor = 4.0 ** level
        estimates = [(factor * estimates[i + 1] - estimates[i]) / (factor - 1.0)
                     for i in range(len(estimates) - 1)]
    return estimates[0]


def central_difference(f: Callable[[float], float], x: float, h: float,
                       levels: int = 2) -> float:
    """Richardson-extrapolated central first difference with absolute step h."""
    return richardson(
        lambda s: (f(x + h * s) - f(x - h * s)) / (2.0 * (h * s)), levels)


def second_difference(f: Callable[[float], float], x: float, h: float
                      ) -> float:
    """Three-level Richardson central second difference with absolute step h."""
    fx = f(x)
    return richardson(
        lambda s: (f(x + h * s) - 2.0 * fx + f(x - h * s)) / ((h * s) * (h * s)),
        3)


def cross_difference(f: Callable[[float, float], float], x: float, y: float,
                     hx: float, hy: float) -> float:
    """Three-level Richardson four-corner cross partial d2f/dxdy."""
    def quotient(s: float) -> float:
        sx, sy = hx * s, hy * s
        return (f(x + sx, y + sy) - f(x + sx, y - sy)
                - f(x - sx, y + sy) + f(x - sx, y - sy)) / (4.0 * sx * sy)
    return richardson(quotient, 3)


def central_derivative(f: Callable[[float], float], x: float,
                       rel_step: float = 1e-5, richardson_levels: int = 2
                       ) -> float:
    """Richardson-extrapolated central difference of ``f`` at ``x``.

    The step is rel_step*|x|, falling back to an absolute 1e-6 when x is
    zero.  With L levels the truncation error is O(h^(2L)) for smooth f.

    Raises:
        ValueError: bad level count, or a non-finite value of ``f``.
    """
    if not 1 <= richardson_levels <= 4:
        raise ValueError("richardson_levels must be in [1, 4]")
    handle = f if isinstance(f, ScalarFunctionHandle) else ScalarFunctionHandle(f)
    h = rel_step * abs(x) if x != 0.0 else 1e-6
    return central_difference(lambda t: _checked(handle, t), x, h,
                              richardson_levels)


def bracket_root(f: Callable[[float], float], lo: float, hi: float,
                 tol: float = 1e-12) -> float:
    """Root of ``f`` on a sign-changing bracket [lo, hi].

    Bisection with a secant shortcut when the secant point falls safely
    inside the bracket; stops when |f(root)| <= tol or the bracket width
    drops to tol.

    Raises:
        BracketingError: when f(lo) and f(hi) have the same sign.
    """
    handle = f if isinstance(f, ScalarFunctionHandle) else ScalarFunctionHandle(f)
    f_lo = _checked(handle, lo)
    f_hi = _checked(handle, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketingError(
            "no sign change on [%r, %r]: f=%r, %r" % (lo, hi, f_lo, f_hi))

    a, b, fa, fb = lo, hi, f_lo, f_hi
    for _ in range(200):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if fb != fa:
            secant = b - fb * (b - a) / (fb - fa)
            width = b - a
            if a + 0.01 * width < secant < b - 0.01 * width:
                mid = secant
        fm = _checked(handle, mid)
        if abs(fm) <= tol:
            return mid
        if fa * fm <= 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)
