"""Richardson-extrapolated central differences: the finite-difference oracle
the tests check closed-form derivatives against.

The module name does not match pytest's ``test_*.py``, so it is not
collected; test modules import it from their own directory.
"""

from __future__ import annotations

import math
from typing import Callable

from cpt_sense.numerics import _non_finite


def central_derivative(f: Callable[[float], float], x: float,
                       rel_step: float = 1e-5, richardson_levels: int = 2
                       ) -> float:
    """Richardson-extrapolated central difference of ``f`` at ``x``.

    The step is rel_step*|x|, falling back to an absolute 1e-6 when x is
    zero.  Each level halves the step, which keeps every step exact, and
    with L levels the truncation error is O(h^(2L)) for smooth f.

    Raises:
        ValueError: bad level count, or a non-finite value of ``f``.
    """
    if not 1 <= richardson_levels <= 4:
        raise ValueError("richardson_levels must be in [1, 4]")
    h = rel_step * abs(x) if x != 0.0 else 1e-6

    def value(at: float) -> float:
        y = f(at)
        if not math.isfinite(y):
            raise _non_finite(y, at)
        return y

    def quotient(s: float) -> float:
        return (value(x + h * s) - value(x - h * s)) / (2.0 * (h * s))

    estimates = [quotient(0.5 ** k) for k in range(richardson_levels)]
    for level in range(1, richardson_levels):
        factor = 4.0 ** level
        estimates = [(factor * estimates[i + 1] - estimates[i]) / (factor - 1.0)
                     for i in range(len(estimates) - 1)]
    return estimates[0]
