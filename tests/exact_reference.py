"""The paper's exact optimum at beta = 1 under the best-case reference, at
50 digits, as a reference for ``solve`` and ``differentials`` that shares no
code with the package.

Under the best-case reference R = u_high, z = lam*(w(p)*D**beta - G**beta)
with D = x_high - x_low and G = x_high + b*gamma - u0 (docs/derivatives.md,
"The best-case specialisation").  At beta = 1 z is affine in the tariff,

    z = c + k*gamma,   k = -lam*b > 0,   c = lam*(w(p)*D - x_high + u0),

so f = gamma/(1 + e**z) is log-concave, and f_g = 0 reads
(k*gamma - 1)*e**(k*gamma - 1) = e**-(c+1).  Its one stationary point is

    gamma* = (1 + W(e**-(c+1)))/k

with W the principal branch of Lambert's W (Corless et al. 1996), and the
optimum over the box is gamma* clamped to it.  ``mpmath.diff`` of the
unclamped gamma* gives dgamma*/dtheta for alpha, lambda and p, the
differentials of an interior optimum.
"""

import mpmath as mp

DIGITS = 50


def _line(s, alpha, lam, p):
    """(c, k) of z = c + k*gamma, as mpf."""
    w = mp.exp(-(-mp.log(p)) ** alpha)
    k = -lam * mp.mpf(s.b_sm)
    c = lam * (w * (mp.mpf(s.x_high) - s.x_low) - s.x_high + s.u0)
    return c, k


def _stationary(c, k):
    """The unclamped stationary tariff (1 + W(e**-(c+1)))/k."""
    return (1 + mp.lambertw(mp.exp(-(c + 1)))).real / k


def exact_optimum(s, alpha, lam, p):
    """(gamma*, f*, interior) of the best-case revenue at beta = 1 over the
    box of scenario ``s``, gamma* and f* as mpf at ``DIGITS`` digits."""
    with mp.workdps(DIGITS):
        c, k = _line(s, mp.mpf(alpha), mp.mpf(lam), mp.mpf(p))
        gamma = _stationary(c, k)
        interior = s.gamma_min < gamma < s.gamma_max
        gamma = min(max(gamma, mp.mpf(s.gamma_min)), mp.mpf(s.gamma_max))
        return gamma, gamma / (1 + mp.exp(c + k * gamma)), interior


def exact_dgamma(s, alpha, lam, p):
    """dgamma*/dtheta of the interior optimum, as a dict of mpf over
    ``alpha``, ``lambda`` and ``p``."""
    with mp.workdps(DIGITS):
        theta = {"alpha": mp.mpf(alpha), "lambda": mp.mpf(lam),
                 "p": mp.mpf(p)}

        def along(name):
            return lambda t: _stationary(*_line(s, *(
                t if n == name else v for n, v in theta.items())))

        return {name: mp.diff(along(name), t) for name, t in theta.items()}
