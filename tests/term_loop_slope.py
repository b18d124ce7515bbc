"""Reference revenue slope for the bit-identity tests of
``_core.revenue_evaluator``'s fused value-and-slope pass.

This is the evaluator's slope closure as it stood before the pass: one loop
over the terms that are not identically zero, each with its own power of
the base and its own branch coefficients.  The fused pass must return these
bits, and raise the same errors, at every tariff.
"""

import math

from cpt_sense._core import (
    EXP_CLAMP,
    _outside,
    _zero_bases,
    prelec_weight,
)
from cpt_sense.errors import SingularPointError


def term_loop_slope(u0, x_low, x_high, b, ref_c, ref_g, ref_p,
                    alpha, beta, lam, p_worst):
    """The tariff slope of the expected revenue under the reference line
    R = ref_c + ref_g*gamma + ref_p*p_worst, as a closure of the tariff."""
    w_p = prelec_weight(p_worst, alpha)
    w_q = prelec_weight(1.0 - p_worst, alpha)
    ref_pp = ref_p * p_worst
    alt_zero, low_zero, high_zero = _zero_bases(u0, x_low, x_high, b,
                                                ref_c, ref_g, ref_p)
    w_low_loss, w_low_gain = w_p, 1.0 - w_q
    w_high_gain, w_high_loss = w_q, 1.0 - w_p
    beta_1 = beta - 1.0
    singular = beta < 1.0
    # (index of the base, name, d base/d gamma, gain coefficient k and
    # k*beta, loss coefficient k*lam and k*lam*beta), with k = 1 for the
    # alternative and -w for a ride outcome
    terms = tuple(
        (i, name, d_g, k_g, k_g * beta, k_l * lam, k_l * lam * beta)
        for i, (name, d_g, zero, k_g, k_l) in enumerate((
            ("u0 - R", -ref_g, alt_zero, 1.0, 1.0),
            ("u_low - R", b - ref_g, low_zero, -w_low_gain, -w_low_loss),
            ("u_high - R", b - ref_g, high_zero, -w_high_gain, -w_high_loss)))
        if not zero)

    def slope(gamma):
        u_low = x_low + b * gamma
        u_high = x_high + b * gamma
        if not u_low <= u0 <= u_high:
            raise _outside(u0, u_low, u_high, gamma)
        reference = ref_c + ref_g * gamma + ref_pp
        ds = (u0 - reference, u_low - reference, u_high - reference)
        z = z_g = 0.0
        for i, name, d_g, k_g, k_gb, k_l, k_lb in terms:
            d = ds[i]
            if d >= 0.0:
                if d == 0.0 and singular:
                    raise SingularPointError(
                        "(%s)**(beta-1) is singular at a zero base, gamma=%r"
                        % (name, gamma))
                z += k_g * d ** beta
                z_g += k_gb * d ** beta_1 * d_g
            else:
                z -= k_l * (-d) ** beta
                z_g += k_lb * (-d) ** beta_1 * d_g
        if z > EXP_CLAMP:
            z = EXP_CLAMP
        elif z < -EXP_CLAMP:
            z = -EXP_CLAMP
        sig = 1.0 / (1.0 + math.exp(z))
        return sig - gamma * sig * (1.0 - sig) * z_g

    return slope
