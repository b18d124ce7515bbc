"""Scalar kernels of the rider-choice revenue model.

These functions are the hot inner loop of every solve, sweep and oracle run;
``model`` and ``pricing`` reach the value, weighting and acceptance chain
only through them.

Model summary, with a best-case reference point R = u_high:

    w      = exp(-(-ln p)^alpha)                 rare/likely-event distortion
    U_s    = -lam * w * (u_high - u_low)^beta    subjective ride utility
    A_s    = -lam * (u_high - u_alt)^beta        subjective alternative utility
    p_s    = 1 / (1 + exp(A_s - U_s))            acceptance probability
    f      = gamma * p_s                         expected revenue per offer

where u_low = x_low + b*gamma, u_high = x_high + b*gamma, so the spread
D = x_high - x_low is tariff-independent and the loss of the alternative
relative to the reference is G = x_high + b*gamma - u_alt.
"""

import math

from cpt_sense.errors import InvalidScenarioError, SingularPointError

EXP_CLAMP = 700.0  # |exponent| cap before math.exp, avoids overflow


def prelec_weight(p, alpha):
    """Distorted probability exp(-(-ln p)^alpha), with w(0)=0 and w(1)=1.

    The endpoints are fixed by definition rather than evaluated, so no
    logarithm of zero is ever taken.
    """
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return math.exp(-((-math.log(p)) ** alpha))


def cpt_value(u, reference, beta, lam):
    """Reference-dependent subjective value of an objective utility.

    Gains (u >= reference) are valued as (u - reference)^beta, losses as
    -lam * (reference - u)^beta.  Exactly zero at u == reference.
    """
    if u >= reference:
        d = u - reference
        return 0.0 if d == 0.0 else d ** beta
    return -lam * (reference - u) ** beta


def rank_weights(p_worst, alpha, low_is_loss, high_is_gain):
    """Rank-dependent decision weights (w_low, w_high) for a two-point prospect.

    Outcomes below the reference take cumulative-distribution differences of
    the distorted probabilities, outcomes at or above it take decumulative
    differences.  The branch flags are resolved by the caller from the
    reference position.  The weights need not sum to one.
    """
    w_low = prelec_weight(p_worst, alpha) if low_is_loss \
        else 1.0 - prelec_weight(1.0 - p_worst, alpha)
    w_high = prelec_weight(1.0 - p_worst, alpha) if high_is_gain \
        else 1.0 - prelec_weight(p_worst, alpha)
    return w_low, w_high


def _stable_logistic(delta):
    """1 / (1 + exp(delta)) with the exponent clamped to +-EXP_CLAMP."""
    if delta > EXP_CLAMP:
        delta = EXP_CLAMP
    elif delta < -EXP_CLAMP:
        delta = -EXP_CLAMP
    return 1.0 / (1.0 + math.exp(delta))


def acceptance_from_utilities(u_low, u_high, u_alt, reference, alpha, beta, lam, p_worst):
    """Acceptance probability of the uncertain ride against the alternative.

    Full chain: rank-dependent weights and subjective values relative to
    ``reference``, then a logistic choice between the two subjective
    utilities, computed in the single-exponential form.
    """
    w_low, w_high = rank_weights(p_worst, alpha, u_low < reference, u_high >= reference)
    u_s = w_low * cpt_value(u_low, reference, beta, lam) \
        + w_high * cpt_value(u_high, reference, beta, lam)
    a_s = cpt_value(u_alt, reference, beta, lam)
    return _stable_logistic(a_s - u_s)


def bestcase_revenue(gamma, u0, x_low, x_high, b, alpha, beta, lam, p_worst):
    """Expected revenue gamma * p_s under the best-case reference, closed form.

    Raises InvalidScenarioError when the alternative beats the best ride
    outcome at this tariff (x_high + b*gamma - u0 < 0), which would put the
    loss-branch exponent on a negative base.
    """
    big_g = x_high + b * gamma - u0
    if big_g < 0.0:
        raise InvalidScenarioError(
            "alternative utility exceeds the best ride outcome at gamma=%r" % gamma)
    big_d = x_high - x_low
    w = prelec_weight(p_worst, alpha)
    z = lam * (w * big_d ** beta - big_g ** beta)
    return gamma * _stable_logistic(z)


def bestcase_revenue_gradient(gamma, u0, x_low, x_high, b, alpha, beta, lam, p_worst):
    """d/dgamma of bestcase_revenue, from the hand-derived closed form."""
    big_g = x_high + b * gamma - u0
    if big_g < 0.0:
        raise InvalidScenarioError(
            "alternative utility exceeds the best ride outcome at gamma=%r" % gamma)
    if big_g == 0.0 and beta < 1.0:
        raise SingularPointError(
            "(x_high + b*gamma - u0)**(beta-1) is singular at a zero base")
    big_d = x_high - x_low
    w = prelec_weight(p_worst, alpha)
    z = lam * (w * big_d ** beta - big_g ** beta)
    sig = _stable_logistic(z)
    s1 = -sig * (1.0 - sig)
    z_g = -lam * beta * b * big_g ** (beta - 1.0)
    return sig + gamma * s1 * z_g


def bestcase_partials(gamma, u0, x_low, x_high, b, alpha, beta, lam, p_worst):
    """All first and second partials of the best-case revenue f(gamma; theta).

    Returns a 15-tuple
        (f, f_g, f_gg,
         f_a, f_ga, f_aa,
         f_b, f_gb, f_bb,
         f_l, f_gl, f_ll,
         f_p, f_gp, f_pp)
    where subscripts g, a, b, l, p denote the tariff and the parameters
    alpha, beta (sensitivity exponent), lambda and the worst-outcome
    probability.  Derivation notes live in docs/derivatives.md.
    """
    big_g = x_high + b * gamma - u0
    if big_g < 0.0:
        raise InvalidScenarioError(
            "alternative utility exceeds the best ride outcome at gamma=%r" % gamma)
    if big_g == 0.0:
        raise SingularPointError(
            "log(x_high + b*gamma - u0) is singular at a zero base")
    big_d = x_high - x_low

    r = -math.log(p_worst)
    q = r ** alpha
    ln_r = math.log(r)
    w = math.exp(-q)

    d_be = big_d ** beta
    g_be = big_g ** beta
    ln_d = math.log(big_d) if big_d > 0.0 else 0.0  # D^beta ln D -> 0 with D
    ln_g = math.log(big_g)

    z = lam * (w * d_be - g_be)
    sig = _stable_logistic(z)
    s1 = -sig * (1.0 - sig)
    s2 = s1 * (2.0 * sig - 1.0)

    g_bem1 = big_g ** (beta - 1.0)
    z_g = -lam * beta * b * g_bem1
    z_gg = -lam * beta * (beta - 1.0) * b * b * big_g ** (beta - 2.0)

    w_a = -w * q * ln_r
    w_aa = w * q * ln_r * ln_r * (q - 1.0)
    w_p = w * alpha * r ** (alpha - 1.0) / p_worst
    w_pp = (alpha * w / (p_worst * p_worst)) * (
        alpha * r ** (2.0 * alpha - 2.0)
        - (alpha - 1.0) * r ** (alpha - 2.0)
        - r ** (alpha - 1.0))

    z_a = lam * d_be * w_a
    z_aa = lam * d_be * w_aa
    z_b = lam * (w * d_be * ln_d - g_be * ln_g)
    z_bb = lam * (w * d_be * ln_d * ln_d - g_be * ln_g * ln_g)
    z_l = w * d_be - g_be
    z_p = lam * d_be * w_p
    z_pp = lam * d_be * w_pp
    z_gb = -lam * b * g_bem1 * (1.0 + beta * ln_g)
    z_gl = -beta * b * g_bem1

    f = gamma * sig
    f_g = sig + gamma * s1 * z_g
    f_gg = 2.0 * s1 * z_g + gamma * (s2 * z_g * z_g + s1 * z_gg)

    def block(z_t, z_gt, z_tt):
        f_t = gamma * s1 * z_t
        f_gt = s1 * z_t + gamma * (s2 * z_g * z_t + s1 * z_gt)
        f_tt = gamma * (s2 * z_t * z_t + s1 * z_tt)
        return f_t, f_gt, f_tt

    f_a, f_ga, f_aa = block(z_a, 0.0, z_aa)
    f_b, f_gb, f_bb = block(z_b, z_gb, z_bb)
    f_l, f_gl, f_ll = block(z_l, z_gl, 0.0)
    f_p, f_gp, f_pp = block(z_p, 0.0, z_pp)

    return (f, f_g, f_gg,
            f_a, f_ga, f_aa,
            f_b, f_gb, f_bb,
            f_l, f_gl, f_ll,
            f_p, f_gp, f_pp)
