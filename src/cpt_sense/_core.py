"""Scalar kernels of the rider-choice revenue model.

These functions are the hot inner loop of every solve, sweep and oracle run;
``model`` and ``pricing`` reach the value, weighting and acceptance chain
only through them.

Model summary.  With u_low = x_low + b*gamma and u_high = x_high + b*gamma
the ride outcomes, u0 the certain alternative and R the reference,

    w(q)   = exp(-(-ln q)^alpha)                 rare/likely-event distortion
    v(d)   = d^beta (d >= 0), -lam*(-d)^beta     value of an outcome d = u - R
    z      = v(u0-R) - w_low*v(u_low-R) - w_high*v(u_high-R)
    p_s    = 1 / (1 + exp(z))                    acceptance probability
    f      = gamma * p_s                         expected revenue per offer

where w_low and w_high are the rank-dependent weights.  Every reference
policy puts R on a line R = ref_c + ref_g*gamma + ref_p*p_worst, so z has one
closed form per branch; ``revenue_slope`` and ``revenue_partials`` take that
line as input.  Under the best-case reference (R = u_high) z reduces to
lam*(w(p)*D^beta - G^beta) with the tariff-independent spread
D = x_high - x_low and G = x_high + b*gamma - u0, which the dedicated
best-case kernels evaluate directly.
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


def _value_bases(gamma, u0, x_low, x_high, b, ref_c, ref_g, ref_p, p_worst):
    """Bases u - R of the three value-function terms of z at one point.

    The reference is the line R = ref_c + ref_g*gamma + ref_p*p_worst.
    Returns (name, base, d base/d gamma, d base/d p_worst, identically zero)
    for the alternative, the worst and the best ride outcome, in that order.
    A base is identically zero when its own line is the reference line; its
    term then vanishes together with every partial.

    Raises InvalidScenarioError when u0 lies outside [u_low, u_high], where
    the choice set is trivial.
    """
    u_low = x_low + b * gamma
    u_high = x_high + b * gamma
    if not u_low <= u0 <= u_high:
        raise InvalidScenarioError(
            "u0=%r outside the ride outcomes [%r, %r] at gamma=%r"
            % (u0, u_low, u_high, gamma))
    reference = ref_c + ref_g * gamma + ref_p * p_worst
    flat = ref_p == 0.0
    return (("u0 - R", u0 - reference, -ref_g, -ref_p,
             flat and ref_g == 0.0 and u0 == ref_c),
            ("u_low - R", u_low - reference, b - ref_g, -ref_p,
             flat and ref_g == b and x_low == ref_c),
            ("u_high - R", u_high - reference, b - ref_g, -ref_p,
             flat and ref_g == b and x_high == ref_c))


def revenue_slope(gamma, u0, x_low, x_high, b, ref_c, ref_g, ref_p,
                  alpha, beta, lam, p_worst):
    """d/dgamma of the expected revenue under the reference line
    R = ref_c + ref_g*gamma + ref_p*p_worst, in closed form.

    Raises:
        InvalidScenarioError: u0 outside [u_low, u_high] at gamma.
        SingularPointError: a base that is not identically zero vanishes
            with beta < 1, where the slope is infinite; names the base.
    """
    alt, low, high = _value_bases(gamma, u0, x_low, x_high, b,
                                  ref_c, ref_g, ref_p, p_worst)
    w_low, w_high = rank_weights(p_worst, alpha, low[1] < 0.0, high[1] >= 0.0)
    z = z_g = 0.0
    for (name, d, d_g, _, zero), k in ((alt, 1.0), (low, -w_low),
                                       (high, -w_high)):
        if zero:
            continue
        if d == 0.0 and beta < 1.0:
            raise SingularPointError(
                "(%s)**(beta-1) is singular at a zero base, gamma=%r"
                % (name, gamma))
        if d >= 0.0:
            z += k * d ** beta
            z_g += k * beta * d ** (beta - 1.0) * d_g
        else:
            z -= k * lam * (-d) ** beta
            z_g += k * lam * beta * (-d) ** (beta - 1.0) * d_g
    sig = _stable_logistic(z)
    return sig - gamma * sig * (1.0 - sig) * z_g


def _prelec_partials(q, alpha):
    """Prelec weight w(q) and its partials: (w, w_a, w_aa, w_q, w_qq)."""
    r = -math.log(q)
    r_a = r ** alpha
    ln_r = math.log(r)
    w = math.exp(-r_a)
    return (w,
            -w * r_a * ln_r,
            w * r_a * ln_r * ln_r * (r_a - 1.0),
            w * alpha * r ** (alpha - 1.0) / q,
            (alpha * w / (q * q)) * (alpha * r ** (2.0 * alpha - 2.0)
                                     - (alpha - 1.0) * r ** (alpha - 2.0)
                                     - r ** (alpha - 1.0)))


def revenue_partials(gamma, u0, x_low, x_high, b, ref_c, ref_g, ref_p,
                     alpha, beta, lam, p_worst):
    """All first and second partials of the expected revenue f(gamma; theta)
    under the reference line R = ref_c + ref_g*gamma + ref_p*p_worst.

    Returns a 15-tuple
        (f, f_g, f_gg,
         f_a, f_ga, f_aa,
         f_b, f_gb, f_bb,
         f_l, f_gl, f_ll,
         f_p, f_gp, f_pp)
    where subscripts g, a, b, l, p denote the tariff and the parameters
    alpha, beta (sensitivity exponent), lambda and the worst-outcome
    probability.  Derivation notes live in docs/derivatives.md.

    Raises:
        InvalidScenarioError: u0 outside [u_low, u_high] at gamma.
        SingularPointError: a base that is not identically zero vanishes;
            the message names the base.
    """
    alt, low, high = _value_bases(gamma, u0, x_low, x_high, b,
                                  ref_c, ref_g, ref_p, p_worst)
    # z coefficients -w_low and -w_high with their alpha and p partials,
    # as (k, k_a, k_aa, k_p, k_pp); w(1-p) moves against p
    w0, w0_a, w0_aa, w0_q, w0_qq = _prelec_partials(p_worst, alpha)
    w1, w1_a, w1_aa, w1_q, w1_qq = _prelec_partials(1.0 - p_worst, alpha)
    k_low = ((-w0, -w0_a, -w0_aa, -w0_q, -w0_qq) if low[1] < 0.0
             else (w1 - 1.0, w1_a, w1_aa, -w1_q, w1_qq))
    k_high = ((-w1, -w1_a, -w1_aa, w1_q, -w1_qq) if high[1] >= 0.0
              else (w0 - 1.0, w0_a, w0_aa, w0_q, w0_qq))

    z = z_g = z_gg = z_a = z_ga = z_aa = z_b = z_gb = z_bb = 0.0
    z_l = z_gl = z_p = z_gp = z_pp = 0.0
    for (name, d, d_g, d_p, zero), (k, k_a, k_aa, k_p, k_pp) in (
            (alt, (1.0, 0.0, 0.0, 0.0, 0.0)), (low, k_low), (high, k_high)):
        if zero:
            continue
        if d == 0.0:
            raise SingularPointError(
                "log(%s) is singular at a zero base, gamma=%r" % (name, gamma))
        # v = kap * m**beta with m = |d|; kap_l = d kap / d lambda
        if d > 0.0:
            m, m_g, m_p, kap, kap_l = d, d_g, d_p, 1.0, 0.0
        else:
            m, m_g, m_p, kap, kap_l = -d, -d_g, -d_p, -lam, -1.0
        ln_m = math.log(m)
        m_be = m ** beta
        m_be1 = m ** (beta - 1.0)
        v = kap * m_be
        v_m = kap * beta * m_be1
        v_mm = kap * beta * (beta - 1.0) * m ** (beta - 2.0)
        v_g, v_p = v_m * m_g, v_m * m_p
        v_gb = kap * m_be1 * (1.0 + beta * ln_m) * m_g

        z += k * v
        z_g += k * v_g
        z_gg += k * v_mm * m_g * m_g
        z_a += k_a * v
        z_ga += k_a * v_g
        z_aa += k_aa * v
        z_b += k * v * ln_m
        z_gb += k * v_gb
        z_bb += k * v * ln_m * ln_m
        z_l += k * kap_l * m_be
        z_gl += k * kap_l * beta * m_be1 * m_g
        z_p += k_p * v + k * v_p
        z_gp += k_p * v_g + k * v_mm * m_g * m_p
        z_pp += k_pp * v + 2.0 * k_p * v_p + k * v_mm * m_p * m_p

    # 1 - sig from its own exponential: the difference loses every digit of
    # a sig near 1, and all second partials scale with it
    sig, sig_c = _stable_logistic(z), _stable_logistic(-z)
    s1 = -sig * sig_c
    s2 = s1 * (sig - sig_c)

    f = gamma * sig
    f_g = sig + gamma * s1 * z_g
    f_gg = 2.0 * s1 * z_g + gamma * (s2 * z_g * z_g + s1 * z_gg)

    def block(z_t, z_gt, z_tt):
        f_t = gamma * s1 * z_t
        f_gt = s1 * z_t + gamma * (s2 * z_g * z_t + s1 * z_gt)
        f_tt = gamma * (s2 * z_t * z_t + s1 * z_tt)
        return f_t, f_gt, f_tt

    f_a, f_ga, f_aa = block(z_a, z_ga, z_aa)
    f_b, f_gb, f_bb = block(z_b, z_gb, z_bb)
    f_l, f_gl, f_ll = block(z_l, z_gl, 0.0)
    f_p, f_gp, f_pp = block(z_p, z_gp, z_pp)

    return (f, f_g, f_gg,
            f_a, f_ga, f_aa,
            f_b, f_gb, f_bb,
            f_l, f_gl, f_ll,
            f_p, f_gp, f_pp)


def bestcase_partials(gamma, u0, x_low, x_high, b, alpha, beta, lam, p_worst):
    """``revenue_partials`` on the best-case reference line R = u_high."""
    return revenue_partials(gamma, u0, x_low, x_high, b, x_high, b, 0.0,
                            alpha, beta, lam, p_worst)
