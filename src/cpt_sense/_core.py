"""Scalar kernels of the rider-choice revenue model.

``model`` and ``pricing`` reach the value, weighting and acceptance chain
only through these functions.  The general chain,
``acceptance_from_utilities``, composes the primitives ``prelec_weight``,
``rank_weights``, ``cpt_value`` and ``_stable_logistic``, since no solve,
sweep or CLI path runs it; the timed kernels inline them (see the
hot-path contract below).  The primitives are the model's one public
value function, probability distortion and rank-dependent weighting:
they take plain floats and check nothing, and the tests check their
properties directly.

Model summary.  With u_low = x_low + b*gamma and u_high = x_high + b*gamma
the ride outcomes, u0 the certain alternative and R the reference,

    w(q)   = exp(-(-ln q)^alpha)                 rare/likely-event distortion
    v(d)   = d^beta (d >= 0), -lam*(-d)^beta     value of an outcome d = u - R
    z      = v(u0-R) - w_low*v(u_low-R) - w_high*v(u_high-R)
    p_s    = 1 / (1 + exp(z))                    acceptance probability
    f      = gamma * p_s                         expected revenue per offer

where w_low and w_high are the rank-dependent weights.  Every reference
policy puts R on a line R = ref_c + ref_g*gamma + ref_p*p_worst, so z has one
closed form per branch; ``revenue_evaluator`` and ``revenue_partials`` take
that line as input.  Under the best-case reference (R = u_high) z reduces to
lam*(w(p)*D^beta - G^beta) with the tariff-independent spread
D = x_high - x_low and G = x_high + b*gamma - u0, which the dedicated
best-case kernels evaluate directly.  ``bestcase_partials`` has no
caller in the package; the benchmark times and traces it.

Hot-path contract.  Each revenue value a solve counts is either a node
value or a value-closure call.  A solve evaluates its 9 start tariffs in
one pass, ``nodes(xs) -> (values, slopes)``, and each node it adds while
it bisects, and each polished root, in a one-node pass; the slopes steer
the search and the start values are the oracle's grid.  Every other
value (the oracle's golden steps) is one value-closure call.  The cell
bound, ``bound(a, b, f_a, f_b, level)``, reads the end values the nodes
gave and takes no value of its own.  Under the best-case reference each counted
value is one ``bestcase_revenue`` call, and the bound is the evaluator's
on the best-case line; under every other, the pass, the value closure and
the bound are those of ``revenue_evaluator``.  A node sums z once and
takes one logistic for its value and its slope; its value has the value
closure's bits and its slope the scalar slope's, since ``slope(gamma)``
is the one-node pass.  ``prelec_weight`` is cached per (p, alpha) with a
bound of ``PRELEC_CACHE_SIZE`` = 256 entries, so the best-case kernels
pay for w(p) once per rider rather than once per tariff.  The two best-case kernels inline the clamped logistic of
``_stable_logistic``, and the evaluator's value closure and node pass
inline it and the bases of ``_value_bases``, each in the same arithmetic
order, so a value costs one Python frame, a pass one frame for all its
nodes, and both return the same bits.
"""

import functools
import math

from cpt_sense.errors import InvalidScenarioError, SingularPointError

EXP_CLAMP = 700.0  # |exponent| cap before math.exp, avoids overflow
#: Bound of the per-(p, alpha) Prelec weight cache.  The rank weights ask
#: for w(p) and w(1-p), so 256 keys hold a cycle of 128 distinct (p, alpha).
PRELEC_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PRELEC_CACHE_SIZE)
def prelec_weight(p, alpha):
    """Distorted probability exp(-(-ln p)^alpha), with w(0)=0 and w(1)=1.

    The endpoints are fixed by definition rather than evaluated, so no
    logarithm of zero is ever taken.  Results are cached per (p, alpha): the
    weight depends on the rider's parameters only, while the best-case
    kernels ask for it at every tariff.
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
    utilities, computed in the single-exponential form.  It composes
    ``rank_weights``, ``cpt_value`` and ``_stable_logistic``, since no
    solve, sweep or CLI path calls it.  ``model.acceptance_probability``
    calls it once per call through this module's binding, so a wrapper
    installed here counts every acceptance the model computes.
    """
    w_low, w_high = rank_weights(p_worst, alpha, u_low < reference,
                                 u_high >= reference)
    return _stable_logistic(
        cpt_value(u_alt, reference, beta, lam)
        - (w_low * cpt_value(u_low, reference, beta, lam)
           + w_high * cpt_value(u_high, reference, beta, lam)))


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
    z = lam * (prelec_weight(p_worst, alpha) * (x_high - x_low) ** beta
               - big_g ** beta)
    # _stable_logistic(z), inlined
    if z > EXP_CLAMP:
        z = EXP_CLAMP
    elif z < -EXP_CLAMP:
        z = -EXP_CLAMP
    return gamma * (1.0 / (1.0 + math.exp(z)))


def bestcase_revenue_gradient(gamma, u0, x_low, x_high, b, alpha, beta, lam, p_worst):
    """d/dgamma of bestcase_revenue, from the hand-derived closed form."""
    big_g = x_high + b * gamma - u0
    if big_g < 0.0:
        raise InvalidScenarioError(
            "alternative utility exceeds the best ride outcome at gamma=%r" % gamma)
    if big_g == 0.0 and beta < 1.0:
        raise SingularPointError(
            "(x_high + b*gamma - u0)**(beta-1) is singular at a zero base")
    z = lam * (prelec_weight(p_worst, alpha) * (x_high - x_low) ** beta
               - big_g ** beta)
    # _stable_logistic(z), inlined
    if z > EXP_CLAMP:
        z = EXP_CLAMP
    elif z < -EXP_CLAMP:
        z = -EXP_CLAMP
    sig = 1.0 / (1.0 + math.exp(z))
    s1 = -sig * (1.0 - sig)
    z_g = -lam * beta * b * big_g ** (beta - 1.0)
    return sig + gamma * s1 * z_g


def _outside(u0, u_low, u_high, gamma):
    """The error for a u0 outside the ride outcomes [u_low, u_high]."""
    return InvalidScenarioError(
        "u0=%r outside the ride outcomes [%r, %r] at gamma=%r"
        % (u0, u_low, u_high, gamma))


def _singular(name, gamma):
    """The error for a base that vanishes where its slope term is singular."""
    return SingularPointError(
        "(%s)**(beta-1) is singular at a zero base, gamma=%r" % (name, gamma))


def _zero_bases(u0, x_low, x_high, b, ref_c, ref_g, ref_p):
    """Which bases are identically zero, as (alternative, worst, best): a
    base whose own line is the reference line.  Its term vanishes together
    with every partial."""
    flat = ref_p == 0.0
    return (flat and ref_g == 0.0 and u0 == ref_c,
            flat and ref_g == b and x_low == ref_c,
            flat and ref_g == b and x_high == ref_c)


def _value_bases(gamma, u0, x_low, x_high, b, ref_c, ref_g, ref_p, p_worst):
    """Bases (u0 - R, u_low - R, u_high - R) of the three value-function
    terms of z at one point, R = ref_c + ref_g*gamma + ref_p*p_worst.

    Returns (name, base, d base/d gamma, d base/d p_worst, identically zero)
    for the alternative, the worst and the best ride outcome, in that order.
    Raises InvalidScenarioError when u0 lies outside [u_low, u_high], where
    the choice set is trivial.
    """
    u_low = x_low + b * gamma
    u_high = x_high + b * gamma
    if not u_low <= u0 <= u_high:
        raise _outside(u0, u_low, u_high, gamma)
    reference = ref_c + ref_g * gamma + ref_p * p_worst
    alt_zero, low_zero, high_zero = _zero_bases(u0, x_low, x_high, b,
                                                ref_c, ref_g, ref_p)
    return (("u0 - R", u0 - reference, -ref_g, -ref_p, alt_zero),
            ("u_low - R", u_low - reference, b - ref_g, -ref_p, low_zero),
            ("u_high - R", u_high - reference, b - ref_g, -ref_p, high_zero))


def revenue_evaluator(u0, x_low, x_high, b, ref_c, ref_g, ref_p,
                      alpha, beta, lam, p_worst):
    """Expected revenue and its tariff slope under the reference line
    R = ref_c + ref_g*gamma + ref_p*p_worst, and a bound of the revenue on
    a tariff cell, as (value, slope, nodes, bound) closures:
    ``value(gamma)`` and ``slope(gamma)`` at one tariff, ``nodes(xs)`` the
    lists (values, slopes) at every tariff of ``xs`` in one pass, and
    ``bound(a, b, f_a, f_b, level)`` an upper bound of the revenue on
    [a, b] from the values at its ends, or ``level`` where a second-order
    test proves the revenue no higher (docs/derivatives.md, "The revenue
    bound of a cell"), valid when b < 0 and ref_g is 0 or b, as on every
    policy's line.

    Everything that does not depend on the tariff is computed here once:
    the distorted probabilities w(p) and w(1-p), the line's p-term, which
    bases are identically zero, and each branch's coefficients.  A node
    then forms the three bases once, picks each branch, sums z once, takes
    each term's m**(beta-1) for z_g, and takes one logistic
    sig = 1/(1 + exp(z)) for both the value gamma*sig and the slope
    sig - gamma*sig*(1 - sig)*z_g.

    The value evaluates z = v(u0-R) - (w_low*v(u_low-R) + w_high*v(u_high-R))
    in the order of ``acceptance_from_utilities``, so on a reference that
    ``model.resolve_reference`` computes to the same bits the two agree
    exactly; a node's value is ``value`` at that tariff, bit for bit.  The
    slope is the closed form of docs/derivatives.md on that z;
    ``slope(gamma)`` is the one-node pass ``nodes((gamma,))[1][0]``.

    All three raise InvalidScenarioError when u0 lies outside
    [u_low, u_high] at a tariff; the slope and the pass raise
    SingularPointError, naming the base, where a base that is not
    identically zero vanishes with beta < 1 and the slope is infinite.
    """
    w_p = prelec_weight(p_worst, alpha)
    w_q = prelec_weight(1.0 - p_worst, alpha)
    ref_pp = ref_p * p_worst
    alt_zero, low_zero, high_zero = _zero_bases(u0, x_low, x_high, b,
                                                ref_c, ref_g, ref_p)
    # rank weights by branch: the worst outcome below the reference takes
    # w(p), at or above it 1 - w(1-p); the best outcome at or above takes
    # w(1-p), below it 1 - w(p)
    w_low_loss, w_low_gain = w_p, 1.0 - w_q
    w_high_gain, w_high_loss = w_q, 1.0 - w_p
    neg_lam = -lam
    beta_1 = beta - 1.0
    singular = beta < 1.0
    # slope coefficients: a term k*v of z adds k*beta*m**(beta-1)*d_g to
    # z_g (k*lam*beta on a loss), with k = 1 for the alternative and -w
    # for a ride outcome; z is the value's own sum
    alt_g, ride_g = -ref_g, b - ref_g
    lam_beta = lam * beta
    low_gb, low_lb = -w_low_gain * beta, -w_low_loss * lam * beta
    high_gb, high_lb = -w_high_gain * beta, -w_high_loss * lam * beta

    # inlines _value_bases's bases and _stable_logistic, in their
    # arithmetic order, so that a call costs one Python frame: it takes
    # less than half the time of a one-node pass
    def value(gamma):
        u_low = x_low + b * gamma
        u_high = x_high + b * gamma
        if not u_low <= u0 <= u_high:
            raise _outside(u0, u_low, u_high, gamma)
        reference = ref_c + ref_g * gamma + ref_pp
        d_alt = u0 - reference
        d_low = u_low - reference
        d_high = u_high - reference
        a_s = 0.0
        if not alt_zero:
            a_s = d_alt ** beta if d_alt >= 0.0 else neg_lam * (-d_alt) ** beta
        u_s = 0.0
        if not low_zero:
            u_s = (w_low_gain * d_low ** beta if d_low >= 0.0
                   else w_low_loss * (neg_lam * (-d_low) ** beta))
        if not high_zero:
            u_s += (w_high_gain * d_high ** beta if d_high >= 0.0
                    else w_high_loss * (neg_lam * (-d_high) ** beta))
        z = a_s - u_s
        if z > EXP_CLAMP:
            z = EXP_CLAMP
        elif z < -EXP_CLAMP:
            z = -EXP_CLAMP
        return gamma * (1.0 / (1.0 + math.exp(z)))

    # one loop in one frame: a per-node call would cost a frame per node
    def nodes(xs):
        values = []
        slopes = []
        for gamma in xs:
            u_low = x_low + b * gamma
            u_high = x_high + b * gamma
            if not u_low <= u0 <= u_high:
                raise _outside(u0, u_low, u_high, gamma)
            reference = ref_c + ref_g * gamma + ref_pp
            # a_s and u_s as in value; z_g the slope of z
            a_s = u_s = z_g = 0.0
            if not alt_zero:
                d = u0 - reference
                if d >= 0.0:
                    if d == 0.0 and singular:
                        raise _singular("u0 - R", gamma)
                    a_s = d ** beta
                    z_g = beta * d ** beta_1 * alt_g
                else:
                    a_s = neg_lam * (-d) ** beta
                    z_g = lam_beta * (-d) ** beta_1 * alt_g
            if not low_zero:
                d = u_low - reference
                if d >= 0.0:
                    if d == 0.0 and singular:
                        raise _singular("u_low - R", gamma)
                    u_s = w_low_gain * d ** beta
                    z_g += low_gb * d ** beta_1 * ride_g
                else:
                    u_s = w_low_loss * (neg_lam * (-d) ** beta)
                    z_g += low_lb * (-d) ** beta_1 * ride_g
            if not high_zero:
                d = u_high - reference
                if d >= 0.0:
                    if d == 0.0 and singular:
                        raise _singular("u_high - R", gamma)
                    u_s += w_high_gain * d ** beta
                    z_g += high_gb * d ** beta_1 * ride_g
                else:
                    u_s += w_high_loss * (neg_lam * (-d) ** beta)
                    z_g += high_lb * (-d) ** beta_1 * ride_g
            z = a_s - u_s
            if z > EXP_CLAMP:
                z = EXP_CLAMP
            elif z < -EXP_CLAMP:
                z = -EXP_CLAMP
            sig = 1.0 / (1.0 + math.exp(z))
            values.append(gamma * sig)
            slopes.append(sig - gamma * sig * (1.0 - sig) * z_g)
        return values, slopes

    def slope(gamma):
        return nodes((gamma,))[1][0]

    # the terms of z whose base moves with the tariff, as (base offset,
    # base tariff coefficient, branch data at d > 0, branch data at d < 0);
    # a branch holds (convex, c*beta*m_g, c) for the term c*m**beta with
    # m = |d|, and c*m_g >= 0 on both, since b < 0 and ref_g is 0 or b
    # make every term non-decreasing in the tariff
    convex_at = beta_1 >= 0.0
    moving = []
    if not alt_zero and alt_g != 0.0:
        moving.append((u0, 0.0, (convex_at, beta * alt_g, 1.0),
                       (not convex_at, lam_beta * alt_g, neg_lam)))
    if ride_g != 0.0:
        for zero, x, w_gain, w_loss in ((low_zero, x_low, w_low_gain,
                                         w_low_loss),
                                        (high_zero, x_high, w_high_gain,
                                         w_high_loss)):
            if not zero:
                moving.append((x, b, (not convex_at, -w_gain * beta * ride_g,
                                      -w_gain),
                               (convex_at, -w_loss * lam_beta * ride_g,
                                w_loss * lam)))

    def bound(a, b_, f_a, f_b, level):
        """An upper bound of the revenue on the cell [a, b_] from its end
        values; the free bound f_a*b_/a when that is already <= level.

        The acceptance S = f/gamma never rises with the tariff, so a cell
        at gamma <= 0 is bounded by f_b, and f <= gamma*S(a) elsewhere.
        The tight bound takes a line under each moving term from either
        end (tangent where the term is convex, chord where concave, and
        ``_crossing_slopes`` where its base vanishes in the cell), and
        bounds the log-concave gamma*sigma(-z_lower) by its end tangents
        (docs/derivatives.md, "The revenue bound of a cell").  Where that
        first-order bound exceeds ``level`` > 0, the cell starts above
        ``level``, and no moving base vanishes in it, the second-order
        test ``convex_gap`` may still prove the revenue <= ``level``; the
        bound then returns ``level``.  Neither takes a revenue value.
        """
        if b_ <= 0.0:
            return f_b
        if a <= 0.0:
            return b_ if a == 0.0 else b_ * (f_a / a)
        free = f_a * b_ / a
        if free <= level:
            return free
        w = b_ - a
        r_a = ref_c + ref_g * a + ref_pp
        r_b = ref_c + ref_g * b_ + ref_pp
        k_a = k_b = 0.0
        anchored = True
        for x, x_g, gain, loss in moving:
            d_a = x + x_g * a - r_a
            d_b = x + x_g * b_ - r_b
            if d_a > 0.0 and d_b > 0.0:
                (convex, tan, c), m_a, m_b = gain, d_a, d_b
            elif d_a < 0.0 and d_b < 0.0:
                (convex, tan, c), m_a, m_b = loss, -d_a, -d_b
            else:
                # the base vanishes in the cell, between a convex and a
                # concave piece (docs/derivatives.md)
                k_ta, k_tb, anchored_t = _crossing_slopes(
                    d_a, d_b, w, gain if d_a >= 0.0 else loss,
                    gain if d_b >= 0.0 else loss, beta)
                k_a += k_ta
                k_b += k_tb
                anchored = anchored and anchored_t
                continue
            if convex:
                k_a += tan * m_a ** beta_1
                k_b += tan * m_b ** beta_1
            else:
                chord = c * (m_b ** beta - m_a ** beta) / w
                k_a += chord
                k_b += chord
        # end slopes of log(gamma*sigma(-z_lower)); sigma(z) = 1 - f/gamma
        h_a = 1.0 / a - k_a * (1.0 - f_a / a)
        if anchored:
            g_b = f_b
            h_b = 1.0 / b_ - k_b * (1.0 - f_b / b_)
        else:
            # e^z_lower(b) from the line through a; e^z(a) = a/f_a - 1,
            # lowered by 1e-15 of a/f_a for the rounding of f_a
            e_b = ((a / f_a) * (1.0 - 1e-15) - 1.0) * math.exp(
                min(k_a * w, EXP_CLAMP))
            g_b = b_ / (1.0 + e_b)
            h_b = 1.0 / b_ - k_a * (e_b / (1.0 + e_b))
        if h_b >= 0.0:
            u = g_b
        elif h_a <= 0.0:
            u = f_a
        elif g_b > 0.0 and f_a > 0.0:
            u = f_a * math.exp(h_a * (math.log(g_b / f_a) - h_b * w)
                               / (h_a - h_b))
        else:  # the bound underflows at an end: the tangent at a alone
            u = f_a * math.exp(h_a * w)
        if not u < free:  # also a non-finite u, from a base next to zero
            u = free
        u = max(u, f_a, f_b)
        if u > level > 0.0 and a > level and convex_gap(a, b_, f_a, f_b,
                                                        level):
            return level
        return u

    def convex_gap(a, b_, f_a, f_b, level):
        """Whether phi = z - log(gamma/level - 1) is proven >= 0 on
        [a, b_], 0 < level < a, so that the revenue stays <= level there:
        a floor of phi'' shows phi convex, and its end tangents and end
        quadratics stay at or above 0 on the cell.  Each rounding counts
        against closing the cell."""
        w = b_ - a
        r_a = ref_c + ref_g * a + ref_pp
        r_b = ref_c + ref_g * b_ + ref_pp
        z_a = z_b = curv = scale = 0.0
        for x, x_g, gain, loss in moving:
            d_a = x + x_g * a - r_a
            d_b = x + x_g * b_ - r_b
            if d_a > 0.0 and d_b > 0.0:
                tan, m_a, m_b = gain[1], d_a, d_b
            elif d_a < 0.0 and d_b < 0.0:
                tan, m_a, m_b = loss[1], -d_a, -d_b
            else:  # the base vanishes in the cell
                return False
            # the term's slope T' at either end, and T'' = T'*(beta-1)*
            # d_g/d, monotone in the tariff on one branch
            t_a = tan * m_a ** beta_1
            t_b = tan * m_b ** beta_1
            z_a += t_a
            z_b += t_b
            k = beta_1 * (x_g - ref_g)
            least = min(t_a * k / d_a, t_b * k / d_b)
            curv += least
            scale += abs(least)
        g_a = 1.0 / (a - level)
        g_b = 1.0 / (b_ - level)
        # phi'' = z'' + 1/(gamma - level)**2 >= kappa on the cell
        kappa = curv + g_b * g_b - 1e-14 * (scale + g_b * g_b)
        if kappa < 0.0:
            return False
        # phi at the ends from e^z = gamma/f - 1, lowered by 1e-15 for the
        # rounding of f and raised by 1e-15 for that of gamma/level
        e_a = (a / f_a) * (1.0 - 1e-15) - 1.0
        e_b = (b_ / f_b) * (1.0 - 1e-15) - 1.0
        if not (e_a > 0.0 and e_b > 0.0):
            return False
        phi_a = math.log(e_a / ((a / level) * (1.0 + 1e-15) - 1.0))
        phi_b = math.log(e_b / ((b_ / level) * (1.0 + 1e-15) - 1.0))
        p_a = z_a - g_a
        p_b = z_b - g_b
        low = max(_valley(phi_a, p_a, kappa, w),
                  _valley(phi_b, -p_b, kappa, w))
        if p_a < 0.0 < p_b:  # where the end tangents meet
            low = max(low, phi_a + p_a * (phi_b - phi_a - p_b * w)
                      / (p_a - p_b))
        slack = 1e-14 * (abs(phi_a) + abs(phi_b)
                         + (abs(z_a) + g_a + abs(z_b) + g_b) * w)
        return min(low, phi_a, phi_b) >= slack

    return value, slope, nodes, bound


def _valley(phi, slope, kappa, w):
    """The least of phi + slope*t + kappa*t**2/2 over 0 <= t <= w."""
    if slope >= 0.0:
        return phi
    if kappa * w <= -slope:
        return phi + w * (slope + 0.5 * kappa * w)
    return phi - 0.5 * slope * slope / kappa


def _crossing_slopes(d_a, d_b, w, branch_a, branch_b, beta):
    """Slopes (from a, from b, whether the line from b holds) of lines
    under a non-decreasing term c*|d|**beta whose base d vanishes in a
    cell of width w, from the branch data (convex, c*beta*m_g, c) at
    either end.

    Across its zero the term is convex then concave for beta < 1 (its
    slope infinite at the zero), concave then convex for beta > 1 (its
    slope 0 there) and two linear pieces for beta = 1.  For beta < 1 the
    smaller of the tangent at a and the chord stays under it, and no line
    through b does; for beta > 1, the line from a to the zero's value 0
    at b, and through b the larger end slope; for beta = 1, the two pieces
    at a convex kink and the chord at a concave one.
    """
    m_a, m_b = abs(d_a), abs(d_b)
    t_a = branch_a[2] * m_a ** beta
    t_b = branch_b[2] * m_b ** beta
    chord = (t_b - t_a) / w
    if beta < 1.0:
        if m_a == 0.0:
            return chord, chord, False
        return min(branch_a[1] * m_a ** (beta - 1.0), chord), 0.0, False
    if beta > 1.0:
        return (-t_a / w, max(branch_a[1] * m_a ** (beta - 1.0),
                              branch_b[1] * m_b ** (beta - 1.0)), True)
    if branch_b[1] >= branch_a[1]:
        return branch_a[1], branch_b[1], True
    return chord, chord, True


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
