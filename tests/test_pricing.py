"""Unit tests for the tariff optimizer, KKT diagnostics, Lagrangian partials
and the concavity certificate."""

import dataclasses
import logging
import math
import random
import re

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpt_sense import (
    BEST_CASE,
    ActiveSet,
    BinaryProspect,
    CptParams,
    InvalidScenarioError,
    NOMINAL_PARAMS,
    SingularPointError,
    PARAM_NAMES,
    PolicyKind,
    TravelScenario,
    ReferencePolicy,
    _core,
    central_derivative,
    concavity_certificate,
    expected_revenue,
    generate_random,
    kkt_residuals,
    lagrangian_derivatives,
    reference_line,
    resolve_reference,
    revenue_function,
    solve,
    utilities_at,
)
from cpt_sense.cli import main
from cpt_sense.pricing import KKT_TOL

# frozen from an independent dense-grid + golden-section oracle run
ORACLE = {
    "S1": (6.3362963085860295, 0.5853500298875536, "interior"),
    "S2": (10.540591242944569, 2.8863559720568084, "interior"),
    "S3": (7.411326067367941, 6.236465119964851, "interior"),
    "S4": (2.9969419622145086, 0.6543219293300764, "interior"),
    "S5": (7.92, 0.3072422990605357, "upper"),
}
S5_MU_HIGH = 0.02178420277498816  # revenue slope at the S5 upper bound
# valid while u_low <= u0 <= u_high, i.e. for gamma in [-10, 2]: the tariff
# box ends on the edge gamma = 2, where u0 = u_high
EDGE = TravelScenario("edge", u0=5.0, x_low=0.0, x_high=6.0, b_sm=-0.5,
                      gamma_min=0.5, gamma_max=2.0)


class TestSolve:
    def test_fixture_optima_match_oracle(self, scenarios):
        for s in scenarios:
            g_ref, f_ref, active_ref = ORACLE[s.label]
            opt = solve(s, NOMINAL_PARAMS)
            assert abs(opt.gamma_star - g_ref) <= 2e-5, s.label
            assert opt.f_star == pytest.approx(f_ref, rel=1e-9)
            assert opt.active.value == active_ref

    def test_s5_pinned_with_positive_multiplier(self, s5):
        opt = solve(s5, NOMINAL_PARAMS)
        assert opt.active is ActiveSet.UPPER_BOUND
        assert opt.mu_high == pytest.approx(S5_MU_HIGH, abs=1e-7)
        assert opt.mu_low == 0.0
        assert not opt.degenerate

    def test_monotone_revenue_pins_upper_bound(self):
        # weak tariff disutility and mild loss aversion keep revenue rising
        s = TravelScenario("mono", u0=1.0, x_low=-5.0, x_high=9.0,
                           b_sm=-0.02, gamma_min=1.0, gamma_max=4.0)
        mild = CptParams(alpha=0.9, beta=0.8, lam=1.1, p_worst=0.5)
        opt = solve(s, mild)
        assert opt.active is ActiveSet.UPPER_BOUND
        assert opt.gamma_star == s.gamma_max
        assert opt.mu_high > 0.0

    def test_interior_box_tightening_invariance(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        eps = 0.05 * s1.gamma_span
        tight = dataclasses.replace(s1, gamma_min=opt.gamma_star - eps,
                                    gamma_max=opt.gamma_star + eps)
        opt2 = solve(tight, NOMINAL_PARAMS)
        assert opt2.gamma_star == pytest.approx(opt.gamma_star, abs=1e-8)

    def test_complementary_slackness(self, scenarios):
        for s in scenarios:
            opt = solve(s, NOMINAL_PARAMS)
            assert opt.mu_low * (s.gamma_min - opt.gamma_star) == \
                pytest.approx(0.0, abs=1e-8)
            assert opt.mu_high * (opt.gamma_star - s.gamma_max) == \
                pytest.approx(0.0, abs=1e-8)
            assert min(opt.mu_low, opt.mu_high) == 0.0
            assert s.gamma_min <= opt.gamma_star <= s.gamma_max

    def test_oracle_cross_check_recorded(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        assert abs(opt.gamma_star - opt.gamma_oracle) <= 2 * s1.gamma_span / 64
        assert opt.evaluations > 64

    def test_degenerate_marker_on_grazing_bound(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        grazing = dataclasses.replace(s1, gamma_max=opt.gamma_star)
        opt2 = solve(grazing, NOMINAL_PARAMS)
        assert opt2.active is ActiveSet.UPPER_BOUND
        assert opt2.degenerate
        assert opt2.mu_high < 1e-6

    def test_worst_case_policy_solvable(self, s1):
        opt = solve(s1, NOMINAL_PARAMS, ReferencePolicy.worst_case())
        assert s1.gamma_min <= opt.gamma_star <= s1.gamma_max
        assert opt.kkt_residual <= KKT_TOL

    def test_random_scenarios_accepted(self):
        for s in generate_random(count=30, seed=17):
            opt = solve(s, NOMINAL_PARAMS)
            assert opt.kkt_residual <= KKT_TOL, s.label

    @pytest.mark.parametrize("policy", [ReferencePolicy.expected_utility(),
                                        ReferencePolicy.worst_case()],
                             ids=["expected", "worst"])
    def test_box_ending_on_validity_edge(self, policy):
        # neither reference meets u0 on the edge, so the slope is finite there
        opt = solve(EDGE, NOMINAL_PARAMS, policy)
        assert opt.active is ActiveSet.UPPER_BOUND
        assert opt.gamma_star == EDGE.gamma_max and opt.mu_high > 0.0
        assert opt.kkt_residual <= KKT_TOL
        dense = max(expected_revenue(EDGE.gamma_min + EDGE.gamma_span * i / 4000,
                                     EDGE, NOMINAL_PARAMS, policy)
                    for i in range(4001))
        assert opt.f_star >= dense

    @pytest.mark.parametrize("policy", [ReferencePolicy.static_alternative(),
                                        BEST_CASE], ids=["static", "best"])
    def test_box_ending_on_singular_edge(self, policy):
        # the reference meets u0 on the edge: with beta < 1 the slope is -inf
        with pytest.raises(SingularPointError, match="singular"):
            solve(EDGE, NOMINAL_PARAMS, policy)


class TestKktResiduals:
    def test_accepted_solutions_within_gate(self, scenarios):
        for s in scenarios:
            opt = solve(s, NOMINAL_PARAMS)
            res = kkt_residuals(opt, s, NOMINAL_PARAMS)
            assert res.max_residual <= KKT_TOL, s.label
            assert res.passed()

    def test_negative_multiplier_flagged(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        tampered = dataclasses.replace(opt, mu_low=-1.0)
        res = kkt_residuals(tampered, s1, NOMINAL_PARAMS)
        assert res.dual_lower_violation == 1.0
        assert not res.passed()

    def test_interior_stationarity_by_finite_difference(self, scenarios):
        for s in scenarios:
            opt = solve(s, NOMINAL_PARAMS)
            if opt.active is not ActiveSet.INTERIOR:
                continue
            f = revenue_function(s, NOMINAL_PARAMS)
            h = 1e-6
            slope = (f(opt.gamma_star + h) - f(opt.gamma_star - h)) / (2 * h)
            assert abs(slope) <= 1e-7


def mp_revenue(s, policy, gamma, alpha, beta, lam, p):
    """Expected revenue in mpmath, from the policy's own reference level.

    An independent transcription of the acceptance chain: the reference
    comes from the policy's definition, not from ``reference_line``, and the
    rank-dependent branches are chosen at the point itself.
    """
    u0 = mp.mpf(s.u0)
    u_low = s.x_low + s.b_sm * gamma
    u_high = s.x_high + s.b_sm * gamma
    reference = {
        PolicyKind.STATIC_ALTERNATIVE: lambda: u0,
        PolicyKind.EXPECTED_UTILITY: lambda: p * u_low + (1 - p) * u_high,
        PolicyKind.BEST_CASE: lambda: u_high,
        PolicyKind.WORST_CASE: lambda: u_low,
        PolicyKind.FIXED_VALUE: lambda: mp.mpf(policy.level),
    }[policy.kind]()

    def w(q):
        return mp.exp(-(-mp.log(q)) ** alpha)

    def v(u):
        d = u - reference
        return d ** beta if d >= 0 else -lam * (-d) ** beta

    w_low = w(p) if u_low < reference else 1 - w(1 - p)
    w_high = w(1 - p) if u_high >= reference else 1 - w(p)
    z = v(u0) - w_low * v(u_low) - w_high * v(u_high)
    return gamma / (1 + mp.exp(z))


def mp_partials(s, policy, gamma, params):
    """The 15 revenue partials in the kernel's order, by mpmath at 30 digits."""
    with mp.workdps(30):
        x = [mp.mpf(gamma)] + [mp.mpf(params.get(n)) for n in PARAM_NAMES]

        def f(*args):
            return mp_revenue(s, policy, *args)

        def d(*orders):
            return float(mp.diff(f, x, orders))

        out = [float(f(*x)), d(1, 0, 0, 0, 0), d(2, 0, 0, 0, 0)]
        for i in range(1, 5):
            first, mixed, second = [0] * 5, [1, 0, 0, 0, 0], [0] * 5
            first[i], mixed[i], second[i] = 1, 1, 2
            out += [d(*first), d(*mixed), d(*second)]
    return out


def kernel_partials(s, policy, gamma, params):
    """The 15 revenue partials of the closed-form kernel."""
    return _core.revenue_partials(
        gamma, s.u0, s.x_low, s.x_high, s.b_sm, *reference_line(policy, s),
        params.alpha, params.beta, params.lam, params.p_worst)


def assert_partials_match(got, want, rel=1e-7):
    # a partial that cancels to ~0 is compared on the scale of the largest
    floor = 1e-9 * max(abs(v) for v in want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= rel * max(abs(b), floor), (k, a, b)


def as_partials(derivs):
    """LagrangianDerivatives back to the kernel's revenue partials, f and
    f_g excepted (None)."""
    out = [None, None, -derivs.l_gg]
    for name in PARAM_NAMES:
        out += [-derivs.l_theta[name], -derivs.l_gtheta[name],
                -derivs.l_thetatheta[name]]
    return out


POLICIES = {
    "static": lambda s, g: ReferencePolicy.static_alternative(),
    "expected": lambda s, g: ReferencePolicy.expected_utility(),
    "best": lambda s, g: ReferencePolicy.best_case(),
    "worst": lambda s, g: ReferencePolicy.worst_case(),
    # a level drawn across the ride outcomes and beyond, so kinks fall
    # on either side of the point
    "fixed": lambda s, g: ReferencePolicy.fixed(random.Random(g).uniform(
        s.x_low + s.b_sm * g - 1.0, s.x_high + s.b_sm * g + 1.0)),
}

#: (scenario, gamma, p_worst, policy, the base that vanishes exactly)
VANISHING_BASES = {
    # u0 = u_high at the upper edge of the valid tariff range
    "static": (EDGE, 2.0, 0.75, ReferencePolicy.static_alternative(),
               "u_high - R"),
    "best": (EDGE, 2.0, 0.75, ReferencePolicy.best_case(), "u0 - R"),
    # u0 = u_low at the lower edge
    "worst": (TravelScenario("low-edge", u0=-1.0, x_low=0.0, x_high=6.0,
                             b_sm=-0.5, gamma_min=0.5, gamma_max=2.0),
              2.0, 0.75, ReferencePolicy.worst_case(), "u0 - R"),
    # interior cusp: R = 8 - gamma - 8p = u0 at gamma = 1
    "expected": (TravelScenario("cusp", u0=1.0, x_low=0.0, x_high=8.0,
                                b_sm=-1.0, gamma_min=0.5, gamma_max=1.5),
                 1.0, 0.75, ReferencePolicy.expected_utility(), "u0 - R"),
    # kink where the best outcome crosses the fixed level
    "fixed": (TravelScenario("kink", u0=2.0, x_low=0.0, x_high=6.0,
                             b_sm=-0.5, gamma_min=5.0, gamma_max=7.0),
              6.0, 0.75, ReferencePolicy.fixed(3.0), "u_high - R"),
}


class TestLagrangianDerivatives:
    def test_analytic_matches_fd_on_random_points(self):
        # FD validator: nested Richardson central differences of the
        # revenue through the general acceptance chain, which shares no
        # code with the closed forms
        rng = random.Random(2024)
        scenarios = generate_random(count=40, seed=21)

        def d(fn, x):
            return central_derivative(fn, x, rel_step=1e-3)

        for policy_name, make_policy in POLICIES.items():
            checked = 0
            while checked < 20:
                s = rng.choice(scenarios)
                g = s.gamma_min + rng.uniform(0.15, 0.85) * s.gamma_span
                policy = make_policy(s, g)
                u_low, u_high, u0 = utilities_at(s, g)
                ref = resolve_reference(
                    policy, BinaryProspect(u_low, u_high, NOMINAL_PARAMS.p_worst),
                    u0)
                if any(0.0 < abs(u - ref) < 1.0 for u in (u0, u_low, u_high)):
                    continue  # a kink or cusp near enough to spoil the stencils

                def f(gamma, params=NOMINAL_PARAMS):
                    return expected_revenue(gamma, s, params, policy)

                want = [None, None, d(lambda x: d(f, x), g)]
                for name in PARAM_NAMES:
                    theta0 = NOMINAL_PARAMS.get(name)

                    def f_t(t, gamma=g):
                        return f(gamma, NOMINAL_PARAMS.replace(name, t))

                    want += [d(f_t, theta0),
                             d(lambda t: d(lambda x: f_t(t, x), g), theta0),
                             d(lambda t: d(f_t, t), theta0)]
                got = as_partials(lagrangian_derivatives(g, s, NOMINAL_PARAMS,
                                                         policy))
                for a, b in zip(got[2:], want[2:]):
                    assert a == pytest.approx(b, rel=1e-6, abs=1e-9), policy_name
                checked += 1

    def test_loss_exponent_log_term_at_unit_base(self):
        # x_high + b*gamma - u0 == 1 exactly: the sensitivity-exponent
        # partial of the loss term reduces to its power*log closed form
        s = TravelScenario("unit", u0=5.0, x_low=0.0, x_high=6.5, b_sm=-0.5,
                           gamma_min=0.5, gamma_max=2.0)
        gamma = 1.0
        assert s.x_high + s.b_sm * gamma - s.u0 == pytest.approx(1.0, abs=0)
        derivs = lagrangian_derivatives(gamma, s, NOMINAL_PARAMS)
        want = mp_partials(s, BEST_CASE, gamma, NOMINAL_PARAMS)
        assert -derivs.l_theta["beta"] == pytest.approx(want[6], rel=1e-9)
        assert -derivs.l_gtheta["beta"] == pytest.approx(want[7], rel=1e-9)

    def test_positive_lambda_drift_for_s3(self, s3):
        opt = solve(s3, NOMINAL_PARAMS)
        derivs = lagrangian_derivatives(opt.gamma_star, s3, NOMINAL_PARAMS)
        # tariff moves up with loss aversion here: -L_gl / L_gg > 0
        assert -derivs.l_gtheta["lambda"] / derivs.l_gg > 0.0

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_closed_form_matches_mpmath(self, policy_name):
        rng = random.Random(policy_name)
        scenarios = generate_random(count=60, seed=5)
        for _ in range(40):
            s = rng.choice(scenarios)
            g = rng.uniform(s.gamma_min, s.gamma_max)
            params = CptParams(alpha=rng.uniform(0.3, 1.0),
                               beta=rng.uniform(0.3, 1.3),
                               lam=rng.uniform(0.5, 3.5),
                               p_worst=rng.uniform(0.1, 0.9))
            policy = POLICIES[policy_name](s, g)
            want = mp_partials(s, policy, g, params)
            got = kernel_partials(s, policy, g, params)
            assert_partials_match(got, want)
            assert_partials_match(
                as_partials(lagrangian_derivatives(g, s, params, policy))[2:],
                want[2:])
            if policy_name == "best":
                assert _core.bestcase_partials(
                    g, s.u0, s.x_low, s.x_high, s.b_sm, params.alpha,
                    params.beta, params.lam, params.p_worst) == got

    @pytest.mark.parametrize("policy_name", sorted(VANISHING_BASES))
    def test_vanishing_base_is_named(self, policy_name):
        s, gamma, p, policy, base = VANISHING_BASES[policy_name]
        params = NOMINAL_PARAMS.replace("p", p)
        with pytest.raises(SingularPointError, match=re.escape(base)):
            lagrangian_derivatives(gamma, s, params, policy)

    def test_singular_point_names_term(self):
        # u0 equal to the best outcome at gamma_max: zero loss base there
        with pytest.raises(SingularPointError, match="singular"):
            lagrangian_derivatives(2.0, EDGE, NOMINAL_PARAMS)

    def test_partials_near_validity_edge_match_resolve(self, tmp_path):
        # R0003 of gen:5 seed 900025 is pinned to gamma_min under the
        # expected reference, 1.7e-3 from the edge of the valid tariff range
        # where u0 = u_low
        expected = ReferencePolicy.expected_utility()
        s = generate_random(count=5, seed=900025)[2]
        opt = solve(s, NOMINAL_PARAMS, expected)
        assert opt.active is ActiveSet.LOWER_BOUND
        derivs = lagrangian_derivatives(opt.gamma_star, s, NOMINAL_PARAMS,
                                        expected)
        for name in PARAM_NAMES:
            # at the lower bound dmu_low/dtheta = +l_gtheta
            fd = central_derivative(
                lambda t: solve(s, NOMINAL_PARAMS.replace(name, t),
                                expected).mu_low,
                NOMINAL_PARAMS.get(name), rel_step=1e-4)
            assert derivs.l_gtheta[name] == pytest.approx(fd, rel=1e-4)
        assert main(["domain", "--scenarios", "gen:5", "--seed", "900025",
                     "--reference", "expected", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("room", [0.0, 1e-6, 5e-4])
    def test_expected_partials_up_to_validity_edge(self, room):
        # the expected reference stays strictly between the ride outcomes,
        # so no base vanishes on the edge gamma = 2 where u0 = u_high
        expected = ReferencePolicy.expected_utility()
        gamma = 2.0 - room
        want = mp_partials(EDGE, expected, gamma, NOMINAL_PARAMS)
        derivs = lagrangian_derivatives(gamma, EDGE, NOMINAL_PARAMS, expected)
        assert_partials_match(as_partials(derivs)[2:], want[2:])

    def test_static_partials_near_singular_edge(self):
        # the static reference is u0 itself, so a ride-outcome base vanishes
        # on each edge of the valid tariff range and the partials diverge
        # towards it; 3e-3*gamma away they are still exact
        static = ReferencePolicy.static_alternative()
        rng = random.Random(11)
        checked = 0
        for s in generate_random(count=20, seed=11):
            theta = NOMINAL_PARAMS.replace("p", rng.uniform(0.1, 0.9))
            lower = (s.u0 - s.x_low) / s.b_sm
            upper = (s.u0 - s.x_high) / s.b_sm
            for gamma in (lower / (1.0 - 3e-3), upper / (1.0 + 3e-3)):
                if gamma <= 0.0:
                    continue  # the edge lies at a negative tariff
                assert_partials_match(kernel_partials(s, static, gamma, theta),
                                      mp_partials(s, static, gamma, theta))
                checked += 1
        assert checked >= 20


def evaluator(s, policy, params):
    """The (value, slope) closures of ``_core.revenue_evaluator``."""
    return _core.revenue_evaluator(
        s.u0, s.x_low, s.x_high, s.b_sm, *reference_line(policy, s),
        params.alpha, params.beta, params.lam, params.p_worst)


EVAL_SCENARIOS = generate_random(count=50, seed=31)


@st.composite
def evaluation_points(draw, edges=True):
    """(scenario, gamma, theta, policy) over generated scenarios and wide
    theta: tariffs across the box, fixed levels across and beyond the ride
    outcomes.  With ``edges``, also tariffs 1e-6 inside either edge of the
    valid tariff range and fixed levels on a base's kink or just to either
    side of it."""
    s = draw(st.sampled_from(EVAL_SCENARIOS))
    theta = CptParams(alpha=draw(st.floats(0.2, 1.0)),
                      beta=draw(st.floats(0.2, 1.5)),
                      lam=draw(st.floats(0.3, 4.0)),
                      p_worst=draw(st.floats(0.02, 0.98)))
    where = draw(st.sampled_from(["box", "lower edge", "upper edge"])
                 if edges else st.just("box"))
    if where == "box":
        gamma = s.gamma_min + draw(st.floats(0.0, 1.0)) * s.gamma_span
    else:
        # u0 = u_low on the lower edge and u0 = u_high on the upper
        edge = (s.u0 - (s.x_low if where == "lower edge" else s.x_high)) / s.b_sm
        inward = 1.0 if where == "lower edge" else -1.0
        gamma = edge + inward * 1e-6 * max(1.0, abs(edge))
    assume(gamma > 0.0)
    name = draw(st.sampled_from(sorted(POLICIES)))
    if name != "fixed":
        return s, gamma, theta, POLICIES[name](s, gamma)
    u_low, u_high, u0 = utilities_at(s, gamma)
    if edges and draw(st.booleans()):
        level = draw(st.sampled_from([u0, u_low, u_high]))
        gamma *= 1.0 + draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6,
                                             1e-3, -1e-3]))
    else:
        level = u_low + draw(st.floats(-0.25, 1.25)) * (u_high - u_low)
    return s, gamma, theta, ReferencePolicy.fixed(level)


class TestRevenueEvaluator:
    @given(evaluation_points())
    @settings(max_examples=400, deadline=None)
    def test_value_matches_general_chain(self, point):
        s, gamma, theta, policy = point
        u_low, u_high, u0 = utilities_at(s, gamma)
        assume(u_low <= u0 <= u_high)
        value, _ = evaluator(s, policy, theta)
        got, want = value(gamma), expected_revenue(gamma, s, theta, policy)
        c, r_g, r_p = reference_line(policy, s)
        ref_line = c + r_g * gamma + r_p * theta.p_worst
        ref_chain = resolve_reference(
            policy, BinaryProspect(u_low, u_high, theta.p_worst), u0)
        if ref_line == ref_chain:
            # same reference bits, same arithmetic as the acceptance chain
            assert got == want
            return
        # the expected reference rounds differently on its line; a base
        # moved by delta moves v by at most (1+lam)*((|d|+delta)^beta -
        # (|d|-delta)^beta), steep near a cusp, and the logistic passes at
        # most a quarter of z's change
        delta = 2.0 * abs(ref_line - ref_chain)
        dz = sum((1.0 + theta.lam) * ((abs(d) + delta) ** theta.beta
                                      - max(abs(d) - delta, 0.0) ** theta.beta)
                 for d in (u0 - ref_chain, u_low - ref_chain,
                           u_high - ref_chain))
        assert abs(got - want) <= 1e-13 * abs(want) + 0.25 * gamma * dz

    @given(evaluation_points(edges=False))
    @settings(max_examples=400, deadline=None)
    def test_slope_matches_central_derivative(self, point):
        s, gamma, theta, policy = point
        c, r_g, r_p = reference_line(policy, s)
        ref = c + r_g * gamma + r_p * theta.p_worst
        u_low, u_high, u0 = utilities_at(s, gamma)
        h = 1e-5 * gamma  # central_derivative's first step
        # every base is affine in the tariff: keep its kink, and the edges
        # of the valid tariff range, 100 steps away from the stencil
        for d, d_g in ((u0 - ref, -r_g), (u_low - ref, s.b_sm - r_g),
                       (u_high - ref, s.b_sm - r_g)):
            if d_g != 0.0:
                assume(abs(d) > 100.0 * h * abs(d_g))
        assume(min(u0 - u_low, u_high - u0) > 100.0 * h * abs(s.b_sm))
        value, slope = evaluator(s, policy, theta)
        got = slope(gamma)
        fd = central_derivative(value, gamma)
        assert abs(got - fd) <= 1e-6 * (abs(got) + value(gamma) / gamma)

    @pytest.mark.parametrize("policy_name", sorted(VANISHING_BASES))
    def test_vanishing_base_is_named(self, policy_name):
        s, gamma, p, policy, base = VANISHING_BASES[policy_name]
        params = NOMINAL_PARAMS.replace("p", p)
        value, slope = evaluator(s, policy, params)
        with pytest.raises(SingularPointError, match=re.escape(base)):
            slope(gamma)
        # the value stays finite at the zero base, and so does the slope
        # with beta = 1
        assert value(gamma) == expected_revenue(gamma, s, params, policy)
        assert math.isfinite(evaluator(s, policy, params.replace("beta", 1.0))[1](gamma))

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_outside_valid_range_is_invalid(self, policy_name):
        # EDGE is valid for gamma in [-10, 2]
        policy = POLICIES[policy_name](EDGE, 2.0)
        value, slope = evaluator(EDGE, policy, NOMINAL_PARAMS)
        for gamma in (2.0 + 1e-9, -10.5):
            for fn in (value, slope):
                with pytest.raises(InvalidScenarioError, match="outside"):
                    fn(gamma)


class TestConcavityCertificate:
    def test_report_total_even_at_extreme_parameters(self, s1):
        tiny_loss = CptParams(alpha=0.82, beta=0.8, lam=0.01, p_worst=0.75)
        report = concavity_certificate(s1, tiny_loss)
        assert report.certified in (True, False)
        assert math.isfinite(report.max_numeric_curvature)

    def test_consistency_gate_on_fixtures(self, scenarios, caplog):
        with caplog.at_level(logging.WARNING):
            for s in scenarios:
                report = concavity_certificate(s, NOMINAL_PARAMS)
                if report.certified:
                    assert report.numerically_concave or not report.consistent
                if not report.consistent:
                    assert any("disagree" in r.message for r in caplog.records)

    def test_s2_flat_curvature(self, s2):
        report = concavity_certificate(s2, NOMINAL_PARAMS)
        # the near-linear scenario: curvature stays small across the box
        assert abs(report.max_numeric_curvature) < 0.05
