"""Unit tests for local sensitivity: differentials, Taylor prediction and
active-set domains."""

import contextlib
import dataclasses
import math
import re
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpt_sense import sensitivity
from cpt_sense import (
    ActiveSet,
    BindingEvent,
    CptParams,
    CptSenseError,
    LagrangianDerivatives,
    NOMINAL_PARAMS,
    PARAM_NAMES,
    ReferencePolicy,
    SingularHessianError,
    SingularPointError,
    TravelScenario,
    all_domains,
    differentials,
    generate_random,
    local_domain,
    revenue_gradient,
    solve,
    taylor_predict,
)
from cpt_sense.pricing import KKT_TOL

from exact_reference import exact_dgamma, exact_optimum
from finite_difference import central_derivative
from test_pricing import wide_draws

#: R1433 of generate_random(2000, seed=21) with its rider under the expected
#: reference: ``solve`` returns an interior gamma* on a cusp, where
#: u0 - R = 3e-13 and the slope jumps from +0.23 to -0.11.
R1433 = TravelScenario(
    "R1433", u0=5.364591399034937, x_low=-5.030401095370149,
    x_high=12.106238562044314, b_sm=-0.6400118652091471,
    gamma_min=3.243320331386506, gamma_max=7.832015242260743)
R1433_THETA = CptParams(alpha=0.4204997774406266, beta=1.025351336050258,
                        lam=0.3838948113815594, p_worst=0.12343346218330442)


def reoptimized_gamma(scenario, name):
    """gamma*(theta) by full re-solve, for finite-difference oracles."""
    def g_of(theta):
        return solve(scenario, NOMINAL_PARAMS.replace(name, theta)).gamma_star
    return g_of


def reoptimized_f(scenario, name):
    def f_of(theta):
        return solve(scenario, NOMINAL_PARAMS.replace(name, theta)).f_star
    return f_of


class TestDifferentials:
    def test_interior_matches_reoptimization_fd(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        for name in PARAM_NAMES:
            theta0 = NOMINAL_PARAMS.get(name)
            fd_gamma = central_derivative(reoptimized_gamma(s1, name), theta0,
                                          rel_step=1e-4, richardson_levels=2)
            fd_f = central_derivative(reoptimized_f(s1, name), theta0,
                                      rel_step=1e-4, richardson_levels=2)
            assert diffs[name].dgamma_dtheta == pytest.approx(fd_gamma, rel=1e-3)
            assert diffs[name].df_dtheta == pytest.approx(fd_f, rel=1e-3)

    def test_bound_pinned_tariff_does_not_move(self, s5):
        opt = solve(s5, NOMINAL_PARAMS)
        assert opt.active is ActiveSet.UPPER_BOUND
        diffs = differentials(opt, s5, NOMINAL_PARAMS)
        for name in PARAM_NAMES:
            assert diffs[name].dgamma_dtheta == 0.0

    def test_bound_pinned_multiplier_motion_matches_fd(self, s5):
        opt = solve(s5, NOMINAL_PARAMS)
        diffs = differentials(opt, s5, NOMINAL_PARAMS)

        def mu_of(name):
            def inner(theta):
                grad = revenue_gradient(s5, NOMINAL_PARAMS.replace(name, theta))
                return grad(s5.gamma_max)
            return inner

        for name in PARAM_NAMES:
            fd = central_derivative(mu_of(name), NOMINAL_PARAMS.get(name),
                                    rel_step=1e-5, richardson_levels=2)
            assert diffs[name].dmu_dtheta == pytest.approx(fd, rel=1e-6)

    def test_second_order_objective_matches_fd(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        for name in PARAM_NAMES:
            theta0 = NOMINAL_PARAMS.get(name)
            f_of = reoptimized_f(s1, name)
            h = 2e-3 * theta0
            fd2 = (f_of(theta0 + h) - 2 * f_of(theta0) + f_of(theta0 - h)) / (h * h)
            assert diffs[name].d2f_dtheta2 == pytest.approx(fd2, rel=2e-3)

    def test_unaccepted_record_rejected(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        tampered = dataclasses.replace(opt, kkt_residual=1.0)
        with pytest.raises(SingularPointError, match="KKT residual"):
            differentials(tampered, s1, NOMINAL_PARAMS)

    def test_optimum_on_a_cusp_rejected(self):
        policy = ReferencePolicy.expected_utility()
        opt = solve(R1433, R1433_THETA, policy)
        assert opt.active is ActiveSet.INTERIOR
        assert opt.kkt_residual > KKT_TOL
        with pytest.raises(SingularPointError, match=re.escape(
                "gamma*=%r has KKT residual" % opt.gamma_star)):
            differentials(opt, R1433, R1433_THETA, policy)

    def test_singular_hessian_rejected(self, s1, monkeypatch):
        opt = solve(s1, NOMINAL_PARAMS)
        flat = LagrangianDerivatives(
            l_gg=1e-12,
            l_gtheta={n: 0.1 for n in PARAM_NAMES},
            l_theta={n: 0.1 for n in PARAM_NAMES},
            l_thetatheta={n: 0.1 for n in PARAM_NAMES})
        monkeypatch.setattr(sensitivity, "lagrangian_derivatives",
                            lambda *args: flat)
        with pytest.raises(SingularHessianError):
            differentials(opt, s1, NOMINAL_PARAMS)


@settings(max_examples=300, deadline=None)
@given(draw=wide_draws())
@example(draw=(R1433, R1433_THETA, ReferencePolicy.expected_utility()))
def test_solve_then_differentials_raise_only_package_errors(draw):
    """Every failure of ``solve`` and then ``differentials`` is a
    ``CptSenseError``, the one class a caller has to catch."""
    s, theta, policy = draw
    with contextlib.suppress(CptSenseError):
        differentials(solve(s, theta, policy), s, theta, policy)


def half_factor_order2(opt, diffs, name, theta):
    """Order-2 objective prediction with the series coefficient 1/2."""
    _, f1 = taylor_predict(opt, diffs, name, theta, order=1)
    dtheta = theta - diffs[name].theta0
    return f1 + 0.5 * diffs[name].d2f_dtheta2 * dtheta * dtheta


class TestTaylorPredict:
    def test_zero_perturbation_returns_nominal(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        for order in (1, 2):
            g, f = taylor_predict(opt, diffs, "alpha", 0.82, order=order)
            assert g == opt.gamma_star
            assert f == opt.f_star

    def test_gamma_prediction_clamped_to_box(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        g, _ = taylor_predict(opt, diffs, "beta", 0.8 * 1.5)
        assert g == s1.gamma_min

    def test_order2_conventions_differ_by_half_curvature(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        theta = 0.82 + 0.05 * 0.82
        _, f_full = taylor_predict(opt, diffs, "alpha", theta, order=2)
        f_half = half_factor_order2(opt, diffs, "alpha", theta)
        dtheta = theta - diffs["alpha"].theta0
        gap = 0.5 * diffs["alpha"].d2f_dtheta2 * dtheta * dtheta
        assert f_full - f_half == pytest.approx(gap, rel=1e-12)

    def test_half_factor_order2_beats_order1_nearby(self, scenarios):
        # the half-coefficient convention is the one that actually improves
        # on the linear prediction; the coefficient-1 form overshoots by
        # construction (documented model-family quirk)
        for s in scenarios[:4]:
            opt = solve(s, NOMINAL_PARAMS)
            diffs = differentials(opt, s, NOMINAL_PARAMS)
            for name in PARAM_NAMES:
                theta0 = NOMINAL_PARAMS.get(name)
                for sign in (-1.0, 1.0):
                    theta = theta0 * (1.0 + sign * 0.05)
                    exact = solve(s, NOMINAL_PARAMS.replace(name, theta)).f_star
                    _, f1 = taylor_predict(opt, diffs, name, theta, order=1)
                    f2 = half_factor_order2(opt, diffs, name, theta)
                    assert abs(f2 - exact) <= abs(f1 - exact) + 1e-12

    def test_argument_validation(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        with pytest.raises(ValueError):
            taylor_predict(opt, diffs, "nope", 1.0)
        with pytest.raises(ValueError):
            taylor_predict(opt, diffs, "alpha", 1.0, order=3)
        with pytest.raises(ValueError):
            taylor_predict(opt, diffs, "alpha", math.nan)

    def test_prediction_beyond_local_domain_degrades(self, s4):
        """A +20% sensitivity-exponent shift on S4 leaves the reported
        domain (~14.8%): past that edge the clamped linear tariff prediction
        detaches from the re-optimized path and its error jumps above
        anything seen well inside the domain."""
        opt = solve(s4, NOMINAL_PARAMS)
        diffs = differentials(opt, s4, NOMINAL_PARAMS)
        dom = local_domain(opt, diffs, "beta")
        assert dom.min_pct == pytest.approx(14.87, abs=0.1)
        assert 20.0 > dom.min_pct  # the +20% probe is outside the domain

        def taylor1_error(pct):
            theta = 0.8 * (1.0 + pct / 100.0)
            g_pred, _ = taylor_predict(opt, diffs, "beta", theta)
            exact = solve(s4, NOMINAL_PARAMS.replace("beta", theta)).gamma_star
            return abs(g_pred - exact)

        interior_regime = max(taylor1_error(pct) for pct in range(1, 11))
        beyond_domain = max(taylor1_error(pct) for pct in (15, 17, 20))
        assert beyond_domain > interior_regime


class TestLocalDomain:
    def test_s1_directional_events(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        dom_beta = local_domain(opt, diffs, "beta")
        # the tariff falls with the sensitivity exponent: raising it heads
        # for the lower bound, cutting it heads for the upper bound
        assert dom_beta.event_pos is BindingEvent.LOWER_BOUND_HIT
        assert dom_beta.event_neg is BindingEvent.UPPER_BOUND_HIT
        assert dom_beta.delta_max_pos_pct == pytest.approx(8.69, abs=0.05)
        assert dom_beta.delta_max_neg_pct == pytest.approx(10.76, abs=0.05)
        assert dom_beta.binding_event is BindingEvent.LOWER_BOUND_HIT
        assert dom_beta.min_pct == dom_beta.delta_max_pos_pct

    def test_domain_identity_against_formula(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        for name in PARAM_NAMES:
            dom = local_domain(opt, diffs, name)
            dg = diffs[name].dgamma_dtheta
            deltas = [(s1.gamma_min - opt.gamma_star) / dg,
                      (s1.gamma_max - opt.gamma_star) / dg]
            want_pos = min(d for d in deltas if d > 0)
            want_neg = max(d for d in deltas if d < 0)
            assert dom.delta_pos == pytest.approx(want_pos, rel=1e-12)
            assert dom.delta_neg == pytest.approx(want_neg, rel=1e-12)

    def test_horizon_cuts_far_events(self, s3):
        # the S3 loss-aversion axis: one bound sits past ten nominal values
        opt = solve(s3, NOMINAL_PARAMS)
        diffs = differentials(opt, s3, NOMINAL_PARAMS)
        dom = local_domain(opt, diffs, "lambda")
        assert dom.event_pos is BindingEvent.NONE
        assert dom.delta_max_pos_pct == math.inf
        assert dom.event_neg is BindingEvent.LOWER_BOUND_HIT
        assert dom.delta_max_neg_pct == pytest.approx(706.6, abs=1.0)
        assert dom.binding_event is BindingEvent.LOWER_BOUND_HIT

    def test_pinned_bound_multiplier_vanish(self, s5):
        opt = solve(s5, NOMINAL_PARAMS)
        diffs = differentials(opt, s5, NOMINAL_PARAMS)
        for name in PARAM_NAMES:
            dom = local_domain(opt, diffs, name)
            mu, dmu = opt.mu_high, diffs[name].dmu_dtheta
            expect = -mu / dmu
            if expect > 0:
                assert dom.delta_pos == pytest.approx(expect, rel=1e-12)
                assert dom.event_pos is BindingEvent.MULTIPLIER_VANISHES
            else:
                assert dom.delta_neg == pytest.approx(expect, rel=1e-12)
                assert dom.event_neg is BindingEvent.MULTIPLIER_VANISHES

    def test_degenerate_bound_reports_zero_domain(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        grazing = dataclasses.replace(s1, gamma_max=opt.gamma_star)
        opt2 = solve(grazing, NOMINAL_PARAMS)
        assert opt2.degenerate
        diffs = differentials(opt2, grazing, NOMINAL_PARAMS)
        dom = local_domain(opt2, diffs, "alpha")
        assert dom.min_pct == pytest.approx(0.0, abs=1e-4)

    def test_all_domains_covers_every_parameter(self, s2):
        opt = solve(s2, NOMINAL_PARAMS)
        diffs = differentials(opt, s2, NOMINAL_PARAMS)
        doms = all_domains(opt, diffs)
        assert set(doms) == set(PARAM_NAMES)

    def test_unknown_parameter_refused(self, s2):
        opt = solve(s2, NOMINAL_PARAMS)
        diffs = differentials(opt, s2, NOMINAL_PARAMS)
        with pytest.raises(ValueError, match="unknown parameter 'gamma'"):
            local_domain(opt, diffs, "gamma")

    @pytest.mark.xfail(
        strict=True,
        reason="first-order domain estimates overshoot true active-set "
               "changes under curvature (the worst-outcome-probability axis "
               "here estimates -31.9% where the true change sits at -15.9%), "
               "so probes near the estimated edge flip the active set; the "
               "refined-breakpoint companion test covers the sound variant")
    def test_probes_inside_first_order_domain_literal(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(opt, s1, NOMINAL_PARAMS)
        for name in PARAM_NAMES:
            dom = local_domain(opt, diffs, name)
            theta0 = NOMINAL_PARAMS.get(name)
            for edge in (dom.delta_pos, dom.delta_neg):
                if not math.isfinite(edge):
                    continue
                for j in range(1, 12):
                    theta = theta0 + edge * j / 11
                    if name == "p" and not 0.001 <= theta <= 0.999:
                        continue
                    probed = solve(s1, NOMINAL_PARAMS.replace(name, theta))
                    assert probed.active is opt.active, (name, theta)

    def test_probes_inside_refined_breakpoints(self, s1):
        """Active set is stable strictly inside bisection-refined domains."""
        from cpt_sense import SweepSpec, piecewise_continuation
        from cpt_sense.model import BEST_CASE

        opt = solve(s1, NOMINAL_PARAMS)
        for name in ("beta", "p"):
            theta0 = NOMINAL_PARAMS.get(name)
            approx = piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE,
                                            SweepSpec(name))
            for direction in (+1, -1):
                bps = [b for b in approx.breakpoints
                       if (b - theta0) * direction > 0]
                edge = (min(bps, key=lambda b: abs(b - theta0)) - theta0) \
                    if bps else direction * 0.2 * theta0
                for j in range(1, 12):
                    theta = theta0 + 0.95 * edge * j / 11
                    probed = solve(s1, NOMINAL_PARAMS.replace(name, theta))
                    assert probed.active is opt.active, (name, theta)


EXACT_SCENARIOS = generate_random(count=200, seed=12)
#: The acceptance P* = f*/gamma* below which the exact test leaves the
#: differentials out: there dgamma*/dalpha and dgamma*/dp lose about
#: 1e-13/P* relative (``test_small_acceptance_differentials_are_exact``).
#: Of 60000 uniform draws, those at P* >= 1e-4 erred by at most 1.2e-9.
EXACT_MIN_ACCEPTANCE = 1e-4


class TestExactBestCaseOptimum:
    """``solve`` and ``differentials`` against the paper's exact optimum at
    beta = 1 under the best-case reference, gamma* = (1 + W(e**-(c+1)))/k
    clamped to the box (tests/exact_reference.py).  The gate on f* is
    1e-13 relative: z = c + k*gamma rounds to about 1e-16 of its terms,
    which moves f* by up to ~1e-14 of itself."""

    @staticmethod
    def check_dgamma(s, theta, opt):
        """``differentials``' dgamma*/dtheta at ``opt`` to 1e-8 relative."""
        diffs = differentials(opt, s, theta)
        for name, want in exact_dgamma(s, theta.alpha, theta.lam,
                                       theta.p_worst).items():
            got = diffs[name].dgamma_dtheta
            assert abs(got - want) <= 1e-8 * abs(want), name

    @given(st.sampled_from(EXACT_SCENARIOS), st.floats(0.2, 1.0),
           st.floats(0.3, 4.0), st.floats(0.02, 0.98))
    @settings(max_examples=400, deadline=None)
    def test_optimum_and_differentials_are_exact(self, s, alpha, lam, p):
        theta = CptParams(alpha=alpha, beta=1.0, lam=lam, p_worst=p)
        opt = solve(s, theta)
        gamma, f, interior = exact_optimum(s, alpha, lam, p)
        assert abs(opt.gamma_star - gamma) <= 1e-11 * gamma
        assert abs(opt.f_star - f) <= 1e-13 * f
        if interior and f / gamma >= EXACT_MIN_ACCEPTANCE:
            assert opt.active is ActiveSet.INTERIOR
            self.check_dgamma(s, theta, opt)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="at an interior optimum "
        "f_gtheta reduces to s'*z_theta*(1 + gamma*(s - s_c)*z_g), which "
        "cancels to s'*z_theta*s/s_c: the polish's ~1e-13 root error then "
        "costs ~1e-13/P* relative in dgamma*/dalpha and dgamma*/dp")
    def test_small_acceptance_differentials_are_exact(self):
        # an interior optimum at P* = 7.9e-10, below the floor; its
        # dgamma*/dalpha is off by 2.2e-5 relative
        s = next(s for s in EXACT_SCENARIOS if s.label == "R0103")
        alpha, lam, p = 0.8865388325104477, 3.5367822673977027, 0.9503828295072778
        theta = CptParams(alpha=alpha, beta=1.0, lam=lam, p_worst=p)
        self.check_dgamma(s, theta, solve(s, theta))


SIGN_SCENARIOS = generate_random(count=200, seed=41)
WIDE_THETA = st.builds(CptParams, alpha=st.floats(0.2, 1.0),
                       beta=st.floats(0.2, 1.5), lam=st.floats(0.3, 4.0),
                       p_worst=st.floats(0.02, 0.98))


def solved(s, theta, policy):
    """(optimum, differentials) under ``policy``; a draw whose
    differentials raise is left out."""
    opt = solve(s, theta, policy)
    try:
        return opt, differentials(opt, s, theta, policy)
    except (CptSenseError, ValueError):
        assume(False)


class TestSigns:
    """Signs of the differentials that hold for every scenario and rider
    (docs/derivatives.md, "Signs")."""

    @given(st.sampled_from(SIGN_SCENARIOS), WIDE_THETA)
    @settings(max_examples=2000, deadline=None)
    def test_best_case_lambda_raises_revenue_iff_accepted_above_half(
            self, s, theta):
        opt, diffs = solved(s, theta, ReferencePolicy.best_case())
        accept = opt.f_star / opt.gamma_star
        assume(abs(accept - 0.5) >= 1e-9)
        df = diffs["lambda"].df_dtheta
        assert df != 0.0 and (df > 0.0) == (accept > 0.5)

    @given(st.sampled_from(SIGN_SCENARIOS), WIDE_THETA)
    @settings(max_examples=2000, deadline=None)
    def test_worst_case_lambda_has_no_effect(self, s, theta):
        lam = solved(s, theta, ReferencePolicy.worst_case())[1]["lambda"]
        assert (lam.df_dtheta, lam.dgamma_dtheta, lam.dmu_dtheta) \
            == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("policy", [ReferencePolicy.best_case(),
                                        ReferencePolicy.static_alternative(),
                                        ReferencePolicy.worst_case()],
                             ids=["best", "static", "worst"])
    @given(st.sampled_from(SIGN_SCENARIOS), WIDE_THETA)
    @settings(max_examples=2000, deadline=None)
    def test_p_lowers_revenue(self, policy, s, theta):
        opt, diffs = solved(s, theta, policy)
        assume(opt.f_star != 0.0)
        assert diffs["p"].df_dtheta < 0.0

    @given(st.sampled_from(SIGN_SCENARIOS), WIDE_THETA)
    @settings(max_examples=2000, deadline=None)
    def test_static_lambda_lowers_revenue(self, s, theta):
        opt, diffs = solved(s, theta, ReferencePolicy.static_alternative())
        assume(opt.f_star != 0.0)
        df = diffs["lambda"].df_dtheta
        u_low = s.x_low + s.b_sm * opt.gamma_star
        assert df < 0.0 if s.u0 > u_low else df <= 0.0


def prelec_partials(p, alpha):
    """(dw/dalpha, dw/dp) of w = exp(-(-ln p)^alpha), written out."""
    t = -math.log(p)
    w = math.exp(-t ** alpha)
    return -w * t ** alpha * math.log(t), w * alpha * t ** (alpha - 1.0) / p


def alpha_p_products(opt, diffs, theta):
    """((dgamma*/dalpha * w_p, dgamma*/dp * w_a),
    (df*/dalpha * w_p, df*/dp * w_a)), equal pairs where alpha and p
    enter the optimum only through w(p)."""
    w_a, w_p = prelec_partials(theta.p_worst, theta.alpha)
    a, p = diffs["alpha"], diffs["p"]
    return ((a.dgamma_dtheta * w_p, p.dgamma_dtheta * w_a),
            (a.df_dtheta * w_p, p.df_dtheta * w_a))


class TestAlphaPIdentity:
    """Under the best-case reference alpha and p reach z only through
    w(p) (docs/derivatives.md, "Signs")."""

    @given(st.sampled_from(SIGN_SCENARIOS), WIDE_THETA)
    @settings(max_examples=300, deadline=None)
    def test_best_case_alpha_and_p_move_the_optimum_through_w(self, s, theta):
        opt, diffs = solved(s, theta, ReferencePolicy.best_case())
        pairs = alpha_p_products(opt, diffs, theta)
        # dgamma*'s numerator f_gt cancels to s'*z_t*P*/(1 - P*), so it
        # loses about eps/P* relative (EXACT_MIN_ACCEPTANCE); the
        # subnormal floor compares vanishing products absolutely
        if opt.f_star / opt.gamma_star < EXACT_MIN_ACCEPTANCE:
            pairs = pairs[1:]
        for via_alpha, via_p in pairs:
            assert abs(via_alpha - via_p) <= 1e-9 * max(
                abs(via_alpha), abs(via_p), sys.float_info.min)

    def test_expected_reference_breaks_it(self, s1):
        # R moves with p, so p reaches z beside w(p): on S1 the df*
        # products differ by half
        policy = ReferencePolicy.expected_utility()
        opt = solve(s1, NOMINAL_PARAMS, policy)
        diffs = differentials(opt, s1, NOMINAL_PARAMS, policy)
        via_alpha, via_p = alpha_p_products(opt, diffs, NOMINAL_PARAMS)[1]
        assert via_alpha == pytest.approx(-0.11407971835835462, rel=1e-9)
        assert via_p == pytest.approx(-0.0598713402236316, rel=1e-9)
