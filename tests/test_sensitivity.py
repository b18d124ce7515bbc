"""Unit tests for local sensitivity: differentials, Taylor prediction and
active-set domains."""

import dataclasses
import math

import pytest

from cpt_sense import sensitivity
from cpt_sense import (
    ActiveSet,
    BindingEvent,
    LagrangianDerivatives,
    NOMINAL_PARAMS,
    PARAM_NAMES,
    SingularHessianError,
    all_domains,
    central_derivative,
    differentials,
    local_domain,
    revenue_gradient,
    solve,
    taylor_predict,
)


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
        with pytest.raises(ValueError, match="KKT residual"):
            differentials(tampered, s1, NOMINAL_PARAMS)

    def test_singular_hessian_rejected(self, s1, monkeypatch):
        opt = solve(s1, NOMINAL_PARAMS)
        flat = LagrangianDerivatives(
            gamma=opt.gamma_star, l_gg=1e-12,
            l_gtheta={n: 0.1 for n in PARAM_NAMES},
            l_theta={n: 0.1 for n in PARAM_NAMES},
            l_thetatheta={n: 0.1 for n in PARAM_NAMES})
        monkeypatch.setattr(sensitivity, "lagrangian_derivatives",
                            lambda *args: flat)
        with pytest.raises(SingularHessianError):
            differentials(opt, s1, NOMINAL_PARAMS)


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
        dtheta = 0.05 * 0.82
        _, f_full = taylor_predict(opt, diffs, "alpha", 0.82 + dtheta, order=2)
        _, f_half = taylor_predict(opt, diffs, "alpha", 0.82 + dtheta, order=2,
                                   half_factor=True)
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
                    _, f2 = taylor_predict(opt, diffs, name, theta, order=2,
                                           half_factor=True)
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
