"""Unit tests for the tariff optimizer, KKT diagnostics, Lagrangian partials
and the concavity certificate."""

import dataclasses
import logging
import math
import random

import pytest

from cpt_sense import (
    ActiveSet,
    CptParams,
    NOMINAL_PARAMS,
    SingularPointError,
    PARAM_NAMES,
    TravelScenario,
    UnsupportedPolicyError,
    ReferencePolicy,
    central_derivative,
    concavity_certificate,
    generate_random,
    kkt_residuals,
    lagrangian_derivatives,
    revenue_function,
    solve,
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


class TestLagrangianDerivatives:
    def test_analytic_matches_fd_on_random_points(self):
        rng = random.Random(2024)
        scenarios = generate_random(count=40, seed=21)
        checked = 0
        while checked < 100:
            s = rng.choice(scenarios)
            frac = rng.uniform(0.15, 0.85)
            g = s.gamma_min + frac * s.gamma_span
            analytic = lagrangian_derivatives(g, s, NOMINAL_PARAMS,
                                              method="analytic")
            fd = lagrangian_derivatives(g, s, NOMINAL_PARAMS, method="fd")
            pairs = [(analytic.l_gg, fd.l_gg)]
            for name in ("alpha", "beta", "lambda", "p"):
                pairs.append((analytic.l_gtheta[name], fd.l_gtheta[name]))
                pairs.append((analytic.l_theta[name], fd.l_theta[name]))
                pairs.append((analytic.l_thetatheta[name], fd.l_thetatheta[name]))
            for a, b in pairs:
                assert a == pytest.approx(b, rel=1e-6, abs=1e-9)
            checked += 1

    def test_loss_exponent_log_term_at_unit_base(self):
        # x_high + b*gamma - u0 == 1 exactly: the sensitivity-exponent
        # partial of the loss term reduces to its power*log closed form
        s = TravelScenario("unit", u0=5.0, x_low=0.0, x_high=6.5, b_sm=-0.5,
                           gamma_min=0.5, gamma_max=2.0)
        gamma = 1.0
        assert s.x_high + s.b_sm * gamma - s.u0 == pytest.approx(1.0, abs=0)
        analytic = lagrangian_derivatives(gamma, s, NOMINAL_PARAMS,
                                          method="analytic")
        fd = lagrangian_derivatives(gamma, s, NOMINAL_PARAMS, method="fd")
        assert analytic.l_gtheta["beta"] == pytest.approx(
            fd.l_gtheta["beta"], rel=1e-6)
        assert analytic.l_theta["beta"] == pytest.approx(
            fd.l_theta["beta"], rel=1e-6)

    def test_positive_lambda_drift_for_s3(self, s3):
        opt = solve(s3, NOMINAL_PARAMS)
        derivs = lagrangian_derivatives(opt.gamma_star, s3, NOMINAL_PARAMS)
        # tariff moves up with loss aversion here: -L_gl / L_gg > 0
        assert -derivs.l_gtheta["lambda"] / derivs.l_gg > 0.0

    def test_analytic_unsupported_for_other_policies(self, s1):
        with pytest.raises(UnsupportedPolicyError):
            lagrangian_derivatives(6.0, s1, NOMINAL_PARAMS,
                                   ReferencePolicy.worst_case(),
                                   method="analytic")

    def test_fd_available_for_other_policies(self, s1):
        derivs = lagrangian_derivatives(6.0, s1, NOMINAL_PARAMS,
                                        ReferencePolicy.static_alternative(),
                                        method="fd")
        assert math.isfinite(derivs.l_gg)

    def test_singular_point_names_term(self):
        # u0 equal to the best outcome at gamma_max: zero loss base there
        s = TravelScenario("sing", u0=5.0, x_low=0.0, x_high=6.0, b_sm=-0.5,
                           gamma_min=0.5, gamma_max=2.0)
        with pytest.raises(SingularPointError, match="singular"):
            lagrangian_derivatives(2.0, s, NOMINAL_PARAMS, method="analytic")

    def test_fd_tariff_step_stays_in_valid_range(self, tmp_path):
        # R0003 of gen:5 seed 900025 is pinned to gamma_min under the
        # expected reference, 1.7e-3 from the edge of the valid tariff range
        # where u0 = u_low; the default tariff step of 9.7e-3 would cross it
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

    def test_fd_at_validity_edge_is_singular(self):
        # gamma = 2 puts u0 on the best ride outcome: no room for a stencil
        s = TravelScenario("edge", u0=5.0, x_low=0.0, x_high=6.0, b_sm=-0.5,
                           gamma_min=0.5, gamma_max=2.0)
        with pytest.raises(SingularPointError, match="l_gg"):
            lagrangian_derivatives(2.0, s, NOMINAL_PARAMS,
                                   ReferencePolicy.expected_utility())

    def test_fd_tariff_step_has_a_floor(self):
        # the optimum sits 1e-6 below the edge gamma = 2: a stencil that fits
        # would drown l_gg in rounding error
        expected = ReferencePolicy.expected_utility()
        s = TravelScenario("near-edge", u0=5.0, x_low=0.0, x_high=6.0,
                           b_sm=-0.5, gamma_min=0.5, gamma_max=2.0 - 1e-6)
        opt = solve(s, NOMINAL_PARAMS, expected)
        assert opt.gamma_star == s.gamma_max
        with pytest.raises(SingularPointError, match="l_gg.*at least"):
            lagrangian_derivatives(opt.gamma_star, s, NOMINAL_PARAMS, expected)

    def test_fd_tariff_step_near_the_floor_is_accurate(self):
        # half the room, 2.5e-4, is just above the floor 1e-4*gamma; compare
        # with one-sided O(h^4) stencils that stay inside the valid range
        expected = ReferencePolicy.expected_utility()
        gamma, h = 2.0 - 5e-4, 1e-3
        s = TravelScenario("near-edge", u0=5.0, x_low=0.0, x_high=6.0,
                           b_sm=-0.5, gamma_min=0.5, gamma_max=gamma)
        derivs = lagrangian_derivatives(gamma, s, NOMINAL_PARAMS, expected)

        def backward(params, weights):
            f = revenue_function(s, params, expected)
            return sum(w * f(gamma - k * h) for k, w in enumerate(weights))

        f_gg = backward(NOMINAL_PARAMS,
                        (45, -154, 214, -156, 61, -10)) / (12.0 * h * h)
        assert -derivs.l_gg == pytest.approx(f_gg, rel=1e-4)
        for name in PARAM_NAMES:
            theta0 = NOMINAL_PARAMS.get(name)
            h_t = 1e-3 * theta0

            def f_g(t: float) -> float:
                return backward(NOMINAL_PARAMS.replace(name, t),
                                (25, -48, 36, -16, 3)) / (12.0 * h)

            f_gt = (f_g(theta0 + h_t) - f_g(theta0 - h_t)) / (2.0 * h_t)
            assert -derivs.l_gtheta[name] == pytest.approx(f_gt, rel=1e-4)

    def test_fd_at_singular_validity_edge(self):
        # the static reference is u0 itself, so at the edge gamma = 2 the
        # base u_high - u0 of the value function vanishes: no step is safe
        s = TravelScenario("near-edge", u0=5.0, x_low=0.0, x_high=6.0,
                           b_sm=-0.5, gamma_min=0.5, gamma_max=2.0 - 5e-4)
        with pytest.raises(SingularPointError, match="reference meets u0"):
            lagrangian_derivatives(s.gamma_max, s, NOMINAL_PARAMS,
                                   ReferencePolicy.static_alternative())

    def test_method_validation(self, s1):
        with pytest.raises(ValueError):
            lagrangian_derivatives(6.0, s1, NOMINAL_PARAMS, method="magic")


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

    def test_policy_restriction(self, s1):
        with pytest.raises(UnsupportedPolicyError):
            concavity_certificate(s1, NOMINAL_PARAMS,
                                  ReferencePolicy.expected_utility())
