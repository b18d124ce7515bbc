"""Unit tests for the tariff optimizer, KKT diagnostics, Lagrangian partials
and the paper's concavity inequality."""

import dataclasses
import math
import random
import re
from collections import Counter

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
    SolverDisagreementError,
    PARAM_NAMES,
    PolicyKind,
    TravelScenario,
    ReferencePolicy,
    _core,
    differentials,
    expected_revenue,
    fixtures,
    generate_random,
    kkt_residuals,
    lagrangian_derivatives,
    model,
    pricing,
    reference_line,
    resolve_reference,
    revenue_function,
    revenue_gradient,
    solve,
    utilities_at,
)
from cpt_sense.cli import main
from cpt_sense.numerics import grid_golden_maximize
from cpt_sense.pricing import KKT_TOL, certificate_margin
from cpt_sense.sweeps import (SweepSpec, mismatch_loss, numeric_sweep,
                              piecewise_continuation)

import golden_tool
from test_acceptance import CURVATURE_TOL, max_curvature
from finite_difference import central_derivative

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
        # the oracle refines no bracket within two start cells of gamma*,
        # and none farther out beats the start node of most revenue, so
        # that node is the oracle's point (the quarter-cell agreement of a
        # full refinement is test_criterion_01_oracle_equivalence's)
        opt = solve(s1, NOMINAL_PARAMS)
        cell = s1.gamma_span / pricing.START_CELLS
        f = revenue_function(s1, NOMINAL_PARAMS)
        nodes = [s1.gamma_min + s1.gamma_span * i / pricing.START_CELLS
                 for i in range(pricing.START_CELLS)] + [s1.gamma_max]
        assert opt.gamma_oracle == max(nodes, key=f)
        assert abs(opt.gamma_star - opt.gamma_oracle) <= 2.0 * cell
        # more than the start nodes, fewer than the old 65-node pass
        assert pricing.START_CELLS + 1 < opt.evaluations < pricing.LATTICE + 1

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
            res = kkt_residuals(
                opt, revenue_gradient(s, NOMINAL_PARAMS)(opt.gamma_star))
            assert res.max_residual <= KKT_TOL, s.label

    def test_negative_multiplier_flagged(self, s1):
        opt = solve(s1, NOMINAL_PARAMS)
        tampered = dataclasses.replace(opt, mu_low=-1.0)
        res = kkt_residuals(
            tampered, revenue_gradient(s1, NOMINAL_PARAMS)(tampered.gamma_star))
        assert res.dual_lower_violation == 1.0
        assert res.max_residual > KKT_TOL

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
            derivs = as_partials(lagrangian_derivatives(g, s, params, policy))
            assert_partials_match(derivs[2:], want[2:])
            # one path under every policy: the kernel's partials, negated,
            # bit for bit
            assert ([v.hex() for v in derivs[2:]]
                    == [v.hex() for v in got[2:]])
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


def _evaluator_args(s, policy, params):
    """The arguments of ``_core.revenue_evaluator`` for one (scenario,
    policy, rider)."""
    return (s.u0, s.x_low, s.x_high, s.b_sm, *reference_line(policy, s),
            params.alpha, params.beta, params.lam, params.p_worst)


def evaluator(s, policy, params):
    """The (value, slope, nodes, bound) closures of
    ``_core.revenue_evaluator``."""
    return _core.revenue_evaluator(*_evaluator_args(s, policy, params))


EVAL_SCENARIOS = generate_random(count=50, seed=31)


@st.composite
def evaluation_points(draw, edges=True, policies=tuple(sorted(POLICIES))):
    """(scenario, gamma, theta, policy) over generated scenarios, wide
    theta and the named ``policies``: tariffs across the box, fixed levels
    across and beyond the ride outcomes.  With ``edges``, also tariffs 1e-6
    inside either edge of the valid tariff range and fixed levels on a
    base's kink or just to either side of it."""
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
    name = draw(st.sampled_from(policies))
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
        value = evaluator(s, policy, theta)[0]
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
        value, slope = evaluator(s, policy, theta)[:2]
        got = slope(gamma)
        fd = central_derivative(value, gamma)
        assert abs(got - fd) <= 1e-6 * (abs(got) + value(gamma) / gamma)

    @pytest.mark.parametrize("policy_name", sorted(VANISHING_BASES))
    def test_vanishing_base_is_named(self, policy_name):
        s, gamma, p, policy, base = VANISHING_BASES[policy_name]
        params = NOMINAL_PARAMS.replace("p", p)
        value, slope = evaluator(s, policy, params)[:2]
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
        value, slope = evaluator(EDGE, policy, NOMINAL_PARAMS)[:2]
        for gamma in (2.0 + 1e-9, -10.5):
            for fn in (value, slope):
                with pytest.raises(InvalidScenarioError, match="outside"):
                    fn(gamma)


def _outcome(fn, *args):
    """What fn(*args) gives: ("ok", result) or (error type, message)."""
    try:
        return "ok", fn(*args)
    except (InvalidScenarioError, SingularPointError) as exc:
        return type(exc), str(exc)


def _hex(xs):
    return [float(x).hex() for x in xs]


class TestNodePass:
    """``nodes(xs)`` of ``_core.revenue_evaluator`` against its scalar
    closures: each node's value has the bits of ``value`` and its slope
    the bits of ``slope``, the one-node pass, and a pass raises the error
    of the first node on which either closure raises."""

    @staticmethod
    def want(args, xs):
        """(values, slopes) as hex, or the error of the first node that
        raises, from the scalar value and slope closures."""
        value, slope = _core.revenue_evaluator(*args)[:2]
        values, slopes = [], []
        for x in xs:
            for fn, out in ((slope, slopes), (value, values)):
                kind, result = _outcome(fn, x)
                if kind != "ok":
                    return kind, result
                out.append(result)
        return "ok", (_hex(values), _hex(slopes))

    @staticmethod
    def got(args, xs):
        kind, result = _outcome(_core.revenue_evaluator(*args)[2], xs)
        if kind != "ok":
            return kind, result
        values, slopes = result
        return "ok", (_hex(values), _hex(slopes))

    @given(evaluation_points(), st.sampled_from(["alone", "box", "outside"]))
    @settings(max_examples=1500, deadline=None)
    def test_nodes_are_value_and_scalar_slope(self, point, where):
        s, gamma, theta, policy = point
        args = _evaluator_args(s, policy, theta)
        xs = [gamma]
        if where != "alone":  # then the 17-node grid of the box
            xs += [s.gamma_min + s.gamma_span * i / 16 for i in range(17)]
        if where == "outside":  # a last node past the upper validity edge
            edge = (s.u0 - s.x_high) / s.b_sm
            xs.append(edge + 1e-6 * max(1.0, abs(edge)))
        assert self.got(args, xs) == self.want(args, xs)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_slope_is_revenue_partials_slope(self, policy_name, data):
        # one z and one logistic per node: its slope is the closed form
        # f_g = sig + gamma*sig'*z_g of ``revenue_partials`` up to the
        # rounding of z, on the scale of its two terms
        s, gamma, theta, policy = data.draw(
            evaluation_points(policies=(policy_name,)))
        args = _evaluator_args(s, policy, theta)
        kind, partials = _outcome(_core.revenue_partials, gamma, *args)
        if kind != "ok":
            return
        values, slopes = _core.revenue_evaluator(*args)[2]([gamma])
        sig = values[0] / gamma
        scale = abs(sig) + abs(slopes[0] - sig)
        assert abs(slopes[0] - partials[1]) <= 1e-12 * scale

    @pytest.mark.parametrize("policy_name", sorted(VANISHING_BASES))
    def test_vanishing_base_raises_as_reference(self, policy_name):
        s, gamma, p, policy, base = VANISHING_BASES[policy_name]
        args = _evaluator_args(s, policy, NOMINAL_PARAMS.replace("p", p))
        # valid nodes on either side first, where the base does not vanish
        xs = [x for x in (gamma - 1e-3, gamma + 1e-3)
              if self.want(args, [x])[0] == "ok"] + [gamma]
        assert len(xs) > 1
        kind, message = self.want(args, xs)
        assert kind is SingularPointError and base in message
        assert self.got(args, xs) == (kind, message)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_outside_valid_range_raises_as_reference(self, policy_name):
        # EDGE is valid for gamma in [-10, 2]
        args = _evaluator_args(EDGE, POLICIES[policy_name](EDGE, 2.0),
                               NOMINAL_PARAMS)
        for xs in ([1.0, 2.0 + 1e-9], [-10.5, 1.0]):
            kind, message = self.want(args, xs)
            assert kind is InvalidScenarioError and "outside" in message
            assert self.got(args, xs) == (kind, message)


class TestConcavityCertificate:
    """``certificate_margin``, the paper's inequality verbatim, audited by
    the curvature scan of the acceptance suite."""

    def test_report_total_even_at_extreme_parameters(self, s1):
        tiny_loss = CptParams(alpha=0.82, beta=0.8, lam=0.01, p_worst=0.75)
        certified, margin = certificate_margin(s1, tiny_loss)
        assert certified in (True, False) and not math.isnan(margin)
        assert math.isfinite(max_curvature(s1, tiny_loss))

    def test_consistency_gate_on_fixtures(self, scenarios):
        # the inequality holds on no fixture, and it must not on S3 and S4,
        # where the scan finds the revenue convex
        convex = []
        for s in scenarios:
            assert not certificate_margin(s, NOMINAL_PARAMS)[0]
            if max_curvature(s, NOMINAL_PARAMS) > CURVATURE_TOL:
                convex.append(s.label)
        assert convex == ["S3", "S4"]

    def test_s2_flat_curvature(self, s2):
        # the near-linear scenario: curvature stays small across the box
        assert abs(max_curvature(s2, NOMINAL_PARAMS)) < 0.05

    def test_inequality_holds_where_the_revenue_is_convex(self):
        # the paper's printed inequality is not a proof of concavity: on
        # this narrow near-edge box it holds while f_gg is +0.365, which a
        # central second difference of the revenue confirms
        s = TravelScenario("W", u0=-0.8751647356653641,
                           x_low=-0.8429931554898769,
                           x_high=3.1247876737678526, b_sm=-0.7669000567174608,
                           gamma_min=4.47111613571089,
                           gamma_max=4.479165063484983)
        theta = CptParams(alpha=1.37599, beta=0.75335, lam=2.57184,
                          p_worst=0.51807)
        certified, margin = certificate_margin(s, theta)
        assert certified and margin == pytest.approx(0.264, abs=1e-3)
        assert max_curvature(s, theta) == pytest.approx(0.365, abs=1e-3)
        f, g, h = revenue_function(s, theta), 4.4714, 1e-4
        f_gg = _core.revenue_partials(g, s.u0, s.x_low, s.x_high, s.b_sm,
                                      s.x_high, s.b_sm, 0.0, theta.alpha,
                                      theta.beta, theta.lam, theta.p_worst)[2]
        second = (f(g + h) - 2.0 * f(g) + f(g - h)) / (h * h)
        assert f_gg > 0.36 and second == pytest.approx(f_gg, rel=1e-6)


class TestEvaluationContract:
    """The call counts a traced benchmark run checks, from outside the
    package: under the best-case reference each revenue value of a solve is
    one ``_core.bestcase_revenue`` call, looked up through the module so that
    a wrapper installed there sees it, and each solve runs its oracle and its
    KKT check once; under every other reference no best-case kernel runs,
    and each revenue value is a node value of ``_core.revenue_evaluator``'s
    pass or a call of its value closure.  The revenue bound of a cell takes
    no counted value under any reference, and no analysis or CLI command
    runs the general acceptance chain of ``model``."""

    BESTCASE_KERNELS = ("bestcase_revenue", "bestcase_revenue_gradient",
                        "bestcase_partials")

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in self.BESTCASE_KERNELS:
            count(_core, name)
        count(pricing, "grid_golden_maximize")
        count(pricing, "kkt_residuals")
        # the general acceptance chain, at the model and at the kernel
        count(model, "acceptance_probability")
        count(_core, "acceptance_from_utilities")
        return calls

    @staticmethod
    def inputs():
        """(scenario, theta): the fixtures and 50 generated scenarios, each
        with its own random rider parameters."""
        rng = random.Random(23)
        for s in list(fixtures()) + generate_random(count=50, seed=23):
            yield s, CptParams(alpha=rng.uniform(0.4, 1.0),
                               beta=rng.uniform(0.4, 1.2),
                               lam=rng.uniform(1.0, 3.5),
                               p_worst=rng.uniform(0.2, 0.9))

    def test_best_case_counts(self, calls):
        solved = 0
        for s, theta in self.inputs():
            calls.clear()
            record = solve(s, theta)
            assert calls["bestcase_revenue"] == record.evaluations, s.label
            # a node is one value and one slope call, the start pass first
            assert calls["bestcase_revenue_gradient"] > pricing.START_CELLS
            assert calls["grid_golden_maximize"] == 1
            assert calls["kkt_residuals"] == 1
            solved += 1
        assert solved == 55

    @pytest.mark.parametrize("name", ["static", "expected", "worst", "fixed"])
    def test_other_policies_count_node_values_and_value_calls(
            self, monkeypatch, name):
        counts = Counter()
        original = _core.revenue_evaluator

        def counting_evaluator(*args):
            value, slope, nodes, bound = original(*args)

            def counted_value(gamma):
                counts["value calls"] += 1
                return value(gamma)

            def counted_nodes(xs):
                values, slopes = nodes(xs)
                counts["node passes"] += 1
                counts["node values"] += len(values)
                return values, slopes

            def counted_bound(*cell):
                before = sum(counts.values())
                result = bound(*cell)
                assert sum(counts.values()) == before  # no counted value
                return result
            return counted_value, slope, counted_nodes, counted_bound

        monkeypatch.setattr(_core, "revenue_evaluator", counting_evaluator)
        for s, theta in self.inputs():
            counts.clear()
            policy = POLICIES[name](s, 0.5 * (s.gamma_min + s.gamma_max))
            record = solve(s, theta, policy)
            # the start pass, then one node per pass
            assert counts["node values"] == (pricing.START_CELLS
                                             + counts["node passes"]), s.label
            assert record.evaluations == (counts["node values"]
                                          + counts["value calls"]), s.label

    @pytest.mark.parametrize("name", ["static", "expected", "worst", "fixed"])
    def test_other_policies_leave_bestcase_kernels_unused(self, calls, name):
        for s, theta in self.inputs():
            calls.clear()
            policy = POLICIES[name](s, 0.5 * (s.gamma_min + s.gamma_max))
            solve(s, theta, policy)
            assert sum(calls[k] for k in self.BESTCASE_KERNELS) == 0, s.label
            assert calls["grid_golden_maximize"] == 1
            assert calls["kkt_residuals"] == 1

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_no_analysis_runs_the_general_chain(self, calls, name):
        """Solves, differentials, sweeps, the mismatch loss and the
        continuation take every revenue from the closed forms, so the
        general chain stays off every timed path."""
        assumed = NOMINAL_PARAMS.replace("lambda", 1.2)
        spec = SweepSpec("alpha", steps=5)
        for s in fixtures():
            policy = POLICIES[name](s, 0.5 * (s.gamma_min + s.gamma_max))
            record = solve(s, NOMINAL_PARAMS, policy)
            diffs = differentials(record, s, NOMINAL_PARAMS, policy)
            numeric_sweep(s, NOMINAL_PARAMS, policy, spec, record, diffs)
            mismatch_loss(s, NOMINAL_PARAMS, assumed, policy)
            piecewise_continuation(s, NOMINAL_PARAMS, policy, spec)
        assert calls["acceptance_probability"] == 0
        assert calls["acceptance_from_utilities"] == 0

    @pytest.mark.parametrize("reference", ["best", "expected"])
    def test_no_cli_command_runs_the_general_chain(self, calls, tmp_path,
                                                   reference):
        for command in (["solve"], ["domain"], ["mismatch"],
                        ["sweep", "--param", "alpha", "--steps", "3"]):
            assert main(command + ["--reference", reference,
                                   "--out", str(tmp_path)]) == 0, command
        assert calls["acceptance_probability"] == 0
        assert calls["acceptance_from_utilities"] == 0

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_one_evaluator_and_one_slope_at_the_answer(self, monkeypatch,
                                                       name):
        """Each solve builds its revenue closures, and so one evaluator,
        once, and outside the root finder takes the slope at gamma* at most
        once: in the polish's node at its root for an interior answer, and
        for an answer on a bound in the start pass; a node is one gradient
        call under the best case and no slope-closure call otherwise."""
        counts = Counter()
        at = []  # (tariff, inside the root finder) of every slope taken
        depth = [0]

        def install(module, attr, wrap):
            original = getattr(module, attr)
            monkeypatch.setattr(module, attr, wrap(original))

        def closures(original):
            def wrapper(*args):
                counts["closures"] += 1
                return original(*args)
            return wrapper

        def evaluator(original):
            def wrapper(*args):
                counts["evaluators"] += 1
                value, slope, nodes, bound = original(*args)

                def counted_slope(gamma):
                    at.append((gamma, depth[0] > 0))
                    return slope(gamma)
                return value, counted_slope, nodes, bound
            return wrapper

        def gradient(original):
            def wrapper(gamma, *args):
                at.append((gamma, depth[0] > 0))
                return original(gamma, *args)
            return wrapper

        def root_finder(original):
            def wrapper(*args):
                depth[0] += 1
                try:
                    return original(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        install(pricing, "_revenue_closures", closures)
        install(_core, "revenue_evaluator", evaluator)
        install(_core, "bestcase_revenue_gradient", gradient)
        install(pricing, "bracket_root", root_finder)
        seen = set()
        for s, theta in self.inputs():
            counts.clear()
            at.clear()
            policy = POLICIES[name](s, 0.5 * (s.gamma_min + s.gamma_max))
            record = solve(s, theta, policy)
            assert counts["closures"] == 1, s.label
            assert counts["evaluators"] == 1, s.label
            outside = sum(1 for x, inside in at
                          if x == record.gamma_star and not inside)
            assert outside <= 1, s.label
            seen.add(record.active)
        assert ActiveSet.INTERIOR in seen and len(seen) > 1


def slope_lipschitz_bound(slope, curvature):
    """A valid cell bound for a revenue whose slope is ``curvature``-Lipschitz:
    f lies under the parabola f(e) + f'(e)*(x - e) + curvature*(x - e)**2/2
    from either end e, so it lies under their minimum, whose largest value
    on the cell is at an end or where the two cross (their difference is
    linear)."""
    def bound(a, b, f_a, f_b, level):
        s_a, s_b = slope(a), slope(b)

        def from_a(x):
            return f_a + s_a * (x - a) + 0.5 * curvature * (x - a) ** 2

        def from_b(x):
            return f_b + s_b * (x - b) + 0.5 * curvature * (x - b) ** 2

        d_a, d_b = f_a - from_b(a), from_a(b) - f_b
        best = max(min(f_a, from_b(a)), min(from_a(b), f_b))
        if d_a * d_b < 0.0:
            best = max(best, from_a(a + (b - a) * d_a / (d_a - d_b)))
        return best
    return bound


def synthetic_closures(value, slope, bound):
    """A ``_revenue_closures`` stand-in serving (value, slope, nodes, bound)
    of a given revenue, whatever the scenario, parameters and policy."""
    def nodes(xs):
        return [value(x) for x in xs], [slope(x) for x in xs]
    return lambda scenario, params, policy: (value, slope, nodes, bound)


def gaussian_peaks(s, peaks):
    """(value, slope, bound) of a sum of Gaussian bumps
    ``(height, centre, width)`` on the box of s, centre and width as
    fractions of its span; the bound is ``slope_lipschitz_bound`` with the
    sum of the bumps' largest |curvature|, 2*height/width**2."""
    lo, span = s.gamma_min, s.gamma_span
    bumps = [(h, lo + c * span, w * span) for h, c, w in peaks]

    def value(x):
        return sum(h * math.exp(-((x - c) / w) ** 2) for h, c, w in bumps)

    def slope(x):
        return sum(-2.0 * h * (x - c) / w ** 2 * math.exp(-((x - c) / w) ** 2)
                   for h, c, w in bumps)
    curvature = sum(2.0 * h / w ** 2 for h, _, w in bumps)
    return value, slope, slope_lipschitz_bound(slope, curvature)


class TestCrossCheck:
    """The certificate and the oracle behind it, on synthetic revenues
    with a valid bound: equal peaks far apart pass, and a solver that
    loses its optimum raises."""

    def test_equal_peaks_far_apart_accepted(self, monkeypatch, s1):
        # 1 - 10 g^2 peaks at 1 on both roots of g; the right one is the
        # flatter (its curvature is 0.36x the left's), so a fine oracle
        # lands on it with more revenue than it finds on the left one
        lo, span = s1.gamma_min, s1.gamma_span

        def g(x):
            u = (x - lo) / span
            return (u - 0.3) * (u - 0.7) * (1.0 - (u - 0.3))

        def g_x(x):
            u = (x - lo) / span
            return ((u - 0.7) * (1.0 - (u - 0.3)) + (u - 0.3) * (1.0 - (u - 0.3))
                    - (u - 0.3) * (u - 0.7)) / span

        def value(x):
            return 1.0 - 10.0 * g(x) ** 2

        def slope(x):
            return -20.0 * g(x) * g_x(x)

        # g = -u^3 + 2.3u^2 - 1.51u + 0.273 on u in [0, 1]: |g_u| <= 1.51,
        # |g| <= 0.273 and |g_uu| <= 4.6, so |f''| = 20|g_u^2 + g g_uu|/span^2
        # stays below 20*(1.51**2 + 0.273*4.6)/span**2
        curvature = 20.0 * (1.51 ** 2 + 0.273 * 4.6) / span ** 2
        monkeypatch.setattr(pricing, "_revenue_closures", synthetic_closures(
            value, slope, slope_lipschitz_bound(slope, curvature)))
        record = solve(s1, NOMINAL_PARAMS)
        cell = span / pricing.START_CELLS
        fine_gamma, fine_f = grid_golden_maximize(
            value, s1.gamma_min, s1.gamma_max, presieve=pricing.LATTICE,
            tol=1e-6 * span)
        # the peak the solver did not return, which the oracle's 2-cell
        # rule alone would have refused
        assert abs(fine_gamma - record.gamma_star) > 2.0 * cell
        assert record.f_star >= fine_f * (1.0 - 1e-12)
        assert record.active is ActiveSet.INTERIOR

    # the optimum at 0.3 of the span; a peak 10% lower at 0.6, 19 lattice
    # cells right; both bounds 19 lattice cells or more away, with next to
    # no revenue
    PEAKS = ((1.0, 0.3, 0.08), (0.9, 0.6, 0.08))
    # the optimum lies just right of 0.3, where the second bump lifts it:
    # bisecting the dropped cell leaves the optimum's sign change in a cell
    # without 0.3, whose polish is sound
    REPAIRED = {"dropped cell"}

    @pytest.mark.parametrize("fault, lands_at", [("bound", 0.0),
                                                 ("dropped cell", 0.6),
                                                 ("second best", 0.6)])
    def test_injected_faults_raise(self, monkeypatch, s1, fault, lands_at):
        """Each fault would lose the optimum; the search raises or, where
        its bisection routes around the faulty polish, repairs it."""
        value, slope, bound = gaussian_peaks(s1, self.PEAKS)
        cell = s1.gamma_span / pricing.LATTICE
        gamma_a = s1.gamma_min + 0.3 * s1.gamma_span
        faulty = s1.gamma_min + lands_at * s1.gamma_span
        assert abs(faulty - gamma_a) > 2.5 * cell
        assert value(faulty) <= (1.0 - 1e-3) * value(gamma_a)

        polish = pricing.bracket_root
        misranked = set()

        def faulty_root(fn, a, b, tol, f_a, f_b):
            root = polish(fn, a, b, tol, f_a, f_b)
            holds_a = a <= gamma_a <= b
            if fault == "bound" or (fault == "dropped cell" and holds_a):
                return s1.gamma_min
            if fault == "second best" and holds_a:
                misranked.add(root)
            return root

        def faulty_value(x):
            # the selection reads the best candidate below the runner-up
            return value(x) - 1.0 if x in misranked else value(x)

        monkeypatch.setattr(pricing, "_revenue_closures",
                            synthetic_closures(faulty_value, slope, bound))
        monkeypatch.setattr(pricing, "bracket_root", faulty_root)
        if fault not in self.REPAIRED:
            with pytest.raises(SolverDisagreementError,
                               match=r"cannot certify the tariff cell \["):
                solve(s1, NOMINAL_PARAMS)
            return
        record = solve(s1, NOMINAL_PARAMS)
        fine_f = grid_golden_maximize(value, s1.gamma_min, s1.gamma_max,
                                      presieve=pricing.LATTICE,
                                      tol=1e-9 * s1.gamma_span)[1]
        assert record.f_star >= fine_f * (1.0 - 1e-12)

    def test_oracle_refines_to_half_a_start_cell(self, monkeypatch):
        """At most 5 counted values per endpoint cell and 6 per interior
        peak of the start grid, golden steps down to half a start cell and
        no further, and none for a bracket whose ends both lie within two
        start cells of gamma*."""
        original = pricing.grid_golden_maximize
        spent = []

        def counted(f, lo, hi, **kwargs):
            before = f.evaluations
            result = original(f, lo, hi, **kwargs)
            ys = kwargs["grid_values"]
            n = pricing.START_CELLS
            assert len(ys) == n + 1
            assert kwargs["tol"] == 0.5 * (hi - lo) / n
            center, radius = kwargs["skip_near"]
            assert radius == 2.0 * (hi - lo) / n
            xs = [lo + (hi - lo) * i / n for i in range(n)] + [hi]
            brackets = [(0, 1, 5), (n - 1, n, 5)] + [
                (i - 1, i + 1, 6) for i in range(1, n)
                if ys[i] >= ys[i - 1] and ys[i] >= ys[i + 1]]
            budget = sum(values for i, j, values in brackets
                         if abs(center - xs[i]) > radius
                         or abs(center - xs[j]) > radius)
            spent.append((f.evaluations - before, budget, center))
            return result

        monkeypatch.setattr(pricing, "grid_golden_maximize", counted)
        skipped = 0
        for name in POLICIES:
            for s, theta in TestEvaluationContract.inputs():
                policy = POLICIES[name](s, 0.5 * (s.gamma_min + s.gamma_max))
                spent.clear()
                record = solve(s, theta, policy)
                [(count, budget, center)] = spent
                assert center == record.gamma_star, (name, s.label)
                assert count <= budget, (name, s.label)
                skipped += budget < 2 * 5
        # some solve skipped an endpoint cell, so the radius test is live
        assert skipped > 0

    # the optimum at 0.3 of the span, which the search finds; the value
    # also holds a narrow, tall bump that the slope the search reads
    # leaves out, and the bound closes every cell at the level, so only
    # the oracle can see the bump
    OPTIMUM = ((1.0, 0.3, 0.08),)
    # (centre, width, height) of the bump, as fractions of the span: far
    # out, inside the interior bracket [4/8, 6/8] of the start node 5/8,
    # which the bump's tail makes a pattern peak; inside the endpoint cell
    # [7/8, 1]; and within two start cells of the optimum.  Each is too
    # narrow to lift a node the search takes above f*.
    HIDDEN = {"interior bracket": (0.6875, 0.03, 10.0),
              "endpoint cell": (0.94, 0.02, 100.0),
              "within two cells": (0.35, 0.005, 10.0)}

    def hide(self, monkeypatch, s, where):
        """Serve the optimum's slope and a lying bound with its value plus
        the bump at ``where``; the points the oracle evaluates."""
        value, slope, _ = gaussian_peaks(s, self.OPTIMUM)
        centre, width, height = self.HIDDEN[where]
        centre = s.gamma_min + centre * s.gamma_span
        width *= s.gamma_span

        def hidden(x):
            return value(x) + height * math.exp(-((x - centre) / width) ** 2)
        monkeypatch.setattr(pricing, "_revenue_closures", synthetic_closures(
            hidden, slope, lambda a, b, f_a, f_b, level: level))
        original = pricing.grid_golden_maximize
        probes = []

        def probed(f, lo, hi, **kwargs):
            def probe(x):
                probes.append(x)
                return f(x)
            return original(probe, lo, hi, **kwargs)
        monkeypatch.setattr(pricing, "grid_golden_maximize", probed)
        return probes

    @pytest.mark.parametrize("where", ["interior bracket", "endpoint cell"])
    def test_oracle_finds_a_peak_the_search_missed(self, monkeypatch, s1,
                                                   where):
        self.hide(monkeypatch, s1, where)
        with pytest.raises(SolverDisagreementError,
                           match="oracle revenue .* beats solver revenue"):
            solve(s1, NOMINAL_PARAMS)

    def test_bump_within_two_cells_costs_the_oracle_nothing(self,
                                                            monkeypatch, s1):
        """The verdict ignores every point within two start cells of
        gamma*, so the oracle does not refine the bracket [1/8, 3/8] of
        the start node nearest the optimum, which holds the bump: the bump
        goes unseen, and the oracle's golden steps all lie in the two
        endpoint cells."""
        probes = self.hide(monkeypatch, s1, "within two cells")
        record = solve(s1, NOMINAL_PARAMS)
        cell = s1.gamma_span / pricing.START_CELLS
        assert abs(record.gamma_star - (s1.gamma_min + 0.3 * s1.gamma_span)
                   ) < 1e-9 * s1.gamma_span
        assert len(probes) == 2 * 5
        assert all(x <= s1.gamma_min + cell or x >= s1.gamma_max - cell
                   for x in probes)

    def test_sub_cell_peak_found(self):
        # a valley and a peak inside the first lattice cell, whose end
        # slopes are both negative: the bound of that cell stays above the
        # lower bound's revenue, so the cell is bisected until the peak's
        # sign change shows
        s = generate_random(count=5, seed=6100080)[0]
        theta = CptParams(alpha=0.8174903229943282, beta=0.8, lam=2.25,
                          p_worst=0.75)
        policy = ReferencePolicy.expected_utility()
        record = solve(s, theta, policy)
        dense = max(expected_revenue(s.gamma_min + s.gamma_span * i / 4000,
                                     s, theta, policy) for i in range(4001))
        assert record.f_star >= dense * (1.0 - 1e-9)


def scan_max(s, theta, policy, points):
    """The largest revenue on ``points`` evenly spaced tariffs of the box."""
    f = revenue_function(s, theta, policy)
    return max(f(s.gamma_min + s.gamma_span * i / (points - 1))
               for i in range(points))


def fixed_policy(s, t):
    """A fixed reference at share t of [lowest u_low, highest u_high] of
    the box widened by 1 on either side, as ``golden_tool`` draws them."""
    low = s.x_low + s.b_sm * s.gamma_max - 1.0
    high = s.x_high + s.b_sm * s.gamma_min + 1.0
    return ReferencePolicy.fixed(low + t * (high - low))


def valid_range(s):
    """The tariffs where u_low <= u0 <= u_high, [(u0 - x_low)/b,
    (u0 - x_high)/b], 1e-6 inside either edge, where rounding cannot put
    u0 outside; it reaches below gamma = 0 when u0 > x_low."""
    lo, hi = (s.u0 - s.x_low) / s.b_sm, (s.u0 - s.x_high) / s.b_sm
    return (lo + 1e-6 * max(1.0, abs(lo)), hi - 1e-6 * max(1.0, abs(hi)))


@st.composite
def wide_draws(draw):
    """(scenario, theta, policy): generated scenarios, some with the box
    stretched down to the valid range's lower edge (below gamma = 0 when
    u0 > x_low), wide theta, all five policies, a fixed level at a random
    share across the ride outcomes."""
    s = draw(st.sampled_from(EVAL_SCENARIOS))
    if draw(st.booleans()):
        s = dataclasses.replace(s, gamma_min=valid_range(s)[0])
    theta = CptParams(alpha=draw(st.floats(0.2, 1.0)),
                      beta=draw(st.floats(0.2, 1.5)),
                      lam=draw(st.floats(0.3, 4.0)),
                      p_worst=draw(st.floats(0.02, 0.98)))
    name = draw(st.sampled_from(sorted(POLICIES)))
    if name == "fixed":
        return s, theta, fixed_policy(s, draw(st.floats(0.0, 1.0)))
    return s, theta, POLICIES[name](s, 0.0)


@st.composite
def curvature_draws(draw):
    """(scenario, theta, policy) over generated scenarios, theta with beta
    = 1 among its values, all five policies."""
    s = draw(st.sampled_from(EVAL_SCENARIOS))
    theta = CptParams(alpha=draw(st.floats(0.3, 1.0)),
                      beta=draw(st.one_of(st.just(1.0), st.floats(0.3, 1.5))),
                      lam=draw(st.floats(1.0, 4.0)),
                      p_worst=draw(st.floats(0.05, 0.95)))
    name = draw(st.sampled_from(sorted(POLICIES)))
    if name == "fixed":
        return s, theta, fixed_policy(s, draw(st.floats(0.0, 1.0)))
    return s, theta, POLICIES[name](s, 0.0)


class TestCertificate:
    """The revenue bound of a cell and the certified search built on it."""

    # R0067 and R0370 of the online-best benchmark pool (seed 31) at rider
    # parameters of its stream: flat peaks of tiny revenue, where a polish
    # stopped on the absolute |slope| test fell short of the peak by 2.5e-6
    # and 8.4e-9 of f*
    TINY_PEAKS = {
        "R0067": (TravelScenario(
            "R0067", u0=7.575956364565933, x_low=-8.004297451001783,
            x_high=9.325649397279943, b_sm=-0.14138252087814607,
            gamma_min=1.3606545820425087, gamma_max=12.13300223005549),
            CptParams(alpha=0.5719777281295585, beta=1.1668949922964456,
                      lam=3.4367714570684984, p_worst=0.5917873667347866)),
        "R0370": (TravelScenario(
            "R0370", u0=5.4503436452079725, x_low=-5.276228755625325,
            x_high=14.32182758668123, b_sm=-0.035769105452295946,
            gamma_min=1.060966362511016, gamma_max=8.067686465689805),
            CptParams(alpha=0.6327879684998635, beta=1.1914896073025796,
                      lam=3.4260240477756523, p_worst=0.623017421941941)),
    }

    @pytest.mark.parametrize("label", sorted(TINY_PEAKS))
    def test_flat_tiny_peak_reaches_the_scan(self, label):
        s, theta = self.TINY_PEAKS[label]
        record = solve(s, theta)
        assert record.f_star < 1e-7
        assert record.f_star >= (1.0 - 1e-9) * scan_max(s, theta, BEST_CASE,
                                                         20001)

    @pytest.mark.parametrize("lie", ["constant", "above the ends"])
    def test_bound_that_never_closes_raises(self, monkeypatch, s1, lie):
        value, slope, _ = gaussian_peaks(s1, TestCrossCheck.PEAKS)
        if lie == "constant":
            def bound(a, b, f_a, f_b, level):
                return 2.0
        else:
            def bound(a, b, f_a, f_b, level):
                return max(f_a, f_b) + 1.0
        monkeypatch.setattr(pricing, "_revenue_closures",
                            synthetic_closures(value, slope, bound))
        with pytest.raises(SolverDisagreementError) as err:
            solve(s1, NOMINAL_PARAMS)
        a, b = map(float, re.search(r"cell \[([^,]+), ([^\]]+)\]",
                                    str(err.value)).groups())
        assert s1.gamma_min <= a < b <= s1.gamma_max
        assert b - a < max(pricing.MIN_CELL * s1.gamma_span,
                           pricing.MIN_CELL_OF_TARIFF * s1.gamma_max)
        assert "f*=" in str(err.value)

    def test_values_above_the_certified_maximum_raise(self, monkeypatch, s1):
        # every root lost to the lower bound, and a bound that closes every
        # cell: the start nodes near the peak outrank f*
        value, slope, _ = gaussian_peaks(s1, TestCrossCheck.PEAKS)
        monkeypatch.setattr(pricing, "_revenue_closures", synthetic_closures(
            value, slope, lambda a, b, f_a, f_b, level: -math.inf))
        monkeypatch.setattr(pricing, "bracket_root",
                            lambda fn, a, b, tol, f_a, f_b: s1.gamma_min)
        with pytest.raises(SolverDisagreementError,
                           match="exceeds the certified f"):
            solve(s1, NOMINAL_PARAMS)

    @settings(max_examples=300, deadline=None)
    @given(draw=wide_draws(), where=st.sampled_from(["box", "valid range",
                                                     "base zero"]),
           start=st.floats(0.0, 1.0), log_width=st.floats(-6.0, 0.0),
           share=st.floats(0.0, 1.0))
    def test_bound_covers_the_revenue(self, draw, where, start, log_width,
                                      share):
        """The bound is >= f at 33 points of a cell: in the box, anywhere in
        the valid tariff range (down to gamma <= 0), or on a base zero of a
        fixed reference.  Checked at level -inf, which asks for the tight
        bound, and at +inf, which takes the free one."""
        s, theta, policy = draw
        lo, hi = ((s.gamma_min, s.gamma_max) if where == "box"
                  else valid_range(s))
        width = (hi - lo) * 10.0 ** log_width
        a = lo + start * (hi - lo - width)
        b = a + width
        if where == "base zero":
            # the worst or best outcome on the reference inside the cell
            x = s.x_low if share < 0.5 else s.x_high
            policy = ReferencePolicy.fixed(x + s.b_sm * (a + share * width))
        value, bound = evaluator(s, policy, theta)[::3]
        f_a, f_b = value(a), value(b)
        top = max(value(a + width * i / 32) for i in range(33))
        for level in (-math.inf, math.inf):
            # the certificate's slack is 1e-12 of f*; the bound may round
            # within a far smaller share of it
            assert bound(a, b, f_a, f_b, level) >= top - 1e-13 * abs(top)

    @settings(max_examples=650, deadline=None)
    @given(draw=curvature_draws(), start=st.floats(0.0, 1.0),
           log_width=st.floats(-7.0, -0.5),
           shift=st.sampled_from([-1e-2, -1e-6, -1e-12, 0.0, 1e-12, 1e-6]))
    def test_bound_at_a_level_covers_a_dense_scan(self, draw, start,
                                                  log_width, shift):
        """At a level near a cell's largest revenue, above or below it, the
        bound the solver uses, its second-order test included, holds a
        2001-point scan of the cell: the scan stays within 1e-14 of the
        level where the bound closes the cell, and within the end values'
        rounding of the bound where it does not.  Four cells of one width
        per draw (about 2000 in all): one anywhere in the box, one on
        either side of the solve's answer, a polished root or a box end,
        and one around it."""
        s, theta, policy = draw
        value, bound = pricing._revenue_closures(s, theta, policy)[::3]
        lo, hi = s.gamma_min, s.gamma_max
        width = (hi - lo) * 10.0 ** log_width
        answer = solve(s, theta, policy).gamma_star
        a = lo + start * (hi - lo - width)
        cells = [(a, a + width), (max(lo, answer - width), answer),
                 (answer, min(hi, answer + width)),
                 (max(lo, answer - start * width),
                  min(hi, answer + (1.0 - start) * width))]
        for a, b in cells:
            if not a < b:  # beyond the box end that is the answer
                continue
            top = max(map(value, [a + (b - a) * i / 2000
                                  for i in range(2001)]))
            level = top * (1.0 + shift)
            u = bound(a, b, value(a), value(b), level)
            if u <= level:  # closed: within 1e-14 of the level
                assert top <= level + 1e-14 * abs(level), (a, b)
            else:  # open: the end values round as in the bound's own test
                assert top <= u + 1e-13 * abs(u), (a, b)

    @pytest.mark.parametrize("label, evaluations", [("S2", 18), ("S4", 18)])
    def test_cells_beside_the_peak_close_unsplit(self, monkeypatch, scenarios,
                                                 label, evaluations):
        # under the expected reference the alternative's gain term is
        # concave (beta < 1), so the first-order bound alone leaves the
        # cells beside the polished root open: it bisected 21 (S2) and 23
        # (S4) cells below the lattice there, and took 44 and 54 values
        # (with an oracle that refined every bracket).  The second-order
        # test closes them whole.
        below_lattice = []
        split = pricing._split

        def counted(cell, *args):
            if cell[7] - cell[6] < 2:
                below_lattice.append(cell)
            return split(cell, *args)

        monkeypatch.setattr(pricing, "_split", counted)
        s = next(s for s in scenarios if s.label == label)
        record = solve(s, NOMINAL_PARAMS, ReferencePolicy.expected_utility())
        assert record.active is ActiveSet.INTERIOR
        assert (len(below_lattice), record.evaluations) == (0, evaluations)

    def test_curvature_floor_keeps_a_non_convex_cell_open(self):
        # R0182 of generate_random(200, seed=1) at a wide rider under the
        # expected reference: on this cell the alternative's concave gain
        # term makes phi = z - log(gamma/level - 1) non-convex, and its end
        # tangents meet above 0 while the revenue rises 1e-5 above the
        # level inside; only the curvature floor keeps the cell open
        s = TravelScenario(
            "R0182", u0=1.3389097854060665, x_low=-3.49681919997976,
            x_high=8.082660519930535, b_sm=-0.35095096816114824,
            gamma_min=3.240102804324853, gamma_max=18.225578804680268)
        theta = CptParams(alpha=0.9699452175914915, beta=0.42712220187374766,
                          lam=1.357215318882791, p_worst=0.42000012920461655)
        value, bound = pricing._revenue_closures(
            s, theta, ReferencePolicy.expected_utility())[::3]
        a, b = 5.898385105603623, 17.457951693859584
        top = max(value(a + (b - a) * i / 2000) for i in range(2001))
        level = top * (1.0 - 1e-5)
        assert max(value(a), value(b)) < level < top
        assert bound(a, b, value(a), value(b), level) >= top

    @settings(max_examples=200, deadline=None)
    @given(draw=wide_draws())
    def test_solve_reaches_a_dense_scan(self, draw):
        s, theta, policy = draw
        record = solve(s, theta, policy)
        top = scan_max(s, theta, policy, 4001)
        assert record.f_star >= (1.0 - 1e-9) * top


class TestPolish:
    """The polish: Brent's root finding on the slope of a + to - cell,
    from the slopes the cell holds at its ends, stopped on the root's
    position."""

    @pytest.mark.parametrize("name", ["best", "expected"])
    def test_slope_values_per_polish(self, name):
        """The polish converges superlinearly: at most 6 slope values per
        polish on average, the one at its root included, over
        generate_random(50, seed=31) at the nominal parameters, so a
        polish that converges only linearly (about 20) fails."""
        log = []
        with golden_tool.logged_polish(log):
            for s in EVAL_SCENARIOS:
                solve(s, NOMINAL_PARAMS, POLICIES[name](s, 0.0))
        assert len(log) >= 20
        assert sum(probes for *_, probes in log) / len(log) <= 6.0

    @settings(max_examples=300, deadline=None)
    @given(draw=wide_draws())
    def test_root_matches_mpmath(self, draw):
        """An interior gamma* is within 1e-12 of the span of a 50-digit
        mpmath root of the slope on the cell it was polished on, or, where
        that root is ill-conditioned, within the slope's rounding error
        over |f_gg| if that is larger.  f* is never below a 20001-point
        dense scan by more than CERTIFY_RTOL*|f*|."""
        s, theta, policy = draw
        log = []
        with golden_tool.logged_polish(log):
            record = solve(s, theta, policy)
        top = scan_max(s, theta, policy, 20001)
        assert record.f_star >= top - pricing.CERTIFY_RTOL * abs(record.f_star)
        if record.active is not ActiveSet.INTERIOR:
            return
        gamma = record.gamma_star
        cells = [(a, b) for a, b, root, _ in log if root == gamma]
        slope = revenue_gradient(s, theta, policy)
        if not cells:  # a node of slope exactly 0
            assert slope(gamma) == 0.0
            return
        a, b = cells[0]
        with mp.workdps(50):
            def revenue(x):
                return mp_revenue(s, policy, x, theta.alpha, theta.beta,
                                  theta.lam, theta.p_worst)

            def mp_slope(x):
                return mp.diff(revenue, mp.mpf(x))
            rounding = max(abs(slope(x) - mp_slope(x)) for x in (a, gamma, b))
            f_gg = abs(mp.diff(revenue, mp.mpf(gamma), 2))
            allowance = max(1e-12 * s.gamma_span,
                            float(rounding / f_gg) if f_gg else math.inf)
            # the exact slope changes sign within the allowance of gamma*,
            # so a root lies there, or a kink where the slope jumps from +
            # to - (beta = 1 makes the value function piecewise linear),
            # which the bracketing solver converges to without a zero
            lo, hi = max(a, gamma - allowance), min(b, gamma + allowance)
            assert mp_slope(lo) > 0 > mp_slope(hi), (lo, gamma, hi)
            root = mp.findroot(mp_slope, (mp.mpf(lo), mp.mpf(hi)),
                               solver="anderson", verify=False)
        assert abs(float(root) - gamma) <= allowance


@settings(max_examples=2000, deadline=None)
@given(draw=wide_draws(), share=st.floats(0.0, 1.0))
def test_skipping_oracle_raises_wherever_the_full_oracle_does(draw, share):
    """The verdict of ``solve`` on an oracle that skips the brackets
    within two start cells of the answer raises wherever the same verdict
    on a fully refining oracle raises: at the solve's own answer, and at
    injected wrong answers, each start node and a tariff at ``share`` of
    the box, each with its own revenue as f*."""
    s, theta, policy = draw
    record = solve(s, theta, policy)
    value = revenue_function(s, theta, policy)
    lo, hi, n = s.gamma_min, s.gamma_max, pricing.START_CELLS
    cell = s.gamma_span / n
    xs = [lo + s.gamma_span * i / n for i in range(n)] + [hi]
    ys = [value(x) for x in xs]

    def raises(gamma, f_star, skip_near):
        gamma_oracle, f_oracle = grid_golden_maximize(
            value, lo, hi, presieve=n, tol=0.5 * cell, grid_values=ys,
            skip_near=skip_near)
        return (f_oracle > f_star + 1e-12 * abs(f_star)
                and abs(gamma - gamma_oracle) > 2.0 * cell)

    wrong = lo + share * s.gamma_span
    for gamma, f_star in ([(record.gamma_star, record.f_star),
                           (wrong, value(wrong))] + list(zip(xs, ys))):
        if raises(gamma, f_star, None):
            assert raises(gamma, f_star, (gamma, 2.0 * cell)), gamma


@settings(max_examples=800, deadline=None)
@given(draw=wide_draws())
def test_held_slope_gives_the_public_residual(draw):
    """``solve`` passes ``kkt_residuals`` the slope at gamma* it took in
    the search; the residual it records has the bits of one recomputed
    through ``revenue_gradient``."""
    s, theta, policy = draw
    record = solve(s, theta, policy)
    slope = revenue_gradient(s, theta, policy)(record.gamma_star)
    public = kkt_residuals(record, slope).max_residual
    assert record.kkt_residual.hex() == public.hex()
