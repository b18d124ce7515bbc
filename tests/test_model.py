"""Unit tests for the behavioral model primitives."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt_sense import _core
from cpt_sense import (
    BEST_CASE,
    BinaryProspect,
    CptParams,
    InvalidScenarioError,
    PolicyKind,
    ReferencePolicy,
    SingularPointError,
    TravelScenario,
    acceptance_probability,
    closed_form_revenue_bestcase,
    expected_revenue,
    generate_random,
    rank_dependent_weights,
    resolve_reference,
    subjective_utilities,
    value,
    weight,
)

NOM = CptParams(alpha=0.82, beta=0.8, lam=2.25, p_worst=0.75)

# frozen high-precision scalar evaluations (recomputed independently before
# these tests were written)
PRELEC_075_082 = 0.6976728594742868
PRELEC_025_082 = 0.27059335962181996
S1_G6_U_SUBJ = -12.210168790403195
S1_G6_A_SUBJ = -9.98369286376004
S1_G6_ACCEPT = 0.09739800879217349
S2_G10_REVENUE = 2.88060234979272


class TestCptParams:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0), dict(alpha=-1.0), dict(beta=0.0), dict(beta=-0.5),
        dict(lam=0.0), dict(lam=-2.0), dict(p_worst=0.0), dict(p_worst=1.0),
        dict(p_worst=-0.1), dict(p_worst=1.5), dict(alpha=math.nan),
        dict(lam=math.inf),
    ])
    def test_rejects_invalid(self, kwargs):
        base = dict(alpha=0.82, beta=0.8, lam=2.25, p_worst=0.75)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CptParams(**base)

    def test_get_and_replace_by_public_name(self):
        assert NOM.get("lambda") == 2.25
        assert NOM.get("p") == 0.75
        bumped = NOM.replace("lambda", 2.7)
        assert bumped.lam == 2.7
        assert bumped.alpha == NOM.alpha
        with pytest.raises(ValueError):
            NOM.get("gamma")
        with pytest.raises(ValueError):
            NOM.replace("nope", 1.0)


class TestReferencePolicy:
    def test_fixed_requires_level(self):
        with pytest.raises(ValueError):
            ReferencePolicy(PolicyKind.FIXED_VALUE)
        with pytest.raises(ValueError):
            ReferencePolicy(PolicyKind.FIXED_VALUE, math.nan)
        assert ReferencePolicy.fixed(1.5).level == 1.5

    def test_other_kinds_reject_level(self):
        with pytest.raises(ValueError):
            ReferencePolicy(PolicyKind.BEST_CASE, 3.0)


class TestBinaryProspect:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BinaryProspect(u_low=2.0, u_high=1.0, p_worst=0.5)

    def test_probability_open_interval(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                BinaryProspect(u_low=0.0, u_high=1.0, p_worst=p)


class TestValue:
    def test_zero_at_reference(self):
        assert value(3.7, 3.7, NOM) == 0.0

    def test_unit_gain_is_one(self):
        for beta in (0.3, 0.8, 1.0, 1.7):
            params = CptParams(alpha=0.82, beta=beta, lam=2.25, p_worst=0.75)
            assert value(4.0, 3.0, params) == pytest.approx(1.0, abs=0)

    def test_unit_loss_is_minus_lambda(self):
        assert value(2.0, 3.0, NOM) == pytest.approx(-2.25, abs=0)

    def test_no_nan_at_branch_point(self):
        assert value(0.0, 0.0, NOM) == 0.0

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=300)
    def test_strictly_increasing_in_u(self, ref, a, b):
        # separation floor keeps the check away from float-resolution ties
        if abs(a - b) < 1e-9:
            return
        lo, hi = min(a, b), max(a, b)
        assert value(lo, ref, NOM) < value(hi, ref, NOM)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            value(math.nan, 0.0, NOM)
        with pytest.raises(ValueError):
            value(0.0, math.inf, NOM)


class TestWeight:
    def test_endpoints_exact(self):
        for alpha in (0.3, 0.82, 1.0, 2.5):
            assert weight(0.0, alpha) == 0.0
            assert weight(1.0, alpha) == 1.0

    def test_identity_at_alpha_one(self):
        assert weight(0.3, 1.0) == pytest.approx(0.3, rel=1e-15)

    def test_frozen_value(self):
        assert weight(0.75, 0.82) == pytest.approx(PRELEC_075_082, rel=1e-15)
        assert weight(0.25, 0.82) == pytest.approx(PRELEC_025_082, rel=1e-15)

    @given(st.floats(1e-9, 1 - 1e-9), st.floats(1e-9, 1 - 1e-9))
    @settings(max_examples=300)
    def test_strictly_increasing(self, a, b):
        # separation floor keeps the check away from float-resolution ties
        if abs(a - b) < 1e-12:
            return
        lo, hi = min(a, b), max(a, b)
        assert weight(lo, 0.82) < weight(hi, 0.82)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            weight(-0.1, 0.82)
        with pytest.raises(ValueError):
            weight(1.1, 0.82)
        with pytest.raises(ValueError):
            weight(math.nan, 0.82)
        with pytest.raises(ValueError):
            weight(0.5, 0.0)


class TestResolveReference:
    PROSPECT = BinaryProspect(u_low=0.0, u_high=4.0, p_worst=0.75)

    def test_best_case(self):
        prospect = BinaryProspect(u_low=1.0, u_high=7.2, p_worst=0.5)
        assert resolve_reference(ReferencePolicy.best_case(), prospect, 2.0) == 7.2

    def test_expected_utility(self):
        got = resolve_reference(ReferencePolicy.expected_utility(),
                                self.PROSPECT, 2.0)
        assert got == pytest.approx(1.0, abs=0)

    def test_static_alternative(self):
        got = resolve_reference(ReferencePolicy.static_alternative(),
                                self.PROSPECT, -7.62)
        assert got == -7.62

    def test_worst_case_and_fixed(self):
        assert resolve_reference(ReferencePolicy.worst_case(),
                                 self.PROSPECT, 2.0) == 0.0
        assert resolve_reference(ReferencePolicy.fixed(3.25),
                                 self.PROSPECT, 2.0) == 3.25


def cdf_rule_weights(prospect, reference, alpha):
    """Literal cumulative/decumulative branch rule, used as an oracle.

    For outcomes sorted ascending with F the prospect's step distribution:
    below-reference outcomes take w_i = w(F(u_i)) - w(F(u_{i-1})),
    the rest take w_i = w(1 - F(u_{i-1})) - w(1 - F(u_i)).
    """
    outcomes = [prospect.u_low, prospect.u_high]
    cdf = [prospect.p_worst, 1.0]
    prev_cdf = [0.0, prospect.p_worst]
    out = []
    for u, f_here, f_prev in zip(outcomes, cdf, prev_cdf):
        if u < reference:
            out.append(weight(f_here, alpha) - weight(f_prev, alpha))
        else:
            out.append(weight(1.0 - f_prev, alpha) - weight(1.0 - f_here, alpha))
    return tuple(out)


class TestRankDependentWeights:
    def test_reference_at_best_case(self):
        prospect = BinaryProspect(0.0, 4.0, 0.75)
        w_low, w_high = rank_dependent_weights(prospect, 4.0, 0.82)
        assert w_low == pytest.approx(PRELEC_075_082, rel=1e-15)
        assert w_high == pytest.approx(PRELEC_025_082, rel=1e-15)

    def test_identity_distortion_recovers_probabilities(self):
        prospect = BinaryProspect(0.0, 4.0, 0.3)
        for ref in (-1.0, 0.0, 2.0, 4.0, 5.0):
            w_low, w_high = rank_dependent_weights(prospect, ref, 1.0)
            assert w_low == pytest.approx(0.3, rel=1e-12)
            assert w_high == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("reference", [-2.0, 0.0, 1.5, 4.0, 6.0])
    @pytest.mark.parametrize("alpha", [0.4, 0.82, 1.0, 1.9])
    def test_matches_cdf_rule_oracle(self, reference, alpha):
        prospect = BinaryProspect(0.0, 4.0, 0.75)
        got = rank_dependent_weights(prospect, reference, alpha)
        want = cdf_rule_weights(prospect, reference, alpha)
        assert got[0] == pytest.approx(want[0], rel=1e-14, abs=1e-15)
        assert got[1] == pytest.approx(want[1], rel=1e-14, abs=1e-15)

    @given(st.floats(0.01, 0.99), st.floats(0.2, 2.0), st.floats(-6, 6))
    @settings(max_examples=200)
    def test_nonnegative_weights(self, p, alpha, ref):
        prospect = BinaryProspect(-1.0, 3.0, p)
        w_low, w_high = rank_dependent_weights(prospect, ref, alpha)
        assert w_low >= 0.0
        assert w_high >= 0.0


class TestSubjectiveUtilities:
    def test_best_case_structure(self):
        prospect = BinaryProspect(1.0, 5.0, 0.75)
        ev = subjective_utilities(prospect, 3.0, NOM, BEST_CASE)
        assert ev.reference == 5.0
        assert ev.v_high == 0.0
        assert ev.u_smods_subjective == pytest.approx(ev.w_low * ev.v_low, abs=0)

    def test_alternative_at_reference_scores_zero(self):
        prospect = BinaryProspect(1.0, 5.0, 0.75)
        ev = subjective_utilities(prospect, 5.0, NOM, BEST_CASE)
        assert ev.u_alt_subjective == 0.0

    def test_s1_frozen_values(self, s1):
        u_low, u_high = 1.62, 14.61  # S1 utilities at a 6.0 tariff
        prospect = BinaryProspect(u_low, u_high, 0.75)
        ev = subjective_utilities(prospect, s1.u0, NOM, BEST_CASE)
        assert ev.u_smods_subjective == pytest.approx(S1_G6_U_SUBJ, rel=1e-13)
        assert ev.u_alt_subjective == pytest.approx(S1_G6_A_SUBJ, rel=1e-13)

    def test_trivial_choice_set_rejected(self):
        prospect = BinaryProspect(1.0, 5.0, 0.75)
        with pytest.raises(InvalidScenarioError):
            subjective_utilities(prospect, 0.5, NOM, BEST_CASE)
        with pytest.raises(InvalidScenarioError):
            subjective_utilities(prospect, 5.5, NOM, BEST_CASE)

    def test_weights_allow_subcertainty(self):
        prospect = BinaryProspect(1.0, 5.0, 0.5)
        ev = subjective_utilities(prospect, 3.0, NOM, BEST_CASE)
        assert ev.w_low + ev.w_high < 1.0


class TestAcceptanceProbability:
    def test_half_when_subjectively_equal(self):
        # degenerate prospect whose outcomes and alternative coincide at the
        # evaluation tariff: every subjective value is exactly zero
        scenario = TravelScenario("deg", u0=4.85, x_low=5.0, x_high=5.0,
                                  b_sm=-0.1, gamma_min=1.0, gamma_max=2.0)
        assert acceptance_probability(1.5, scenario, NOM) == 0.5

    def test_s1_frozen_value(self, s1):
        assert acceptance_probability(6.0, s1, NOM) == pytest.approx(
            S1_G6_ACCEPT, rel=1e-13)

    def test_strictly_decreasing_in_tariff(self, scenarios):
        for scenario in scenarios:
            grid = [scenario.gamma_min
                    + scenario.gamma_span * i / 200 for i in range(201)]
            vals = [acceptance_probability(g, scenario, NOM) for g in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert all(0.0 < v < 1.0 for v in vals)

    def test_cheaper_offer_more_attractive(self, s1):
        assert acceptance_probability(4.66, s1, NOM) \
            > acceptance_probability(8.41, s1, NOM)

    def test_large_utility_gap_saturates_stably(self):
        scenario = TravelScenario("sat", u0=0.0, x_low=-400.0, x_high=900.0,
                                  b_sm=-0.01, gamma_min=1.0, gamma_max=2.0)
        p = acceptance_probability(1.5, scenario, NOM)
        assert 0.0 < p < 1.0


class TestExpectedRevenue:
    def test_zero_tariff_zero_revenue(self, s1):
        assert expected_revenue(0.0, s1, NOM) == 0.0

    def test_bounded_by_tariff(self, scenarios):
        for scenario in scenarios:
            g = 0.5 * (scenario.gamma_min + scenario.gamma_max)
            f = expected_revenue(g, scenario, NOM)
            assert 0.0 < f < g

    def test_matches_closed_form_on_s1(self, s1):
        general = expected_revenue(6.0, s1, NOM, BEST_CASE)
        closed = closed_form_revenue_bestcase(6.0, s1, NOM)
        assert general == pytest.approx(closed, rel=1e-12)

    def test_matches_closed_form_on_random_pairs(self):
        rng = random.Random(1234)
        scenarios = generate_random(count=100, seed=99)
        checked = 0
        while checked < 1000:
            scenario = rng.choice(scenarios)
            g = rng.uniform(scenario.gamma_min, scenario.gamma_max)
            general = expected_revenue(g, scenario, NOM, BEST_CASE)
            closed = closed_form_revenue_bestcase(g, scenario, NOM)
            assert general == pytest.approx(closed, rel=1e-12, abs=1e-300)
            checked += 1

    def test_s2_frozen_value(self, s2):
        assert closed_form_revenue_bestcase(10.0, s2, NOM) == pytest.approx(
            S2_G10_REVENUE, rel=1e-13)

    def test_deep_loss_aversion_kills_revenue(self, s1):
        heavy = CptParams(alpha=0.82, beta=0.8, lam=50.0, p_worst=0.75)
        assert closed_form_revenue_bestcase(6.0, s1, heavy) < 1e-12

    def test_alternative_above_best_outcome_rejected(self, s1):
        # a tariff high enough that u0 exceeds the best ride outcome
        bad_gamma = (s1.x_high - s1.u0) / -s1.b_sm + 1.0
        with pytest.raises(InvalidScenarioError):
            closed_form_revenue_bestcase(bad_gamma, s1, NOM)


class TestBestCaseKernels:
    # loss base x_high + b*gamma - u0: 6 - 0.5*2 - 5 = 0 and 6 - 0.5*20 - 5 < 0
    ZERO_BASE = (2.0, 5.0, 0.0, 6.0, -0.5, 0.82, 0.8, 2.25, 0.75)
    NEGATIVE_BASE = (20.0, 5.0, 0.0, 6.0, -0.5, 0.82, 0.8, 2.25, 0.75)

    def test_negative_loss_base_rejected(self):
        for kernel in (_core.bestcase_revenue, _core.bestcase_revenue_gradient,
                       _core.bestcase_partials):
            with pytest.raises(InvalidScenarioError):
                kernel(*self.NEGATIVE_BASE)

    def test_zero_loss_base_singular_below_unit_beta(self):
        with pytest.raises(SingularPointError):
            _core.bestcase_revenue_gradient(*self.ZERO_BASE)
        with pytest.raises(SingularPointError):
            _core.bestcase_partials(*self.ZERO_BASE)
        unit_beta = self.ZERO_BASE[:6] + (1.0,) + self.ZERO_BASE[7:]
        assert math.isfinite(_core.bestcase_revenue_gradient(*unit_beta))
