"""Unit tests for the behavioral model primitives."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt_sense import _core
from cpt_sense import (
    BEST_CASE,
    PARAM_NAMES,
    BinaryProspect,
    CptParams,
    InvalidScenarioError,
    PolicyKind,
    ReferencePolicy,
    SingularPointError,
    TravelScenario,
    acceptance_probability,
    expected_revenue,
    generate_random,
    resolve_reference,
    revenue_function,
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
        fields = {"alpha": "alpha", "beta": "beta", "lambda": "lam",
                  "p": "p_worst"}
        assert tuple(fields) == PARAM_NAMES
        for name, field in fields.items():
            assert NOM.get(name) == getattr(NOM, field)
            bumped = NOM.replace(name, 0.5)
            assert bumped.get(name) == getattr(bumped, field) == 0.5
            for other, other_field in fields.items():
                if other != name:
                    assert getattr(bumped, other_field) == getattr(NOM, other_field)
        with pytest.raises(ValueError):
            NOM.get("gamma")
        with pytest.raises(ValueError):
            NOM.replace("nope", 1.0)
        with pytest.raises(ValueError, match="p_worst must be in"):
            NOM.replace("p", 1.0)


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


def value(u, reference, params):
    return _core.cpt_value(u, reference, params.beta, params.lam)


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


weight = _core.prelec_weight


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


def weights_at(prospect, reference, alpha):
    """``_core.rank_weights`` with its branch flags read from ``reference``."""
    return _core.rank_weights(prospect.p_worst, alpha,
                              prospect.u_low < reference,
                              prospect.u_high >= reference)


class TestRankDependentWeights:
    def test_reference_at_best_case(self):
        prospect = BinaryProspect(0.0, 4.0, 0.75)
        w_low, w_high = weights_at(prospect, 4.0, 0.82)
        assert w_low == pytest.approx(PRELEC_075_082, rel=1e-15)
        assert w_high == pytest.approx(PRELEC_025_082, rel=1e-15)

    def test_identity_distortion_recovers_probabilities(self):
        prospect = BinaryProspect(0.0, 4.0, 0.3)
        for ref in (-1.0, 0.0, 2.0, 4.0, 5.0):
            w_low, w_high = weights_at(prospect, ref, 1.0)
            assert w_low == pytest.approx(0.3, rel=1e-12)
            assert w_high == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("reference", [-2.0, 0.0, 1.5, 4.0, 6.0])
    @pytest.mark.parametrize("alpha", [0.4, 0.82, 1.0, 1.9])
    def test_matches_cdf_rule_oracle(self, reference, alpha):
        prospect = BinaryProspect(0.0, 4.0, 0.75)
        got = weights_at(prospect, reference, alpha)
        want = cdf_rule_weights(prospect, reference, alpha)
        assert got[0] == pytest.approx(want[0], rel=1e-14, abs=1e-15)
        assert got[1] == pytest.approx(want[1], rel=1e-14, abs=1e-15)

    @given(st.floats(0.01, 0.99), st.floats(0.2, 2.0), st.floats(-6, 6))
    @settings(max_examples=200)
    def test_nonnegative_weights(self, p, alpha, ref):
        prospect = BinaryProspect(-1.0, 3.0, p)
        w_low, w_high = weights_at(prospect, ref, alpha)
        assert w_low >= 0.0
        assert w_high >= 0.0


def best_case_evaluation(u_low, u_high, u_alt, p_worst, params):
    """Weights, outcome values and the ride's and the alternative's
    subjective utilities under the best-case reference R = u_high, from
    the kernel's primitives."""
    prospect = BinaryProspect(u_low, u_high, p_worst)
    w_low, w_high = weights_at(prospect, u_high, params.alpha)
    v_low, v_high = value(u_low, u_high, params), value(u_high, u_high, params)
    return (w_low, w_high, v_low, v_high, w_low * v_low + w_high * v_high,
            value(u_alt, u_high, params))


class TestSubjectiveUtilities:
    def test_best_case_structure(self):
        w_low, _, v_low, v_high, u_s, _ = best_case_evaluation(
            1.0, 5.0, 3.0, 0.75, NOM)
        assert v_high == 0.0
        assert u_s == pytest.approx(w_low * v_low, abs=0)

    def test_alternative_at_reference_scores_zero(self):
        assert best_case_evaluation(1.0, 5.0, 5.0, 0.75, NOM)[5] == 0.0

    def test_s1_frozen_values(self, s1):
        u_low, u_high = 1.62, 14.61  # S1 utilities at a 6.0 tariff
        *_, u_s, a_s = best_case_evaluation(u_low, u_high, s1.u0, 0.75, NOM)
        assert u_s == pytest.approx(S1_G6_U_SUBJ, rel=1e-13)
        assert a_s == pytest.approx(S1_G6_A_SUBJ, rel=1e-13)

    def test_weights_allow_subcertainty(self):
        w_low, w_high, *_ = best_case_evaluation(1.0, 5.0, 3.0, 0.5, NOM)
        assert w_low + w_high < 1.0


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
        closed = revenue_function(s1, NOM)(6.0)
        assert general == pytest.approx(closed, rel=1e-12)

    def test_matches_closed_form_on_random_pairs(self):
        rng = random.Random(1234)
        scenarios = generate_random(count=100, seed=99)
        checked = 0
        while checked < 1000:
            scenario = rng.choice(scenarios)
            g = rng.uniform(scenario.gamma_min, scenario.gamma_max)
            general = expected_revenue(g, scenario, NOM, BEST_CASE)
            closed = revenue_function(scenario, NOM)(g)
            assert general == pytest.approx(closed, rel=1e-12, abs=1e-300)
            checked += 1

    def test_s2_frozen_value(self, s2):
        assert revenue_function(s2, NOM)(10.0) == pytest.approx(
            S2_G10_REVENUE, rel=1e-13)

    def test_deep_loss_aversion_kills_revenue(self, s1):
        heavy = CptParams(alpha=0.82, beta=0.8, lam=50.0, p_worst=0.75)
        assert revenue_function(s1, heavy)(6.0) < 1e-12

    def test_alternative_above_best_outcome_rejected(self, s1):
        # a tariff high enough that u0 exceeds the best ride outcome
        bad_gamma = (s1.x_high - s1.u0) / -s1.b_sm + 1.0
        with pytest.raises(InvalidScenarioError):
            revenue_function(s1, NOM)(bad_gamma)


def prospect_path_revenue(gamma, s, params, policy):
    """``expected_revenue`` along the prospect path: a ``BinaryProspect``
    at the tariff, ``resolve_reference`` and the kernel's primitives
    ``rank_weights``, ``cpt_value`` and ``_stable_logistic``."""
    if not math.isfinite(gamma):
        raise ValueError(gamma)
    u_low = s.x_low + s.b_sm * gamma
    u_high = s.x_high + s.b_sm * gamma
    if not u_low <= s.u0 <= u_high:
        raise InvalidScenarioError(gamma)
    prospect = BinaryProspect(u_low, u_high, params.p_worst)
    reference = resolve_reference(policy, prospect, s.u0)
    beta, lam = params.beta, params.lam
    w_low, w_high = _core.rank_weights(params.p_worst, params.alpha,
                                       u_low < reference, u_high >= reference)
    u_s = (w_low * _core.cpt_value(u_low, reference, beta, lam)
           + w_high * _core.cpt_value(u_high, reference, beta, lam))
    a_s = _core.cpt_value(s.u0, reference, beta, lam)
    return gamma * _core._stable_logistic(a_s - u_s)


CHAIN_SCENARIOS = generate_random(count=40, seed=17)


@st.composite
def chain_calls(draw):
    """(gamma, scenario, theta, policy): tariffs across and 10% beyond the
    valid range, on its edges and non-finite; now and then a non-finite
    utility field; wide theta; all five policies, a fixed level across
    and beyond the ride outcomes."""
    s = draw(st.sampled_from(CHAIN_SCENARIOS))
    lo, hi = (s.u0 - s.x_low) / s.b_sm, (s.u0 - s.x_high) / s.b_sm
    gamma = draw(st.one_of(
        st.floats(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)),
        st.sampled_from([lo, hi, math.nan, math.inf, -math.inf])))
    theta = CptParams(alpha=draw(st.floats(0.2, 1.0)),
                      beta=draw(st.floats(0.2, 1.5)),
                      lam=draw(st.floats(0.3, 4.0)),
                      p_worst=draw(st.floats(0.02, 0.98)))
    kind = draw(st.sampled_from(list(PolicyKind)))
    if kind is PolicyKind.FIXED_VALUE:
        policy = ReferencePolicy.fixed(
            s.x_low + s.b_sm * hi
            + draw(st.floats(-1.5, 1.5)) * (s.x_high - s.x_low))
    else:
        policy = ReferencePolicy(kind)
    if draw(st.integers(0, 4)) == 0:
        s = dataclasses.replace(s, **{
            draw(st.sampled_from(["u0", "x_low", "x_high"])):
            draw(st.sampled_from([math.inf, -math.inf, math.nan]))})
    return gamma, s, theta, policy


class TestGeneralChain:
    """``expected_revenue`` forms the outcomes and the reference without a
    ``BinaryProspect``: the same bits and the same exception types as the
    prospect path."""

    @given(chain_calls())
    @settings(max_examples=1000, deadline=None)
    def test_same_bits_as_the_prospect_path(self, call):
        try:
            want = _bits(prospect_path_revenue(*call))
        except (ValueError, InvalidScenarioError) as err:
            with pytest.raises(type(err)) as got:
                expected_revenue(*call)
            assert got.type is type(err)
        else:
            assert _bits(expected_revenue(*call)) == want

    @pytest.mark.parametrize("field, infinite", [("x_low", -math.inf),
                                                 ("x_high", math.inf)])
    def test_infinite_outcome_in_the_choice_set_is_refused(self, s1, field,
                                                           infinite):
        # u0 stays between the outcomes, so only the finiteness check of
        # the outcomes can refuse the call
        s = dataclasses.replace(s1, **{field: infinite})
        for kind in PolicyKind:
            policy = (ReferencePolicy.fixed(s1.u0) if kind
                      is PolicyKind.FIXED_VALUE else ReferencePolicy(kind))
            with pytest.raises(ValueError, match="must be finite"):
                expected_revenue(6.0, s, NOM, policy)


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


def _bits(x):
    return float(x).hex()


def _reference_weight(p, alpha):
    return 0.0 if p == 0.0 else math.exp(-((-math.log(p)) ** alpha))


def _reference_bestcase(gamma, u0, x_low, x_high, b, alpha, beta, lam, p):
    """The best-case kernel pair written with ``_stable_logistic`` and an
    uncached weight, in the kernels' arithmetic order."""
    big_g = x_high + b * gamma - u0
    z = lam * (_reference_weight(p, alpha) * (x_high - x_low) ** beta
               - big_g ** beta)
    sig = _core._stable_logistic(z)
    z_g = -lam * beta * b * big_g ** (beta - 1.0)
    return gamma * sig, sig + gamma * (-sig * (1.0 - sig)) * z_g


def _clamp_cases():
    """(z, best-case kernel arguments, evaluator arguments) whose exponent z
    comes out exactly: with beta = lam = 1 and w in {0, 1} every term is a
    plain sum, and the tariff coefficient is zero."""
    big = [700.0, math.nextafter(700.0, math.inf), 1e300]
    cases = []
    for z in big:
        # z = w(1)*D - G with D = z, G = 0; evaluator: one loss term
        cases.append((z, (1.0, 0.0, -z, 0.0, 0.0, 0.8, 1.0, 1.0, 1.0),
                      (0.0, -z, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 1.0, 1.0, 1.0)))
        # z = w(0)*D - G with G = z; evaluator: one gain term
        cases.append((-z, (1.0, 0.0, 0.0, z, 0.0, 0.8, 1.0, 1.0, 0.0),
                      (0.0, 0.0, z, 0.0, 0.0, 0.0, 0.0, 0.8, 1.0, 1.0, 0.0)))
    return cases


CLAMP_CASES = _clamp_cases()


class TestHotPathContract:
    """The cached Prelec weight and the kernels' inlined clamp give the bits
    of the uncached, un-inlined arithmetic."""

    @given(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
           st.floats(0.0, 2.0, exclude_min=True))
    @settings(max_examples=500)
    def test_cached_weight_is_bit_identical(self, p, alpha):
        _core.prelec_weight.cache_clear()
        want = _bits(_reference_weight(p, alpha))
        assert _bits(_core.prelec_weight(p, alpha)) == want
        hits = _core.prelec_weight.cache_info().hits
        assert _bits(_core.prelec_weight(p, alpha)) == want
        assert _core.prelec_weight.cache_info().hits == hits + 1

    def test_cache_stays_bounded(self):
        info = _core.prelec_weight.cache_info()
        assert info.maxsize == _core.PRELEC_CACHE_SIZE >= 128
        rng = random.Random(5)
        for _ in range(10_000):
            _core.prelec_weight(rng.random(), rng.uniform(0.2, 2.0))
            assert _core.prelec_weight.cache_info().currsize <= info.maxsize

    @given(st.sampled_from(generate_random(count=30, seed=2)),
           st.floats(0.0, 1.0), st.floats(0.2, 1.0), st.floats(0.2, 1.5),
           st.floats(0.3, 4.0), st.floats(0.02, 0.98))
    @settings(max_examples=300)
    def test_bestcase_kernels_match_reference(self, s, at, alpha, beta, lam, p):
        args = (s.gamma_min + at * s.gamma_span, s.u0, s.x_low, s.x_high,
                s.b_sm, alpha, beta, lam, p)
        value, slope = _reference_bestcase(*args)
        assert _bits(_core.bestcase_revenue(*args)) == _bits(value)
        assert _bits(_core.bestcase_revenue_gradient(*args)) == _bits(slope)

    @pytest.mark.parametrize("z, kernel_args, evaluator_args", CLAMP_CASES,
                             ids=["z=%r" % case[0] for case in CLAMP_CASES])
    def test_inlined_clamp_matches_stable_logistic(self, z, kernel_args,
                                                   evaluator_args):
        sig = _core._stable_logistic(z)
        assert sig == _core._stable_logistic(math.copysign(700.0, z))
        value, slope = _reference_bestcase(*kernel_args)
        assert _bits(value) == _bits(sig)  # gamma = 1
        assert _bits(_core.bestcase_revenue(*kernel_args)) == _bits(sig)
        assert _bits(_core.bestcase_revenue_gradient(*kernel_args)) == _bits(slope)
        ev_value, ev_slope = _core.revenue_evaluator(*evaluator_args)[:2]
        assert _bits(ev_value(1.0)) == _bits(sig)
        assert _bits(ev_slope(1.0)) == _bits(sig)  # the tariff slope of z is 0
