"""Unit tests for the scalar numeric kernels."""

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpt_sense import (
    BEST_CASE,
    BracketingError,
    NOMINAL_PARAMS,
    ReferencePolicy,
    bracket_root,
    fixtures,
    grid_golden_maximize,
    revenue_function,
    revenue_gradient,
    solve,
)

from cpt_sense.numerics import _golden_section_max

from finite_difference import central_derivative


def _grid(lo, hi, presieve):
    """The grid grid_golden_maximize evaluates: presieve cells, last point hi."""
    xs = [lo + (hi - lo) * i / presieve for i in range(presieve + 1)]
    xs[-1] = hi
    return xs


def _two_peaks(x):
    return math.exp(-(x - 1.0) ** 2) + 1.5 * math.exp(-8.0 * (x - 4.0) ** 2)


#: (id, objective, lo, hi, keyword arguments): this module's objectives,
#: then each fixture's revenue under the best and the expected reference
#: with the settings of the solver's cross-check
GRID_CASES = [
    ("parabola", lambda x: -(x - 2.0) ** 2, 0.0, 5.0, dict(tol=1e-12)),
    ("increasing", lambda x: 3.0 * x + 1.0, -1.0, 7.0, {}),
    ("decreasing", lambda x: -x, -1.0, 7.0, {}),
    ("two peaks", _two_peaks, 0.0, 5.0, dict(tol=1e-10)),
    ("sin", math.sin, 0.0, 20.0, dict(presieve=64, tol=1e-9)),
] + [
    ("%s %s" % (s.label, policy.kind.value),
     revenue_function(s, NOMINAL_PARAMS, policy), s.gamma_min, s.gamma_max,
     dict(presieve=64, tol=1e-6 * s.gamma_span))
    for s in fixtures()
    for policy in (BEST_CASE, ReferencePolicy.expected_utility())
]


class TestGridGoldenMaximize:
    def test_parabola(self):
        x, y, _ = grid_golden_maximize(lambda x: -(x - 2.0) ** 2, 0.0, 5.0,
                                       tol=1e-12)
        assert x == pytest.approx(2.0, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-15)

    def test_monotone_increasing_returns_upper_bound(self):
        x, _, _ = grid_golden_maximize(lambda x: 3.0 * x + 1.0, -1.0, 7.0)
        assert x == 7.0

    def test_monotone_decreasing_returns_lower_bound(self):
        x, _, _ = grid_golden_maximize(lambda x: -x, -1.0, 7.0)
        assert x == -1.0

    def test_two_peaks_global_found(self):
        def f(x):
            return math.exp(-(x - 1.0) ** 2) + 1.5 * math.exp(-8.0 * (x - 4.0) ** 2)
        x, y, _ = grid_golden_maximize(f, 0.0, 5.0, tol=1e-10)
        # global peak sits near 4 (the left Gaussian nudges it slightly left)
        assert x == pytest.approx(4.0, abs=1e-3)
        assert y >= f(4.0)

    def test_matches_tariff_solver_on_s1(self, s1):
        f = revenue_function(s1, NOMINAL_PARAMS)
        x, _, _ = grid_golden_maximize(f, s1.gamma_min, s1.gamma_max,
                                       presieve=64, tol=1e-9)
        opt = solve(s1, NOMINAL_PARAMS)
        assert abs(x - opt.gamma_star) <= 2e-4 * s1.gamma_span

    def test_evaluation_budget(self):
        probes = []

        def f(x):
            probes.append(x)
            return math.sin(x)
        taken = grid_golden_maximize(f, 0.0, 20.0, presieve=64, tol=1e-9)[2]
        peaks = 4  # interior pattern peaks of sin on [0, 20] at the presieve
        assert taken == len(probes) <= 64 + 1 + 200 * (peaks + 2)

    def test_non_finite_objective_reported_with_location(self):
        def f(x):
            return math.nan if x > 4.9 else x
        with pytest.raises(ValueError, match="x="):
            grid_golden_maximize(f, 0.0, 5.0)

    @pytest.mark.parametrize("f, lo, hi, kwargs",
                             [case[1:] for case in GRID_CASES],
                             ids=[case[0] for case in GRID_CASES])
    def test_supplied_grid_values_give_the_same_bits(self, f, lo, hi, kwargs):
        xs = _grid(lo, hi, kwargs.get("presieve", 64))
        probes = []

        def probe(x):
            probes.append(x)
            return f(x)
        want = grid_golden_maximize(probe, lo, hi, **kwargs)
        assert want[2] == len(probes)
        probes.clear()
        got = grid_golden_maximize(probe, lo, hi,
                                   grid=(xs, [f(x) for x in xs]), **kwargs)
        assert [y.hex() for y in got[:2]] == [y.hex() for y in want[:2]]
        # only the refinement is evaluated, and each golden step counted
        assert got[2] == want[2] - len(xs) == len(probes)

    def test_supplied_grid_values_checked(self):
        xs = _grid(0.0, 5.0, 64)
        for points, values, got in ((xs[:-1], xs[:-1], "64 and 64"),
                                    (xs + [5.0], xs + [5.0], "66 and 66"),
                                    (xs, xs[:-1], "65 and 64"),
                                    (xs[:-1], xs, "64 and 65")):
            with pytest.raises(ValueError, match="need 65 grid points and "
                               "values, got %s" % got):
                grid_golden_maximize(lambda x: x, 0.0, 5.0,
                                     grid=(points, values))
        for points in ([1.0] + xs[1:], xs[:-1] + [4.0]):
            with pytest.raises(ValueError, match=re.escape(
                    "grid must run from lo to hi, got [%r, %r]"
                    % (points[0], points[-1]))):
                grid_golden_maximize(lambda x: x, 0.0, 5.0,
                                     grid=(points, points))
        # a non-finite grid value raises what evaluating it would raise
        for bad in (math.nan, math.inf, -math.inf):
            def f(x):
                return bad if x == xs[40] else x
            with pytest.raises(ValueError) as evaluated:
                grid_golden_maximize(f, 0.0, 5.0)
            with pytest.raises(ValueError) as supplied:
                grid_golden_maximize(f, 0.0, 5.0,
                                     grid=(xs, [f(x) for x in xs]))
            assert str(supplied.value) == str(evaluated.value)
            assert "x=%r" % xs[40] in str(supplied.value)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            grid_golden_maximize(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            grid_golden_maximize(lambda x: x, 0.0, 1.0, presieve=4)
        with pytest.raises(ValueError):
            grid_golden_maximize(lambda x: x, 0.0, 1.0, tol=0.0)


class TestGoldenSectionCount:
    """``_golden_section_max`` calls the objective itself, checks each
    value as it comes and returns how many it took, which
    ``grid_golden_maximize`` adds to its count once per bracket."""

    @staticmethod
    def counted(f):
        """f, and the list its calls append their probes to."""
        probes = []

        def probe(x):
            probes.append(x)
            return f(x)
        return probe, probes

    @given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-6, 1e3),
           share=st.floats(1e-6, 2.0), peak=st.floats(0.0, 1.0))
    @settings(max_examples=500)
    def test_count_is_the_calls_and_the_documented_bound(self, lo, width,
                                                         share, peak):
        hi = lo + width
        w = hi - lo
        assume(w > 0.0)
        tol = share * w
        ratio = math.log(w / tol) / math.log((1.0 + math.sqrt(5.0)) / 2.0)
        # a width within rounding of tol times a power of phi may take a
        # step more or fewer than the real-number count
        assume(w <= tol or abs(ratio - round(ratio)) > 1e-9)
        centre = lo + peak * w
        f, probes = self.counted(lambda x: -(x - centre) ** 2)
        x, y, n = _golden_section_max(f, lo, hi, tol)
        assert n == len(probes)
        assert n == (1 if w <= tol else 3 + math.ceil(ratio))
        assert (x, y) == (probes[-1], f(probes[-1]))

    @given(lo=st.floats(-10.0, 10.0), width=st.floats(0.1, 10.0),
           share=st.floats(1e-4, 0.5), bad=st.sampled_from(
               [math.nan, math.inf, -math.inf]), at=st.integers(0, 200))
    @settings(max_examples=300)
    def test_non_finite_value_mid_refinement_names_its_probe(
            self, lo, width, share, bad, at):
        hi = lo + width
        tol = share * width

        def failing(taken):
            """(sin turning ``bad`` at call ``at`` of those ``taken``,
            its probes)."""
            calls = []

            def f(x):
                calls.append(x)
                return bad if len(calls) == at % taken + 1 else math.sin(x)
            return f, calls

        # one bracket, called directly
        f, probes = self.counted(math.sin)
        f, calls = failing(_golden_section_max(f, lo, hi, tol)[2])
        with pytest.raises(ValueError) as raised:
            _golden_section_max(f, lo, hi, tol)
        assert str(raised.value) == (
            "objective returned non-finite value %r at x=%r"
            % (bad, calls[-1]))
        assert calls == probes[:len(calls)]
        # the oracle on its grid's values: every call is a golden step
        xs = _grid(lo, hi, 8)
        grid = (xs, [math.sin(x) for x in xs])
        taken = grid_golden_maximize(math.sin, lo, hi, presieve=8, tol=tol,
                                     grid=grid)[2]
        f, calls = failing(taken)
        with pytest.raises(ValueError) as raised:
            grid_golden_maximize(f, lo, hi, presieve=8, tol=tol, grid=grid)
        assert str(raised.value) == (
            "objective returned non-finite value %r at x=%r"
            % (bad, calls[-1]))


class TestSkipNear:
    """``skip_near=(center, radius)`` leaves unrefined every bracket whose
    two ends lie within radius of center."""

    @staticmethod
    def probed(f, lo, hi, **kwargs):
        """(argmax, max, the points the call evaluated, the values it
        reports taken) of the oracle on [lo, hi] with 8 cells, half a
        cell's tolerance and the grid supplied, so that every point it
        evaluates is a golden step."""
        probes = []

        def probe(x):
            probes.append(x)
            return f(x)
        xs = _grid(lo, hi, 8)
        x, y, taken = grid_golden_maximize(
            probe, lo, hi, presieve=8, tol=0.5,
            grid=(xs, [f(x) for x in xs]), **kwargs)
        return x, y, probes, taken

    @staticmethod
    def peak(x):
        # on the grid 0, 1, ..., 8 the pattern peak is node 2, its bracket
        # [1, 3], and the maximum lies off the grid, at 2.3
        return -(x - 2.3) ** 2

    def test_bracket_inside_the_radius_takes_no_evaluation(self):
        # [1, 3] lies within 1 of 2, its ends exactly at the radius
        x, y, probes, evaluations = self.probed(self.peak, 0.0, 8.0,
                                                skip_near=(2.0, 1.0))
        assert (x, y) == (2.0, self.peak(2.0))  # the grid's best node
        assert not any(1.0 < p < 3.0 for p in probes)
        # the two endpoint cells alone, 5 golden steps each
        assert evaluations == len(probes) == 10
        # a radius that holds every bracket evaluates nothing
        assert self.probed(self.peak, 0.0, 8.0,
                           skip_near=(4.0, 4.0))[2:] == ([], 0)

    def test_bracket_across_the_radius_is_refined(self):
        x, y, probes, _ = self.probed(self.peak, 0.0, 8.0,
                                      skip_near=(2.0, 0.999))
        assert any(1.0 < p < 3.0 for p in probes)
        assert abs(x - 2.3) <= 0.25 and y > self.peak(2.0)
        # the same bits as the fully refining oracle
        assert (x, y) == self.probed(self.peak, 0.0, 8.0)[:2]

    # (id, objective, lo, hi, keyword arguments, argmax, max, evaluations)
    # of the fully refining oracle, pinned before ``skip_near`` existed
    PINNED = [
        ("sin", math.sin, 0.0, 20.0, dict(presieve=64, tol=1e-9),
         "0x1.921fb5715dff2p+0", "0x1.0000000000000p+0", 291),
        ("two peaks", _two_peaks, 0.0, 5.0, dict(tol=1e-10),
         "0x1.fffefd28ee30cp+1", "0x1.800816aa23ed0p+0", 251),
    ]

    @pytest.mark.parametrize("f, lo, hi, kwargs, x, y, evaluations",
                             [case[1:] for case in PINNED],
                             ids=[case[0] for case in PINNED])
    def test_none_refines_every_bracket(self, f, lo, hi, kwargs, x, y,
                                        evaluations):
        for skip in ({}, dict(skip_near=None)):
            got = grid_golden_maximize(f, lo, hi, **kwargs, **skip)
            assert [v.hex() for v in got[:2]] == [x, y]
            assert got[2] == evaluations

    @pytest.mark.parametrize("skip_near", [None, (4.0, 1.0), (4.0, 4.0)])
    def test_endpoints_still_win_ties(self, skip_near):
        # a plateau [3, 5] as high as the lower bound: its brackets are
        # skipped, partly or wholly, or refined, and the bound wins
        def f(x):
            return 1.0 if x == 0.0 or 3.0 <= x <= 5.0 else 0.5
        assert self.probed(f, 0.0, 8.0, skip_near=skip_near)[:2] == (0.0, 1.0)
        assert self.probed(lambda x: f(8.0 - x), 0.0, 8.0,
                           skip_near=skip_near)[:2] == (8.0, 1.0)

    @pytest.mark.parametrize("radius", [-1.0, -1e-300, math.nan, math.inf,
                                        -math.inf])
    def test_radius_must_be_finite_and_non_negative(self, radius):
        with pytest.raises(ValueError, match="radius must be finite"):
            grid_golden_maximize(math.sin, 0.0, 8.0, skip_near=(2.0, radius))


class TestCentralDerivative:
    def test_cubic(self):
        got = central_derivative(lambda x: x ** 3, 2.0, richardson_levels=2)
        assert got == pytest.approx(12.0, abs=1e-9)

    def test_sine_at_zero_uses_absolute_step(self):
        got = central_derivative(math.sin, 0.0, richardson_levels=2)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_higher_levels_improve_smooth_case(self):
        def f(x):
            return math.exp(2.0 * x)
        exact = 2.0 * math.exp(2.0)
        e1 = abs(central_derivative(f, 1.0, rel_step=1e-3,
                                    richardson_levels=1) - exact)
        e3 = abs(central_derivative(f, 1.0, rel_step=1e-3,
                                    richardson_levels=3) - exact)
        assert e3 < e1

    def test_level_validation(self):
        with pytest.raises(ValueError):
            central_derivative(math.sin, 1.0, richardson_levels=0)
        with pytest.raises(ValueError):
            central_derivative(math.sin, 1.0, richardson_levels=5)


class TestBracketRoot:
    def test_linear(self):
        assert bracket_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == \
            pytest.approx(1.0, abs=1e-10)

    def test_no_sign_change_rejected(self):
        with pytest.raises(BracketingError):
            bracket_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_roots_returned_exactly(self):
        assert bracket_root(lambda x: x, 0.0, 1.0) == 0.0
        assert bracket_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_stationary_tariff_matches_solver(self, s1):
        fgrad = revenue_gradient(s1, NOMINAL_PARAMS)
        root = bracket_root(fgrad, s1.gamma_min, s1.gamma_max, 1e-12)
        opt = solve(s1, NOMINAL_PARAMS)
        assert root == pytest.approx(opt.gamma_star, abs=1e-6)

    def test_counts_evaluations(self):
        """Each probe is one call of ``f``, and the root returned is one
        of them when no end value is given."""
        probes = []

        def f(x):
            probes.append(x)
            return x - 0.5
        root = bracket_root(f, 0.0, 1.0, 1e-12)
        assert probes[:2] == [0.0, 1.0] and root in probes

    @pytest.mark.parametrize("given", [False, True], ids=["plain", "given"])
    @pytest.mark.parametrize("where", ["lo", "hi", "interior"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_probe_names_x(self, bad, where, given):
        """A non-finite value at an end or at an interior probe raises
        ValueError naming that probe, whether the ends are probed or their
        values given."""
        lo, hi = 0.0, 1.0

        def value(x):
            at = {"lo": x == lo, "hi": x == hi, "interior": lo < x < hi}
            return bad if at[where] else x - 0.3
        probes = []

        def f(x):
            probes.append(x)
            return value(x)
        ends = (value(lo), value(hi)) if given else ()
        with pytest.raises(ValueError) as err:
            bracket_root(f, lo, hi, 1e-12, *ends)
        x = probes[-1] if probes else {"lo": lo, "hi": hi}[where]
        assert str(err.value) == (
            "objective returned non-finite value %r at x=%r" % (bad, x))
        assert {"lo": x == lo, "hi": x == hi, "interior": lo < x < hi}[where]
        if given:  # a given end is not probed
            assert lo not in probes and hi not in probes

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-20])
    def test_root_position_does_not_depend_on_scale(self, scale):
        """The stop is on the root's position, not on |f|: the root of
        c*(x**3 - 0.027) is 0.3 to the tolerance whatever c is."""
        tol = 1e-12
        root = bracket_root(lambda x: scale * (x ** 3 - 0.027), 0.0, 1.0, tol)
        assert abs(root - 0.3) <= 2.0 * (tol + 4.0 * 2.0 ** -52 * 0.3)

    def test_supplied_end_values_are_not_probed_again(self):
        probes = []

        def f(x):
            probes.append(x)
            return x ** 3 - 2.0
        root = bracket_root(f, 0.0, 2.0, 1e-15, -2.0, 6.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-14)
        assert len(probes) > 0
        assert 0.0 not in probes and 2.0 not in probes
        # the ends alone are probed again when their values are not given
        given = list(probes)
        probes.clear()
        assert bracket_root(f, 0.0, 2.0, 1e-15) == root
        assert probes == [0.0, 2.0] + given

    def test_superlinear_convergence(self):
        """x**3 - 2 on [0, 2] to 1e-15 in at most 10 probes, the two ends
        included; a bracket method that converges only linearly takes
        dozens."""
        probes = []

        def f(x):
            probes.append(x)
            return x ** 3 - 2.0
        root = bracket_root(f, 0.0, 2.0, 1e-15)
        bound = 2.0 * (1e-15 + 4.0 * 2.0 ** -52 * root)
        assert abs(root - 2.0 ** (1.0 / 3.0)) <= bound
        assert len(probes) <= 10

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            bracket_root(lambda x: x - 0.5, 0.0, 1.0, tol)
