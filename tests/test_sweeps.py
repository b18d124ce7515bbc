"""Unit tests for numeric sweeps, piecewise continuation and mismatch loss."""

import math
from types import SimpleNamespace

import pytest

from cpt_sense import (
    ActiveSet,
    BracketingError,
    ContinuationError,
    NOMINAL_PARAMS,
    SolverDisagreementError,
    SweepSpec,
    differentials,
    mismatch_loss,
    numeric_sweep,
    piecewise_continuation,
    solve,
    sweeps,
)
from cpt_sense.cli import main
from cpt_sense.model import BEST_CASE

# frozen from an independent dense-grid double-solve oracle
S1_MISMATCH_LAM_12 = dict(gamma_assumed=5.2084074738574575,
                          delta_f=0.011673162884198174)
S1_BETA_BREAKPOINTS = (0.726841921806388, 0.8839960682374295)
S1_P_UPPER_SEGMENT_END = 0.6308757102843088


def sweep(scenario, spec):
    """``numeric_sweep`` at the nominal parameters, from their optimum and
    its differentials."""
    nominal = solve(scenario, NOMINAL_PARAMS)
    return numeric_sweep(scenario, NOMINAL_PARAMS, BEST_CASE, spec, nominal,
                         differentials(nominal, scenario, NOMINAL_PARAMS))


class TestSweepSpec:
    def test_grid_covers_range_symmetrically(self):
        spec = SweepSpec("alpha", rel_range=0.2, steps=41)
        grid = [t for t, _ in spec.grid(0.82)]
        assert len(grid) == 41
        assert grid[0] == pytest.approx(0.82 * 0.8)
        assert grid[-1] == pytest.approx(0.82 * 1.2)
        assert grid[20] == pytest.approx(0.82)

    def test_probability_grid_clamped_and_marked(self):
        spec = SweepSpec("p", rel_range=0.4, steps=5)
        grid = spec.grid(0.75)
        values = [t for t, _ in grid]
        flags = [c for _, c in grid]
        assert max(values) == 0.999
        assert flags[-1] is True
        assert flags[2] is False

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("alpha", steps=2)
        with pytest.raises(ValueError):
            SweepSpec("alpha", rel_range=0.0)
        with pytest.raises(ValueError, match="unknown parameter 'gamma'"):
            SweepSpec(theta_name="gamma")

    @pytest.mark.parametrize("rel_range", [1.0, 2.5, -0.2, math.inf, math.nan])
    def test_range_outside_unit_interval_rejected(self, rel_range):
        # from 1 up the grid's low end is a nonpositive parameter value
        with pytest.raises(ValueError, match=r"rel_range must lie in \(0, 1\)"):
            SweepSpec("beta", rel_range=rel_range)

    def test_range_just_below_one_keeps_every_grid_value_positive(self):
        spec = SweepSpec("beta", rel_range=math.nextafter(1.0, 0.0), steps=3)
        assert all(t > 0.0 for t, _ in spec.grid(0.8))


class TestNumericSweep:
    def test_nominal_row_is_exact(self, s1):
        rows = sweep(s1, SweepSpec("alpha"))
        nominal = solve(s1, NOMINAL_PARAMS)
        mid = rows[20]
        assert mid.theta_value == pytest.approx(0.82, abs=0)
        assert mid.gamma_star_numeric == pytest.approx(nominal.gamma_star,
                                                       abs=1e-12)
        assert mid.mismatch_loss == 0.0
        assert mid.gamma_star_taylor1 == pytest.approx(nominal.gamma_star,
                                                       abs=1e-12)

    def test_deterministic(self, s1):
        spec = SweepSpec("beta", steps=11)
        a = sweep(s1, spec)
        b = sweep(s1, spec)
        assert a == b

    def test_alpha_tariff_nonincreasing_on_s1(self, s1):
        rows = sweep(s1, SweepSpec("alpha"))
        gammas = [r.gamma_star_numeric for r in rows]
        assert all(b <= a + 1e-7 for a, b in zip(gammas, gammas[1:]))

    def test_bound_rows_flat_on_s1_p_sweep(self, s1):
        rows = sweep(s1, SweepSpec("p"))
        pinned = [r for r in rows if r.active is ActiveSet.UPPER_BOUND]
        assert len(pinned) >= 2  # low worst-case probability pins the top
        assert all(r.theta_value < S1_P_UPPER_SEGMENT_END for r in pinned)
        for a, b in zip(pinned, pinned[1:]):
            assert abs(a.gamma_star_numeric - b.gamma_star_numeric) <= 1e-9
            assert abs(a.mismatch_loss - b.mismatch_loss) <= 1e-9

    def test_mismatch_nonnegative_across_rows(self, s2):
        rows = sweep(s2, SweepSpec("lambda"))
        assert all(r.mismatch_loss >= -1e-9 for r in rows)

    def test_rows_carry_multipliers_consistent_with_active(self, s1):
        rows = sweep(s1, SweepSpec("beta"))
        for r in rows:
            if r.active is ActiveSet.INTERIOR:
                assert r.mu_low == 0.0 and r.mu_high == 0.0
            elif r.active is ActiveSet.LOWER_BOUND:
                assert r.mu_low >= 0.0 and r.mu_high == 0.0
            else:
                assert r.mu_high >= 0.0 and r.mu_low == 0.0


class TestMismatchLoss:
    def test_zero_when_parameters_agree(self, s1):
        res = mismatch_loss(s1, NOMINAL_PARAMS, NOMINAL_PARAMS)
        assert res.delta_f == 0.0
        assert res.gamma_true == res.gamma_assumed

    def test_s1_frozen_loss_under_lambda_overestimate(self, s1):
        assumed = NOMINAL_PARAMS.replace("lambda", 2.25 * 1.2)
        res = mismatch_loss(s1, NOMINAL_PARAMS, assumed)
        assert res.gamma_assumed == pytest.approx(
            S1_MISMATCH_LAM_12["gamma_assumed"], abs=2e-5)
        assert res.delta_f == pytest.approx(
            S1_MISMATCH_LAM_12["delta_f"], rel=1e-6)

    def test_nonnegative_for_perturbations(self, scenarios):
        for s in scenarios:
            for name in ("alpha", "beta", "lambda", "p"):
                for factor in (0.8, 1.2):
                    assumed = NOMINAL_PARAMS.replace(
                        name, NOMINAL_PARAMS.get(name) * factor)
                    res = mismatch_loss(s, NOMINAL_PARAMS, assumed)
                    assert res.delta_f >= -1e-9


class TestTypedFailures:
    def test_negative_mismatch_is_solver_failure(self, s1, monkeypatch,
                                                 tmp_path):
        # a true-parameter valuation above f*: the solve missed the maximum
        monkeypatch.setattr(sweeps, "revenue_function",
                            lambda *args: (lambda gamma: 1e9))
        with pytest.raises(SolverDisagreementError):
            mismatch_loss(s1, NOMINAL_PARAMS, NOMINAL_PARAMS)
        assert main(["mismatch", "--out", str(tmp_path)]) == 3

    def test_sweep_rows_record_only_package_errors(self, s1, monkeypatch):
        nominal = solve(s1, NOMINAL_PARAMS)
        diffs = differentials(nominal, s1, NOMINAL_PARAMS)
        spec = SweepSpec("alpha", steps=3)

        def solve_raising(exc):
            def fake_solve(*args):
                raise exc
            return fake_solve

        monkeypatch.setattr(sweeps, "solve",
                            solve_raising(BracketingError("no sign change")))
        rows = numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, spec,
                             nominal=nominal, diffs=diffs)
        assert [r.error for r in rows] == ["BracketingError: no sign change"] * 3
        monkeypatch.setattr(sweeps, "solve",
                            solve_raising(ZeroDivisionError("a bug")))
        with pytest.raises(ZeroDivisionError):
            numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, spec,
                          nominal=nominal, diffs=diffs)


class TestPiecewiseContinuation:
    def test_wide_domain_single_segment(self, s3):
        approx = piecewise_continuation(s3, NOMINAL_PARAMS, BEST_CASE,
                                        SweepSpec("lambda"))
        assert len(approx.segments) == 1
        assert approx.breakpoints == ()
        seg = approx.segments[0]
        assert seg.theta_lo == pytest.approx(2.25 * 0.8)
        assert seg.theta_hi == pytest.approx(2.25 * 1.2)

    def test_s1_beta_breakpoints_found(self, s1):
        approx = piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE,
                                        SweepSpec("beta"))
        assert len(approx.breakpoints) == 2
        assert approx.breakpoints[0] == pytest.approx(
            S1_BETA_BREAKPOINTS[0], abs=1e-4)
        assert approx.breakpoints[1] == pytest.approx(
            S1_BETA_BREAKPOINTS[1], abs=1e-4)

    def test_segments_contiguous_and_cover_range(self, s1):
        approx = piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE,
                                        SweepSpec("beta"))
        segs = approx.segments
        assert segs[0].theta_lo == pytest.approx(0.8 * 0.8)
        assert segs[-1].theta_hi == pytest.approx(0.8 * 1.2)
        for a, b in zip(segs, segs[1:]):
            assert b.theta_lo == pytest.approx(a.theta_hi, abs=1e-12)

    def test_outer_segments_flat_at_bounds(self, s1):
        approx = piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE,
                                        SweepSpec("beta"))
        first, last = approx.segments[0], approx.segments[-1]
        assert first.active is ActiveSet.UPPER_BOUND
        assert first.slope == 0.0
        assert last.active is ActiveSet.LOWER_BOUND
        assert last.slope == 0.0

    def test_predictions_track_numeric_sweep(self, s1):
        spec = SweepSpec("beta")
        approx = piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE, spec)
        rows = sweep(s1, spec)
        grid_step = 0.8 * 0.4 / 40
        for row in rows:
            near_breakpoint = any(abs(row.theta_value - bp) <= grid_step
                                  for bp in approx.breakpoints)
            if near_breakpoint:
                continue
            predicted = approx.predict_gamma(row.theta_value)
            assert predicted == pytest.approx(row.gamma_star_numeric,
                                              rel=0.02), row.theta_value

    @pytest.mark.parametrize("name", ["beta", "p"])
    def test_each_theta_solved_once(self, s1, monkeypatch, name):
        solved = []

        def recording_solve(scenario, params, policy):
            solved.append(params.get(name))
            return solve(scenario, params, policy)

        monkeypatch.setattr(sweeps, "solve", recording_solve)
        piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE, SweepSpec(name))
        assert sorted({t for t in solved if solved.count(t) > 1}) == []


class TestContinuationGuards:
    def test_too_many_anchors_in_one_direction(self, s1, monkeypatch):
        # S1 beta places six anchors above the nominal; two segments
        # allow four per direction
        monkeypatch.setattr(sweeps, "MAX_SEGMENTS", 2)
        with pytest.raises(ContinuationError,
                           match="exceeded 4 anchors on beta"):
            piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE,
                                   SweepSpec("beta"))

    def test_too_many_segments_after_the_join(self, s1, monkeypatch):
        # six anchors fit each direction, but the joined walk has eight
        monkeypatch.setattr(sweeps, "MAX_SEGMENTS", 3)
        with pytest.raises(ContinuationError,
                           match=r"produced 8 segments on beta \(limit 3\)"):
            piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE,
                                   SweepSpec("beta"))

    def test_breakpoints_closer_than_1e_10_oscillate(self, s1, monkeypatch):
        # at beta = 1e-6 the bisection resolves 1e-12; the active set is
        # upper-bound only on [beta0 + 2e-11, beta0 + 4e-11), so the walk
        # leaves it 2e-11 after entering it
        beta0 = 1e-6

        def stand_in_solve(scenario, params, policy):
            inside = beta0 + 2e-11 <= params.beta < beta0 + 4e-11
            return SimpleNamespace(
                gamma_star=1.0,
                active=ActiveSet.UPPER_BOUND if inside else ActiveSet.INTERIOR)

        monkeypatch.setattr(sweeps, "solve", stand_in_solve)
        monkeypatch.setattr(sweeps, "differentials", lambda *args: {
            "beta": SimpleNamespace(dgamma_dtheta=0.0)})
        monkeypatch.setattr(sweeps, "local_domain", lambda *args:
                            SimpleNamespace(delta_pos=3e-11, delta_neg=-3e-11))
        with pytest.raises(ContinuationError, match="oscillates"):
            piecewise_continuation(s1, NOMINAL_PARAMS.replace("beta", beta0),
                                   BEST_CASE, SweepSpec("beta"))
