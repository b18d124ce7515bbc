"""Unit tests for numeric sweeps, piecewise continuation and mismatch loss."""

import math

import pytest

from cpt_sense import (
    ActiveSet,
    BracketingError,
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


class TestNumericSweep:
    def test_nominal_row_is_exact(self, s1):
        rows = numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, SweepSpec("alpha"))
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
        a = numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, spec)
        b = numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, spec)
        assert a == b

    def test_alpha_tariff_nonincreasing_on_s1(self, s1):
        rows = numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, SweepSpec("alpha"))
        gammas = [r.gamma_star_numeric for r in rows]
        assert all(b <= a + 1e-7 for a, b in zip(gammas, gammas[1:]))

    def test_bound_rows_flat_on_s1_p_sweep(self, s1):
        rows = numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, SweepSpec("p"))
        pinned = [r for r in rows if r.active is ActiveSet.UPPER_BOUND]
        assert len(pinned) >= 2  # low worst-case probability pins the top
        assert all(r.theta_value < S1_P_UPPER_SEGMENT_END for r in pinned)
        for a, b in zip(pinned, pinned[1:]):
            assert abs(a.gamma_star_numeric - b.gamma_star_numeric) <= 1e-9
            assert abs(a.mismatch_loss - b.mismatch_loss) <= 1e-9

    def test_mismatch_nonnegative_across_rows(self, s2):
        rows = numeric_sweep(s2, NOMINAL_PARAMS, BEST_CASE, SweepSpec("lambda"))
        assert all(r.mismatch_loss >= -1e-9 for r in rows)

    def test_rows_carry_multipliers_consistent_with_active(self, s1):
        rows = numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, SweepSpec("beta"))
        for r in rows:
            if r.active is ActiveSet.INTERIOR:
                assert r.mu_low == 0.0 and r.mu_high == 0.0
            elif r.active is ActiveSet.LOWER_BOUND:
                assert r.mu_low >= 0.0 and r.mu_high == 0.0
            else:
                assert r.mu_high >= 0.0 and r.mu_low == 0.0

    def test_sweep_spec_required(self, s1):
        with pytest.raises(ValueError):
            numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, None)


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
        rows = numeric_sweep(s1, NOMINAL_PARAMS, BEST_CASE, spec)
        grid_step = 0.8 * 0.4 / 40
        for row in rows:
            near_breakpoint = any(abs(row.theta_value - bp) <= grid_step
                                  for bp in approx.breakpoints)
            if near_breakpoint:
                continue
            predicted = approx.predict_gamma(row.theta_value)
            assert predicted == pytest.approx(row.gamma_star_numeric,
                                              rel=0.02), row.theta_value

    def test_sweep_spec_required(self, s1):
        with pytest.raises(ValueError):
            piecewise_continuation(s1, NOMINAL_PARAMS, BEST_CASE, None)
