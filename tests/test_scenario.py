"""Unit tests for scenario validity, fixtures, generation and IO."""

import hashlib
import json
import math
import random
import time

import pytest

from cpt_sense import (
    TravelScenario,
    fixtures,
    generate_random,
    is_valid,
    require_valid,
    utilities_at,
    validate,
)
from cpt_sense.errors import InvalidScenarioError
from cpt_sense.scenario import (
    CSV_COLUMNS,
    scenarios_from_csv,
    scenarios_from_json,
    scenarios_to_csv,
    scenarios_to_json,
)


class TestValidate:
    def test_fixture_s1_ok(self, s1):
        assert validate(s1) == []
        assert is_valid(s1)

    def test_empty_tariff_interval(self):
        s = TravelScenario("bad", u0=5.0, x_low=0.0, x_high=10.0, b_sm=-0.1,
                           gamma_min=3.0, gamma_max=3.0)
        problems = validate(s)
        assert any("empty tariff interval" in p for p in problems)

    def test_alternative_dominates(self, s1):
        breached = TravelScenario(
            "dom", u0=s1.x_high + s1.b_sm * s1.gamma_max + 1.0,
            x_low=s1.x_low, x_high=s1.x_high, b_sm=s1.b_sm,
            gamma_min=s1.gamma_min, gamma_max=s1.gamma_max)
        problems = validate(breached)
        assert any("alternative dominates" in p for p in problems)

    def test_all_violations_reported(self):
        s = TravelScenario("multi", u0=-50.0, x_low=10.0, x_high=5.0,
                           b_sm=0.2, gamma_min=4.0, gamma_max=2.0)
        problems = validate(s)
        assert len(problems) >= 3

    def test_non_finite_reported(self):
        s = TravelScenario("nan", u0=math.nan, x_low=0.0, x_high=1.0,
                           b_sm=-0.1, gamma_min=1.0, gamma_max=2.0)
        assert any("not finite" in p for p in validate(s))

    def test_require_valid_raises_with_labels(self):
        s = TravelScenario("broken", u0=5.0, x_low=0.0, x_high=10.0,
                           b_sm=0.1, gamma_min=1.0, gamma_max=2.0)
        with pytest.raises(InvalidScenarioError, match="broken"):
            require_valid(s)


class TestUtilitiesAt:
    def test_spread_invariant_across_box(self, s1):
        lo_low, lo_high, _ = utilities_at(s1, s1.gamma_min)
        hi_low, hi_high, _ = utilities_at(s1, s1.gamma_max)
        assert (lo_high - lo_low) == pytest.approx(hi_high - hi_low, abs=0)

    def test_s1_upper_bound_value(self, s1):
        _, u_high, _ = utilities_at(s1, 8.41)
        assert u_high == pytest.approx(14.2726, abs=1e-10)

    def test_zero_tariff_passthrough(self, s1):
        assert utilities_at(s1, 0.0) == (s1.x_low, s1.x_high, s1.u0)

    def test_affine_slope_matches_b_sm(self, scenarios):
        for s in scenarios:
            g = 0.5 * (s.gamma_min + s.gamma_max)
            for h in (0.25, 0.5):
                lo0, hi0, _ = utilities_at(s, g - h)
                lo1, hi1, _ = utilities_at(s, g + h)
                assert (lo1 - lo0) / (2 * h) == pytest.approx(s.b_sm, rel=1e-12)
                assert (hi1 - hi0) / (2 * h) == pytest.approx(s.b_sm, rel=1e-12)


class TestFixtures:
    def test_count_and_labels(self, scenarios):
        assert len(scenarios) == 5
        assert [s.label for s in scenarios] == ["S1", "S2", "S3", "S4", "S5"]

    def test_s3_tariff_coefficient(self, s3):
        assert s3.b_sm == -0.72

    def test_all_fixtures_valid(self, scenarios):
        for s in scenarios:
            assert validate(s) == [], s.label


class TestGenerateRandom:
    def test_deterministic_per_seed(self):
        a = generate_random(count=25, seed=42)
        b = generate_random(count=25, seed=42)
        assert a == b
        assert scenarios_to_csv(a) == scenarios_to_csv(b)

    def test_seeds_differ(self):
        assert generate_random(count=5, seed=1) != generate_random(count=5, seed=2)

    def test_all_outputs_valid_and_labeled(self):
        out = generate_random(count=100, seed=7)
        assert len(out) == 100
        assert out[0].label == "R0001"
        assert out[99].label == "R0100"
        for s in out:
            assert is_valid(s)

    def test_default_ranges_fast(self):
        t0 = time.perf_counter()
        out = generate_random(count=100, seed=11)
        assert len(out) == 100
        assert time.perf_counter() - t0 < 1.0

    def test_choice_set_holds_across_box(self):
        rng = random.Random(5)
        for s in generate_random(count=50, seed=3):
            for _ in range(5):
                g = rng.uniform(s.gamma_min, s.gamma_max)
                u_low, u_high, u0 = utilities_at(s, g)
                assert u_low <= u0 <= u_high

    def test_bits_pinned(self):
        # every digit of every field, which the 12-digit CSV files do not hold
        text = repr(generate_random(count=50, seed=7))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d520149533cdba38ab52ac522c260ed210af47d940ee9bee8bf2605d28b1f262")

    def test_count_validation(self):
        with pytest.raises(ValueError):
            generate_random(count=0, seed=1)


class TestScenarioIO:
    def test_csv_header_order(self, scenarios):
        text = scenarios_to_csv(scenarios)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_csv_round_trip(self, scenarios):
        back = scenarios_from_csv(scenarios_to_csv(scenarios))
        assert list(scenarios) == back

    def test_json_round_trip(self):
        out = generate_random(count=10, seed=13)
        assert scenarios_from_json(scenarios_to_json(out)) == out

    def test_csv_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing columns"):
            scenarios_from_csv("label,u0\nS1,1.0\n")

    def test_round_trip_preserves_12_digit_precision(self):
        s = TravelScenario("prec", u0=1.23456789012, x_low=-0.000123456789,
                           x_high=3.14159265359, b_sm=-0.111111111111,
                           gamma_min=1.0, gamma_max=9.87654321098)
        (back,) = scenarios_from_csv(scenarios_to_csv([s]))
        for field in ("u0", "x_low", "x_high", "b_sm", "gamma_min", "gamma_max"):
            assert getattr(back, field) == pytest.approx(
                getattr(s, field), rel=1e-11)


class TestMalformedScenarioFiles:
    """Malformed files raise ValueError naming the row or entry, which the
    CLI reports as a usage error."""

    @pytest.mark.parametrize("row, problem", [
        ("S1,8.17,-0.14,4.66,8.41,2.46", "missing cell"),
        ("S1,8.17,-0.14,4.66,8.41,2.46,15.45,1", "extra cell"),
        ("S1,8.17,-0.14,abc,8.41,2.46,15.45", "could not convert"),
    ])
    def test_csv_row_named(self, row, problem):
        text = "%s\nS0,8.17,-0.14,4.66,8.41,2.46,15.45\n%s\n" % (
            ",".join(CSV_COLUMNS), row)
        with pytest.raises(ValueError, match="row 2.*" + problem):
            scenarios_from_csv(text)

    @pytest.mark.parametrize("change, problem", [
        (lambda e: {"label": e["label"]}, "lacks fields"),
        (lambda e: {k: v for k, v in e.items() if k != "x_high"},
         r"lacks fields \['x_high'\]"),
        (lambda e: dict(e, speed=1.0), r"unknown fields \['speed'\]"),
        (lambda e: list(e.values()), "is not an object"),
        (lambda e: None, "is not an object"),
        (lambda e: dict(e, u0="8.17"), "u0='8.17' is not a number"),
        (lambda e: dict(e, b_sm=True), "b_sm=True is not a number"),
        (lambda e: dict(e, label=None), "label=None is not a string"),
        (lambda e: dict(e, label=12), "label=12 is not a string"),
    ])
    def test_json_entry_named(self, s1, change, problem):
        good = json.loads(scenarios_to_json([s1]))[0]
        text = json.dumps([good, change(good)])
        with pytest.raises(ValueError, match="entry 2.*" + problem):
            scenarios_from_json(text)

    def test_json_integer_too_large_for_a_float_named(self, s1):
        good = json.loads(scenarios_to_json([s1]))[0]
        text = json.dumps([good, dict(good, u0=10 ** 400)])
        with pytest.raises(ValueError) as exc:
            scenarios_from_json(text)
        assert str(exc.value) == ("scenario JSON entry 2: u0 is an integer "
                                  "too large for a float")

    def test_json_integers_stored_as_floats(self, s1):
        entry = dict(json.loads(scenarios_to_json([s1]))[0], gamma_min=4)
        (s,) = scenarios_from_json(json.dumps([entry]))
        assert type(s.gamma_min) is float and s.gamma_min == 4.0

    def test_json_top_level_must_be_array(self, s1):
        good = json.loads(scenarios_to_json([s1]))[0]
        with pytest.raises(ValueError, match="array"):
            scenarios_from_json(json.dumps(good))
