"""Travel scenarios: data model, validity checks, canonical fixtures,
seeded random generation, and CSV/JSON round-trips.

A scenario is the reduced form of one ride offer against one certain
alternative: the alternative's utility u0, the non-price utility components
of the worst and best ride outcomes, the (negative) tariff coefficient, and
the tariff box.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

from cpt_sense.errors import InvalidScenarioError

#: Column order for scenario CSV files.
CSV_COLUMNS = ("label", "u0", "b_sm", "gamma_min", "gamma_max", "x_low", "x_high")


@dataclass(frozen=True)
class TravelScenario:
    """One pricing problem instance.

    Construction performs no validity checks beyond types; use ``validate``
    (report style) or ``require_valid`` (raising) before solving.
    """

    label: str
    u0: float
    x_low: float
    x_high: float
    b_sm: float
    gamma_min: float
    gamma_max: float

    @property
    def gamma_span(self) -> float:
        return self.gamma_max - self.gamma_min


def validate(scenario: TravelScenario) -> list[str]:
    """Every violated validity condition, not just the first; empty if ok.

    Choice-set validity is checked at the tariff box endpoints only: both
    ride utilities fall with the tariff, so the worst outcome is weakest at
    gamma_min and the best outcome weakest at gamma_max, and endpoint checks
    imply validity across the whole box.
    """
    problems: list[str] = []
    fields = {
        "u0": scenario.u0, "x_low": scenario.x_low, "x_high": scenario.x_high,
        "b_sm": scenario.b_sm, "gamma_min": scenario.gamma_min,
        "gamma_max": scenario.gamma_max,
    }
    for name, v in fields.items():
        if not math.isfinite(v):
            problems.append("%s is not finite" % name)
    if problems:
        return problems

    if not scenario.b_sm < 0.0:
        problems.append("tariff coefficient b_sm must be negative")
    if not scenario.gamma_min < scenario.gamma_max:
        problems.append("empty tariff interval (gamma_min >= gamma_max)")
    if not scenario.x_low <= scenario.x_high:
        problems.append("x_low exceeds x_high")
    if scenario.x_low + scenario.b_sm * scenario.gamma_min > scenario.u0:
        problems.append(
            "smods dominates: worst ride outcome beats the alternative "
            "even at gamma_min")
    if scenario.u0 > scenario.x_high + scenario.b_sm * scenario.gamma_max:
        problems.append(
            "alternative dominates: u0 exceeds the best ride outcome at "
            "gamma_max")
    return problems


def is_valid(scenario: TravelScenario) -> bool:
    return not validate(scenario)


def require_valid(scenario: TravelScenario) -> TravelScenario:
    problems = validate(scenario)
    if problems:
        raise InvalidScenarioError(
            "scenario %r invalid: %s" % (scenario.label, "; ".join(problems)))
    return scenario


def utilities_at(scenario: TravelScenario, gamma: float) -> tuple[float, float, float]:
    """(u_low, u_high, u0) at tariff ``gamma``.

    Both ride utilities are affine in gamma with slope b_sm, so their spread
    is tariff-independent.
    """
    u_low = scenario.x_low + scenario.b_sm * gamma
    u_high = scenario.x_high + scenario.b_sm * gamma
    return u_low, u_high, scenario.u0


def fixtures() -> tuple[TravelScenario, ...]:
    """The five canonical benchmark scenarios S1..S5."""
    return (
        TravelScenario("S1", u0=8.17, x_low=2.46, x_high=15.45, b_sm=-0.14,
                       gamma_min=4.66, gamma_max=8.41),
        TravelScenario("S2", u0=-7.62, x_low=-8.67, x_high=-5.15, b_sm=-0.08,
                       gamma_min=2.04, gamma_max=19.26),
        TravelScenario("S3", u0=-2.54, x_low=0.32, x_high=10.98, b_sm=-0.72,
                       gamma_min=4.12, gamma_max=12.99),
        TravelScenario("S4", u0=9.51, x_low=1.06, x_high=24.36, b_sm=-0.40,
                       gamma_min=1.11, gamma_max=13.49),
        TravelScenario("S5", u0=9.55, x_low=4.41, x_high=12.92, b_sm=-0.04,
                       gamma_min=4.24, gamma_max=7.92),
    )


def generate_random(count: int = 100, seed: int = 0) -> list[TravelScenario]:
    """Rejection-sample ``count`` valid scenarios, deterministically per seed.

    Labels run R0001, R0002, ...  A draw takes u0, x_low, x_high - x_low,
    b_sm, gamma_min and gamma_max - gamma_min uniformly from fixed intervals
    that bracket the canonical fixtures; about a third of draws are valid.
    """
    if count < 1:
        raise ValueError("count must be >= 1, got %r" % count)
    rng = random.Random(seed)
    out: list[TravelScenario] = []
    while len(out) < count:
        u0 = rng.uniform(-10.0, 10.0)
        x_low = rng.uniform(-10.0, 5.0)
        x_high = x_low + rng.uniform(1.0, 20.0)
        b_sm = rng.uniform(-0.8, -0.02)
        g_min = rng.uniform(1.0, 5.0)
        g_max = g_min + rng.uniform(2.0, 16.0)
        candidate = TravelScenario(label="R%04d" % (len(out) + 1), u0=u0,
                                   x_low=x_low, x_high=x_high, b_sm=b_sm,
                                   gamma_min=g_min, gamma_max=g_max)
        if is_valid(candidate):
            out.append(candidate)
    return out


def _format_field(x) -> str:
    """One CSV field: a number with 12 significant digits and a '.' decimal
    separator whatever the locale, None as an empty field, anything else
    as its ``str``."""
    if x is None:
        return ""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return format(x, ".12g")
    return str(x)


def rows_to_csv(columns, rows) -> str:
    """CSV text: a header row of ``columns``, then one line per row (a
    mapping from column to value) with its fields in column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_field(row[c]) for c in columns])
    return buf.getvalue()


def rows_to_json(rows) -> str:
    """JSON text of ``rows``, indented by two spaces, with a final newline."""
    return json.dumps(rows, indent=2) + "\n"


def scenario_row(s: TravelScenario) -> dict:
    """``s``'s fields by ``CSV_COLUMNS``, in that order."""
    return {c: getattr(s, c) for c in CSV_COLUMNS}


def scenarios_to_csv(scenarios: list[TravelScenario] | tuple[TravelScenario, ...]) -> str:
    """Render scenarios as CSV text (header row, '.' decimal separator)."""
    return rows_to_csv(CSV_COLUMNS, map(scenario_row, scenarios))


def scenarios_from_csv(text: str) -> list[TravelScenario]:
    """Scenarios from CSV text with a header row naming ``CSV_COLUMNS``.

    Raises:
        ValueError: a missing column, a row with a missing or extra cell, or
            a field that is not a number; the message names the data row,
            counted from 1 after the header.
    """
    reader = csv.DictReader(io.StringIO(text))
    missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError("scenario CSV missing columns: %s" % sorted(missing))
    out = []
    for i, row in enumerate(reader, 1):
        # DictReader fills a short row with None and puts extra cells under
        # the key None
        if None in row.values():
            raise ValueError("scenario CSV row %d has a missing cell" % i)
        if None in row:
            raise ValueError("scenario CSV row %d has an extra cell" % i)
        try:
            out.append(TravelScenario(label=row["label"], **{
                c: float(row[c]) for c in CSV_COLUMNS[1:]}))
        except ValueError as exc:
            raise ValueError("scenario CSV row %d: %s" % (i, exc)) from None
    return out


def scenarios_to_json(scenarios: list[TravelScenario] | tuple[TravelScenario, ...]) -> str:
    """JSON mirror of the CSV schema, identical field names."""
    return rows_to_json([scenario_row(s) for s in scenarios])


def scenarios_from_json(text: str) -> list[TravelScenario]:
    """Scenarios from a JSON array of objects with exactly the
    ``CSV_COLUMNS`` fields.  Numeric fields are stored as floats.

    Raises:
        ValueError: text that is not JSON or not an array, or an entry that
            is not an object, lacks a field, has an unknown one, or holds
            a non-string label, a non-number in a numeric field or an
            integer too large for a float; the message names the entry,
            counted from 1.
    """
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("scenario JSON must be an array of objects")
    out = []
    for i, row in enumerate(data, 1):
        if not isinstance(row, dict):
            raise ValueError("scenario JSON entry %d is not an object" % i)
        missing = sorted(set(CSV_COLUMNS) - row.keys())
        if missing:
            raise ValueError("scenario JSON entry %d lacks fields %s"
                             % (i, missing))
        unknown = sorted(row.keys() - set(CSV_COLUMNS))
        if unknown:
            raise ValueError("scenario JSON entry %d has unknown fields %s"
                             % (i, unknown))
        if not isinstance(row["label"], str):
            raise ValueError("scenario JSON entry %d: label=%r is not a "
                             "string" % (i, row["label"]))
        for name in CSV_COLUMNS[1:]:
            v = row[name]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError("scenario JSON entry %d: %s=%r is not a "
                                 "number" % (i, name, v))
            try:
                row[name] = float(v)
            except OverflowError:
                raise ValueError("scenario JSON entry %d: %s is an integer "
                                 "too large for a float" % (i, name)) from None
        out.append(TravelScenario(**row))
    return out
