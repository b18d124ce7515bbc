"""Diff or regenerate the CLI golden files that ``test_golden`` compares,
or fingerprint the solver's records bit for bit.

    python tests/golden_tool.py diff    # what moved, per file and column
    python tests/golden_tool.py regen   # rewrite tests/data/golden/
    python tests/golden_tool.py records [--count N] [--seed S]
    python tests/golden_tool.py continuation

``diff`` and ``regen`` run every ``test_golden.CASES`` command afresh,
exactly as the test does.  ``diff`` compares the fresh files with the goldens field by field: CSV rows by position and
column, JSON by key path (the top-level key, a scenario label or a row
index, plays the row).  For every file and column that moved it prints the
largest relative and absolute change of its numbers; it lists each
non-numeric difference (text, a flag, an added or missing row, column or
file) on its own line.  It ends with one summary line per column: its
largest relative and absolute change across all files.  ``regen``
replaces every golden file with the fresh one.

``records`` solves N generated scenarios under all five reference
policies, each (scenario, policy) with its own seeded random rider
parameters, takes the differentials of every solved record, and prints one
SHA-256 over the ``repr`` of every ``OptimumRecord`` field and every
differential, in a fixed order; a solve or differential that raises is
hashed as its error type and message.  It then prints one digest per
policy kind over that policy's share of the same lines, so a mismatch
names the policy that moved, and last an *answers* digest over the same
lines without the two that record what a solve cost rather than what it
found: ``gamma_oracle`` and ``evaluations``.  ``repr`` keeps every bit of a
float, so two trees that print the same digest computed the same answers
and the same evaluation counts; two that print the same answers digest
computed the same answers, whatever their cross-check spent.  Beside each
policy digest it prints the mean counted revenue values per solve of that
policy's records, the share of them the oracle's golden steps took, and
the mean slope values per polish of its solves, the one at the root
included, so a change in what a solve costs shows its size.
``test_records_digest`` pins the default run's digests: a change that moves
any answer re-pins them there and lists what moved in CHANGES.md.  The
module name does not match pytest's ``test_*.py``, so it is not collected.

``continuation`` runs ``piecewise_continuation`` on the five fixtures under
all five reference policies (``fixed:0.0`` for the fixed one) for each of
the four parameters, at the nominal parameters and the default
``SweepSpec``, and prints one SHA-256 over the ``repr`` of every
``PiecewiseApprox``; a call that raises is hashed as its error type and
message.  It then prints on stderr the mean ``solve`` and
``differentials`` calls per continuation, so a change in what a
continuation costs shows its size.  ``test_records_digest`` pins the
digest too: a change that moves a breakpoint or a segment re-pins it there
and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from cpt_sense import pricing, sweeps  # noqa: E402
from cpt_sense.cli import main  # noqa: E402
from cpt_sense.errors import CptSenseError  # noqa: E402
from cpt_sense.model import (  # noqa: E402
    NOMINAL_PARAMS, PARAM_NAMES, CptParams, ReferencePolicy)
from cpt_sense.pricing import solve  # noqa: E402
from cpt_sense.scenario import fixtures, generate_random  # noqa: E402
from cpt_sense.sensitivity import differentials  # noqa: E402
from cpt_sense.sweeps import SweepSpec, piecewise_continuation  # noqa: E402
from test_golden import CASES, GOLDEN, golden_argv  # noqa: E402


def run_commands(out: Path) -> None:
    """Write every golden case's files under out/<case>/."""
    for case in sorted(CASES):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(golden_argv(case, out / case))
        if code != 0:
            raise SystemExit("%s exited %d" % (" ".join(CASES[case]), code))


def fields(path: Path) -> dict[tuple, object]:
    """Leaf values of a CSV or JSON file keyed by (row, column)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        data = list(csv.DictReader(io.StringIO(text)))
    else:
        data = json.loads(text)
    out: dict[tuple, object] = {}

    def walk(key: tuple, node) -> None:
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else None)
        if items is None:
            out[(str(key[0]), ".".join(str(k) for k in key[1:]))] = node
            return
        for k, child in items:
            walk(key + (k,), child)
    walk((), data)
    return out


def _number(x):
    """x as a float when it is a number (a CSV string or a JSON number)."""
    if isinstance(x, bool) or x is None:
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def compare(old: dict, new: dict, totals: dict[str, list]) -> list[str]:
    """Report lines for one file: numeric changes per column, columns found
    on one side only, then every other non-numeric difference.  Each
    column's numeric changes also go into ``totals``, column -> [largest
    relative change, largest absolute change, fields, files], across
    files."""
    moved: dict[str, list] = {}
    one_sided: dict[tuple, int] = {}
    lines = []
    for key in sorted(old.keys() | new.keys()):
        row, column = key
        if key not in new or key not in old:
            side = "goldens" if key in old else "fresh output"
            one_sided[(column, side)] = one_sided.get((column, side), 0) + 1
            continue
        a, b = old[key], new[key]
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                lines.append("  row %s column %s: %r -> %r" % (row, column, a, b))
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        absolute = abs(y - x)
        relative = absolute / abs(x) if x != 0.0 else math.inf
        entry = moved.setdefault(column, [0.0, 0.0, 0])
        entry[0] = max(entry[0], relative)
        entry[1] = max(entry[1], absolute)
        entry[2] += 1
    for column, (rel, ab, count) in moved.items():
        total = totals.setdefault(column, [0.0, 0.0, 0, 0])
        total[:] = (max(total[0], rel), max(total[1], ab), total[2] + count,
                    total[3] + 1)
    numeric = ["  %s: max rel %.3g, max abs %.3g (%d fields)"
               % (column, rel, ab, count)
               for column, (rel, ab, count) in sorted(moved.items())]
    sided = ["  column %s: only in %s (%d rows)" % (column, side, count)
             for (column, side), count in sorted(one_sided.items())]
    return numeric + sided + lines


def diff(fresh: Path) -> int:
    """Print what moved between the goldens and the fresh files, then one
    line per column with its largest numeric change across every file;
    the number of files that differ."""
    differing = 0
    totals: dict[str, list] = {}
    for case in sorted(CASES):
        want, got = GOLDEN / case, fresh / case
        names = sorted({p.name for p in want.glob("*")}
                       | {p.name for p in got.iterdir()})
        for name in names:
            label = "%s/%s" % (case, name)
            if not (want / name).exists() or not (got / name).exists():
                differing += 1
                print("%s: only in %s" % (
                    label, "fresh output" if (got / name).exists()
                    else "goldens"))
                continue
            if (want / name).read_bytes() == (got / name).read_bytes():
                continue
            differing += 1
            print("%s:" % label)
            for line in compare(fields(want / name), fields(got / name),
                                totals):
                print(line)
    print("%d golden files differ" % differing)
    for column, (rel, ab, count, files) in sorted(totals.items()):
        print("all files, %s: max rel %.3g, max abs %.3g (%d fields in %d "
              "files)" % (column, rel, ab, count, files))
    return differing


def regen(fresh: Path) -> None:
    """Replace every golden directory by the fresh output."""
    for case in sorted(CASES):
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(fresh / case, target)
        print("rewrote %s" % target)


#: (field, low, high) of the rider parameters ``records`` draws: wide, so
#: that bound optima, kinks and raising solves all occur.
RECORD_THETA = (("alpha", 0.2, 1.0), ("beta", 0.2, 1.5), ("lam", 0.3, 4.0),
                ("p_worst", 0.02, 0.98))


#: ``OptimumRecord`` fields that record what a solve's cross-check spent,
#: not what it found; the answers digest leaves them out.
COST_FIELDS = ("gamma_oracle", "evaluations")


@contextlib.contextmanager
def logged_polish(log: list[tuple[float, float, float, int]]):
    """Within the block, every polish of ``solve`` appends to ``log`` its
    cell's ends, its root and the slope values it took, the one at the
    root included."""
    polish = pricing._polish

    def logged(cell, f, fgrad, nodes, polish_tol):
        probes = 0

        def slope(x):
            nonlocal probes
            probes += 1
            return fgrad(x)

        def node(xs):
            nonlocal probes
            probes += len(xs)
            return nodes(xs)
        result = polish(cell, f, slope, node, polish_tol)
        log.append((cell[0], cell[1], result[0], probes))
        return result

    pricing._polish = logged
    try:
        yield
    finally:
        pricing._polish = polish


@contextlib.contextmanager
def counted_continuation(counts: collections.Counter):
    """Within the block, every ``solve`` and ``differentials`` call of
    ``piecewise_continuation`` adds one to ``counts`` under its name."""
    saved = {name: getattr(sweeps, name) for name in ("solve", "differentials")}

    def counted(name, call):
        def counting(*args):
            counts[name] += 1
            return call(*args)
        return counting

    for name, call in saved.items():
        setattr(sweeps, name, counted(name, call))
    try:
        yield
    finally:
        for name, call in saved.items():
            setattr(sweeps, name, call)


@contextlib.contextmanager
def logged_oracle(log: list[int]):
    """Within the block, every oracle call of ``solve`` appends to ``log``
    the revenue values it took."""
    oracle = pricing.grid_golden_maximize

    def logged(f, lo, hi, **kwargs):
        before = f.evaluations
        result = oracle(f, lo, hi, **kwargs)
        log.append(f.evaluations - before)
        return result

    pricing.grid_golden_maximize = logged
    try:
        yield
    finally:
        pricing.grid_golden_maximize = oracle


def record_digest(count: int, seed: int
                  ) -> tuple[str, dict[str, str], str, int, int,
                             dict[str, tuple[float, float, float]]]:
    """(SHA-256 hex digest, the digest of each policy's share of the lines
    by policy kind, the answers digest, records hashed, errors hashed, and
    by policy kind the mean ``evaluations`` of the policy's records, the
    mean of those values its records' oracles took and the mean slope
    values per polish of its records' solves) of ``records``."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    answers = hashlib.sha256()
    by_policy = {}
    spent: dict[str, list[int]] = {}
    oracle_spent: dict[str, list[int]] = {}
    polished: dict[str, list[int]] = {}
    log: list[tuple[float, float, float, int]] = []
    oracle_log: list[int] = []
    records = errors = 0

    def feed(*parts, cost: bool = False) -> None:
        line = ("\x1f".join(parts) + "\n").encode()
        digest.update(line)
        share.update(line)
        if not cost:
            answers.update(line)

    for s in generate_random(count=count, seed=seed):
        policies = (ReferencePolicy.static_alternative(),
                    ReferencePolicy.expected_utility(),
                    ReferencePolicy.best_case(), ReferencePolicy.worst_case(),
                    ReferencePolicy.fixed(rng.uniform(
                        s.x_low + s.b_sm * s.gamma_max - 1.0,
                        s.x_high + s.b_sm * s.gamma_min + 1.0)))
        for policy in policies:
            share = by_policy.setdefault(policy.kind.value, hashlib.sha256())
            theta = CptParams(**{name: rng.uniform(lo, hi)
                                 for name, lo, hi in RECORD_THETA})
            feed(s.label, repr(policy), repr(theta))
            log.clear()
            oracle_log.clear()
            try:
                with logged_polish(log), logged_oracle(oracle_log):
                    record = solve(s, theta, policy)
            except (CptSenseError, ValueError) as exc:
                feed("solve", type(exc).__name__, str(exc))
                errors += 1
                continue
            polished.setdefault(policy.kind.value, []).extend(
                probes for *_, probes in log)
            records += 1
            spent.setdefault(policy.kind.value, []).append(record.evaluations)
            oracle_spent.setdefault(policy.kind.value, []).extend(oracle_log)
            for field in dataclasses.fields(record):
                feed(field.name, repr(getattr(record, field.name)),
                     cost=field.name in COST_FIELDS)
            try:
                diffs = differentials(record, s, theta, policy)
            except (CptSenseError, ValueError) as exc:
                feed("differentials", type(exc).__name__, str(exc))
                errors += 1
                continue
            for name, sens in diffs.items():
                for field in dataclasses.fields(sens):
                    feed(name, field.name, repr(getattr(sens, field.name)))
    return (digest.hexdigest(),
            {kind: h.hexdigest() for kind, h in by_policy.items()},
            answers.hexdigest(), records, errors,
            {kind: (_mean(n), _mean(oracle_spent[kind]),
                    _mean(polished.get(kind, [])))
             for kind, n in spent.items()})


def _mean(xs: list[int]) -> float:
    """The mean of xs, NaN when there is none."""
    return sum(xs) / len(xs) if xs else math.nan


def continuation_digest() -> tuple[str, int, int]:
    """(SHA-256 hex digest, calls hashed, errors hashed) of
    ``continuation``."""
    digest = hashlib.sha256()
    calls = errors = 0
    policies = (ReferencePolicy.static_alternative(),
                ReferencePolicy.expected_utility(),
                ReferencePolicy.best_case(), ReferencePolicy.worst_case(),
                ReferencePolicy.fixed(0.0))
    for s in fixtures():
        for policy in policies:
            for name in PARAM_NAMES:
                try:
                    line = repr(piecewise_continuation(
                        s, NOMINAL_PARAMS, policy, SweepSpec(name)))
                except CptSenseError as exc:
                    line = "%s\x1f%s" % (type(exc).__name__, exc)
                    errors += 1
                digest.update(("%s\x1f%r\x1f%s\x1f%s\n"
                               % (s.label, policy, name, line)).encode())
                calls += 1
    return digest.hexdigest(), calls, errors


def main_tool(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode",
                        choices=["diff", "regen", "records", "continuation"])
    parser.add_argument("--count", type=int, default=320,
                        help="records: generated scenarios (default 320)")
    parser.add_argument("--seed", type=int, default=0,
                        help="records: scenario and parameter seed (default 0)")
    args = parser.parse_args(argv)
    if args.mode == "records":
        if args.count < 1:
            parser.error("--count must be at least 1")
        hexdigest, by_policy, answers, records, errors, spent = record_digest(
            args.count, args.seed)
        print(hexdigest)
        for kind, policy_digest in by_policy.items():
            values, oracle, slopes = spent.get(kind, (math.nan,) * 3)
            print("%s %s %.2f values per solve (%.2f by the oracle), %.2f "
                  "slope values per polish"
                  % (policy_digest, kind, values, oracle, slopes))
        print("%s answers" % answers)
        print("%d scenarios x 5 policies: %d records, %d errors hashed"
              % (args.count, records, errors), file=sys.stderr)
        return 0
    if args.mode == "continuation":
        counts: collections.Counter = collections.Counter()
        with counted_continuation(counts):
            hexdigest, calls, errors = continuation_digest()
        print(hexdigest)
        print("%d continuation calls, %d errors hashed; %.2f solves and %.2f "
              "differentials per call"
              % (calls, errors, counts["solve"] / calls,
                 counts["differentials"] / calls), file=sys.stderr)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        run_commands(fresh)
        if args.mode == "regen":
            regen(fresh)
            return 0
        return 1 if diff(fresh) else 0


if __name__ == "__main__":
    sys.exit(main_tool())
