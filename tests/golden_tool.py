"""Diff or regenerate the CLI golden files that ``test_golden`` compares,
or fingerprint the solver's records bit for bit.

    python tests/golden_tool.py diff    # what moved, per file and column
    python tests/golden_tool.py regen   # rewrite tests/data/golden/
    python tests/golden_tool.py records [--count N] [--seed S]
    python tests/golden_tool.py continuation
    python tests/golden_tool.py phases [--count N] [--seed S] [--policy REF]

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

``phases`` prints where the time of a ``solve`` goes, in µs per solve,
as the benchmark's online requests call it: N draws (default 6000)
of a scenario from a pool of ``generate_random(500, seed=S)`` with rider
parameters drawn per draw from ``PHASE_THETA``, so that nearly every draw
is a new rider, each solved under the reference ``--policy`` (one of the
CLI's ``--reference`` forms, default ``best``; ``expected`` runs the
evaluator path of the benchmark's expected-reference batch requests).  It
times each phase by wrapping ``pricing``'s module bindings from outside
(``require_valid``, ``_revenue_closures`` and the ``nodes`` and ``bound``
closures it returns, ``_certified_stationary``,
``_split``, ``_polish``, ``bracket_root``, ``grid_golden_maximize``,
``kkt_residuals`` and ``OptimumRecord``), as the benchmark's tracer does,
and edits nothing in ``src/``.  The start pass is the ``nodes`` call made
outside a split or a polish; the start-cell set-up runs from its end to
the search's first split, polish or bound call; the polish and split loop
is the rest of the search outside its bound calls, and the two rows after it
are its split and polish calls and, of those, the root finder; the
candidate pick runs from the search's return to the oracle's call.
``other`` is what is left of the instrumented solve.  It runs the draws
``PHASE_PASSES`` times and prints the pass of least instrumented time,
then the least uninstrumented mean of ``PHASE_PASSES`` more passes: the
wrappers' own clock reads and frames inflate the phases, not that line.
Solves that raise are left out of the table and counted.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from cpt_sense import pricing, sweeps  # noqa: E402
from cpt_sense.cli import _parse_reference, main  # noqa: E402
from cpt_sense.errors import CptSenseError  # noqa: E402
from cpt_sense.model import (  # noqa: E402
    NOMINAL_PARAMS, PARAM_NAMES, CptParams, ReferencePolicy)
from cpt_sense.pricing import ActiveSet  # noqa: E402
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

    def logged(cell, fgrad, nodes, polish_tol):
        probes = 0

        def slope(x):
            nonlocal probes
            probes += 1
            return fgrad(x)

        def node(xs):
            nonlocal probes
            probes += len(xs)
            return nodes(xs)
        result = polish(cell, slope, node, polish_tol)
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
        result = oracle(f, lo, hi, **kwargs)
        log.append(result[2])
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


#: (field, low, high) of the rider parameters ``phases`` draws: those of
#: the benchmark's online requests.
PHASE_THETA = (("alpha", 0.4, 1.0), ("beta", 0.4, 1.2), ("lam", 1.0, 3.5),
               ("p_worst", 0.2, 0.9))
#: Scenarios ``phases`` draws from, and the passes it times.
PHASE_POOL = 500
PHASE_PASSES = 5
#: ``phases`` table rows, in the order a solve runs them.
PHASE_ROWS = ("require_valid", "_revenue_closures", "start pass",
              "start-cell set-up", "polish and split loop",
              "split and polish calls (of the loop)", "Brent (of the calls)",
              "bounds", "candidate pick", "oracle", "kkt_residuals",
              "OptimumRecord", "other")
#: Rows that are parts of the row above them, not of the solve's sum.
PHASE_PARTS = PHASE_ROWS[5:7]


def phase_draws(count: int, seed: int) -> list[tuple]:
    """``count`` (scenario, theta) pairs of ``phases``."""
    pool = generate_random(count=PHASE_POOL, seed=seed)
    rng = random.Random(seed)
    return [(pool[rng.randrange(len(pool))],
             CptParams(**{name: rng.uniform(lo, hi)
                          for name, lo, hi in PHASE_THETA}))
            for _ in range(count)]


@contextlib.contextmanager
def phase_clock(times: dict[str, int], marks: dict[str, int]):
    """Within the block, each call of a ``pricing`` binding that
    ``phases`` times adds its ns to ``times[phase]``, and ``marks`` holds
    the clock at the phase boundaries no call spans ("start pass end",
    "first cell call", "search end", "oracle start") and the bound calls
    ("bound calls").  The caller zeroes both before each solve, the first
    cell call's mark to None."""
    clock = time.perf_counter_ns
    depth = [0]  # splits and polishes open
    saved = {name: getattr(pricing, name) for name in (
        "require_valid", "_revenue_closures", "_certified_stationary",
        "_split", "_polish", "bracket_root", "grid_golden_maximize",
        "OptimumRecord", "kkt_residuals")}

    def timed(phase, call):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return call(*args, **kwargs)
            finally:
                times[phase] += clock() - t0
        return wrapper

    def cell_call(call):
        def wrapper(*args):
            t0 = clock()
            if marks["first cell call"] is None:
                marks["first cell call"] = t0
            depth[0] += 1
            try:
                return call(*args)
            finally:
                depth[0] -= 1
                times[PHASE_PARTS[0]] += clock() - t0
        return wrapper

    def closures(*args):
        value, slope, nodes, bound = saved["_revenue_closures"](*args)

        def timed_nodes(xs):
            if depth[0]:
                return nodes(xs)
            t0 = clock()
            try:
                return nodes(xs)
            finally:
                marks["start pass end"] = t1 = clock()
                times["start pass"] += t1 - t0

        def timed_bound(a, b, f_a, f_b, level):
            t0 = clock()
            if marks["first cell call"] is None:
                marks["first cell call"] = t0
            try:
                return bound(a, b, f_a, f_b, level)
            finally:
                times["bounds"] += clock() - t0
                marks["bound calls"] += 1
        return value, slope, timed_nodes, timed_bound

    def search(*args):
        try:
            return saved["_certified_stationary"](*args)
        finally:
            marks["search end"] = clock()

    def oracle(*args, **kwargs):
        marks["oracle start"] = clock()
        return saved["grid_golden_maximize"](*args, **kwargs)

    wrappers = {
        "require_valid": timed("require_valid", saved["require_valid"]),
        "_revenue_closures": timed("_revenue_closures", closures),
        "_certified_stationary": timed("search", search),
        "_split": cell_call(saved["_split"]),
        "_polish": cell_call(saved["_polish"]),
        "bracket_root": timed(PHASE_PARTS[1], saved["bracket_root"]),
        "grid_golden_maximize": timed("oracle", oracle),
        "OptimumRecord": timed("OptimumRecord", saved["OptimumRecord"]),
        "kkt_residuals": timed("kkt_residuals", saved["kkt_residuals"]),
    }
    for name, wrapper in wrappers.items():
        setattr(pricing, name, wrapper)
    try:
        yield
    finally:
        for name, call in saved.items():
            setattr(pricing, name, call)


def solve_phases(draws: list[tuple], policy: ReferencePolicy
                 ) -> tuple[dict[str, float], float, int, float, float]:
    """(µs per solve by ``PHASE_ROWS`` row, µs per uninstrumented solve,
    solves that raised, interior share, bound calls per solve) of
    ``phases`` over ``draws``, each solved under ``policy``."""
    clock = time.perf_counter_ns
    timed = ("require_valid", "_revenue_closures", "search", "start pass",
             "bounds", "oracle", "OptimumRecord",
             "kkt_residuals") + PHASE_PARTS
    zero = dict.fromkeys(timed, 0)
    times = dict(zero)
    marks: dict = {}
    best = None
    with phase_clock(times, marks):
        for _ in range(PHASE_PASSES):
            rows: collections.Counter = collections.Counter()
            solved = raised = interior = bounds = 0
            for s, theta in draws:
                times.update(zero)
                marks.update({"first cell call": None, "bound calls": 0})
                t0 = clock()
                try:
                    record = pricing.solve(s, theta, policy)
                except (CptSenseError, ValueError):
                    raised += 1
                    continue
                total = clock() - t0
                row = dict(times)
                search = row.pop("search")
                setup = (marks["first cell call"] or marks["search end"]) \
                    - marks["start pass end"]
                row["start-cell set-up"] = setup
                row["polish and split loop"] = (
                    search - row["start pass"] - setup - row["bounds"])
                row["candidate pick"] = (marks["oracle start"]
                                         - marks["search end"])
                row["other"] = total - sum(
                    v for k, v in row.items() if k not in PHASE_PARTS)
                rows.update(row)
                solved += 1
                interior += record.active is ActiveSet.INTERIOR
                bounds += marks["bound calls"]
            total_ns = sum(v for k, v in rows.items() if k not in PHASE_PARTS)
            if best is None or total_ns < best[0]:
                best = (total_ns, rows, solved, raised, interior, bounds)
    _, rows, solved, raised, interior, bounds = best
    if not solved:
        raise SystemExit("phases: every solve raised")
    plain = math.inf
    for _ in range(PHASE_PASSES):
        t0 = clock()
        for s, theta in draws:
            try:
                pricing.solve(s, theta, policy)
            except (CptSenseError, ValueError):
                pass
        plain = min(plain, (clock() - t0) / len(draws))
    return ({row: rows[row] / solved / 1e3 for row in PHASE_ROWS},
            plain / 1e3, raised, interior / solved, bounds / solved)


def main_tool(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["diff", "regen", "records",
                                         "continuation", "phases"])
    parser.add_argument("--count", type=int, default=None,
                        help="records: generated scenarios (default 320); "
                        "phases: draws (default 6000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="records and phases: scenario and parameter "
                        "seed (default 0)")
    parser.add_argument("--policy", type=_parse_reference,
                        default=ReferencePolicy.best_case(),
                        help="phases: the reference of every solve, in a "
                        "--reference form of the CLI (default best)")
    args = parser.parse_args(argv)
    if args.mode == "phases":
        count = 6000 if args.count is None else args.count
        if count < 1:
            parser.error("--count must be at least 1")
        rows, plain, raised, interior, bounds = solve_phases(
            phase_draws(count, args.seed), args.policy)
        print("| phase | µs |\n| --- | --- |")
        for row, us in rows.items():
            print("| %s | %.1f |" % (row, us))
        instrumented = sum(us for row, us in rows.items()
                           if row not in PHASE_PARTS)
        print("instrumented solve %.1f µs, uninstrumented %.1f µs; %.0f%% "
              "interior, %.2f bound calls per solve, %d of %d solves raised"
              % (instrumented, plain, 100.0 * interior, bounds, raised, count))
        return 0
    if args.count is None:
        args.count = 320
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
