"""Command-line surface: solve, sweep, domain, mismatch, gen-scenarios,
validate.

Each command takes only the flags it reads: ``solve`` the scenario source
(``--scenarios --seed``), rider (``--alpha --beta --lambda --p
--reference``) and output (``--out --format``) groups, ``domain`` these
and ``--param``, ``sweep`` these and ``--param --range --steps``,
``mismatch`` these and ``--assume``, ``validate`` the source group alone
and ``gen-scenarios`` ``--count --seed --out --format``.

All numeric CSV fields are written with 12 significant digits and a '.'
decimal separator regardless of locale, and an absent value (a sweep row's
``error`` when it has none) as an empty field; files are written atomically
(temp + rename) in a deterministic order, so identical configurations and
seeds produce byte-identical outputs.  Every command runs in one process;
a sweep works through its (scenario, parameter) pairs in order.  Exit
codes: 0 success, 2 invalid scenario, 3 solver failure, 64 usage error
(an unknown flag, a flag the command does not take among them, a
malformed argument or scenario file, or an empty scenario set) on one
stderr line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from cpt_sense import scenario as scn
from cpt_sense.errors import CptSenseError, InvalidScenarioError
from cpt_sense.model import (
    NOMINAL_PARAMS,
    PARAM_NAMES,
    CptParams,
    PolicyKind,
    ReferencePolicy,
)
from cpt_sense.pricing import certificate_margin, solve
from cpt_sense.sensitivity import all_domains, differentials
from cpt_sense.sweeps import SWEEP_COLUMNS, SweepSpec, mismatch_loss, numeric_sweep

EXIT_OK = 0
EXIT_INVALID_SCENARIO = 2
EXIT_SOLVER_FAILURE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports bad input on one line with the usage code."""

    def error(self, message):
        sys.exit(_usage_error("%s: %s" % (self.prog, message)))


class _UsageError(Exception):
    """Malformed input found after parsing, reported as a usage error."""


def _usage_error(message) -> int:
    """Report malformed input on one stderr line; the usage exit code."""
    print("usage error: %s" % message, file=sys.stderr)
    return EXIT_USAGE


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    if x is None:
        return ""
    return str(x)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_to_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def _parse_reference(text: str) -> ReferencePolicy:
    kinds = {
        "static": ReferencePolicy.static_alternative,
        "expected": ReferencePolicy.expected_utility,
        "best": ReferencePolicy.best_case,
        "worst": ReferencePolicy.worst_case,
    }
    if text in kinds:
        return kinds[text]()
    if text.startswith("fixed:"):
        try:
            return ReferencePolicy.fixed(float(text.split(":", 1)[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "fixed reference needs a numeric level, got %r" % text)
    raise argparse.ArgumentTypeError(
        "reference must be static|expected|best|worst|fixed:VALUE, got %r" % text)


def _load_scenarios(source: str, seed: int) -> list[scn.TravelScenario]:
    if source == "fixtures":
        return list(scn.fixtures())
    if source.startswith("gen:"):
        count = int(source.split(":", 1)[1])
        return scn.generate_random(count=count, seed=seed)
    path = Path(source)
    try:
        # utf-8-sig also reads the byte-order mark spreadsheet programs write
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError("cannot read scenarios: %s" % exc) from None
    if path.suffix.lower() == ".json":
        return scn.scenarios_from_json(text)
    return scn.scenarios_from_csv(text)


def _scenarios(args) -> list[scn.TravelScenario]:
    """The non-empty scenario set that ``--scenarios`` and ``--seed`` name."""
    try:
        scenarios = _load_scenarios(args.scenarios, args.seed)
    except ValueError as exc:
        raise _UsageError(exc) from None
    if not scenarios:
        raise _UsageError("no scenarios in %r" % args.scenarios)
    return scenarios


def _rider(args) -> CptParams:
    """The rider parameters of ``--alpha --beta --lambda --p``."""
    try:
        return CptParams(alpha=args.alpha, beta=args.beta, lam=args.lam,
                         p_worst=args.p)
    except ValueError as exc:
        raise _UsageError(exc) from None


def _validate_all(scenarios: list[scn.TravelScenario]) -> int:
    code = EXIT_OK
    for s in scenarios:
        problems = scn.validate(s)
        if problems:
            code = EXIT_INVALID_SCENARIO
            print("%s: INVALID: %s" % (s.label, "; ".join(problems)),
                  file=sys.stderr)
    return code


def _record_row(label: str, opt, certified: bool) -> dict:
    return {
        "label": label,
        "gamma_star": opt.gamma_star,
        "f_star": opt.f_star,
        "mu_low": opt.mu_low,
        "mu_high": opt.mu_high,
        "active": opt.active.value,
        "kkt_residual": opt.kkt_residual,
        "concave_certified": certified,
        "degenerate": opt.degenerate,
    }


def _emit(args, stem: str, columns, rows) -> Path:
    path = Path(args.out) / ("%s.%s" % (stem, args.format))
    _atomic_write(path, json.dumps(rows, indent=2) + "\n"
                  if args.format == "json" else _rows_to_csv(columns, rows))
    return path


def cmd_solve(args) -> int:
    params, scenarios = _rider(args), _scenarios(args)
    code = _validate_all(scenarios)
    if code != EXIT_OK:
        return code
    rows = []
    for s in scenarios:
        try:
            opt = solve(s, params, args.reference)
        except CptSenseError as exc:
            print("%s: solver failure: %s" % (s.label, exc), file=sys.stderr)
            return EXIT_SOLVER_FAILURE
        certified = (args.reference.kind is PolicyKind.BEST_CASE
                     and certificate_margin(s, params)[0])
        rows.append(_record_row(s.label, opt, certified))
    path = _emit(args, "solutions", list(rows[0].keys()), rows)
    print("wrote %s (%d scenarios)" % (path, len(rows)))
    return EXIT_OK


def _sweep_task(s: scn.TravelScenario, params: CptParams,
                policy: ReferencePolicy, spec: SweepSpec):
    """One (scenario, parameter) sweep: its rows and the scenario summary."""
    nominal = solve(s, params, policy)
    diffs = differentials(nominal, s, params, policy)
    rows = numeric_sweep(s, params, policy, spec, nominal=nominal, diffs=diffs)
    domains = all_domains(nominal, diffs)
    summary = {
        "gamma_star": nominal.gamma_star,
        "f_star": nominal.f_star,
        "active": nominal.active.value,
        "degenerate": nominal.degenerate,
        "differentials": {
            n: {
                "dgamma_dtheta": d.dgamma_dtheta,
                "dmu_dtheta": d.dmu_dtheta,
                "df_dtheta": d.df_dtheta,
                "d2f_dtheta2": d.d2f_dtheta2,
            } for n, d in diffs.items()
        },
        "domains": {
            n: {
                "delta_max_pos_pct": dom.delta_max_pos_pct,
                "delta_max_neg_pct": dom.delta_max_neg_pct,
                "min_pct": dom.min_pct,
                "binding_event": dom.binding_event.value,
            } for n, dom in domains.items()
        },
    }
    return rows, summary


def _sweep_row_dict(row) -> dict:
    return {
        "theta_name": row.theta_name,
        "theta_value": row.theta_value,
        "gamma_star_numeric": row.gamma_star_numeric,
        "f_star_numeric": row.f_star_numeric,
        "gamma_star_taylor1": row.gamma_star_taylor1,
        "f_star_taylor1": row.f_star_taylor1,
        "f_star_taylor2": row.f_star_taylor2,
        "mu_low": row.mu_low,
        "mu_high": row.mu_high,
        "active": row.active.value if row.error is None else "error",
        "mismatch_loss": row.mismatch_loss,
        "clamped": row.clamped,
        "error": row.error,
    }


def cmd_sweep(args) -> int:
    params = _rider(args)
    names = PARAM_NAMES if args.param == "all" else (args.param,)
    try:
        specs = [SweepSpec(theta_name=name, rel_range=args.range,
                           steps=args.steps) for name in names]
    except ValueError as exc:
        raise _UsageError(exc) from None
    scenarios = _scenarios(args)
    code = _validate_all(scenarios)
    if code != EXIT_OK:
        return code
    results = []
    for s in scenarios:
        try:
            results += [(s.label, spec.theta_name,
                         *_sweep_task(s, params, args.reference, spec))
                        for spec in specs]
        except CptSenseError as exc:
            print("%s: solver failure: %s" % (s.label, exc), file=sys.stderr)
            return EXIT_SOLVER_FAILURE

    summary: dict[str, dict] = {}
    for label, name, rows, scenario_summary in results:
        _emit(args, "sweep_%s_%s" % (label, name), SWEEP_COLUMNS,
              [_sweep_row_dict(r) for r in rows])
        summary.setdefault(label, scenario_summary)
    _atomic_write(Path(args.out) / "summary.json",
                  json.dumps(summary, indent=2) + "\n")
    print("wrote %d sweep files + summary.json under %s"
          % (len(results), Path(args.out)))
    return EXIT_OK


def cmd_domain(args) -> int:
    params, scenarios = _rider(args), _scenarios(args)
    names = PARAM_NAMES if args.param == "all" else (args.param,)
    code = _validate_all(scenarios)
    if code != EXIT_OK:
        return code
    rows = []
    for s in scenarios:
        try:
            opt = solve(s, params, args.reference)
            diffs = differentials(opt, s, params, args.reference)
            domains = all_domains(opt, diffs)
        except CptSenseError as exc:
            print("%s: solver failure: %s" % (s.label, exc), file=sys.stderr)
            return EXIT_SOLVER_FAILURE
        for name in names:
            dom = domains[name]
            rows.append({
                "label": s.label, "theta_name": name,
                "delta_max_pos_pct": dom.delta_max_pos_pct,
                "delta_max_neg_pct": dom.delta_max_neg_pct,
                "min_pct": dom.min_pct,
                "binding_event": dom.binding_event.value,
            })
    path = _emit(args, "domains", list(rows[0].keys()), rows)
    print("wrote %s" % path)
    return EXIT_OK


def cmd_mismatch(args) -> int:
    params, scenarios = _rider(args), _scenarios(args)
    assumed = params
    for item in args.assume:
        name, _, raw = item.partition("=")
        if name not in PARAM_NAMES or not raw:
            raise _UsageError(
                "unknown or malformed override %r (use name=value with name "
                "in %s)" % (item, "/".join(PARAM_NAMES)))
        try:
            assumed = assumed.replace(name, float(raw))
        except ValueError as exc:
            raise _UsageError("bad override %r: %s" % (item, exc)) from None
    code = _validate_all(scenarios)
    if code != EXIT_OK:
        return code
    rows = []
    for s in scenarios:
        try:
            res = mismatch_loss(s, params, assumed, args.reference)
        except CptSenseError as exc:
            print("%s: solver failure: %s" % (s.label, exc), file=sys.stderr)
            return EXIT_SOLVER_FAILURE
        rows.append({
            "label": s.label, "delta_f": res.delta_f,
            "gamma_true": res.gamma_true, "gamma_assumed": res.gamma_assumed,
        })
    path = _emit(args, "mismatch", list(rows[0].keys()), rows)
    print("wrote %s" % path)
    return EXIT_OK


def cmd_gen_scenarios(args) -> int:
    if args.count < 1:
        raise _UsageError("--count must be >= 1, got %d" % args.count)
    scenarios = scn.generate_random(count=args.count, seed=args.seed)
    path = Path(args.out) / ("scenarios." + args.format)
    _atomic_write(path, scn.scenarios_to_json(scenarios) if args.format == "json"
                  else scn.scenarios_to_csv(scenarios))
    print("wrote %s (%d scenarios)" % (path, len(scenarios)))
    return EXIT_OK


def cmd_validate(args) -> int:
    scenarios = _scenarios(args)
    code = _validate_all(scenarios)
    for s in scenarios:
        if scn.is_valid(s):
            print("%s: ok" % s.label)
    return code


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenarios", default="fixtures",
                   help="'fixtures', a scenario CSV/JSON path, or gen:<count>")
    p.add_argument("--seed", type=int, default=0)


def _add_rider(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=NOMINAL_PARAMS.alpha)
    p.add_argument("--beta", type=float, default=NOMINAL_PARAMS.beta)
    p.add_argument("--lambda", dest="lam", type=float, default=NOMINAL_PARAMS.lam)
    p.add_argument("--p", type=float, default=NOMINAL_PARAMS.p_worst)
    p.add_argument("--reference", type=_parse_reference,
                   default=ReferencePolicy.best_case(),
                   help="static|expected|best|worst|fixed:VALUE")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="out")
    p.add_argument("--format", default="csv", choices=["csv", "json"])


def _add_param(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", default="all", choices=list(PARAM_NAMES) + ["all"])


def build_parser() -> _Parser:
    """A new parser of every command."""
    parser = _Parser(prog="cpt-sense",
                     description="Behavioral dynamic-pricing sensitivity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, *adders):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        for add in adders:
            add(p)
        return p

    analysis = (_add_source, _add_rider, _add_output)
    command("solve", cmd_solve, *analysis)
    p_sweep = command("sweep", cmd_sweep, *analysis, _add_param)
    p_sweep.add_argument("--range", type=float, default=0.20,
                         help="sweep half-width as a fraction of nominal")
    p_sweep.add_argument("--steps", type=int, default=41)
    command("domain", cmd_domain, *analysis, _add_param)
    p_mis = command("mismatch", cmd_mismatch, *analysis)
    p_mis.add_argument("--assume", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="assumed parameter override, repeatable")
    command("validate", cmd_validate, _add_source)
    p_gen = command("gen-scenarios", cmd_gen_scenarios)
    p_gen.add_argument("--count", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    _add_output(p_gen)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser ``main`` reuses, built on its first call rather than at
    import; parsing leaves no state on it, since each call fills a fresh
    namespace and an appending flag copies its default list."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        return _usage_error(exc)
    except InvalidScenarioError as exc:
        print("invalid scenario: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    except CptSenseError as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
