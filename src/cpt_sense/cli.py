"""Command-line surface: solve, sweep, domain, mismatch, gen-scenarios,
validate.

All numeric CSV fields are written with 12 significant digits and a '.'
decimal separator regardless of locale; files are written atomically
(temp + rename) in a deterministic order, so identical configurations and
seeds produce byte-identical outputs.  Exit codes: 0 success, 2 invalid
scenario, 3 solver failure, 64 usage error.  ``CPT_SENSE_WORKERS`` caps the
process pool used to fan out sweep work (default 1, sequential).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    """ArgumentParser that exits with the usage code on bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        sys.exit(EXIT_USAGE)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
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


def _rows_to_json(rows) -> str:
    return json.dumps(list(rows), indent=2) + "\n"


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


@dataclass
class RunConfig:
    """Resolved invocation: scenarios, parameters, policy, sweep and output."""

    scenarios: list[scn.TravelScenario]
    params: CptParams
    policy: ReferencePolicy
    param_names: list[str]
    rel_range: float
    steps: int
    seed: int
    out_dir: Path
    out_format: str


def _load_scenarios(source: str, seed: int) -> list[scn.TravelScenario]:
    if source == "fixtures":
        return list(scn.fixtures())
    if source.startswith("gen:"):
        count = int(source.split(":", 1)[1])
        return scn.generate_random(count=count, seed=seed)
    path = Path(source)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        return scn.scenarios_from_json(text)
    return scn.scenarios_from_csv(text)


def _config_from(args) -> RunConfig:
    params = CptParams(alpha=args.alpha, beta=args.beta, lam=args.lam,
                       p_worst=args.p)
    names = PARAM_NAMES if args.param == "all" else (args.param,)
    return RunConfig(
        scenarios=_load_scenarios(args.scenarios, args.seed),
        params=params, policy=args.reference, param_names=list(names),
        rel_range=args.range, steps=args.steps, seed=args.seed,
        out_dir=Path(args.out), out_format=args.format)


def _validate_all(config: RunConfig) -> int:
    code = EXIT_OK
    for s in config.scenarios:
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


def _emit(config: RunConfig, stem: str, columns, rows) -> Path:
    if config.out_format == "json":
        path = config.out_dir / (stem + ".json")
        _atomic_write(path, _rows_to_json(rows))
    else:
        path = config.out_dir / (stem + ".csv")
        _atomic_write(path, _rows_to_csv(columns, rows))
    return path


def cmd_solve(config: RunConfig) -> int:
    code = _validate_all(config)
    if code != EXIT_OK:
        return code
    rows = []
    for s in config.scenarios:
        try:
            opt = solve(s, config.params, config.policy)
        except CptSenseError as exc:
            print("%s: solver failure: %s" % (s.label, exc), file=sys.stderr)
            return EXIT_SOLVER_FAILURE
        certified = (config.policy.kind is PolicyKind.BEST_CASE
                     and certificate_margin(s, config.params)[0])
        rows.append(_record_row(s.label, opt, certified))
    path = _emit(config, "solutions", list(rows[0].keys()), rows)
    print("wrote %s (%d scenarios)" % (path, len(rows)))
    return EXIT_OK


def _sweep_task(task):
    """Worker body: one (scenario, parameter) sweep.  Picklable."""
    s, params, policy, name, rel_range, steps = task
    nominal = solve(s, params, policy)
    diffs = differentials(nominal, s, params, policy)
    spec = SweepSpec(theta_name=name, rel_range=rel_range, steps=steps)
    rows = numeric_sweep(s, params, policy, spec, nominal=nominal, diffs=diffs)
    domains = all_domains(nominal, diffs, s, params)
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
    return s.label, name, rows, summary


def _workers() -> int:
    raw = os.environ.get("CPT_SENSE_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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
    }


def cmd_sweep(config: RunConfig) -> int:
    code = _validate_all(config)
    if code != EXIT_OK:
        return code
    tasks = [(s, config.params, config.policy, name, config.rel_range,
              config.steps)
             for s in config.scenarios for name in config.param_names]
    try:
        workers = _workers()
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_task, tasks))
        else:
            results = [_sweep_task(t) for t in tasks]
    except CptSenseError as exc:
        print("sweep failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER_FAILURE

    summary: dict[str, dict] = {}
    for label, name, rows, scenario_summary in results:
        _emit(config, "sweep_%s_%s" % (label, name), SWEEP_COLUMNS,
              [_sweep_row_dict(r) for r in rows])
        summary.setdefault(label, scenario_summary)
    _atomic_write(config.out_dir / "summary.json",
                  json.dumps(summary, indent=2) + "\n")
    print("wrote %d sweep files + summary.json under %s"
          % (len(results), config.out_dir))
    return EXIT_OK


def cmd_domain(config: RunConfig) -> int:
    code = _validate_all(config)
    if code != EXIT_OK:
        return code
    rows = []
    for s in config.scenarios:
        try:
            opt = solve(s, config.params, config.policy)
            diffs = differentials(opt, s, config.params, config.policy)
            domains = all_domains(opt, diffs, s, config.params)
        except CptSenseError as exc:
            print("%s: solver failure: %s" % (s.label, exc), file=sys.stderr)
            return EXIT_SOLVER_FAILURE
        for name in config.param_names:
            dom = domains[name]
            rows.append({
                "label": s.label, "theta_name": name,
                "delta_max_pos_pct": dom.delta_max_pos_pct,
                "delta_max_neg_pct": dom.delta_max_neg_pct,
                "min_pct": dom.min_pct,
                "binding_event": dom.binding_event.value,
            })
    path = _emit(config, "domains", list(rows[0].keys()), rows)
    print("wrote %s" % path)
    return EXIT_OK


def cmd_mismatch(config: RunConfig, overrides: list[str]) -> int:
    assumed = config.params
    for item in overrides:
        name, _, raw = item.partition("=")
        if name not in PARAM_NAMES or not raw:
            print("unknown or malformed override %r (use name=value with "
                  "name in %s)" % (item, "/".join(PARAM_NAMES)), file=sys.stderr)
            return EXIT_USAGE
        try:
            assumed = assumed.replace(name, float(raw))
        except ValueError as exc:
            print("bad override %r: %s" % (item, exc), file=sys.stderr)
            return EXIT_USAGE
    code = _validate_all(config)
    if code != EXIT_OK:
        return code
    rows = []
    for s in config.scenarios:
        try:
            res = mismatch_loss(s, config.params, assumed, config.policy)
        except CptSenseError as exc:
            print("%s: solver failure: %s" % (s.label, exc), file=sys.stderr)
            return EXIT_SOLVER_FAILURE
        rows.append({
            "label": s.label, "delta_f": res.delta_f,
            "gamma_true": res.gamma_true, "gamma_assumed": res.gamma_assumed,
        })
    path = _emit(config, "mismatch", list(rows[0].keys()), rows)
    print("wrote %s" % path)
    return EXIT_OK


def cmd_gen_scenarios(args) -> int:
    scenarios = scn.generate_random(count=args.count, seed=args.seed)
    out_dir = Path(args.out)
    if args.format == "json":
        path = out_dir / "scenarios.json"
        _atomic_write(path, scn.scenarios_to_json(scenarios))
    else:
        path = out_dir / "scenarios.csv"
        _atomic_write(path, scn.scenarios_to_csv(scenarios))
    print("wrote %s (%d scenarios)" % (path, len(scenarios)))
    return EXIT_OK


def cmd_validate(config: RunConfig) -> int:
    code = _validate_all(config)
    for s in config.scenarios:
        if scn.is_valid(s):
            print("%s: ok" % s.label)
    return code


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenarios", default="fixtures",
                   help="'fixtures', a scenario CSV/JSON path, or gen:<count>")
    p.add_argument("--alpha", type=float, default=NOMINAL_PARAMS.alpha)
    p.add_argument("--beta", type=float, default=NOMINAL_PARAMS.beta)
    p.add_argument("--lambda", dest="lam", type=float, default=NOMINAL_PARAMS.lam)
    p.add_argument("--p", type=float, default=NOMINAL_PARAMS.p_worst)
    p.add_argument("--reference", type=_parse_reference,
                   default=ReferencePolicy.best_case(),
                   help="static|expected|best|worst|fixed:VALUE")
    p.add_argument("--param", default="all",
                   choices=list(PARAM_NAMES) + ["all"])
    p.add_argument("--range", type=float, default=0.20,
                   help="sweep half-width as a fraction of nominal")
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--format", default="csv", choices=["csv", "json"])


def build_parser() -> _Parser:
    parser = _Parser(prog="cpt-sense",
                     description="Behavioral dynamic-pricing sensitivity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep", "domain", "validate"):
        _add_common(sub.add_parser(name))
    p_mis = sub.add_parser("mismatch")
    _add_common(p_mis)
    p_mis.add_argument("--assume", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="assumed parameter override, repeatable")
    p_gen = sub.add_parser("gen-scenarios")
    p_gen.add_argument("--count", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="out")
    p_gen.add_argument("--format", default="csv", choices=["csv", "json"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-scenarios":
            return cmd_gen_scenarios(args)
        config = _config_from(args)
        if args.command == "solve":
            return cmd_solve(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "domain":
            return cmd_domain(config)
        if args.command == "mismatch":
            return cmd_mismatch(config, args.assume)
        if args.command == "validate":
            return cmd_validate(config)
    except InvalidScenarioError as exc:
        print("invalid scenario: %s" % exc, file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    except FileNotFoundError as exc:
        print("cannot read scenarios: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CptSenseError as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    raise AssertionError("unhandled command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
