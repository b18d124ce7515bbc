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
``error`` when it has none) as an empty field.  A command writes each of
its files to a temporary file and renames them all, in a deterministic
order, only once every one is written and no target is a directory, so a
file that cannot be written leaves none behind; identical configurations
and seeds produce byte-identical outputs.  Every command runs in one process;
a sweep works through its (scenario, parameter) pairs in order.  Exit
codes: 0 success, 2 invalid scenario, 3 solver failure, 64 usage error
(an unknown flag, a flag the command does not take among them, a
malformed argument or scenario file, an empty scenario set, a scenario
label that is repeated, empty or holds '/', '\\' or NUL, or an output
file or directory that cannot be written) on one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from pathlib import Path

from cpt_sense import scenario as scn
from cpt_sense.errors import CptSenseError
from cpt_sense.model import (
    NOMINAL_PARAMS,
    PARAM_NAMES,
    CptParams,
    PolicyKind,
    ReferencePolicy,
)
from cpt_sense.pricing import certificate_margin, solve
from cpt_sense.sensitivity import all_domains, differentials
from cpt_sense.sweeps import SweepSpec, mismatch_loss, numeric_sweep

EXIT_OK = 0
EXIT_INVALID_SCENARIO = 2
EXIT_SOLVER_FAILURE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports bad input on one line with the usage code."""

    def error(self, message):
        sys.exit(_usage_error("%s: %s" % (self.prog, message)))


class _Exit(Exception):
    """A command ends with the exit code ``args[0]``, its report printed;
    malformed input found after parsing is reported by ``_usage_error``."""


def _usage_error(message) -> int:
    """Report malformed input on one stderr line; the usage exit code."""
    print("usage error: %s" % message, file=sys.stderr)
    return EXIT_USAGE


def _write_all(files: list[tuple[Path, str]]) -> None:
    """Write each (path, text) of ``files`` through a temporary file beside
    it, and rename them all into place once every one is written and no
    path is a directory; a path that cannot be written is a usage error
    and leaves none of the files."""
    tmps: list[str] = []
    try:
        for path, text in files:
            if path.is_dir():
                raise IsADirectoryError("is a directory")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                       prefix=path.name + ".")
            tmps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for (path, _), tmp in zip(files, tmps):
            os.replace(tmp, path)
    except OSError as exc:
        raise _Exit(_usage_error("cannot write %s: %s"
                                 % (path, exc))) from None
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)


#: The ``--reference`` values.
_REFERENCE_FORMS = "static|expected|best|worst|fixed:VALUE"


def _parse_reference(text: str) -> ReferencePolicy:
    if text.startswith("fixed:"):
        try:
            return ReferencePolicy.fixed(float(text.split(":", 1)[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "fixed reference needs a numeric level that is finite, "
                "got %r" % text)
    try:
        # a bare "fixed" names a kind but no level, which the policy refuses
        return ReferencePolicy(PolicyKind(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "reference must be %s, got %r" % (_REFERENCE_FORMS, text)) from None


def _scenarios(args) -> list[scn.TravelScenario]:
    """The non-empty scenario set that ``--scenarios`` and ``--seed`` name,
    each label unique and fit to be part of a file name."""
    source = args.scenarios
    try:
        if source == "fixtures":
            scenarios = list(scn.fixtures())
        elif source.startswith("gen:"):
            scenarios = scn.generate_random(count=int(source.split(":", 1)[1]),
                                            seed=args.seed)
        else:
            # utf-8-sig also reads the byte-order mark spreadsheet programs write
            text = Path(source).read_text(encoding="utf-8-sig")
            scenarios = (scn.scenarios_from_json(text)
                         if Path(source).suffix.lower() == ".json"
                         else scn.scenarios_from_csv(text))
    except OSError as exc:
        raise _Exit(_usage_error("cannot read scenarios: %s" % exc)) from None
    except ValueError as exc:
        raise _Exit(_usage_error(exc)) from None
    if not scenarios:
        raise _Exit(_usage_error("no scenarios in %r" % source))
    seen = set()
    for s in scenarios:
        if not s.label or any(c in s.label for c in "/\\\0"):
            raise _Exit(_usage_error("scenario label %r is empty or holds "
                                     "'/', '\\' or NUL" % s.label))
        if s.label in seen:
            raise _Exit(_usage_error("duplicate scenario label %r"
                                     % s.label))
        seen.add(s.label)
    return scenarios


def _rider(args) -> CptParams:
    """The rider parameters of ``--alpha --beta --lambda --p``."""
    try:
        return CptParams(alpha=args.alpha, beta=args.beta, lam=args.lam,
                         p_worst=args.p)
    except ValueError as exc:
        raise _Exit(_usage_error(exc)) from None


def _valid(s: scn.TravelScenario) -> bool:
    """Whether ``s`` is valid; its problems go to stderr when it is not."""
    problems = scn.validate(s)
    if problems:
        print("%s: INVALID: %s" % (s.label, "; ".join(problems)),
              file=sys.stderr)
    return not problems


def _each_scenario(args, work) -> list:
    """The items of the list ``work(s)`` returns for each scenario ``s`` of
    the set, in order, once every scenario is valid.

    Raises:
        _Exit: a scenario is invalid (each one is named on stderr), or
            ``work`` raised a ``CptSenseError`` (the first scenario it
            raised on is named on stderr).
    """
    scenarios = _scenarios(args)
    if not all([_valid(s) for s in scenarios]):
        raise _Exit(EXIT_INVALID_SCENARIO)
    rows = []
    for s in scenarios:
        try:
            rows += work(s)
        except CptSenseError as exc:
            print("%s: solver failure: %s" % (s.label, exc), file=sys.stderr)
            raise _Exit(EXIT_SOLVER_FAILURE) from None
    return rows


def _table(args, stem: str, rows: list[dict]) -> tuple[Path, str]:
    """``<out>/<stem>.<format>`` and the text of ``rows`` in that format;
    the key order of a row is the column order."""
    path = Path(args.out) / ("%s.%s" % (stem, args.format))
    return path, (scn.rows_to_json(rows) if args.format == "json"
                  else scn.rows_to_csv(list(rows[0]), rows))


def _emit(args, stem: str, rows: list[dict]) -> Path:
    """Write ``rows`` to ``<out>/<stem>.<format>``."""
    path, text = _table(args, stem, rows)
    _write_all([(path, text)])
    return path


def _domain_fields(dom) -> dict:
    return {"delta_max_pos_pct": dom.delta_max_pos_pct,
            "delta_max_neg_pct": dom.delta_max_neg_pct,
            "min_pct": dom.min_pct, "binding_event": dom.binding_event.value}


def cmd_solve(args) -> int:
    params = _rider(args)
    best = args.reference.kind is PolicyKind.BEST_CASE

    def work(s):
        opt = solve(s, params, args.reference)
        return [{
            "label": s.label, "gamma_star": opt.gamma_star,
            "f_star": opt.f_star, "mu_low": opt.mu_low,
            "mu_high": opt.mu_high, "active": opt.active.value,
            "kkt_residual": opt.kkt_residual,
            "concave_certified": best and certificate_margin(s, params)[0],
            "degenerate": opt.degenerate,
        }]
    rows = _each_scenario(args, work)
    path = _emit(args, "solutions", rows)
    print("wrote %s (%d scenarios)" % (path, len(rows)))
    return EXIT_OK


def _sweep_summary(nominal, diffs) -> dict:
    """A scenario's ``summary.json`` entry: its nominal optimum, every
    parameter's differentials and domain."""
    return {
        "gamma_star": nominal.gamma_star,
        "f_star": nominal.f_star,
        "active": nominal.active.value,
        "degenerate": nominal.degenerate,
        "differentials": {n: {
            "dgamma_dtheta": d.dgamma_dtheta,
            "dmu_dtheta": d.dmu_dtheta,
            "df_dtheta": d.df_dtheta,
            "d2f_dtheta2": d.d2f_dtheta2,
        } for n, d in diffs.items()},
        "domains": {n: _domain_fields(dom)
                    for n, dom in all_domains(nominal, diffs).items()},
    }


def _sweep_fields(r) -> dict:
    """A sweep file's row: ``r``'s fields, with the ``active`` of a failed
    re-solve read as "error"."""
    row = vars(r).copy()  # a copy keeps the instance dict's shared keys
    row["active"] = "error" if r.error is not None else r.active.value
    return row


def cmd_sweep(args) -> int:
    params, policy = _rider(args), args.reference
    names = PARAM_NAMES if args.param == "all" else (args.param,)
    try:
        specs = [SweepSpec(theta_name=name, rel_range=args.range,
                           steps=args.steps) for name in names]
    except ValueError as exc:
        raise _Exit(_usage_error(exc)) from None
    summary: dict[str, dict] = {}

    def work(s):
        files = []
        for spec in specs:
            nominal = solve(s, params, policy)
            diffs = differentials(nominal, s, params, policy)
            if spec is specs[0]:
                summary[s.label] = _sweep_summary(nominal, diffs)
            rows = numeric_sweep(s, params, policy, spec, nominal, diffs)
            files.append(_table(args, "sweep_%s_%s" % (s.label, spec.theta_name),
                                [_sweep_fields(r) for r in rows]))
        return files
    files = _each_scenario(args, work)
    _write_all(files + [(Path(args.out) / "summary.json",
                         scn.rows_to_json(summary))])
    print("wrote %d sweep files + summary.json under %s"
          % (len(files), Path(args.out)))
    return EXIT_OK


def cmd_domain(args) -> int:
    params = _rider(args)
    names = PARAM_NAMES if args.param == "all" else (args.param,)

    def work(s):
        opt = solve(s, params, args.reference)
        diffs = differentials(opt, s, params, args.reference)
        domains = all_domains(opt, diffs)
        return [{"label": s.label, "theta_name": name,
                 **_domain_fields(domains[name])} for name in names]
    path = _emit(args, "domains", _each_scenario(args, work))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_mismatch(args) -> int:
    params = assumed = _rider(args)
    for item in args.assume:
        name, _, raw = item.partition("=")
        if name not in PARAM_NAMES or not raw:
            raise _Exit(_usage_error(
                "unknown or malformed override %r (use name=value with name "
                "in %s)" % (item, "/".join(PARAM_NAMES))))
        try:
            assumed = assumed.replace(name, float(raw))
        except ValueError as exc:
            raise _Exit(_usage_error("bad override %r: %s"
                                     % (item, exc))) from None

    def work(s):
        res = mismatch_loss(s, params, assumed, args.reference)
        return [{"label": s.label, **vars(res)}]
    path = _emit(args, "mismatch", _each_scenario(args, work))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_gen_scenarios(args) -> int:
    if args.count < 1:
        raise _Exit(_usage_error("--count must be >= 1, got %d"
                                 % args.count))
    rows = [scn.scenario_row(s) for s in
            scn.generate_random(count=args.count, seed=args.seed)]
    path = _emit(args, "scenarios", rows)
    print("wrote %s (%d scenarios)" % (path, len(rows)))
    return EXIT_OK


def cmd_validate(args) -> int:
    code = EXIT_OK
    for s in _scenarios(args):
        if _valid(s):
            print("%s: ok" % s.label)
        else:
            code = EXIT_INVALID_SCENARIO
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
                   help=_REFERENCE_FORMS)


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
    except _Exit as exc:
        return exc.args[0]


if __name__ == "__main__":
    sys.exit(main())
