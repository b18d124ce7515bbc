"""End-to-end tests of the command-line surface."""

import argparse
import codecs
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cpt_sense import cli, sweeps
from cpt_sense import scenario as scn
from cpt_sense.cli import build_parser, main
from cpt_sense.errors import BracketingError
from cpt_sense.model import ReferencePolicy
from cpt_sense.scenario import fixtures, scenarios_to_csv, scenarios_to_json
from cpt_sense.sweeps import SWEEP_COLUMNS

from test_sensitivity import R1433, R1433_THETA


SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


def run_python(*args, cwd=None):
    """A fresh interpreter importing cpt_sense from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)


def strict_json(text: str):
    """JSON text parsed as RFC 8259 defines it: the NaN, Infinity and
    -Infinity that Python's json module accepts by default raise."""
    def refuse(token):
        raise ValueError("not JSON: %s" % token)
    return json.loads(text, parse_constant=refuse)


def read_all_outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture()
def s1_csv(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(scenarios_to_csv([fixtures()[0]]), encoding="utf-8")
    return path


class TestJsonOutput:
    """Every JSON file a command writes is JSON: a non-finite number is
    null."""

    COMMANDS = {
        "solve": ["solve", "--format", "json"],
        "domain": ["domain", "--format", "json"],
        "mismatch": ["mismatch", "--assume", "lambda=2.7", "--format",
                     "json"],
        # summary.json, whatever the format of the sweep files
        "sweep csv": ["sweep", "--param", "all", "--steps", "5"],
        "sweep json": ["sweep", "--param", "all", "--steps", "5",
                       "--format", "json"],
    }

    @staticmethod
    def nulls(node) -> int:
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            return sum(map(TestJsonOutput.nulls, node))
        return node is None

    @pytest.mark.parametrize("reference", ["best", "expected"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_json_file_parses_strictly(self, tmp_path, command,
                                             reference):
        out = tmp_path / "out"
        assert run(self.COMMANDS[command] + ["--reference", reference,
                                             "--out", str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert files
        nulls = sum(self.nulls(strict_json(p.read_text(encoding="utf-8")))
                    for p in files)
        # an unbounded domain's percentages are null, and the fixtures
        # have one under either reference
        assert (nulls > 0) == command.startswith(("domain", "sweep"))

    def test_gen_scenarios_json_parses_strictly(self, tmp_path):
        out = tmp_path / "out"
        assert run(["gen-scenarios", "--count", "5", "--seed", "7",
                    "--format", "json", "--out", str(out)]) == 0
        [path] = out.glob("*.json")
        assert len(strict_json(path.read_text(encoding="utf-8"))) == 5

    def test_rows_to_json_writes_non_finite_as_null(self):
        rows = [{"a": math.inf, "b": [-math.inf, math.nan, 1.5],
                 "c": {"d": math.nan}, "e": "inf", "f": None, "g": True}]
        assert strict_json(scn.rows_to_json(rows)) == [
            {"a": None, "b": [None, None, 1.5], "c": {"d": None},
             "e": "inf", "f": None, "g": True}]


class TestSolveCommand:
    def test_fixtures_default(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["solve", "--out", str(out)]) == 0
        text = (out / "solutions.csv").read_text()
        lines = text.strip().splitlines()
        assert len(lines) == 6  # header + 5 fixtures
        assert lines[0].startswith("label,gamma_star,f_star")

    def test_invalid_scenario_names_row(self, tmp_path, capsys):
        bad = fixtures()[0]
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(
            scenarios_to_csv([bad]).replace("4.66,8.41", "8.41,8.41"),
            encoding="utf-8")
        code = run(["solve", "--scenarios", str(csv_path),
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert "S1" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--frobnicate"])
        assert exc.value.code == 64

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["explode"])
        assert exc.value.code == 64

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve", "--out", str(out), "--format", "json"]) == 0
        rows = json.loads((out / "solutions.json").read_text())
        assert len(rows) == 5
        assert rows[0]["label"] == "S1"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_utf8_bom_scenario_file_matches_plain(self, tmp_path, suffix):
        # spreadsheet programs write a UTF-8 byte-order mark before the header
        to_text = scenarios_to_json if suffix == ".json" else scenarios_to_csv
        text = to_text(list(fixtures()))
        plain, bom = tmp_path / ("plain" + suffix), tmp_path / ("bom" + suffix)
        plain.write_text(text, encoding="utf-8")
        bom.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        for path in (plain, bom):
            assert run(["solve", "--scenarios", str(path),
                        "--out", str(tmp_path / path.stem)]) == 0
        assert (tmp_path / "bom" / "solutions.csv").read_bytes() == \
            (tmp_path / "plain" / "solutions.csv").read_bytes()

    def test_generated_source(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve", "--scenarios", "gen:8", "--seed", "5",
                    "--out", str(out)]) == 0
        lines = (out / "solutions.csv").read_text().strip().splitlines()
        assert len(lines) == 9


    def test_concave_certified_only_under_the_best_case(self, tmp_path):
        # a narrow box near the choice-set edge, where the paper's
        # inequality holds with margin 6.42 at nominal theta; the column
        # reads it under the best-case reference only
        edge = scn.TravelScenario("E1", u0=7.989, x_low=0.0, x_high=10.0,
                                  b_sm=-0.5, gamma_min=4.0, gamma_max=4.02)
        path = tmp_path / "edge.csv"
        path.write_text(scenarios_to_csv([edge]), encoding="utf-8")
        for reference, want in (("best", "True"), ("expected", "False")):
            out = tmp_path / reference
            assert run(["solve", "--scenarios", str(path), "--reference",
                        reference, "--out", str(out)]) == 0
            with open(out / "solutions.csv", newline="") as f:
                (row,) = csv.DictReader(f)
            assert row["concave_certified"] == want


class TestSweepCommand:
    def test_emits_per_parameter_files_and_summary(self, tmp_path, s1_csv):
        out = tmp_path / "out"
        assert run(["sweep", "--scenarios", str(s1_csv), "--steps", "9",
                    "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        expected = {"sweep_S1_%s.csv" % n
                    for n in ("alpha", "beta", "lambda", "p")}
        assert expected <= files
        assert "summary.json" in files
        header = (out / "sweep_S1_alpha.csv").read_text().splitlines()[0]
        assert header == ",".join(SWEEP_COLUMNS)

    def test_summary_contains_differentials_and_domains(self, tmp_path, s1_csv):
        out = tmp_path / "out"
        assert run(["sweep", "--scenarios", str(s1_csv), "--param", "alpha",
                    "--steps", "5", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        d_alpha = summary["S1"]["differentials"]["alpha"]["dgamma_dtheta"]
        assert d_alpha == pytest.approx(-2.84, abs=0.05)
        assert "domains" in summary["S1"]

    def test_single_parameter_selection(self, tmp_path, s1_csv):
        out = tmp_path / "out"
        assert run(["sweep", "--scenarios", str(s1_csv), "--param", "beta",
                    "--steps", "5", "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        assert files == {"sweep_S1_beta.csv", "summary.json"}

    def test_fixture_sweep_emits_twenty_files(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sweep", "--steps", "5", "--out", str(out)]) == 0
        sweep_files = [p for p in out.iterdir() if p.name.startswith("sweep_")]
        assert len(sweep_files) == 20  # 5 scenarios x 4 parameters

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_clamped_and_error_columns(self, tmp_path, s1_csv, monkeypatch,
                                       fmt):
        # p = 0.75 * (1 +- 0.5) in 7 steps: the last two grid values exceed
        # the clamp 0.999 and are both written as 0.999; the re-solve at
        # p = 0.5 fails
        real_solve = sweeps.solve

        def failing_solve(scenario, params, policy):
            if params.p_worst == 0.5:
                raise BracketingError("no sign change")
            return real_solve(scenario, params, policy)

        monkeypatch.setattr(sweeps, "solve", failing_solve)
        out = tmp_path / "out"
        assert run(["sweep", "--scenarios", str(s1_csv), "--param", "p",
                    "--range", "0.5", "--steps", "7", "--format", fmt,
                    "--out", str(out)]) == 0
        if fmt == "csv":
            text = (out / "sweep_S1_p.csv").read_text()
            rows = list(csv.DictReader(io.StringIO(text)))
            assert {r["clamped"] for r in rows} == {"False", "True"}
            marks = [(r["clamped"] == "True", r["error"] or None) for r in rows]
        else:
            rows = strict_json((out / "sweep_S1_p.json").read_text())
            marks = [(r["clamped"], r["error"]) for r in rows]
            # the failed re-solve's numbers are null
            assert {k for k, v in rows[1].items() if v is None} == {
                "gamma_star_numeric", "f_star_numeric", "mu_low", "mu_high",
                "mismatch_loss"}
        failed = "BracketingError: no sign change"
        assert marks == ([(False, None), (False, failed)] + [(False, None)] * 3
                         + [(True, None)] * 2)
        assert [float(r["theta_value"]) for r in rows][-2:] == [0.999] * 2
        assert [r["active"] for r in rows][1] == "error"

    def test_solver_failure_names_its_scenario(self, tmp_path, capsys):
        # this rider's R0141 optimum is interior with a near-zero curvature
        path = tmp_path / "two.csv"
        path.write_text(
            scenarios_to_csv([fixtures()[0]])
            + "R0141,7.932878666714263,-0.07781619483130064,"
            "1.9366448225109285,5.979224915719227,-5.827234380551847,"
            "11.143214652486936\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["sweep", "--scenarios", str(path),
                    "--alpha", "0.4227952821276567",
                    "--beta", "1.125349571785227",
                    "--lambda", "2.701909954023222",
                    "--p", "0.7673580104542026", "--param", "alpha",
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("R0141: solver failure: interior optimum with "
                              "degenerate curvature L_gg=1.96")
        assert not out.exists() or not any(out.iterdir())


class TestMismatchCommand:
    def test_no_overrides_zero_loss(self, tmp_path):
        out = tmp_path / "out"
        assert run(["mismatch", "--out", str(out)]) == 0
        rows = (out / "mismatch.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[1]) == 0.0

    def test_lambda_override_nonnegative_loss(self, tmp_path):
        out = tmp_path / "out"
        assert run(["mismatch", "--assume", "lambda=2.70",
                    "--out", str(out)]) == 0
        rows = (out / "mismatch.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 5
        assert all(float(r.split(",")[1]) >= 0.0 for r in rows)

    def test_unknown_override_usage_error(self, tmp_path, capsys):
        assert run(["mismatch", "--assume", "rho=1.0",
                    "--out", str(tmp_path)]) == 64

    def test_malformed_override_usage_error(self, tmp_path):
        assert run(["mismatch", "--assume", "lambda=abc",
                    "--out", str(tmp_path)]) == 64


class TestGenScenariosCommand:
    def test_writes_requested_count(self, tmp_path):
        out = tmp_path / "out"
        assert run(["gen-scenarios", "--count", "7", "--seed", "3",
                    "--out", str(out)]) == 0
        lines = (out / "scenarios.csv").read_text().strip().splitlines()
        assert len(lines) == 8

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen-scenarios", "--count", "10", "--seed", "9", "--out", str(a)])
        run(["gen-scenarios", "--count", "10", "--seed", "9", "--out", str(b)])
        assert (a / "scenarios.csv").read_bytes() == \
            (b / "scenarios.csv").read_bytes()


class TestValidateCommand:
    def test_fixtures_ok(self, capsys):
        assert run(["validate"]) == 0
        assert capsys.readouterr().out.count(": ok") == 5

    def test_invalid_flagged(self, tmp_path, capsys):
        path = tmp_path / "mix.csv"
        path.write_text(
            scenarios_to_csv(list(fixtures())).replace("-0.72", "0.72"),
            encoding="utf-8")
        assert run(["validate", "--scenarios", str(path)]) == 2
        err = capsys.readouterr().err
        assert "S3" in err and "negative" in err

    def test_missing_file_usage_error(self, capsys):
        assert run(["validate", "--scenarios", "no/such/file.csv"]) == 64

    def test_validates_each_scenario_once(self, monkeypatch, capsys):
        calls = []
        real = scn.validate

        def counted(s):
            calls.append(s.label)
            return real(s)
        monkeypatch.setattr(scn, "validate", counted)
        assert run(["validate"]) == 0
        assert calls == ["S1", "S2", "S3", "S4", "S5"]


class TestReferenceFlag:
    @pytest.mark.parametrize("text, policy", [
        ("static", ReferencePolicy.static_alternative()),
        ("expected", ReferencePolicy.expected_utility()),
        ("best", ReferencePolicy.best_case()),
        ("worst", ReferencePolicy.worst_case()),
        ("fixed:2.5", ReferencePolicy.fixed(2.5)),
    ])
    def test_parses_to_its_policy(self, text, policy):
        args = build_parser().parse_args(["solve", "--reference", text])
        assert args.reference == policy

    @pytest.mark.parametrize("text, message", [
        ("fixed", "reference must be static|expected|best|worst|fixed:VALUE, "
                  "got 'fixed'"),
        ("fixed:abc", "fixed reference needs a numeric level that is finite, "
                      "got 'fixed:abc'"),
        ("fixed:nan", "fixed reference needs a numeric level that is finite, "
                      "got 'fixed:nan'"),
        ("bogus", "reference must be static|expected|best|worst|fixed:VALUE, "
                  "got 'bogus'"),
    ])
    def test_malformed_is_usage_error(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--reference", text, "--out", str(out)])
        assert exc.value.code == 64
        assert capsys.readouterr().err == (
            "usage error: cpt-sense solve: argument --reference: %s\n"
            % message)
        assert not out.exists()


HEADER_ONLY = "{header_only}"
NON_NUMERIC = "{non_numeric}"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "--scenarios", "gen:abc"],
        ["solve", "--scenarios", "gen:0"],
        ["solve", "--alpha", "-1"],
        ["domain", "--beta", "0"],
        ["mismatch", "--lambda", "nan"],
        ["sweep", "--p", "1.5"],
        ["sweep", "--steps", "2"],
        ["sweep", "--range", "-1"],
        ["sweep", "--param", "beta", "--range", "1.0"],
        ["sweep", "--range", "2.5"],
        ["gen-scenarios", "--count", "0"],
        ["solve", "--scenarios", HEADER_ONLY],
        ["sweep", "--scenarios", HEADER_ONLY],
        ["domain", "--scenarios", HEADER_ONLY],
        ["mismatch", "--scenarios", HEADER_ONLY],
        ["validate", "--scenarios", HEADER_ONLY],
        ["solve", "--scenarios", NON_NUMERIC],
        ["solve", "--scenarios", "{short_row}"],
        ["sweep", "--scenarios", "{extra_cell}"],
        ["solve", "--scenarios", "{json_missing}"],
        ["domain", "--scenarios", "{json_unknown}"],
        ["solve", "--scenarios", "{json_not_object}"],
        ["solve", "--scenarios", "{json_huge_int}"],
        ["validate", "--scenarios", "{json_huge_int}"],
        ["solve", "--scenarios", "{directory}"],
        ["solve", "--steps", "5"],
        ["mismatch", "--param", "beta"],
        ["domain", "--range", "0.3"],
        ["validate", "--alpha", "0.9"],
        ["solve", "--reference", "fixed:nan"],
        ["solve", "--reference", "fixed:inf"],
    ], ids=" ".join)
    def test_malformed_input_exits_64(self, tmp_path, argv):
        s1_csv = scenarios_to_csv([fixtures()[0]])
        s1_json = json.loads(scenarios_to_json([fixtures()[0]]))[0]
        files = {
            "header_only.csv": scenarios_to_csv([]),
            "non_numeric.csv": s1_csv.replace("4.66", "abc"),
            "short_row.csv": s1_csv.replace(",15.45", ""),
            "extra_cell.csv": s1_csv.replace("15.45", "15.45,1"),
            "json_missing.json": json.dumps([{"label": "x"}]),
            "json_unknown.json": json.dumps([dict(s1_json, speed=1.0)]),
            "json_not_object.json": json.dumps([list(s1_json.values())]),
            "json_huge_int.json": json.dumps([dict(s1_json, u0=10 ** 400)]),
        }
        paths = {"directory": tmp_path / "a_directory"}
        paths["directory"].mkdir()
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            paths[path.stem] = path
        args = [a.format(**paths) for a in argv]
        if argv[0] != "validate":  # the one command without --out
            args += ["--out", str(tmp_path / "out")]
        proc = run_python("-m", "cpt_sense.cli", *args, cwd=tmp_path)
        assert proc.returncode == 64, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        if HEADER_ONLY in argv:  # rejected for the empty set, not a flag
            assert "no scenarios in" in proc.stderr
        if "--reference" in argv:  # nan and inf parse, but are not finite
            assert "needs a numeric level that is finite" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_unreadable_scenario_file_exits_64(self, tmp_path, monkeypatch,
                                               capsys):
        # a chmod-000 file stays readable to root, so the denial is simulated
        path = tmp_path / "locked.csv"
        path.write_text(scenarios_to_csv([fixtures()[0]]), encoding="utf-8")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))
        monkeypatch.setattr(Path, "read_text", denied)
        out = tmp_path / "out"
        assert run(["solve", "--scenarios", str(path), "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert "Permission denied" in err and len(err.splitlines()) == 1
        assert not out.exists()


ANALYSIS_COMMANDS = ("solve", "domain", "mismatch", "sweep")


def files_under(directory: Path) -> set[str]:
    return {str(p.relative_to(directory)) for p in directory.rglob("*")}


def analysis_argv(command: str, out: Path) -> list[str]:
    quick = ["--param", "alpha", "--steps", "3"] if command == "sweep" else []
    return [command, *quick, "--out", str(out)]


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS + ("gen-scenarios",))
    def test_existing_file_as_out_is_usage_error(self, tmp_path, capsys,
                                                 command):
        # an existing regular file, since a read-only directory stays
        # writable to root
        out = tmp_path / "taken"
        out.write_text("keep", encoding="utf-8")
        argv = (["gen-scenarios", "--count", "2", "--out", str(out)]
                if command == "gen-scenarios" else analysis_argv(command, out))
        assert run(argv) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write %s" % out)
        assert len(err.splitlines()) == 1
        assert out.read_text(encoding="utf-8") == "keep"
        assert files_under(tmp_path) == {"taken"}

    @pytest.mark.parametrize("command, target", [
        ("solve", "solutions.csv"), ("domain", "domains.csv"),
        ("mismatch", "mismatch.csv"), ("gen-scenarios", "scenarios.csv"),
        ("sweep", "summary.json"), ("sweep", "sweep_S3_alpha.csv")])
    def test_directory_as_target_writes_nothing(self, tmp_path, capsys,
                                                command, target):
        # the sweep cases refuse its last file (the summary) and a middle
        # one (S3 of S1..S5); the files before the refused one stay unwritten
        out = tmp_path / "out"
        (out / target).mkdir(parents=True)
        argv = (["gen-scenarios", "--count", "2", "--out", str(out)]
                if command == "gen-scenarios" else analysis_argv(command, out))
        assert run(argv) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write %s" % (out / target))
        assert len(err.splitlines()) == 1
        assert files_under(out) == {target}


class TestScenarioLabels:
    """A label names output files and rows, so every command that reads
    ``--scenarios`` refuses a set whose labels clash or could leave
    ``--out``, before it writes anything."""

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS + ("validate",))
    def test_duplicate_label_is_usage_error(self, tmp_path, capsys, command):
        s1, s2 = fixtures()[:2]
        path = tmp_path / "twins.csv"
        path.write_text(scenarios_to_csv([s1, dataclasses.replace(s2, label="S1")]),
                        encoding="utf-8")
        out = tmp_path / "out"
        argv = ([command] if command == "validate"
                else analysis_argv(command, out)) + ["--scenarios", str(path)]
        assert run(argv) == 64
        captured = capsys.readouterr()
        assert captured.err == "usage error: duplicate scenario label 'S1'\n"
        assert captured.out == ""
        assert files_under(tmp_path) == {"twins.csv"}

    @pytest.mark.parametrize("label", ["", "a/../../../escaped", "a\\b", "a\0b"],
                             ids=["empty", "slash", "backslash", "nul"])
    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS + ("validate",))
    def test_path_like_label_is_usage_error(self, tmp_path, capsys, command,
                                            label):
        path = tmp_path / "in" / "odd.json"
        path.parent.mkdir()
        path.write_text(scenarios_to_json(
            [fixtures()[0], dataclasses.replace(fixtures()[1], label=label)]),
            encoding="utf-8")
        argv = ([command] if command == "validate" else
                analysis_argv(command, tmp_path / "t" / "deep" / "o2"))
        assert run(argv + ["--scenarios", str(path)]) == 64
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: scenario label %r " % label)
        assert files_under(tmp_path) == {"in", "in/odd.json"}


class TestAnalysisFailures:
    """Each analysis command reports a bad scenario set the same way and
    writes nothing for it."""

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_invalid_scenario_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "mix.csv"
        path.write_text(
            scenarios_to_csv(list(fixtures())).replace("-0.72", "0.72"),
            encoding="utf-8")
        out = tmp_path / "out"
        assert run(analysis_argv(command, out) + ["--scenarios", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("S3: INVALID: ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_solver_failure_on_the_second_scenario_exits_3(
            self, tmp_path, capsys, monkeypatch, command):
        name = "mismatch_loss" if command == "mismatch" else "solve"
        real = getattr(cli, name)

        def failing(scenario, *args):
            if scenario.label == "S2":
                raise BracketingError("no sign change")
            return real(scenario, *args)
        monkeypatch.setattr(cli, name, failing)
        out = tmp_path / "out"
        assert run(analysis_argv(command, out)) == 3
        assert capsys.readouterr().err == \
            "S2: solver failure: no sign change\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,code", [
        ("solve", 0), ("mismatch", 0), ("domain", 3), ("sweep", 3)])
    def test_optimum_on_a_cusp(self, tmp_path, capsys, command, code):
        # the optimum solves, but its KKT residual bars the differentials
        # that domain and sweep read
        path = tmp_path / "cusp.csv"
        path.write_text(scenarios_to_csv([R1433]), encoding="utf-8")
        rider = ["--alpha", repr(R1433_THETA.alpha),
                 "--beta", repr(R1433_THETA.beta),
                 "--lambda", repr(R1433_THETA.lam),
                 "--p", repr(R1433_THETA.p_worst)]
        assert run(analysis_argv(command, tmp_path / "out") + rider + [
            "--scenarios", str(path), "--reference", "expected"]) == code
        err = capsys.readouterr().err
        if code:
            (line,) = err.splitlines()
            assert line.startswith("R1433: solver failure: record at gamma*=")
            assert "KKT residual" in line
        else:
            assert err == ""


def readme_flag_table() -> dict[str, set[str]]:
    """Command -> long options, from the flag table of the README's CLI
    section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 2:
            table[cells[0].strip("`")] = set(re.findall(r"--[a-z-]+", cells[1]))
    return table


def test_each_command_takes_the_readme_flags():
    """The README's per-command flag table is every long option the
    parser takes, command by command."""
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {o for a in p._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"}
        for name, p in commands.choices.items()
    }
    assert parsed == readme_flag_table()


def test_import_starts_no_process_machinery():
    """The CLI runs in one process, so importing it loads no pool code."""
    proc = run_python("-c", "import sys, cpt_sense.cli; print(sorted("
                      "m for m in sys.modules if m.startswith(("
                      "'multiprocessing', 'concurrent'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSharedParser:
    """``main`` parses with one parser per process; no call leaves state
    on it that a later call reads."""

    def test_main_builds_one_parser(self, tmp_path, monkeypatch):
        assert run(["validate"]) == 0

        def no_second_parser():
            raise AssertionError("main built a second parser")
        monkeypatch.setattr(cli, "build_parser", no_second_parser)
        assert run(["solve", "--out", str(tmp_path / "out")]) == 0

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_an_override_ends_with_its_call(self, tmp_path):
        assumed, plain = tmp_path / "assumed", tmp_path / "plain"
        assert run(["mismatch", "--assume", "lambda=2.7",
                    "--out", str(assumed)]) == 0
        assert run(["mismatch", "--out", str(plain)]) == 0
        fresh = tmp_path / "fresh"
        proc = run_python("-m", "cpt_sense.cli", "mismatch",
                          "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert read_all_outputs(plain) == read_all_outputs(fresh)
        assert read_all_outputs(assumed) != read_all_outputs(plain)

    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path):
        # one error while parsing, after --alpha was read, one after it
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--alpha", "0.5", "--frobnicate"])
        assert exc.value.code == 64
        assert run(["mismatch", "--assume", "rho=1.0",
                    "--out", str(tmp_path / "none")]) == 64
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run(["solve", "--out", str(out)]) == 0
        proc = run_python("-m", "cpt_sense.cli", "solve", "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert read_all_outputs(out) == read_all_outputs(fresh)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--scenarios", "gen:2", "--seed", "11",
                "--param", "alpha", "--steps", "9"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert read_all_outputs(out1) == read_all_outputs(out2)

    def test_domain_command_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert run(["domain", "--out", str(out1)]) == 0
        assert run(["domain", "--out", str(out2)]) == 0
        assert read_all_outputs(out1) == read_all_outputs(out2)

    def test_domain_command_content(self, tmp_path):
        out = tmp_path / "out"
        assert run(["domain", "--out", str(out)]) == 0
        rows = (out / "domains.csv").read_text().strip().splitlines()[1:]
        table = {tuple(r.split(",")[:2]): r.split(",") for r in rows}
        s1_beta = table[("S1", "beta")]
        assert float(s1_beta[4]) == pytest.approx(8.69, abs=0.05)
        assert s1_beta[5] == "lower_bound_hit"

    def test_parser_defaults_are_nominal(self):
        args = build_parser().parse_args(["solve"])
        assert (args.alpha, args.beta, args.lam, args.p) == \
            (0.82, 0.8, 2.25, 0.75)
        args = build_parser().parse_args(["sweep"])
        assert args.range == 0.20
        assert args.steps == 41

    def test_csv_uses_12_significant_digits(self, tmp_path):
        out = tmp_path / "out"
        run(["solve", "--out", str(out)])
        gamma_cell = (out / "solutions.csv").read_text() \
            .splitlines()[1].split(",")[1]
        assert len(gamma_cell.replace(".", "").replace("-", "").lstrip("0")) <= 12
