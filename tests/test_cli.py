"""End-to-end tests of the command-line surface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpt_sense import sweeps
from cpt_sense.cli import main
from cpt_sense.errors import BracketingError
from cpt_sense.scenario import fixtures, scenarios_to_csv
from cpt_sense.sweeps import SWEEP_COLUMNS


SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


def run_python(*args, cwd=None):
    """A fresh interpreter importing cpt_sense from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)


def read_all_outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture()
def s1_csv(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(scenarios_to_csv([fixtures()[0]]), encoding="utf-8")
    return path


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

    def test_generated_source(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve", "--scenarios", "gen:8", "--seed", "5",
                    "--out", str(out)]) == 0
        lines = (out / "solutions.csv").read_text().strip().splitlines()
        assert len(lines) == 9


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
            rows = json.loads((out / "sweep_S1_p.json").read_text())
            marks = [(r["clamped"], r["error"]) for r in rows]
        failed = "BracketingError: no sign change"
        assert marks == ([(False, None), (False, failed)] + [(False, None)] * 3
                         + [(True, None)] * 2)
        assert [float(r["theta_value"]) for r in rows][-2:] == [0.999] * 2
        assert [r["active"] for r in rows][1] == "error"


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
        ["gen-scenarios", "--count", "0"],
        ["solve", "--scenarios", HEADER_ONLY],
        ["sweep", "--scenarios", HEADER_ONLY],
        ["domain", "--scenarios", HEADER_ONLY],
        ["mismatch", "--scenarios", HEADER_ONLY],
        ["validate", "--scenarios", HEADER_ONLY],
        ["solve", "--scenarios", NON_NUMERIC],
    ], ids=" ".join)
    def test_malformed_input_exits_64(self, tmp_path, argv):
        header_only = tmp_path / "empty.csv"
        header_only.write_text(scenarios_to_csv([]), encoding="utf-8")
        non_numeric = tmp_path / "bad.csv"
        non_numeric.write_text(scenarios_to_csv([fixtures()[0]])
                               .replace("4.66", "abc"), encoding="utf-8")
        argv = [a.format(header_only=header_only, non_numeric=non_numeric)
                for a in argv]
        proc = run_python("-m", "cpt_sense.cli", *argv, "--out",
                          str(tmp_path / "out"), cwd=tmp_path)
        assert proc.returncode == 64, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()


def test_import_starts_no_process_machinery():
    """The CLI runs in one process, so importing it loads no pool code."""
    proc = run_python("-c", "import sys, cpt_sense.cli; print(sorted("
                      "m for m in sys.modules if m.startswith(("
                      "'multiprocessing', 'concurrent'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        from cpt_sense.cli import build_parser
        args = build_parser().parse_args(["solve"])
        assert (args.alpha, args.beta, args.lam, args.p) == \
            (0.82, 0.8, 2.25, 0.75)
        assert args.range == 0.20
        assert args.steps == 41

    def test_csv_uses_12_significant_digits(self, tmp_path):
        out = tmp_path / "out"
        run(["solve", "--out", str(out)])
        gamma_cell = (out / "solutions.csv").read_text() \
            .splitlines()[1].split(",")[1]
        assert len(gamma_cell.replace(".", "").replace("-", "").lstrip("0")) <= 12
