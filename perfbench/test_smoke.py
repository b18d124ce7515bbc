"""Smoke test of the benchmark itself, at a tiny size per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the traced counts repeat exactly across two runs, that two runs of a
batch workload write byte-identical CLI files, that a failed CLI command or
a missing output row makes a run incorrect, that misses and errors on
small-revenue problems (ROADMAP item 3) are known misses, not failures, and
that the benchmark refuses
to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"online-best": 20, "batch-best": 1, "batch-expected": 1}


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--requests", str(TINY[workload])],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_declared(result, key):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload(workload):
    info, result = bench(workload, 0)
    assert_declared(result, "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())

    first_info, first = bench(workload, 1)
    second_info, second = bench(workload, 1)
    assert_declared(first, "per_layer")
    assert first_info["detail"]["count_checks"] > 0
    assert first_info["detail"]["counts"] == second_info["detail"]["counts"]
    if workload != "online-best":
        digests = {info["detail"]["cli_digest"], first_info["detail"]["cli_digest"],
                   second_info["detail"]["cli_digest"]}
        assert len(digests) == 1


def test_broken_command_is_incorrect(tmp_path):
    sys.path.insert(0, str(HERE))
    import run
    run.bootstrap()
    import checks
    import workloads

    workload = workloads.make("batch-best", 3)
    request = next(workload.inputs("warmup"))
    codes, continuations = workload.run(request, tmp_path)
    labels = [s.label for s in workload.scenarios(request)]

    def tally(codes):
        t = checks.Tally()
        checks.check_batch(t, workload, request, tmp_path, codes, continuations)
        return t

    assert codes == [0] * len(workloads.BATCH_COMMANDS)
    assert tally(codes).correct

    sweep_file = tmp_path / ("sweep_%s_alpha.csv" % labels[0])
    sweep_file.write_text("".join(sweep_file.read_text().splitlines(True)[:-1]))
    dropped_row = tally(codes)
    assert dropped_row.failures["rows:sweep"] == 1
    assert not dropped_row.correct

    (tmp_path / "solutions.csv").unlink()
    failed_solve = tally([1] + codes[1:])
    assert failed_solve.failures["cli-exit:solve"] == 1 + len(labels)
    assert not failed_solve.correct


def test_small_revenue_misses_are_known_not_failed():
    sys.path.insert(0, str(HERE))
    import run
    run.bootstrap()
    import itertools
    import checks
    import workloads
    from cpt_sense.errors import SingularHessianError

    workload = workloads.make("online-best", 3)
    requests = list(itertools.islice(workload.inputs("warmup"), 23))
    t = checks.Tally()
    for (s, theta), small in ((requests[0], False), (requests[22], True)):
        g_ref, f_ref = checks.dense_reference(s, theta, workload.policy)
        assert (f_ref < checks.SMALL_REVENUE) == small
        far = s.gamma_min if g_ref - s.gamma_min > s.gamma_max - g_ref else s.gamma_max
        t.op(checks.optimum_failure(s, theta, workload.policy, far))
        checks.check_online(t, workload.policy, (s, theta), SingularHessianError("x"))
    assert t.attempted == 4
    assert t.failures == {"accuracy": 1, "error:SingularHessianError": 1}
    assert t.known == {"accuracy": 1, "error:SingularHessianError": 1}
    assert t.fail_ratio == 1.0 and not t.correct


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-best", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
