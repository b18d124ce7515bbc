#!/usr/bin/env python3
"""cpt-sense benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload online-best --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with nothing instrumented and reports the
end-to-end metrics listed in BENCHMARK.json; ``--trace 1`` runs each chunk
of requests untraced and then again traced, and reports the per-layer
metrics and the tracing overhead.  Every answer is checked, untimed,
between chunks (see harness.py and checks.py).  The last stdout line is the result; the line before it
carries run metadata and detail.  ``--requests N`` runs a fixed number of
requests instead of a time budget (used by the smoke test).

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("online-best", "batch-best", "batch-expected")
SETUP_REPEATS = 11


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--requests", type=int, default=None,
                   help="run this many requests instead of a time budget")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.requests is not None and args.requests < 1:
        p.error("--requests must be at least 1")
    return args


def bootstrap() -> None:
    """Import cpt_sense from this checkout's sources, nowhere else."""
    if not (SRC / "cpt_sense" / "__init__.py").is_file():
        sys.exit("perfbench: no cpt_sense sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    os.environ["CPT_SENSE_WORKERS"] = "1"
    import cpt_sense
    if Path(cpt_sense.__file__).resolve().parent != SRC / "cpt_sense":
        sys.exit("perfbench: cpt_sense imported from %s" % cpt_sense.__file__)


def measure_setup(args) -> list[float]:
    """Fresh interpreter to ready-for-the-first-timed-call, several times,
    each scaled to the reference speed by probes right before and after."""
    from harness import Speed
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = Speed.probe_ns()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed (exit %r)" % child.returncode)
        times.append(elapsed * Speed.factor(before, Speed.probe_ns()))
    return times


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, args) -> dict:
    import cpt_sense
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests_cap": args.requests,
        "setup_repeats": SETUP_REPEATS if args.trace == 0 else 0,
        "scenarios_per_request": workload.scenarios_per_request,
        "kernel_backend": cpt_sense.kernel_backend(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "workers": int(os.environ["CPT_SENSE_WORKERS"]),
        "git_commit": git_commit(),
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import harness
    import workloads

    workload = workloads.make(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    declared = declared_metrics(args.trace)
    run_dir = OUT / ("run-%d" % os.getpid())
    try:
        if args.trace == 0:
            setup_times = measure_setup(args)
        harness.warm_up(workload, run_dir / "warmup")
        if args.trace == 0:
            run = harness.run_requests(workload, run_dir / "timed",
                                       seconds=args.seconds, count=args.requests)
            values, detail = harness.end_to_end(run, setup_times)
        else:
            spans_path = OUT / ("spans-%s.csv" % workload.name)
            values, detail, run = harness.traced(workload, run_dir / "traced",
                                                 args.seconds, args.requests,
                                                 spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError("no value for declared metrics %s" % missing)
    tally = run.tally
    if workload.uses_cli:
        detail["cli_digest"] = run.digest.hexdigest()
    detail.update(fail_ratio=tally.fail_ratio,
                  failures=dict(sorted(tally.failures.items())),
                  known_misses=dict(sorted(tally.known.items())))
    print(json.dumps({"meta": metadata(workload, args), "detail": detail}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
