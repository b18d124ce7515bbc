#!/usr/bin/env python3
"""Run every workload once, untraced, and print one row per workload.

    python3 perfbench/report.py [--seed N]

Each run measures for the ``run_seconds`` BENCHMARK.json sets.

Columns are the end-to-end figures by name and unit: set-up time, throughput
in user units (requests on online-best, scenarios on batch-*), the solve
latency median and 99th percentile with their sample count (online-best,
where a request is one solve), the fail ratio and peak memory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
COLUMNS = (("setup_s", "s"), ("throughput", "1/s"), ("solve_p50_us", "us"),
           ("solve_p99_us", "us"), ("samples", "count"), ("fail_ratio", "1"),
           ("peak_rss_mb", "MB"))


def run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    info, result = json.loads(out[-2]), json.loads(out[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    detail = info["detail"]
    online = workload == "online-best"
    return {
        "setup_s": metrics["setup_s"],
        "throughput": "%s=%.4g" % (("requests_per_s", metrics["requests_per_s"])
                                   if online else
                                   ("scenarios_per_s", metrics["scenarios_per_s"])),
        "solve_p50_us": detail.get("solve_p50_us", "-"),
        "solve_p99_us": detail.get("solve_p99_us", "-"),
        "samples": detail.get("solve_samples", "-"),
        "fail_ratio": detail["fail_ratio"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "meta": info["meta"],
    }


def cell(v) -> str:
    return "%.4g" % v if isinstance(v, float) else str(v)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    header = ["workload"] + ["%s [%s]" % c for c in COLUMNS]
    rows = []
    for workload in WORKLOADS:
        r = run(workload, args.seed)
        rows.append([workload] + [cell(r[name]) for name, _ in COLUMNS])
    widths = [max(len(x) for x in col) for col in zip(header, *rows)]
    for line in [header] + rows:
        print("  ".join(x.ljust(w) for x, w in zip(line, widths)).rstrip())
    meta = r["meta"]
    print("backend=%s python=%s nproc=%s workers=%s seed=%d seconds=%g commit=%s"
          % (meta["kernel_backend"], meta["python"], meta["nproc"], meta["workers"],
             args.seed, SECONDS, meta["git_commit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
