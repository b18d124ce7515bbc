"""The three workloads: seeded inputs, one request each, and the call counts
their definitions fix.

A request is the unit a caller waits for: one priced ride on
``online-best``, the full CLI analysis of one generated scenario set on the
``batch-*`` workloads.  Every workload is a closed loop with one caller.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import traceback
from pathlib import Path

import cpt_sense
from cpt_sense import cli, model, scenario, sweeps
from cpt_sense.errors import CptSenseError

#: Rider parameter ranges for online requests: (low, high) per CptParams field.
THETA_RANGES = (("alpha", 0.4, 1.0), ("beta", 0.4, 1.2), ("lam", 1.0, 3.5),
                ("p_worst", 0.2, 0.9))
ONLINE_POOL = 500
#: The misestimated parameter the mismatch command prices with.
MISMATCH_ASSUME = ("lambda", 2.70)
#: CLI commands of one batch request, in order; each also gets the common
#: scenario, seed, reference and output arguments.
BATCH_COMMANDS = (("solve",), ("domain",),
                  ("mismatch", "--assume", "%s=%r" % MISMATCH_ASSUME),
                  ("sweep", "--param", "all"))
#: Scenarios per analysed set: the size of the fixture set (S1-S5).  A
#: 40-scenario set takes 2.5-5 s best-case and ~14 s under the expected
#: reference, too long a unit for the per-chunk speed scaling (README).
SET_SIZE = 5
#: Set size of the warm-up request, which only has to load and exercise
#: every code path once.
WARMUP_SET_SIZE = 1
#: Inputs per kernel timing loop.
KERNEL_INPUTS = 64
SWEEP_STEPS = sweeps.SweepSpec(theta_name="alpha").steps


class OnlineBest:
    """One caller pricing one ride per request, best-case reference.

    Scenarios come from a seeded pool; the rider parameters are drawn per
    request from wide ranges, so no two requests share an input.
    """

    name = "online-best"
    scenarios_per_request = 1
    uses_cli = False
    policy = model.BEST_CASE

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = scenario.generate_random(count=ONLINE_POOL, seed=seed)

    def inputs(self, stream: str):
        """Endless deterministic (scenario, params) stream."""
        rng = random.Random("%s:%s:%d" % (self.name, stream, self.seed))
        while True:
            s = self.pool[rng.randrange(len(self.pool))]
            theta = {field: rng.uniform(lo, hi) for field, lo, hi in THETA_RANGES}
            yield s, model.CptParams(**theta)

    def run(self, request, out_dir: Path):
        s, theta = request
        try:
            return cpt_sense.solve(s, theta)
        except CptSenseError as exc:
            return exc

    def kernel_inputs(self) -> list:
        """(scenario, params) pairs the kernel timings run on."""
        return list(itertools.islice(self.inputs("timed"), KERNEL_INPUTS))

    def expected_counts(self, n: int, t) -> list[tuple[str, int, int]]:
        """(what, traced, fixed by definition) for n traced requests."""
        calls = t["calls"]
        return [
            ("solve calls = requests", calls["pricing.solve"], n),
            ("require_valid calls = solve calls", calls["scenario.require_valid"],
             calls["pricing.solve"]),
            ("cli.main calls", calls["cli.main"], 0),
        ] + _solve_counts(t, t["solve_evals"], self.policy)


class Batch:
    """Full CLI analysis of one seeded ``gen:`` set per request, at nominal
    parameters: solve, domain, mismatch and an all-parameter sweep through
    ``cli.main``, then piecewise continuation for every (scenario,
    parameter)."""

    uses_cli = True

    def __init__(self, name: str, reference: str, policy, set_size: int,
                 seed: int):
        self.name = name
        self.reference = reference
        self.policy = policy
        self.scenarios_per_request = set_size
        self.seed = seed

    def inputs(self, stream: str):
        """Endless deterministic stream of (set seed, set size) requests."""
        warmup = stream == "warmup"
        base = self.seed * 100_000 + (50_000 if warmup else 0)
        size = WARMUP_SET_SIZE if warmup else self.scenarios_per_request
        i = 0
        while True:
            i += 1
            yield base + i, size

    def scenarios(self, request):
        set_seed, size = request
        return scenario.generate_random(count=size, seed=set_seed)

    def argv(self, command, request, out_dir: Path) -> list[str]:
        set_seed, size = request
        return list(command) + [
            "--scenarios", "gen:%d" % size, "--seed", str(set_seed),
            "--reference", self.reference, "--out", str(out_dir)]

    def run(self, request, out_dir: Path):
        """(CLI exit codes, continuation results or errors)."""
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command in BATCH_COMMANDS:
                try:
                    codes.append(cli.main(self.argv(command, request, out_dir)))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception:  # a real CLI process would exit 1 on it
                    traceback.print_exc()
                    codes.append(1)
        continuations = []
        for s in self.scenarios(request):
            for name in model.PARAM_NAMES:
                spec = sweeps.SweepSpec(theta_name=name)
                try:
                    continuations.append(sweeps.piecewise_continuation(
                        s, model.NOMINAL_PARAMS, self.policy, spec))
                except CptSenseError as exc:
                    continuations.append(exc)
        return codes, continuations

    def kernel_inputs(self) -> list:
        """(scenario, params) pairs the kernel timings run on."""
        requests = self.inputs("timed")
        pairs = []
        while len(pairs) < KERNEL_INPUTS:
            pairs += [(s, model.NOMINAL_PARAMS) for s in self.scenarios(next(requests))]
        return pairs[:KERNEL_INPUTS]

    def expected_counts(self, n: int, t) -> list[tuple[str, int, int]]:
        """(what, traced, fixed by definition) for n traced requests.

        A CLI command that fails stops early, so the per-command counts
        are fixed only when every command exited 0.
        """
        calls, parent = t["calls"], t["by_parent"]
        m = self.scenarios_per_request
        k = len(model.PARAM_NAMES)
        sweeps_run = calls["sweeps.numeric_sweep"]
        counts = [
            ("cli.main calls", calls["cli.main"], len(BATCH_COMMANDS) * n),
            ("piecewise_continuation calls", calls["sweeps.piecewise_continuation"],
             k * m * n),
            ("generate_random calls", calls["scenario.generate_random"],
             (len(BATCH_COMMANDS) + 1) * n),
            ("solves per sweep row", parent[("pricing.solve", "sweeps.numeric_sweep")],
             SWEEP_STEPS * sweeps_run),
            ("sweep rows", t["sweep_rows"], SWEEP_STEPS * sweeps_run),
            ("taylor_predict calls", calls["sensitivity.taylor_predict"],
             2 * SWEEP_STEPS * sweeps_run),
            ("require_valid calls = solve calls", calls["scenario.require_valid"],
             calls["pricing.solve"]),
        ]
        if t["cli_failures"] == 0 and not t["raised"]["cli.main"]:
            counts += [
                ("numeric_sweep calls", sweeps_run, k * m * n),
                ("mismatch_loss calls", calls["sweeps.mismatch_loss"], m * n),
                ("solves per mismatch",
                 parent[("pricing.solve", "sweeps.mismatch_loss")], 2 * m * n),
                ("solves directly in CLI commands",
                 parent[("pricing.solve", "cli.main")], (2 + k) * m * n),
                ("differentials directly in CLI commands",
                 parent[("sensitivity.differentials", "cli.main")], (1 + k) * m * n),
            ]
        valuations = (t["solve_evals"] + calls["sweeps.mismatch_loss"]
                      + t["sweep_rows"] - t["sweep_error_rows"])
        return counts + _solve_counts(t, valuations, self.policy)


def _solve_counts(t, valuations: int, policy) -> list[tuple[str, int, int]]:
    """Counts fixed by what each solve does, when every solve returned (one
    that raises stops part-way, having spent evaluations no record reports).

    Each solve runs its oracle and its KKT check once.  Under the best-case
    reference every revenue valuation is one ``bestcase_revenue`` call;
    under any other, the revenue goes through ``acceptance_probability`` to
    its kernel and the best-case kernels stay unused.
    """
    calls = t["calls"]
    if t["raised"]["pricing.solve"]:
        return []
    counts = [
        ("oracle calls = solve calls", calls["numerics.grid_golden_maximize"],
         calls["pricing.solve"]),
        ("kkt_residuals calls = solve calls", calls["pricing.kkt_residuals"],
         calls["pricing.solve"]),
        ("acceptance kernel calls = acceptance_probability calls",
         calls["core.acceptance_from_utilities"],
         calls["model.acceptance_probability"]),
    ]
    if policy is model.BEST_CASE:
        return counts + [("bestcase_revenue calls = revenue valuations",
                          calls["core.bestcase_revenue"], valuations)]
    return counts + [("bestcase kernels unused off the best-case reference",
                      calls["core.bestcase_revenue"] + calls["core.bestcase_partials"]
                      + calls["core.bestcase_revenue_gradient"], 0)]


def make(name: str, seed: int):
    if name == "online-best":
        return OnlineBest(seed)
    if name == "batch-best":
        return Batch(name, "best", model.BEST_CASE, SET_SIZE, seed)
    if name == "batch-expected":
        return Batch(name, "expected", model.ReferencePolicy.expected_utility(),
                     SET_SIZE, seed)
    raise ValueError("unknown workload %r" % name)
