"""Measurement: the chunked closed loop, its metrics, and the traced run.

Requests run back to back in chunks of at least ``CHUNK_S`` of work; after
each chunk its answers are checked (untimed) before the next chunk starts.
Only the requests themselves are timed.  A short speed probe runs right
before and right after each chunk and every ``Speed.SAMPLE_EVERY_S`` inside
it (see ``Sampler``), and the end-to-end times are the chunk's times scaled
by the probes' mean to the probe's reference speed (see ``Speed``).
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import signal
import statistics
import time
from array import array
from pathlib import Path

import checks
from cpt_sense import _core, model, scenario
from tracing import TARGETS, SelfCheckError, Tracer, layer_name

#: Timed work is split into chunks of at least this many seconds.
CHUNK_S = 0.1
ONLINE_WARMUP = 50


class Speed:
    """How fast the machine runs Python right now, against a reference.

    A shared machine's speed changes by up to 2x for seconds or minutes at
    a time, as neighbours come and go, and a run may fall wholly into a
    slow stretch.  The probe is a fixed pure-Python loop (float arithmetic,
    dict stores, nothing from cpt_sense, so no change to the package moves
    it).  ``factor`` is the reference time of the probe over its time now:
    multiplied by it, a wall time becomes the time the same work takes when
    the probe runs in ``REFERENCE_NS``.
    """

    ITERATIONS = 20_000
    #: About the probe's time on an uncontended 2-vCPU VM (Python 3.11).
    REFERENCE_NS = 2_500_000
    #: The short probe taken around and inside timed work, and how often.
    SAMPLE_ITERATIONS = 2_000
    SAMPLE_EVERY_S = 0.02

    @classmethod
    def probe_ns(cls, iterations: int = ITERATIONS) -> int:
        """The probe's time, for a short probe as if it were a full one."""
        clock = time.perf_counter_ns
        t0 = clock()
        acc, d = 0.0, {}
        for i in range(iterations):
            acc += (i * 0.5) ** 0.5
            d[i & 255] = acc
        return (clock() - t0) * cls.ITERATIONS // iterations

    @classmethod
    def factor(cls, *probes_ns: int) -> float:
        return len(probes_ns) * cls.REFERENCE_NS / sum(probes_ns)


class Sampler:
    """Short speed probes every ``Speed.SAMPLE_EVERY_S`` while it is entered.

    A long request drifts with the machine's speed inside it, which probes
    around it cannot see.  A ``SIGALRM`` handler runs the short probe; it
    runs in the main thread between two bytecodes, so each probe lies wholly
    inside or wholly outside a timed request, and ``inside`` takes the probe
    time back out of the request.  The handler stays installed after exit,
    so a signal already on its way then runs one harmless probe.
    """

    def __init__(self):
        self.starts = array("q")
        self.ends = array("q")
        self.probes = array("q")
        self._busy = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a probe slower than the interval is not nested
            return
        self._busy = True
        start = time.perf_counter_ns()
        self.probes.append(Speed.probe_ns(Speed.SAMPLE_ITERATIONS))
        self.starts.append(start)
        self.ends.append(time.perf_counter_ns())
        self._busy = False

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, Speed.SAMPLE_EVERY_S,
                         Speed.SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def inside(self, first: int, t0: int, t1: int) -> tuple[int, list[int]]:
        """(probe time, probe readings) of the probes from index ``first``
        on that ran between t0 and t1."""
        spent, readings = 0, []
        for k in range(first, len(self.starts)):
            if self.starts[k] >= t0 and self.ends[k] <= t1:
                spent += self.ends[k] - self.starts[k]
                readings.append(self.probes[k])
        return spent, readings


class Run:
    """Latencies, chunk sizes, speed factors and check results of one loop."""

    def __init__(self, workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.latency_ns = array("q")
        self.chunk_sizes: list[int] = []
        self.chunk_factors = array("d")
        self.traced_ns = 0
        self.readings: list[int] = []
        self.tally = checks.Tally()
        self.digest = hashlib.sha256()
        self.cli_bytes = 0
        self.cli_files = 0

    @property
    def n(self) -> int:
        return len(self.latency_ns)

    @property
    def busy_ns(self) -> int:
        return sum(self.latency_ns)

    def scaled_ns(self) -> list[float]:
        """Every request's latency at the reference speed."""
        out, start = [], 0
        for size, f in zip(self.chunk_sizes, self.chunk_factors):
            out += [dt * f for dt in self.latency_ns[start:start + size]]
            start += size
        return out

    def request_dir(self, i: int) -> Path:
        return self.out_dir / ("req-%05d" % i)

    def timed(self, request, i: int, sampler: Sampler | None = None):
        """(answer, time) of one request, less the time of the probes the
        sampler, if any, ran inside it; those probes' readings are kept in
        ``self.readings`` for the chunk's speed factor."""
        clock = time.perf_counter_ns
        first = len(sampler.starts) if sampler else 0
        t0 = clock()
        answer = self.workload.run(request, self.request_dir(i))
        t1 = clock()
        if sampler is None:
            return answer, t1 - t0
        spent, readings = sampler.inside(first, t0, t1)
        self.readings += readings
        return answer, t1 - t0 - spent

    def replay_traced(self, chunk, tracer: Tracer) -> list:
        """The chunk's requests again, traced; their answers replace the
        untraced ones (the CLI rewrites the same files)."""
        out = []
        tracer.install()
        try:
            for i, request, _ in chunk:
                tracer.request = i
                answer, dt = self.timed(request, i)
                self.traced_ns += dt
                out.append((i, request, answer))
        finally:
            tracer.uninstall()
        return out

    def check(self, i: int, request, answer) -> None:
        if not self.workload.uses_cli:
            checks.check_online(self.tally, self.workload.policy, request, answer)
            return
        req_dir = self.request_dir(i)
        codes, continuations = answer
        checks.check_batch(self.tally, self.workload, request, req_dir, codes,
                           continuations)
        for p in sorted(q for q in req_dir.rglob("*") if q.is_file()):
            data = p.read_bytes()
            self.digest.update(str(p.relative_to(self.out_dir)).encode() + b"\0" + data)
            self.cli_bytes += len(data)
            self.cli_files += 1
        shutil.rmtree(req_dir, ignore_errors=True)


def run_requests(workload, out_dir: Path, *, seconds=None, count=None,
                 stream: str = "timed", tracer: Tracer | None = None) -> Run:
    """Closed loop with one caller until the time budget (of untraced work)
    or the request count is spent.  With a tracer, every chunk is replayed
    traced right after it ran untraced, so both see the same machine."""
    run = Run(workload, out_dir)
    inputs = workload.inputs(stream)
    budget_ns = math.inf if seconds is None else seconds * 1e9
    limit = math.inf if count is None else count
    busy = 0
    sampler = Sampler()
    while run.n < limit and busy < budget_ns:
        chunk, chunk_ns = [], 0
        run.readings = [Speed.probe_ns(Speed.SAMPLE_ITERATIONS)]
        with sampler:
            while chunk_ns < CHUNK_S * 1e9 and run.n < limit and busy < budget_ns:
                i, request = run.n, next(inputs)
                answer, dt = run.timed(request, i, sampler)
                run.latency_ns.append(dt)
                chunk_ns += dt
                busy += dt
                chunk.append((i, request, answer))
        run.chunk_factors.append(Speed.factor(
            Speed.probe_ns(Speed.SAMPLE_ITERATIONS), *run.readings))
        if tracer is not None:
            chunk = run.replay_traced(chunk, tracer)
        run.chunk_sizes.append(len(chunk))
        for i, request, answer in chunk:
            run.check(i, request, answer)
    return run


def warm_up(workload, out_dir: Path) -> None:
    run_requests(workload, out_dir, stream="warmup",
                 count=1 if workload.uses_cli else ONLINE_WARMUP)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    k = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: list[float]) -> tuple[dict, dict]:
    """(metrics, detail) of an untraced run.

    Every request counts, at the reference speed (``Speed``); the set-up
    samples come scaled the same way.  The wall-clock figures are in the
    detail.
    """
    scaled = run.scaled_ns()
    rate = run.n / sum(scaled) * 1e9
    metrics = {
        "setup_s": statistics.median(setup_s),
        "requests_per_s": rate,
        "scenarios_per_s": rate * run.workload.scenarios_per_request,
        "request_p50_ms": statistics.median(scaled) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    lat = sorted(run.latency_ns)
    factors = sorted(run.chunk_factors)
    detail = {"setup_samples_s": setup_s, "requests": run.n,
              "chunks": len(run.chunk_sizes), "timed_s": run.busy_ns / 1e9,
              "speed_factor_min_p50_max": [factors[0], percentile(factors, 0.5),
                                           factors[-1]],
              "wall_requests_per_s": run.n / run.busy_ns * 1e9,
              "wall_request_p50_ms": percentile(lat, 0.50) / 1e6}
    if not run.workload.uses_cli:  # one request is one solve
        detail.update(solve_p50_us=percentile(lat, 0.50) / 1e3,
                      solve_p99_us=percentile(lat, 0.99) / 1e3,
                      solve_samples=run.n,
                      samples_beyond_p99=run.n - math.ceil(0.99 * run.n))
    return metrics, detail


def kernel_ns_per_call(workload, repeats: int = 7, target_s: float = 0.02) -> dict:
    """Fastest-of-repeats ns per call of each scalar kernel on this
    workload's inputs (the fastest, as timeit advises: contention on a
    shared machine only ever adds time)."""
    acc_args, bc_args = [], []
    for s, theta in workload.kernel_inputs():
        gamma = 0.5 * (s.gamma_min + s.gamma_max)
        u_low, u_high, u0 = scenario.utilities_at(s, gamma)
        ref = model.resolve_reference(
            workload.policy, model.BinaryProspect(u_low, u_high, theta.p_worst), u0)
        params = (theta.alpha, theta.beta, theta.lam, theta.p_worst)
        bc_args.append((gamma, s.u0, s.x_low, s.x_high, s.b_sm) + params)
        acc_args.append((u_low, u_high, u0, ref) + params)

    def loop_ns(fn, args, loops):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for a in args:
                fn(*a)
        return time.perf_counter_ns() - t0

    out = {}
    for name, args in (("bestcase_revenue", bc_args),
                       ("bestcase_revenue_gradient", bc_args),
                       ("bestcase_partials", bc_args),
                       ("acceptance_from_utilities", acc_args)):
        fn = getattr(_core, name)
        loops = 1
        while loop_ns(fn, args, loops) < target_s * 1e9:
            loops *= 2
        out[name] = min(loop_ns(fn, args, loops)
                        for _ in range(repeats)) / (loops * len(args))
    return out


def per_layer(t: dict, run: Run, kernel_ns: dict) -> dict:
    """Per-request layer metrics from the tracer summary of a traced run."""
    def ratio(a, b):
        return a / b if b else 0.0

    n = run.n
    calls, busy, own = t["calls"], t["busy_ns"], t["self_ns"]
    m = {"trace.overhead_pct": (run.traced_ns / run.busy_ns - 1.0) * 100.0}
    for module, attr, kind in TARGETS:
        name = layer_name(module, attr)
        m[name + ".calls"] = calls[name] / n
        if kind == "counted":
            m[name + ".ns_per_call"] = kernel_ns[attr]
            continue
        m[name + ".busy_s"] = busy[name] / n / 1e9
        if kind == "span":
            m[name + ".self_s"] = own[name] / n / 1e9
    m["pricing.solve.f_evals_per_call"] = ratio(t["solve_evals"], t["solve_returns"])
    m["pricing.small_revenue_misses"] = run.tally.known_misses / n
    m["sweeps.numeric_sweep.error_rows"] = t["sweep_error_rows"] / n
    m["sweeps.piecewise_continuation.solves_per_call"] = ratio(
        t["by_parent"][("pricing.solve", "sweeps.piecewise_continuation")],
        calls["sweeps.piecewise_continuation"])
    m["cli.self_s"] = m["cli.main.self_s"]
    m["cli.bytes_written"] = run.cli_bytes / n
    m["cli.files_written"] = run.cli_files / n
    m["cli.sweep.solves_per_row"] = ratio(t["solves_under_cli"]["sweep"],
                                          t["sweep_rows"])
    return m


def traced(workload, out_dir: Path, seconds: float, count, spans_path: Path):
    """(metrics, detail, run) of a traced run: half the budget untraced, each
    chunk replayed traced; then the count self-check and kernel timings."""
    tracer = Tracer()
    run = run_requests(workload, out_dir, seconds=seconds / 2, count=count,
                       tracer=tracer)
    t = tracer.summary()
    expected = workload.expected_counts(run.n, t)
    mismatches = [(what, got, want) for what, got, want in expected if got != want]
    if mismatches:
        raise SelfCheckError("traced counts differ from the workload definition "
                             "(a call escaped the wrappers?): %s" % mismatches)
    kernel_ns = kernel_ns_per_call(workload)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    detail = {
        "requests": run.n, "untraced_s": run.busy_ns / 1e9,
        "traced_s": run.traced_ns / 1e9, "spans": len(tracer.spans),
        "counts": dict(sorted(t["calls"].items())), "count_checks": len(expected),
        "kernel_calls_per_s": {k: 1e9 / v for k, v in kernel_ns.items()},
    }
    return per_layer(t, run, kernel_ns), detail, run
