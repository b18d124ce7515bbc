"""In-memory tracing of calls into cpt_sense's public functions.

Wrappers are installed from outside the package: every module binding of a
wrapped function (``cpt_sense.pricing.solve``, ``cpt_sense.sweeps.solve``,
``cpt_sense.cli.solve``, ...) is swapped for one shared wrapper, and
``uninstall`` puts the originals back.  Nothing under ``src/`` is edited.

Three kinds of wrapper, chosen by how hot the function is:

* span: stores (request, id, parent, name, start_ns, end_ns, self_ns);
* timed: aggregates calls and busy time without storing a span (hot leaf
  functions, where a stored span per call would swamp memory);
* counted: counts calls only (the scalar kernels, where even two clock
  reads per call would dominate the call).

Self time is a span's duration minus the time of the spans and timed calls
directly beneath it; counted kernel calls stay in their caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: (module, attribute, kind) of every wrapped public function.
TARGETS = (
    ("cpt_sense.pricing", "solve", "span"),
    ("cpt_sense.pricing", "kkt_residuals", "span"),
    ("cpt_sense.pricing", "lagrangian_derivatives", "span"),
    ("cpt_sense.numerics", "grid_golden_maximize", "span"),
    ("cpt_sense.numerics", "bracket_root", "span"),
    ("cpt_sense.model", "acceptance_probability", "timed"),
    ("cpt_sense._core", "bestcase_revenue", "counted"),
    ("cpt_sense._core", "bestcase_revenue_gradient", "counted"),
    ("cpt_sense._core", "bestcase_partials", "counted"),
    ("cpt_sense._core", "acceptance_from_utilities", "counted"),
    ("cpt_sense.sensitivity", "differentials", "span"),
    ("cpt_sense.sensitivity", "all_domains", "span"),
    ("cpt_sense.sensitivity", "taylor_predict", "timed"),
    ("cpt_sense.sweeps", "numeric_sweep", "span"),
    ("cpt_sense.sweeps", "piecewise_continuation", "span"),
    ("cpt_sense.sweeps", "mismatch_loss", "span"),
    ("cpt_sense.scenario", "generate_random", "span"),
    ("cpt_sense.scenario", "require_valid", "span"),
    ("cpt_sense.cli", "main", "span"),
)


def layer_name(module: str, attr: str) -> str:
    """Metric prefix of a wrapped function: 'pricing.solve', 'core.bestcase_revenue'."""
    return "%s.%s" % (module.rsplit(".", 1)[1].lstrip("_"), attr)


class SelfCheckError(RuntimeError):
    """The traced run cannot vouch for its own counts."""


class Tracer:
    """Span recorder and binding patcher for one traced segment."""

    def __init__(self):
        self.request = -1
        self.spans: list[tuple] = []
        self.timed_calls: Counter = Counter()
        self.timed_ns: Counter = Counter()
        self.counted: Counter = Counter()
        self.tags: dict[int, str] = {}
        self.solve_evals = 0
        self.solve_returns = 0
        self.sweep_rows = 0
        self.sweep_error_rows = 0
        self.cli_failures = 0
        self.raised: Counter = Counter()
        self._next_id = 0
        # one entry per open span: [span id, time of wrapped calls beneath]
        self._stack: list[list[int]] = []
        self._patched: list[tuple] = []
        self._originals: dict[int, object] = {}

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        on_result = {"pricing.solve": self._on_solve,
                     "sweeps.numeric_sweep": self._on_sweep,
                     "cli.main": self._on_cli}.get(name)
        raised = self.raised
        tagged = name == "cli.main"

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            if tagged and args and args[0]:
                self.tags[sid] = args[0][0]
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((self.request, sid, parent, name, t0, t1,
                              t1 - t0 - frame[1]))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _timed(self, name, fn):
        calls, busy, stack = self.timed_calls, self.timed_ns, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                busy[name] += dt
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def _counted(self, name, fn):
        counted = self.counted

        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_solve(self, record):
        self.solve_returns += 1
        self.solve_evals += record.evaluations

    def _on_cli(self, code):
        self.cli_failures += code != 0

    def _on_sweep(self, rows):
        self.sweep_rows += len(rows)
        self.sweep_error_rows += sum(1 for r in rows if r.error is not None)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Swap every cpt_sense binding of every target for its wrapper."""
        modules = _package_modules()
        for module_name, attr, kind in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            name = layer_name(module_name, attr)
            wrapper = {"span": self._span, "timed": self._timed,
                       "counted": self._counted}[kind](name, original)
            self._originals[id(original)] = original
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        unpatched = unpatched_bindings(self._originals.values())
        if unpatched:
            self.uninstall()
            raise SelfCheckError("wrapped functions still reachable through "
                                 "unpatched bindings: %s" % ", ".join(unpatched))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Calls, busy and self time per name, calls per (name, parent name),
        and solves beneath each CLI command."""
        calls, busy, self_ns = Counter(), Counter(), Counter()
        by_parent: Counter = Counter()
        names = {sid: name for _, sid, _, name, _, _, _ in self.spans}
        parents = {sid: parent for _, sid, parent, _, _, _, _ in self.spans}
        for _, sid, parent, name, t0, t1, own in self.spans:
            calls[name] += 1
            busy[name] += t1 - t0
            self_ns[name] += own
            by_parent[(name, names.get(parent, "-"))] += 1
        for name in self.timed_calls:
            calls[name] += self.timed_calls[name]
            busy[name] += self.timed_ns[name]
        calls.update(self.counted)

        solves_under_cli: Counter = Counter()
        for _, sid, _, name, _, _, _ in self.spans:
            if name != "pricing.solve":
                continue
            node = parents[sid]
            while node != -1 and names[node] != "cli.main":
                node = parents[node]
            if node != -1:
                solves_under_cli[self.tags.get(node, "?")] += 1
        return {"calls": calls, "busy_ns": busy, "self_ns": self_ns,
                "by_parent": by_parent, "solves_under_cli": solves_under_cli,
                "solve_returns": self.solve_returns,
                "solve_evals": self.solve_evals,
                "sweep_rows": self.sweep_rows,
                "sweep_error_rows": self.sweep_error_rows,
                "raised": self.raised, "cli_failures": self.cli_failures}

    def write_spans(self, path) -> None:
        """Spans as CSV, one line each, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request,id,parent,name,start_ns,end_ns,self_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d,%d\n" % span)


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cpt_sense" or n.startswith("cpt_sense."))]


def unpatched_bindings(originals) -> list[str]:
    """'module.attr' of every package binding that still holds an original."""
    ids = {id(o) for o in originals}
    return ["%s.%s" % (m.__name__, key) for m in _package_modules()
            for key, value in vars(m).items() if id(value) in ids]
