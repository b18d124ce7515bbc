"""Diff or regenerate the CLI golden files that ``test_golden`` compares.

    python tests/golden_tool.py diff    # what moved, per file and column
    python tests/golden_tool.py regen   # rewrite tests/data/golden/

Both modes run ``test_golden.COMMANDS`` afresh under every reference,
exactly as the test does.  ``diff`` compares the fresh files with the goldens field by field: CSV rows by position and
column, JSON by key path (the top-level key, a scenario label or a row
index, plays the row).  For every file and column that moved it prints the
largest relative and absolute change of its numbers; it lists each
non-numeric difference (text, a flag, an added or missing row, column or
file) on its own line.  ``regen`` replaces every golden file with the fresh
one.  The module name does not match pytest's ``test_*.py``, so it is not
collected.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from cpt_sense.cli import main  # noqa: E402
from test_golden import COMMANDS, GOLDEN, REFERENCES, golden_argv  # noqa: E402


def run_commands(out: Path) -> None:
    """Write every golden command's files under out/<reference>/<command>/."""
    for reference in REFERENCES:
        for command in sorted(COMMANDS):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(golden_argv(reference, command,
                                        out / reference / command))
            if code != 0:
                raise SystemExit("%s --reference %s exited %d"
                                 % (command, reference, code))


def fields(path: Path) -> dict[tuple, object]:
    """Leaf values of a CSV or JSON file keyed by (row, column)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        data = list(csv.DictReader(io.StringIO(text)))
    else:
        data = json.loads(text)
    out: dict[tuple, object] = {}

    def walk(key: tuple, node) -> None:
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else None)
        if items is None:
            out[(str(key[0]), ".".join(str(k) for k in key[1:]))] = node
            return
        for k, child in items:
            walk(key + (k,), child)
    walk((), data)
    return out


def _number(x):
    """x as a float when it is a number (a CSV string or a JSON number)."""
    if isinstance(x, bool) or x is None:
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def compare(old: dict, new: dict) -> list[str]:
    """Report lines for one file: numeric changes per column, columns found
    on one side only, then every other non-numeric difference."""
    moved: dict[str, list] = {}
    one_sided: dict[tuple, int] = {}
    lines = []
    for key in sorted(old.keys() | new.keys()):
        row, column = key
        if key not in new or key not in old:
            side = "goldens" if key in old else "fresh output"
            one_sided[(column, side)] = one_sided.get((column, side), 0) + 1
            continue
        a, b = old[key], new[key]
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                lines.append("  row %s column %s: %r -> %r" % (row, column, a, b))
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        absolute = abs(y - x)
        relative = absolute / abs(x) if x != 0.0 else math.inf
        entry = moved.setdefault(column, [0.0, 0.0, 0])
        entry[0] = max(entry[0], relative)
        entry[1] = max(entry[1], absolute)
        entry[2] += 1
    numeric = ["  %s: max rel %.3g, max abs %.3g (%d fields)"
               % (column, rel, ab, count)
               for column, (rel, ab, count) in sorted(moved.items())]
    sided = ["  column %s: only in %s (%d rows)" % (column, side, count)
             for (column, side), count in sorted(one_sided.items())]
    return numeric + sided + lines


def diff(fresh: Path) -> int:
    """Print what moved between the goldens and the fresh files; the number
    of files that differ."""
    differing = 0
    for reference in REFERENCES:
        for command in sorted(COMMANDS):
            want, got = GOLDEN / reference / command, fresh / reference / command
            names = sorted({p.name for p in want.iterdir()}
                           | {p.name for p in got.iterdir()})
            for name in names:
                label = "%s/%s/%s" % (reference, command, name)
                if not (want / name).exists() or not (got / name).exists():
                    differing += 1
                    print("%s: only in %s" % (
                        label, "fresh output" if (got / name).exists()
                        else "goldens"))
                    continue
                if (want / name).read_bytes() == (got / name).read_bytes():
                    continue
                differing += 1
                print("%s:" % label)
                for line in compare(fields(want / name), fields(got / name)):
                    print(line)
    print("%d golden files differ" % differing)
    return differing


def regen(fresh: Path) -> None:
    """Replace every golden directory by the fresh output."""
    for reference in REFERENCES:
        for command in sorted(COMMANDS):
            target = GOLDEN / reference / command
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(fresh / reference / command, target)
            print("rewrote %s" % target)


def main_tool(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["diff", "regen"])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        run_commands(fresh)
        if args.mode == "regen":
            regen(fresh)
            return 0
        return 1 if diff(fresh) else 0


if __name__ == "__main__":
    sys.exit(main_tool())
