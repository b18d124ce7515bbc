"""CLI outputs, byte for byte against committed golden files.

The files under ``tests/data/golden/<reference>/<command>/`` are the output
of::

    cpt-sense solve    --reference REF --out DIR
    cpt-sense domain   --reference REF --out DIR
    cpt-sense mismatch --reference REF --assume lambda=2.7 --out DIR
    cpt-sense sweep    --reference REF --param all --steps 5 --out DIR

for REF in best and expected, on the fixtures; those under
``<reference>/json/<command>/`` are the same commands with ``--format
json``.  Those under ``gen-scenarios/<format>/`` are the output of
``cpt-sense gen-scenarios --count 5 --seed 7 --format FORMAT --out DIR``
for FORMAT in csv and json.  A refactor that keeps the numbers must keep
these bytes; a change that moves them on purpose regenerates the files with
the same commands (``python tests/golden_tool.py regen``, after
``python tests/golden_tool.py diff`` has shown what moves) and says why.
"""

from pathlib import Path

import pytest

from cpt_sense.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "solve": ["solve"],
    "domain": ["domain"],
    "mismatch": ["mismatch", "--assume", "lambda=2.7"],
    "sweep": ["sweep", "--param", "all", "--steps", "5"],
}
REFERENCES = ("best", "expected")
FORMATS = ("csv", "json")


def _cases() -> dict[str, list[str]]:
    """Golden directory, relative to ``GOLDEN`` -> the CLI arguments that
    write its files, less ``--out``."""
    cases = {}
    for reference in REFERENCES:
        for command, argv in sorted(COMMANDS.items()):
            argv = argv + ["--reference", reference]
            cases["%s/%s" % (reference, command)] = argv
            cases["%s/json/%s" % (reference, command)] = argv + ["--format", "json"]
    for fmt in FORMATS:
        cases["gen-scenarios/%s" % fmt] = [
            "gen-scenarios", "--count", "5", "--seed", "7", "--format", fmt]
    return cases


CASES = _cases()


def golden_argv(case: str, out: Path) -> list[str]:
    """CLI arguments that write the golden files of one case."""
    return CASES[case] + ["--out", str(out)]


@pytest.mark.parametrize("case", sorted(CASES),
                         ids=lambda case: case.replace("/", "-"))
def test_cli_output_matches_golden(case, tmp_path):
    assert main(golden_argv(case, tmp_path)) == 0
    golden = GOLDEN / case
    want = {p.name: p.read_bytes() for p in golden.iterdir()}
    got = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(got) == sorted(want), "file sets differ under %s" % golden
    differing = sorted(name for name in want if got[name] != want[name])
    assert not differing, "differ from %s: %s" % (golden, ", ".join(differing))
