"""CLI outputs on the fixtures, byte for byte against committed golden files.

The files under ``tests/data/golden/<reference>/<command>/`` are the output
of::

    cpt-sense solve    --reference REF --out DIR
    cpt-sense domain   --reference REF --out DIR
    cpt-sense mismatch --reference REF --assume lambda=2.7 --out DIR
    cpt-sense sweep    --reference REF --param all --steps 5 --out DIR

for REF in best and expected.  A refactor that keeps the numbers must keep
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


def golden_argv(reference: str, command: str, out: Path) -> list[str]:
    """CLI arguments that write the golden files of one (reference, command)."""
    return COMMANDS[command] + ["--reference", reference, "--out", str(out)]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("reference", REFERENCES)
def test_cli_output_matches_golden(reference, command, tmp_path):
    assert main(golden_argv(reference, command, tmp_path)) == 0
    golden = GOLDEN / reference / command
    want = {p.name: p.read_bytes() for p in golden.iterdir()}
    got = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(got) == sorted(want), "file sets differ under %s" % golden
    differing = sorted(name for name in want if got[name] != want[name])
    assert not differing, "differ from %s: %s" % (golden, ", ".join(differing))
