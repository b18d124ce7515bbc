"""The solver's answers bit for bit: the digests of ``golden_tool.py
records`` at its defaults (320 generated scenarios, seed 0) are pinned.

The full digest covers every ``OptimumRecord`` field, evaluation counts
included, and every differential, under all five reference policies.  The
answers digest covers the same lines without ``gamma_oracle`` and
``evaluations``, which record what the cross-check spent, so a change to
what a solve costs re-pins the full digests while its answers digest shows
that no answer moved.  A change meant to keep every answer leaves the
answers digest alone; a change that moves answers on purpose re-pins the
digests here, from ``python tests/golden_tool.py records``, and lists what
moved and why in CHANGES.md.

The continuation digest (``golden_tool.py continuation``) pins every
``PiecewiseApprox`` of the fixtures under the five policies and four
parameters the same way: a change that moves a breakpoint or a segment
re-pins it here and says why in CHANGES.md.

``golden_tool.py phases`` wraps ``pricing``'s bindings to time a solve's
phases; a short run checks that it still prints every phase and that its
wrapped solves run.
"""

import golden_tool

RECORDS_DIGEST = "1754c336d51818e86842ab3bdf08fe841ebd6ccb938629973f4aa7ec9692de74"
POLICY_DIGESTS = {
    "static": "f6dd63f4463290ad1711d52188cdb7029e256eb45a2a4f927b187d90e4e18f9a",
    "expected": "fbe92b83010e0e9bffab98ca702ee9bf580bc88d547f8ecedd778eb9a51c9e7e",
    "best": "0cef76a0c0bc0a68f03617d7161b2be3bd194a33c1c08b3248855b3468d475aa",
    "worst": "a8b6ea201e3ef0259053824e7dae5bff486c6bea06b494accd40a76c09b662b6",
    "fixed": "bc260d4d50030cd77c0395a1d3e37cb8f360cd1f32af5c3b7f6497d3047fce46",
}
ANSWERS_DIGEST = "a0e47870b30c5042b9554b64be38e9a6ae9af4b7fe285bccf6f48f35191ff4ae"
CONTINUATION_DIGEST = (
    "271d7c6174cb357a18007a32d9085c823c59457f630a0dca7bc14fedda913973")


def test_records_digest_is_pinned():
    digest, by_policy, answers, records, errors, _ = golden_tool.record_digest(
        320, 0)
    assert answers == ANSWERS_DIGEST, "answers moved"
    moved = sorted(kind for kind, want in POLICY_DIGESTS.items()
                   if by_policy.get(kind) != want)
    assert not moved, "records moved under: %s" % ", ".join(moved)
    assert digest == RECORDS_DIGEST
    assert (records, errors) == (1600, 5)


def test_continuation_digest_is_pinned():
    digest, calls, errors = golden_tool.continuation_digest()
    assert (calls, errors) == (100, 0)
    assert digest == CONTINUATION_DIGEST, "continuation moved"


def test_phases_prints_every_phase(capsys):
    assert golden_tool.main_tool(
        ["phases", "--count", "40", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    printed = [line.split(" | ")[0][2:] for line in out.splitlines()
               if line.startswith("| ") and not line.startswith("| ---")]
    assert printed == ["phase", *golden_tool.PHASE_ROWS]
    assert out.rstrip().endswith(", 0 of 40 solves raised")
