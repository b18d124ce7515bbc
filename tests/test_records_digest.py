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
"""

import golden_tool

RECORDS_DIGEST = "02de59ba817b9e0dda77bd43d3f476fe3b2fe48fcd8b9618f989cf4073274018"
POLICY_DIGESTS = {
    "static": "a125c3c6e32cadb894b25dad7c4dcba7768c6f7368a667e14f501636b7792627",
    "expected": "757ef009216b7944e0d5c974bd6a82c656cc389250a77b5ba00bf5fda752352d",
    "best": "73dfb4eeee04cbaa2bec55ff550b7d71a0fa82864ae1748055ad44a482da5715",
    "worst": "6ed8f902422ac55974913cf13d9a709d1f34c32361c0ce467b6e00c582672bca",
    "fixed": "f066f2441ff6c21bcc1d8482d6ca88918d8cdfe6195cc46f75adb0784dee83b2",
}
ANSWERS_DIGEST = "8eaa23091fd004b8c9c0e7c7704fd8cce8e43d719ba33c8ac469003d6ac2c398"
CONTINUATION_DIGEST = (
    "a977d30e08f0321575574c489bf4b568124ed3e5d19701b5222836f80fbd869e")


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
