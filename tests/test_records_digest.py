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

RECORDS_DIGEST = "01ed2249c0ba5c866f076cd75cb44e0365d68c9a028e489dfa941873e86d7782"
POLICY_DIGESTS = {
    "static": "3f2067bc720b4c079174bae08f0a08d0dcda63b913ba13b35648e778629546f0",
    "expected": "54341762ff3fffa3670762e284df0c0f345ffb41243a9970f418384b36167438",
    "best": "79e6b9cb8d8fd25693dd2a62db2e2c912b70de910d40c98697210bc38c9a63a4",
    "worst": "319aa52fc9676f9c74baec7ee856d8cc73bb6926c22e142da08e7ee6b59be777",
    "fixed": "9986810e1d2395423ae2559ac3df93af2b2a1fe6325c3a2be1d4577f9c9e32e8",
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
