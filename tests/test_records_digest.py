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
"""

import golden_tool

RECORDS_DIGEST = "34d83ff90ae94d9dac86a41eb3281e02ca39d5768282233f35dfd0e01c6d2baf"
POLICY_DIGESTS = {
    "static": "e46144a86cedc38823fe7dcb85d27b0605a2a8102e67cdbdc326fa16d5c9ef88",
    "expected": "883d9cd6c22ed9165b1935b639f470203de3ef202b649140b0221cfa2c91606c",
    "best": "93ee696f2282d6178bcf9fe7555b11feb0e0d065d25edfdef28f462cde15d859",
    "worst": "d2320ff2545d84bbba7612c5170e6814a25bc153fd071dfac82f99713f251d6b",
    "fixed": "636272700a59091e2d4306d0e70b672d77999c6347c678b8bb099c600d255f83",
}
ANSWERS_DIGEST = "f04a681dd96b2af98872e75800a377f7eff05ee8b881ccf40ef8d25756f80985"


def test_records_digest_is_pinned():
    digest, by_policy, answers, records, errors = golden_tool.record_digest(
        320, 0)
    assert answers == ANSWERS_DIGEST, "answers moved"
    moved = sorted(kind for kind, want in POLICY_DIGESTS.items()
                   if by_policy.get(kind) != want)
    assert not moved, "records moved under: %s" % ", ".join(moved)
    assert digest == RECORDS_DIGEST
    assert (records, errors) == (1600, 5)
