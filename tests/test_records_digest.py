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

RECORDS_DIGEST = "2d4311e117333672fa7c2ccddaa7972a35525cef4cf53f1a1b98d6fb26026338"
POLICY_DIGESTS = {
    "static": "b00fcc7e6ff7b6f6713d983af54f21a792f618366331c355e6f451e8badb43a2",
    "expected": "bb6ec0a6db72c22e2295b16499083ede5a99f87577be9ab8dfcc0ba17416415a",
    "best": "48a2c095191557f96c89731dd965717532112523aadfe302042bbbab4bde2c84",
    "worst": "cb3690ce6838ee78c93c64b818d40ccca31fabb976551566e0256e75d16e004b",
    "fixed": "27256083d26c18562af8faba7c24db306add91136a958ce8f4ec550056a72615",
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
