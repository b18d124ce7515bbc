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

RECORDS_DIGEST = "981c4a8b2f72c433c641c4f5c55b499bbea58c5e1b2ab75bbc9aaddbee817b06"
POLICY_DIGESTS = {
    "static": "d73eaf940dc4d73f1185aff8a04f61332e64e759cb3136384acff7ce53f141ef",
    "expected": "bbd1a4e0419593555c1f44a789d2817d3df962628a53e4685aada52b90ccd781",
    "best": "79e6b9cb8d8fd25693dd2a62db2e2c912b70de910d40c98697210bc38c9a63a4",
    "worst": "319aa52fc9676f9c74baec7ee856d8cc73bb6926c22e142da08e7ee6b59be777",
    "fixed": "d8342dd6cbf99cad25ab443d48965c265eccfa5065fb2d762fc90829c5c6e48f",
}
ANSWERS_DIGEST = "9ff1581a0645144fc85cd1a6f34cea9378b106ee04554e325dbe742184114529"
CONTINUATION_DIGEST = (
    "3eb7ec2931fd47c9954f1e2e35742d8a0220ab48c3529eff439cdcac342d9b95")


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
