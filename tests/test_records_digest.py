"""The solver's answers bit for bit: the digest of ``golden_tool.py
records`` at its defaults (320 generated scenarios, seed 0) is pinned.

The digest covers every ``OptimumRecord`` field, evaluation counts
included, and every differential, under all five reference policies.  A
change meant to keep every answer leaves it alone; a change that moves
answers on purpose re-pins the digests here, from
``python tests/golden_tool.py records``, and lists what moved and why in
CHANGES.md.
"""

import golden_tool

RECORDS_DIGEST = "00efa66951bcfdcaa6bcd7d0dd523fc5dcc9dc854285492a218d4923da0cca2b"
POLICY_DIGESTS = {
    "static": "05e5ded4386230591d24b0c48a5a7c7bbd2b1fd556f0bd26a196c5f6169816f6",
    "expected": "8ef934db0768329c982fdbf74c4b6f9c68d3ba0f9db687b54ea6bd1bd93f407e",
    "best": "d0e4a838e78a6c7d2cde5f0509656f3bbec0e5e7e3af710e8e90be8bf905e97f",
    "worst": "be150116273d5dd69beb0009727e80abe4798da049ce3359928aeea1b2b288c4",
    "fixed": "d3c7db9a631ae9b9a9f3d3c6c46da259f645704b4ed8ac52d89d602ca5028fd3",
}


def test_records_digest_is_pinned():
    digest, by_policy, records, errors = golden_tool.record_digest(320, 0)
    moved = sorted(kind for kind, want in POLICY_DIGESTS.items()
                   if by_policy.get(kind) != want)
    assert not moved, "answers moved under: %s" % ", ".join(moved)
    assert digest == RECORDS_DIGEST
    assert (records, errors) == (1600, 5)
