"""Golden digests: CLI reports must stay byte-identical across refactors.

Each case pins the sha256 of the exact stdout of one CLI call.  A change to
any digest means a report changed, which a refactor must never do; a change
that is meant to alter a report updates the digest and says why.

The cases are the six README examples at horizons small enough to keep this
file fast, one CSV report, a weak-boundedness report, images through
``subseq``, ``combo``, ``compose`` and the prime transform, and a Cauchy
report whose anchors are equal terms, so its distance sweeps repeat one
candidate.
"""

import contextlib
import hashlib
import io

import pytest

from stconv import cli

GOLDEN = [
    (["density", "--set", "primes", "--horizon", "100000"],
     0, "96f0d9bccaadd4bba953ca3a210f3c4067bb39191205d5bc5d683cc49517e966"),
    (["converge", "--sequence", "harmonic", "--candidate", "sparse{}", "--eps", "0.5,0.1",
      "--horizon", "5000"],
     0, "714a5ef8a6f41826b863026b15449e1fdb71614b035fab03510694ac62dbbf5f"),
    (["bounded", "--sequence", "spike(squares, n)", "--horizon", "5000"],
     0, "e5e276c1ad03967ec4edd0d0436a57ab9230f6076fdea50658969b0a3200f616"),
    (["cauchy", "--sequence", "harmonic", "--horizon", "5000"],
     0, "c5bd67a514a49380b74470dc57e0537368eaaa337c6c245a7fac22de5fc239f4"),
    (["classify", "--operator", "transform(prime_scale_by_position)",
      "--property", "st_bounded", "--horizon", "5000"],
     0, "e018431f883aa37edf8655492ddda477dede486ade8f6a0238290e157d2f7f5d"),
    # at this horizon some checks fail, so the suite exits 1; the report is still pinned
    (["suite", "--horizon", "2000"],
     1, "2c537c8705b0f9e46d3b07643a6a32f5f6c7feeabf3fe6d27437b3cbf83cb9a5"),
    (["suite", "--horizon", "20000"],
     0, "8031a47e7c9e422ceee6d768ad3fb2cd7c3a7f14d90dbca5d4990bf7d2ffea64"),
    (["converge", "--sequence", "prime_coords", "--operator", "diag(prime_scale)",
      "--horizon", "5000", "--output", "csv"],
     0, "f272cc3fdd7549293f485a6a80872b73c686eece06a390ff5ae49b5929dff833"),
    (["bounded", "--sequence", "random(dim=3, seed=7)", "--weak", "--horizon", "5000"],
     0, "15bdf339761017ad658c97ba4fdd40949e0650c6809a8676b17ff4ec70941b6b"),
    (["cauchy", "--sequence", "subseq(harmonic, multiples(3))",
      "--operator", "combo(1,diag(inverse),-0.5,diag(identity))", "--horizon", "300"],
     0, "13226cf11c91d1fa7606543e53dfc344b72681c691fe17b75a260aab41069668"),
    (["bounded", "--sequence", "harmonic",
      "--operator", "combo(1,diag(inverse),-0.5,diag(prime_scale))", "--horizon", "5000"],
     0, "1a1040de94682960603664077195fb10772d5f147c7d7001d809e590ba035dd7"),
    (["converge", "--sequence", "subseq(unit_coords, primes)",
      "--operator", "transform(prime_scale_by_position)", "--candidate", "sparse{2:1}",
      "--horizon", "3000"],
     0, "78b6e5589d1aea6d7c2e0c55e7a603fdcf4be193758502c44bb2256fc6244256"),
    (["classify", "--operator", "compose(diag(inverse),rank1(geometric_weights,sparse{1:1}))",
      "--property", "st_compact", "--horizon", "3000"],
     0, "e2077231a7c8d653444a52139d34266d6c7bfb70eee3e2c686a398eefc5c6b09"),
    (["cauchy", "--sequence", "alternating(dim=3)", "--anchors", "10,100,1000",
      "--horizon", "5000"],
     0, "1f18d9201249a06432e1d1e87e57328fa99c08941b49156a3b97bac63923df63"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_report_digest_is_pinned(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.run(argv)
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
