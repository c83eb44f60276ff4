"""Golden digests: CLI reports must stay byte-identical across refactors.

Each case pins the sha256 of the exact stdout of one CLI call.  A change to
any digest means a report changed, which a refactor must never do; a change
that is meant to alter a report updates the digest and says why.

The cases are the six README examples at horizons small enough to keep this
file fast, one CSV report, a weak-boundedness report in each of its three outcomes, images through
``subseq``, ``combo``, ``compose`` and the prime transform, a Cauchy
report whose anchors are equal terms, so its distance sweeps repeat one
candidate, and two reports that run on the per-index kind: a finite-rank
image of a mixed-kind combination, whose structure is per-index, and a
compactness classification through the prime transform, whose rescaled
prefix images take their medians and nonzero-candidate distance sweeps per
index.
Three reports at the horizon 10^6 run their sweeps in several chunks, so
every carry across a chunk boundary is pinned too, and a subsequence whose
members pass the horizon 13-fold is swept at its members only.  The last
two pin the prime transform of dense rows (``DenseBlock.rescaled``) and
spikes of a constant magnitude.
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
    # weak boundedness in each outcome: confirmed, inconclusive, refuted
    (["bounded", "--sequence", "random(dim=3, seed=7)", "--weak", "--horizon", "5000"],
     0, "15bdf339761017ad658c97ba4fdd40949e0650c6809a8676b17ff4ec70941b6b"),
    (["bounded", "--weak", "--sequence", "spike(multiples(20), n, dim=3)", "--probes", "1,2",
      "--tolerance", "0.03", "--horizon", "2000"],
     0, "1e0d4d60a0bdeb41cbc79a55fa364af3a8e37c2319d594da73b5cbe90a8e69e1"),
    (["bounded", "--weak", "--sequence", "index(dim=2)", "--probes", "1,2,4", "--horizon", "2000"],
     0, "3e6a902da959524464d45808d1479ff22092c49f364fc6078cfb3b5322363b37"),
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
    (["cauchy", "--sequence", "combine(unit_coords, null(sparse{1:1}), 1, -1)",
      "--operator", "finite_rank(coord(1),sparse{1:1};coord(2),sparse{2:0.5})",
      "--horizon", "3000"],
     0, "afc4bd683ae3a24ba1bcddce1aa2e43cf86d2fdcb489adf9d939f4cb9b27368b"),
    (["classify", "--operator", "transform(prime_scale_by_position)",
      "--property", "st_compact", "--horizon", "1000"],
     0, "f312a169648aa618472401208e87f87da6de600eb0d017d41679a61370ad880c"),
    # sweeps of several chunks: dense rows, a prefix walk, a sparse basis
    # combination; then a subsequence whose members pass the horizon 13-fold
    (["cauchy", "--sequence", "random(dim=3, seed=5)", "--horizon", "1000000"],
     0, "c8a4d7e762ed6f8ceb4377eae78632cfea8e85e20de85b4805fd3510217bf0c5"),
    (["cauchy", "--sequence", "harmonic", "--horizon", "1000000"],
     0, "d24699f72123420ff86c4286056b9540b99f13d8c0447204e3bd0a05e6aef41b"),
    (["cauchy", "--sequence", "null(sparse{1:1.5,2:1,4:1.5})", "--horizon", "1000000"],
     0, "76d1757d5837dc5c373988f73364508ba4dc0c3b0328878f200407205582c794"),
    (["converge", "--sequence", "subseq(unit_coords, primes)", "--eps", "0.5,0.1"],
     0, "3a59b9f8e1f8d8013bbad550bdf4adb0525758d1b37353d0f85095179609127f"),
    # the prime transform of dense rows, and spikes of a constant magnitude
    (["converge", "--sequence", "random(dim=3, seed=5)",
      "--operator", "transform(prime_scale_by_position)", "--horizon", "3000"],
     0, "7b7932137af3b0db9f6b7f031a72f27ec6a274875ecdcf8602952d3be1e3254c"),
    (["bounded", "--sequence", "spike(squares, 2)", "--horizon", "3000"],
     0, "22ac2d711a690a3dd4935e3b69d3ef9a97f65cd426c04f8eab7887cbc5d6522e"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_report_digest_is_pinned(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.run(argv)
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
