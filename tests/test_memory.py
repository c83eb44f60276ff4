"""Memory guards: the traced peak of single CLI calls.

A verdict folds its exceedance counts chunk by chunk and holds no sweep, a
subsequence asks its parent only about its members, random rows are drawn
where they are asked for and not kept, and an index set answers on the
segment it is asked about.  Each budget below sits well under the peak of
whole-horizon evaluation (about 100, 90, 32, 46, 156 and 58 MB for these
calls), and the three 10^6 calls that are not subsequences under a single
horizon-length sweep (8 MB), so a return to held sweeps or masks, to
horizon-by-width blocks, to a kept row table or to prefix membership masks
fails here.  The subsequence along ``complement(squares)`` keeps its
scanned member table (about 16 MB at 10^6).  A limit candidate is built as
the two arrays of a sparse element, never through a mapping, and the primes
are held once, as their table, with no sieve mask beside it.
"""

import contextlib
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

import oracles
from stconv import cli, density, operators, sequences, spaces, stanalysis
from stconv.classify import check_theorem

MB = float(1 << 20)

BUDGETS = [
    (["cauchy", "--sequence", "random(dim=3, seed=5)", "--horizon", "1000000"], 4),
    (["cauchy", "--sequence", "harmonic", "--horizon", "1000000"], 4),
    (["converge", "--sequence", "subseq(unit_coords, primes)", "--eps", "0.5,0.1"], 10),
    (["bounded", "--sequence", "null(dense[1,1,1])", "--horizon", "1000000"], 4),
    (["converge", "--sequence", "subseq(random(dim=2), multiples(10000))", "--horizon", "1000"], 8),
    (["converge", "--sequence", "subseq(unit_coords, complement(squares))",
      "--horizon", "1000000"], 30),
]


@pytest.mark.parametrize("argv,budget_mb", BUDGETS, ids=[" ".join(a) for a, _ in BUDGETS])
def test_traced_peak_stays_within_budget(argv, budget_mb):
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / MB <= budget_mb


def test_ratio_bound_holds_one_chunk_of_each_sweep():
    # the second run finds the cached corpora and the grown shared sieve, so
    # the budget is the check's own working set; holding every member's and
    # image's norm sweep at 10^5 takes about 18 MB
    check_theorem("ratio_bound", 10**5)
    tracemalloc.start()
    try:
        check_theorem("ratio_bound", 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / MB <= 4


def test_a_pool_walk_holds_one_stream_at_a_time():
    # a random member walked in step with five matrix images at 10^5: each
    # stream's rows and norms go before the next stream's are made; holding
    # one chunk of every stream at once took 7.5 MB here
    rng = np.random.default_rng(5)
    member = sequences.random_unit_ball(spaces.dense_space(6), 201)
    seqs = [member] + [operators.image_sequence(operators.matrix_operator(rng.normal(size=(6, 6))),
                                                member) for _ in range(5)]
    tracemalloc.start()
    try:
        stanalysis.norm_counts_of(seqs, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / MB <= 4


def test_a_subsequence_past_the_cap_is_refused_before_any_chunk_runs():
    # the member at the horizon is asked for first, so the prime sieve does
    # not grow chunk by chunk toward the cap before the refusal
    sieve = density._sieved
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["converge", "--sequence", "prime_coords", "--horizon", "10000000"])
    assert code == 2
    assert "member 10000000 of primes is beyond the cap" in err.getvalue()
    assert density._sieved == sieve


def test_the_primes_are_held_once(monkeypatch):
    # from an empty sieve, the first 10^6 primes take one 8.1 MiB table of
    # the primes below Rosser's bound; with a sieve mask kept beside the
    # table (and a 1.2-fold slack on the bound) they took 28.4 MiB
    monkeypatch.setattr(density, "_prime_table", np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(density, "_sieved", 1)
    density.nth_primes(10**6)
    held = sum(v.nbytes for v in vars(density).values() if isinstance(v, np.ndarray))
    assert held / MB <= 9


def test_a_prefix_median_is_built_as_two_arrays():
    # the median of the diagonal image of the harmonic prefix at 10^6 has
    # 750,000 entries, two 6 MB arrays; built through a mapping of Python
    # floats and turned back into arrays, its traced peak was 151.5 MB
    seq = operators.image_sequence(operators.parse_operator("diag(inverse)"),
                                   sequences.harmonic_prefix_sequence())
    tracemalloc.start()
    try:
        zero, median = stanalysis.find_limit_candidates(seq, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(median.indices) == 750_000
    assert peak / MB <= 32


def test_random_member_keeps_nothing_after_a_sweep():
    # a 10^5 sweep of a 3-wide member draws 2.4 MB of rows; once the sweep
    # is dropped, the member itself holds none of them
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = oracles.joined(sequences.sweep_chunks(seq, None, 100_000))
        del sweep
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (after - before) / MB <= 1.0


def test_spike_sweep_reads_each_index_once():
    # each chunk of a spike sweep asks its spike set only for the chunk's
    # own segment; prefix masks per chunk summed to 31,982,144 entries here
    horizon = 1_000_000
    squares = density.squares()
    lengths = []

    def mask(*bounds):
        lengths.append(len(squares.mask(*bounds)))
        return squares.mask(*bounds)

    spikes = dataclasses.replace(squares, mask=mask)
    seq = sequences.spike_sequence(spaces.sparse_space(), spikes)
    sweep = oracles.joined(sequences.sweep_chunks(seq, None, horizon))
    assert sweep[99] == 100.0 and sweep[98] == 0.0
    assert sum(lengths) <= horizon + sequences._CHUNK
