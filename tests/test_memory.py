"""Memory guards: the traced peak of single CLI calls.

A sweep holds its ``len(ns)`` results and the temporaries of one chunk, a
subsequence asks its parent only about its members, random rows are drawn
where they are asked for and not kept, a Cauchy analysis holds one
anchor's sweep at a time, and an index set answers on the segment it is
asked about.  Each budget below sits well under the peak of whole-horizon
evaluation (about 100, 90, 32, 46, 156 and 58 MB for these calls), so a
return to horizon-by-width blocks, to a kept row table or to prefix
membership masks fails here.
"""

import contextlib
import dataclasses
import io
import tracemalloc

import pytest

from stconv import cli, density, sequences, spaces

MB = float(1 << 20)

BUDGETS = [
    (["cauchy", "--sequence", "random(dim=3, seed=5)", "--horizon", "1000000"], 60),
    (["cauchy", "--sequence", "harmonic", "--horizon", "1000000"], 40),
    (["converge", "--sequence", "subseq(unit_coords, primes)", "--eps", "0.5,0.1"], 10),
    (["bounded", "--sequence", "null(dense[1,1,1])", "--horizon", "1000000"], 25),
    (["converge", "--sequence", "subseq(random(dim=2), multiples(10000))", "--horizon", "1000"], 8),
    (["converge", "--sequence", "subseq(unit_coords, complement(squares))",
      "--horizon", "1000000"], 48),
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


def test_random_member_keeps_nothing_after_a_sweep():
    # a 10^5 sweep of a 3-wide member draws 2.4 MB of rows; once the sweep
    # is dropped, the member itself holds none of them
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = sequences.norm_sweep(seq, 100_000)
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
    sweep = sequences.norm_sweep(sequences.spike_sequence(spaces.sparse_space(), spikes), horizon)
    assert sweep[99] == 100.0 and sweep[98] == 0.0
    assert sum(lengths) <= horizon + sequences._CHUNK
