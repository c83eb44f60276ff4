"""Narrow-block kernels of the sweep engine against their row-wise references.

Each kernel must give the same bits as the plain numpy expression it
replaces, so every comparison here is exact (``np.array_equal``), never a
tolerance.
"""

import numpy as np
import pytest

from stconv import operators, sequences, spaces


def _block(rows, width, seed):
    # magnitudes spread over sixteen decades, with exact and negative zeros,
    # so a change of summation order shows in the last bits
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-8, 9, (rows, width))
    block[rng.random((rows, width)) < 0.05] = 0.0
    block[rng.random((rows, width)) < 0.05] = -0.0
    return block


@pytest.mark.parametrize("width", [*range(1, 41), 64, 128, 129])
def test_block_norms_match_rowwise_reduction(width):
    # numpy's row-wise sum is left to right below 8 columns, which the
    # kernel's column fold repeats, and pairwise from 8 on, in blocks of 128,
    # where the kernel calls it; with or without a row offset
    block = _block(5000, width, seed=width)
    for offset in (None, _block(1, width, seed=1000 + width)[0]):
        want = np.sum(np.abs(block if offset is None else block - offset) ** 2.0, axis=1) ** 0.5
        assert np.array_equal(sequences._block_norms(block, offset), want)


@pytest.mark.parametrize("width", range(1, 13))
def test_block_norms_match_the_pointwise_norm(width):
    # the sweep kernel and spaces.norm measure a dense row alike; spaces.norm
    # scales by the row's peak first, so they agree to rounding, not bits
    block = _block(500, width, seed=100 + width)
    got = sequences._block_norms(block)
    want = np.array([spaces.norm(spaces.dense_element(row)) for row in block])
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_block_norms_leave_the_block_alone():
    block = _block(100, 3, seed=0)
    before = block.copy()
    sequences._block_norms(block)
    assert block.tobytes() == before.tobytes()


@pytest.mark.parametrize("exponent", [1.0, 0.5, 2.5])
@pytest.mark.parametrize("width", range(1, 13))
def test_decaying_rows_match_broadcast_product(width, exponent):
    row = _block(1, width, seed=200 + width)[0]
    seq = sequences.decaying_sequence(spaces.dense_element(row), exponent=exponent)
    ns = np.arange(1, 5001, dtype=np.int64)
    want = row[None, :] * (ns.astype(float) ** -exponent)[:, None]
    assert np.array_equal(seq.structure.block_of(ns), want)


@pytest.mark.parametrize("rows_out", [1, 3, 8])
@pytest.mark.parametrize("width", range(1, 13))
def test_matrix_image_rows_match_matmul(width, rows_out, monkeypatch):
    # the image multiplies each chunk by a C-ordered copy of a.T
    monkeypatch.setattr(sequences, "_CHUNK", 700)
    block = _block(2000, width, seed=300 + width)
    a = _block(rows_out, width, seed=400 + width)
    image = sequences.DenseBlock(lambda ns: (block[c - 1] for c in ns)).matrix_image(a)
    got = image.block_of(np.arange(1, len(block) + 1))
    assert np.array_equal(got, block @ a.T)


@pytest.mark.parametrize("with_offset", [False, True], ids=["no_offset", "offset"])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("columns", range(1, 10))
def test_basis_combo_sweep_matches_rowwise_max(columns, rank, with_offset, monkeypatch):
    # the sweep reduces one chunk of coefficient rows at a time
    monkeypatch.setattr(sequences, "_CHUNK", 64)
    n = 2 * sequences._CHUNK + 5
    rng = np.random.default_rng(100 * columns + rank)
    coeff = rng.standard_normal((n, rank))
    mat = rng.standard_normal((rank, columns))
    offset = rng.standard_normal(columns) if with_offset else None
    rows = coeff @ mat
    if with_offset:
        rows = rows - offset
    want = np.max(np.abs(rows), axis=1)
    basis = tuple(spaces.sparse_element({k + 1: v for k, v in enumerate(row)}) for row in mat)
    combo = sequences.FixedBasisCombo(lambda ns: (coeff[c - 1] for c in ns), basis)
    candidate = None if offset is None else spaces.sparse_element(
        {k + 1: v for k, v in enumerate(offset)})
    got = sequences._joined(combo.sweep(None, candidate, sequences.Stream(n)))
    assert np.array_equal(got, want)


def test_geometric_weights_match_powers_of_one_half():
    ks = np.arange(1, 2_000_001, dtype=np.int64)
    got = operators.geometric_weights_functional().weights(ks)
    want = 0.5 ** ks.astype(float)
    assert np.array_equal(got, want)
    assert got[1073] > 0.0 and got[1074] == 0.0   # 2^-1074 is the last subnormal


def _old_diagonal_apply(dfun, x):
    idx = np.asarray(sorted(x.support.keys()), dtype=np.int64)
    vals = dfun(idx)
    return spaces.sparse_element(
        {int(k): float(v) * x.support[int(k)] for k, v in zip(idx, vals)}
    )


@pytest.mark.parametrize("name,arg", [("inverse_trunc", 5), ("inverse", None),
                                      ("prime_scale", None), ("index", None)])
def test_sparse_diagonal_apply_matches_elementwise_products(name, arg):
    op = operators.named_diagonal(name, arg)
    rng = np.random.default_rng(3)
    keys = rng.permutation(np.arange(1, 400))[:150]
    x = spaces.sparse_element({int(k): float(v) for k, v in zip(keys, rng.standard_normal(150))})
    got = operators.apply(op, x)
    want = _old_diagonal_apply(op.dfun, x)
    assert list(got.support.items()) == list(want.support.items())
    if name == "inverse_trunc":
        assert set(got.support) == {k for k in x.support if k <= arg}
