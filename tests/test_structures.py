"""Differential matrix: structured evaluation against the per-index path.

Every corpus member, a few subsequences, and their images under the
operators of the classify pools (compositions, linear combinations and the
prime transform included) are swept twice: once through their structure
and once through a per-index twin that has the structure stripped.  Norms,
distances to the windowed median candidate and functional sweeps must agree
to 1e-12 relative.
"""

import dataclasses

import numpy as np
import pytest

from stconv import density, operators, sequences, spaces, stanalysis
from stconv.classify import (
    _compact_consistent_pool,
    _iff_operator_pool,
    _norm_bounded_operator_pool,
    cauchy_corpus,
    dense_corpus,
    sparse_corpus,
)

H = 300
RTOL = 1e-12

FUNCTIONALS = (
    operators.coordinate_functional(1),
    operators.dense_weights([0.5, -1.0, 2.0]),
    operators.geometric_weights_functional(),
)


def _operators():
    e1 = spaces.sparse_element({1: 1.0})
    rank_coord = operators.rank_one(operators.coordinate_functional(1), e1)
    rank_geom = operators.rank_one(operators.geometric_weights_functional(), e1)
    to_dense = operators.rank_one(operators.coordinate_functional(2),
                                  spaces.dense_element([1.0, -1.0, 0.5]))
    extra = [
        operators.linear_combo(1.0, rank_coord, 1.0, rank_geom),
        operators.linear_combo(2.5, operators.named_diagonal("inverse"), 0.0,
                               operators.named_diagonal("inverse")),
        operators.compose(operators.matrix_operator([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0],
                                                     [3.0, 0.0, 1.0]]), to_dense),
        operators.finite_rank(
            [(operators.coordinate_functional(1), spaces.dense_element([1.0, 0.0, 0.0])),
             (operators.dense_weights([0.5, 0.5, 0.0]), spaces.dense_element([0.0, 1.0, 0.0]))],
            domain=spaces.dense_space(3)),
        operators.prime_position_transform(),
    ]
    pools = _norm_bounded_operator_pool() + _iff_operator_pool() + _compact_consistent_pool()
    unique = {op.describe(): op for op in pools + extra}
    return list(unique.values())


def _domain(op):
    return spaces.sparse_space() if isinstance(op, operators.SequenceTransform) else op.domain


def _cases():
    members = list(sparse_corpus().members)
    for corpus in (dense_corpus(2), dense_corpus(3), cauchy_corpus()):
        members += corpus.members
    members += [
        sequences.subsequence(sequences.harmonic_prefix_sequence(), density.multiples(3)),
        sequences.subsequence(sequences.unit_coordinate_sequence(), density.primes()),
        sequences.subsequence(
            sequences.random_unit_ball(spaces.dense_space(3), seed=5), density.multiples(2)),
    ]
    cases = [(m.label, m) for m in members]
    for op in _operators():
        for m in members:
            if m.space == _domain(op):
                cases.append((f"{op.describe()}({m.label})", operators.image_sequence(op, m)))
    return [(name, seq) for name, seq in cases if seq.structure is not None]


CASES = _cases()


def _per_index(seq):
    return dataclasses.replace(seq, structure=None, cache={})


def _assert_close(got, want, what):
    scale = max(1.0, float(np.max(np.abs(want)))) if len(want) else 1.0
    assert got.shape == want.shape, what
    assert np.allclose(got, want, rtol=RTOL, atol=RTOL * scale), what


def test_every_structure_kind_is_covered():
    kinds = {type(seq.structure).__name__ for _, seq in CASES}
    assert kinds == {"SingleSupport", "PrefixValues", "FixedBasisCombo", "DenseBlock",
                     "Reindexed", "Scaled"}


@pytest.mark.parametrize("name,seq", CASES, ids=[name for name, _ in CASES])
def test_structured_sweeps_match_per_index(name, seq):
    twin = _per_index(seq)
    _assert_close(sequences.norm_sweep(seq, H), sequences.norm_sweep(twin, H), "norms")
    candidate = stanalysis._median_candidate(seq, H)
    _assert_close(sequences.distance_sweep(seq, candidate, H),
                  sequences.distance_sweep(twin, candidate, H), "distances")
    for f in FUNCTIONALS:
        _assert_close(operators.functional_sweep(f, seq, H),
                      operators.functional_sweep(f, twin, H), f.describe())


REINDEXED = [(name, seq) for name, seq in CASES if isinstance(seq.structure, sequences.Reindexed)]


@pytest.mark.parametrize("name,seq", REINDEXED, ids=[name for name, _ in REINDEXED])
def test_reindexed_median_matches_per_index(name, seq):
    ns = np.unique(np.linspace(H // 2, H, 255).astype(np.int64))
    assert seq.structure.median(seq, ns) is not None
    got = stanalysis._median_candidate(seq, H)
    want = stanalysis._median_candidate(_per_index(seq), H)
    scale = max(1.0, spaces.norm(want, seq.norm))
    assert spaces.norm(spaces.sub(got, want), seq.norm) <= RTOL * scale


def test_subsequence_images_keep_a_structure():
    seq = sequences.parse_sequence("subseq(harmonic, multiples(3))")
    op = operators.parse_operator("combo(1,diag(inverse),-0.5,diag(identity))")
    image = operators.image_sequence(op, seq)
    assert isinstance(image.structure, sequences.Reindexed)


def test_dense_coordinate_outside_the_space_raises_on_both_paths():
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=5)
    f = operators.coordinate_functional(4)
    messages = []
    for s in (seq, _per_index(seq)):
        with pytest.raises(ValueError) as exc:
            operators.functional_sweep(f, s, 10)
        messages.append(str(exc.value))
    assert messages == ["coordinate 4 outside dense:3"] * 2
