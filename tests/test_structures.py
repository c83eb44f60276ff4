"""Differential matrix: structured evaluation against the per-index path.

Every corpus member, a few subsequences, and their images under the
operators of the classify pools (compositions, linear combinations and the
prime transform included) are swept twice: once through their structure
and once through a per-index twin, whose structure is the base kind.  Norms,
distances to the windowed median candidate, functional sweeps and the
median candidate itself must agree to 1e-12 relative.
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


# the operators of the classify pools, one per description
_POOL = {op.describe(): op for op in
         _norm_bounded_operator_pool() + _iff_operator_pool() + _compact_consistent_pool()}


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
        # two pieces on one basis element: the image's basis supports overlap
        operators.finite_rank([(operators.coordinate_functional(1), e1),
                               (operators.coordinate_functional(2), e1)],
                              domain=spaces.dense_space(3)),
        operators.prime_position_transform(),
    ]
    return list({**_POOL, **{op.describe(): op for op in extra}}.values())


def _accepts(op, seq):
    # the prime transform rescales sequences of every space
    return isinstance(op, operators.SequenceTransform) or seq.space == op.domain


def _cases():
    members = list(sparse_corpus().members)
    for corpus in (dense_corpus(2), dense_corpus(3), cauchy_corpus()):
        members += corpus.members
    members += [
        sequences.subsequence(sequences.harmonic_prefix_sequence(), density.multiples(3)),
        sequences.subsequence(sequences.unit_coordinate_sequence(), density.primes()),
        sequences.subsequence(
            sequences.random_unit_ball(spaces.dense_space(3), seed=5), density.multiples(2)),
        sequences.parse_sequence("subseq(null(sparse{1:1}), squares)"),
    ]
    cases = [(m.label, m) for m in members]
    for op in _operators():
        for m in members:
            if _accepts(op, m):
                cases.append((f"{op.describe()}({m.label})", operators.image_sequence(op, m)))
    return [(name, seq) for name, seq in cases if type(seq.structure) is not sequences.Structure]


CASES = _cases()


def _per_index(seq):
    return dataclasses.replace(seq, structure=sequences.Structure(), cache={})


def _assert_close(got, want, what):
    scale = max(1.0, float(np.max(np.abs(want)))) if len(want) else 1.0
    assert got.shape == want.shape, what
    assert np.allclose(got, want, rtol=RTOL, atol=RTOL * scale), what


_KINDS = (sequences.SingleSupport, sequences.PrefixValues, sequences.FixedBasisCombo,
          sequences.DenseBlock, sequences.Reindexed, sequences.Scaled)
_METHODS = ("sweep", "functional", "median", "diagonal_image", "matrix_image", "rescaled",
            "combined", "lifted", "reindexed")


def _noting(method, key, reached):
    def noted(*args, **kwargs):
        reached.add(key)
        return method(*args, **kwargs)

    return noted


def test_every_structure_kind_is_covered(monkeypatch):
    assert {type(seq.structure) for _, seq in CASES} == set(_KINDS)
    # every override of a protocol method is called while the cases are
    # built (the image methods) or swept once (the rest)
    overrides = [(kind, name) for kind in _KINDS for name in _METHODS if name in vars(kind)]
    reached = set()
    for kind, name in overrides:
        monkeypatch.setattr(kind, name, _noting(vars(kind)[name], (kind, name), reached))
    # build the corpora afresh, so that the calls of their constructors count
    for corpus in (sparse_corpus, dense_corpus, cauchy_corpus):
        monkeypatch.setitem(globals(), corpus.__name__, corpus.__wrapped__)
    for _, seq in _cases():
        _answers(seq, stanalysis._median_candidate(seq, 20), 20)
    assert [f"{kind.__name__}.{name}" for kind, name in overrides
            if (kind, name) not in reached] == []


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


@pytest.mark.parametrize("name,seq", CASES, ids=[name for name, _ in CASES])
def test_structured_median_matches_per_index(name, seq):
    # every kind but Scaled answers a median itself
    answered = type(seq.structure).median is not sequences.Structure.median
    assert answered != isinstance(seq.structure, sequences.Scaled)
    got = stanalysis._median_candidate(seq, H)
    want = stanalysis._median_candidate(_per_index(seq), H)
    scale = max(1.0, spaces.norm(want))
    assert spaces.norm(spaces.sub(got, want)) <= RTOL * scale


def test_subsequence_images_keep_a_structure():
    seq = sequences.parse_sequence("subseq(harmonic, multiples(3))")
    op = operators.parse_operator("combo(1,diag(inverse),-0.5,diag(identity))")
    image = operators.image_sequence(op, seq)
    assert isinstance(image.structure, sequences.Reindexed)


@pytest.mark.parametrize("op", list(_POOL.values()), ids=list(_POOL))
def test_images_of_a_per_index_sequence_run_per_index(op):
    seq = (sequences.random_unit_ball(op.domain, seed=5) if op.domain.kind == "dense"
           else sequences.harmonic_prefix_sequence())
    image = operators.image_sequence(op, _per_index(seq))
    assert type(image.structure) is sequences.Structure


def test_dense_coordinate_outside_the_space_raises_on_both_paths():
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=5)
    f = operators.coordinate_functional(4)
    messages = []
    for s in (seq, _per_index(seq)):
        with pytest.raises(ValueError) as exc:
            operators.functional_sweep(f, s, 10)
        messages.append(str(exc.value))
    assert messages == ["coordinate 4 outside dense:3"] * 2


_DIAGONALS = [("identity", None), ("inverse", None), ("one_plus_inverse", None),
              ("index", None), ("prime_scale", None), ("inverse_trunc", 5)]
_PREFIX_CASES = [("harmonic", sequences.harmonic_prefix_sequence())] + [
    (f"diag({name})(harmonic)",
     operators.image_sequence(operators.named_diagonal(name, arg),
                              sequences.harmonic_prefix_sequence()))
    for name, arg in _DIAGONALS
]


@pytest.mark.parametrize("horizon", [300, 301, 302])
@pytest.mark.parametrize("name,seq", _PREFIX_CASES, ids=[name for name, _ in _PREFIX_CASES])
def test_prefix_median_matches_per_index(name, seq, horizon):
    # 300 gives an odd sample window, 301 and 302 an even one
    assert isinstance(seq.structure, sequences.PrefixValues)
    got = stanalysis._median_candidate(seq, horizon)
    want = stanalysis._median_candidate(_per_index(seq), horizon)
    assert list(got.support.items()) == list(want.support.items())


def _answers(seq, candidate, horizon):
    return ([sequences.norm_sweep(seq, horizon), sequences.distance_sweep(seq, candidate, horizon)]
            + [operators.functional_sweep(f, seq, horizon) for f in FUNCTIONALS])


@pytest.mark.parametrize("name,seq", CASES, ids=[name for name, _ in CASES])
def test_answers_do_not_depend_on_the_chunk_size(name, seq, monkeypatch):
    # H = 300 is one chunk by default and 43 chunks of 7: every carry across a
    # chunk boundary must give the bits of the single pass
    candidate = stanalysis._median_candidate(seq, H)
    whole = _answers(seq, candidate, H)
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    assert stanalysis._median_candidate(seq, H) == candidate
    for got, want in zip(_answers(seq, candidate, H), whole):
        assert np.array_equal(got, want)


def _tallied(fn, tally):
    def counted(ns):
        tally.append(len(ns))
        return fn(ns)

    return counted


def test_subsequence_sweeps_evaluate_the_parent_only_at_members():
    asked = {"index_of": [], "value_of": []}
    unit = sequences.unit_coordinate_sequence()
    parent = dataclasses.replace(unit, structure=sequences.SingleSupport(
        _tallied(unit.structure.index_of, asked["index_of"]),
        _tallied(unit.structure.value_of, asked["value_of"])))
    seq = sequences.subsequence(parent, density.primes())
    h = 10_000   # the members reach p_10000 = 104729
    members = density.nth_primes(h)
    assert np.array_equal(sequences.norm_sweep(seq, h),
                          sequences.norm_sweep(unit, int(members[-1]))[members - 1])
    assert (sum(asked["index_of"]), sum(asked["value_of"])) == (0, h)
    candidate = spaces.sparse_element({2: 1.0, 7: -0.5})
    assert np.array_equal(sequences.distance_sweep(seq, candidate, h),
                          sequences.distance_sweep(unit, candidate, int(members[-1]))[members - 1])
    assert (sum(asked["index_of"]), sum(asked["value_of"])) == (h, 2 * h)


_RANK_ONE_IMAGES = {
    "sparse": operators.rank_one(operators.coordinate_functional(3),
                                 spaces.sparse_element({1: 1.0, 4: -2.0})),
    "dense": operators.rank_one(operators.geometric_weights_functional(),
                                spaces.dense_element([1.0, -1.0, 0.5])),
    "finite_rank": operators.finite_rank(
        [(operators.coordinate_functional(1), spaces.dense_element([1.0, 0.0])),
         (operators.linear_growth_functional(), spaces.dense_element([0.0, 2.0]))]),
}


@pytest.mark.parametrize("op", list(_RANK_ONE_IMAGES.values()), ids=list(_RANK_ONE_IMAGES))
def test_rank_one_images_walk_a_prefix_parent_once_per_sweep(op, monkeypatch):
    # 43 chunks of 7 indices, yet each sweep walks harmonic's 300 terms once
    # per functional of the operator
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    tally = []
    harmonic = sequences.harmonic_prefix_sequence()
    parent = dataclasses.replace(
        harmonic, structure=sequences.PrefixValues(_tallied(harmonic.structure.value_of, tally)))
    image = operators.image_sequence(op, parent)
    walk = H * len(op.pieces)
    candidate = stanalysis._median_candidate(image, H)
    for sweep in (lambda: sequences.norm_sweep(image, H),
                  lambda: sequences.distance_sweep(image, candidate, H),
                  lambda: operators.functional_sweep(FUNCTIONALS[0], image, H)):
        tally.clear()
        sweep()
        assert sum(tally) == walk


_PRIME_PAIRS = [("prime_coords", "subseq(unit_coords, primes)"),
                ("damped_prime_coords", "subseq(damped_unit_coords, primes)")]
_PRIME_OPERATORS = {"plain": None, "transform": operators.prime_position_transform(),
                    "diag": operators.named_diagonal("prime_scale")}


@pytest.mark.parametrize("chunk", [sequences._CHUNK, 7])
@pytest.mark.parametrize("op", list(_PRIME_OPERATORS.values()), ids=list(_PRIME_OPERATORS))
@pytest.mark.parametrize("named,spelled", _PRIME_PAIRS, ids=[named for named, _ in _PRIME_PAIRS])
def test_prime_coordinates_are_the_subsequence_along_the_primes(named, spelled, op, chunk,
                                                                monkeypatch):
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    pair = [sequences.parse_sequence(text) for text in (named, spelled)]
    if op is not None:
        pair = [operators.image_sequence(op, seq) for seq in pair]
    seq, sub = pair
    median = stanalysis._median_candidate(seq, H)
    assert stanalysis._median_candidate(sub, H) == median
    for candidate in (median, spaces.sparse_element({2: 1.0, 7: -0.5, 13: 0.25})):
        for got, want in zip(_answers(sub, candidate, H), _answers(seq, candidate, H)):
            assert np.array_equal(got, want)


_POINTWISE_SUBSEQUENCES = ["prime_coords", "damped_prime_coords",
                           "subseq(unit_coords, primes)", "subseq(damped_unit_coords, primes)",
                           "subseq(random(sparse,seed=3), multiples(3))",
                           "subseq(null(sparse{1:1}), squares)",
                           "subseq(random(dim=3,seed=5), multiples(2))"]


@pytest.mark.parametrize("text", _POINTWISE_SUBSEQUENCES)
def test_transformed_subsequences_of_pointwise_parents_stay_structured(text, monkeypatch):
    per_index = set()
    for name in ("sweep", "median"):
        method = vars(sequences.Structure)[name]
        monkeypatch.setattr(sequences.Structure, name, _noting(method, name, per_index))
    seq = operators.image_sequence(operators.prime_position_transform(),
                                   sequences.parse_sequence(text))
    assert type(seq.structure) is not sequences.Scaled
    candidate = stanalysis._median_candidate(seq, H)
    _answers(seq, candidate, H)
    _answers(seq, seq.generator(H), H)
    assert per_index == set()


@pytest.mark.parametrize("along", [density.primes(), density.multiples(3), density.squares()],
                         ids=lambda s: s.describe())
def test_subsequence_sweeps_ask_a_known_set_only_for_their_positions(along, monkeypatch):
    # with chunks of 7 a sweep asks the set for each position at most twice
    # (for the support index and for the value), and the prime table is
    # asked for no more primes than the sweep reaches
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    positions, primes_asked = [], []
    nth_primes = density.nth_primes
    monkeypatch.setattr(density, "nth_primes", lambda count: primes_asked.append(count)
                        or nth_primes(count))
    monkeypatch.setattr(density, "members", None)   # no member table is built
    seq = sequences.subsequence(sequences.unit_coordinate_sequence(),
                                dataclasses.replace(along, nth=_tallied(along.nth, positions)))
    candidate = spaces.sparse_element({4: 1.0})
    for sweep in (lambda: sequences.norm_sweep(seq, H),
                  lambda: sequences.distance_sweep(seq, candidate, H),
                  lambda: operators.functional_sweep(FUNCTIONALS[2], seq, H)):
        positions.clear()
        sweep()
        assert H <= sum(positions) <= 2 * H
    assert bool(primes_asked) == (along.describe() == "primes")
    assert max(primes_asked, default=0) <= H
