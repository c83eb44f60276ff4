"""Differential matrix: structured evaluation against the per-index path.

Every corpus member, a few leaves the corpora miss, a few subsequences,
their images under the operators of the classify pools (compositions,
linear combinations and the prime transform included), and a prefix read
along a subsequence and under the prime transform in library compositions
are swept twice: once through their structure
and once through a per-index twin, whose structure is the base kind.  Norms,
distances to the windowed median candidate, functional sweeps and the
median candidate itself must agree to 1e-12 relative.
"""

import dataclasses

import numpy as np
import pytest

import oracles
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


# leaves the corpora miss: negative spikes, a sparse constant, a dense decay
# with a zero coordinate, and e_1 sequences in other dimensions; each is
# labelled by how it is spelled
_LEAVES = [dataclasses.replace(sequences.parse_sequence(text), label=text) for text in
           ("spike(squares,-2)", "spike(primes,-2,dim=3)", "constant(sparse{1:1,3:-0.5})",
            "index(dim=1)", "alternating(dim=2)")]
_LEAVES.insert(3, sequences.decaying_sequence(spaces.dense_element([-1.0, 0.0, 2.0]),
                                              exponent=0.5, label="null(dense[-1,0,2],0.5)"))


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
    members += _LEAVES
    cases = [(m.label, m) for m in members]
    for op in _operators():
        for m in members:
            if _accepts(op, m):
                cases.append((f"{op.describe()}({m.label})", operators.image_sequence(op, m)))
    cases += [(seq.label, seq) for seq in _folded_prefixes()]
    return [(name, seq) for name, seq in cases if type(seq.structure) is not sequences.Structure]


def _folded_prefixes():
    """Prefixes read along a subsequence and under the prime transform, in
    both orders and twice rescaled: library compositions the grammar cannot spell."""
    transform = operators.prime_position_transform()
    harmonic = sequences.harmonic_prefix_sequence()
    return [
        sequences.subsequence(operators.image_sequence(transform, harmonic), density.primes()),
        operators.image_sequence(
            transform, sequences.subsequence(harmonic, density.multiples(3))),
        operators.image_sequence(transform, operators.image_sequence(transform, harmonic)),
    ]


CASES = _cases()


def _per_index(seq):
    return dataclasses.replace(seq, structure=sequences.Structure(), cache={})


def _assert_close(got, want, what):
    scale = max(1.0, float(np.max(np.abs(want)))) if len(want) else 1.0
    assert got.shape == want.shape, what
    assert np.allclose(got, want, rtol=RTOL, atol=RTOL * scale), what


_KINDS = (sequences.SingleSupport, sequences.PrefixValues, sequences.FixedBasisCombo,
          sequences.DenseBlock)
_METHODS = ("sweep", "functionals", "median", "diagonal_image", "matrix_image", "rescaled",
            "combined", "reindexed")


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
    _assert_close(oracles.joined(sequences.sweep_chunks(seq, None, H)),
                  oracles.joined(sequences.sweep_chunks(twin, None, H)), "norms")
    candidate = stanalysis._median_candidate(seq, H)
    _assert_close(oracles.joined(sequences.sweep_chunks(seq, candidate, H)),
                  oracles.joined(sequences.sweep_chunks(twin, candidate, H)), "distances")
    for f in FUNCTIONALS:
        _assert_close(oracles.functional_values(f, seq, H),
                      oracles.functional_values(f, twin, H), f.describe())


@pytest.mark.parametrize("chunk", [sequences._CHUNK, 7])
@pytest.mark.parametrize("name,seq", CASES, ids=[name for name, _ in CASES])
def test_structured_median_matches_per_index(name, seq, chunk, monkeypatch):
    # every kind answers a median itself, but a rescaled prefix asks the per-index kind;
    # with chunks of 7 the samples span many chunks of the median's stream
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    per_index = set()
    monkeypatch.setattr(sequences.Structure, "median",
                        _noting(vars(sequences.Structure)["median"], "median", per_index))
    got = stanalysis._median_candidate(seq, H)
    assert bool(per_index) == (getattr(seq.structure, "scale_of", None) is not None)
    want = stanalysis._median_candidate(_per_index(seq), H)
    scale = max(1.0, spaces.norm(want))
    assert spaces.norm(spaces.sub(got, want)) <= RTOL * scale


def test_subsequence_images_keep_a_structure():
    seq = sequences.parse_sequence("subseq(harmonic, multiples(3))")
    op = operators.parse_operator("combo(1,diag(inverse),-0.5,diag(identity))")
    image = operators.image_sequence(op, seq)
    assert isinstance(image.structure, sequences.PrefixValues)
    assert image.structure.at is not None


@pytest.mark.parametrize("seq", _folded_prefixes(), ids=lambda seq: seq.label)
def test_folded_prefixes_stay_prefixes_with_the_bits_of_each_term(seq):
    # the matrix above sweeps them at its tolerance; their norms are the
    # per-index twin's bit for bit
    assert isinstance(seq.structure, sequences.PrefixValues)
    assert seq.label in dict(CASES)
    assert np.array_equal(oracles.joined(sequences.sweep_chunks(seq, None, 400)),
                          oracles.joined(sequences.sweep_chunks(_per_index(seq), None, 400)))


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
            oracles.functional_values(f, s, 10)
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
    return ([oracles.joined(sequences.sweep_chunks(seq, c, horizon)) for c in (None, candidate)]
            + [oracles.functional_values(f, seq, horizon) for f in FUNCTIONALS])


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
    asked = []
    unit = sequences.unit_coordinate_sequence()
    parent = dataclasses.replace(unit, structure=sequences.SingleSupport(
        _tallied(unit.structure.terms, asked)))
    seq = sequences.subsequence(parent, density.primes())
    h = 10_000   # the members reach p_10000 = 104729
    members = density.nth_primes(h)
    along = oracles.joined(sequences.sweep_chunks(unit, None, int(members[-1])))
    assert np.array_equal(oracles.joined(sequences.sweep_chunks(seq, None, h)), along[members - 1])
    assert sum(asked) == h
    candidate = spaces.sparse_element({2: 1.0, 7: -0.5})
    along = oracles.joined(sequences.sweep_chunks(unit, candidate, int(members[-1])))
    assert np.array_equal(oracles.joined(sequences.sweep_chunks(seq, candidate, h)), along[members - 1])
    assert sum(asked) == 2 * h


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
    # 43 chunks of 7 indices, yet each sweep walks harmonic's 300 terms once,
    # evaluating every functional of the operator on each span
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    tally = []
    harmonic = sequences.harmonic_prefix_sequence()
    parent = dataclasses.replace(
        harmonic, structure=sequences.PrefixValues(_tallied(harmonic.structure.value_of, tally)))
    image = operators.image_sequence(op, parent)
    candidate = stanalysis._median_candidate(image, H)
    for sweep in (lambda: oracles.joined(sequences.sweep_chunks(image, None, H)),
                  lambda: oracles.joined(sequences.sweep_chunks(image, candidate, H)),
                  lambda: oracles.functional_values(FUNCTIONALS[0], image, H)):
        tally.clear()
        sweep()
        assert sum(tally) == H


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
    parent = sequences.parse_sequence(text)
    seq = operators.image_sequence(operators.prime_position_transform(), parent)
    assert type(seq.structure) is type(parent.structure)
    candidate = stanalysis._median_candidate(seq, H)
    _answers(seq, candidate, H)
    _answers(seq, seq.generator(H), H)
    assert per_index == set()


@pytest.mark.parametrize("along", [density.primes(), density.multiples(3), density.squares()],
                         ids=lambda s: s.describe())
def test_subsequence_sweeps_ask_a_known_set_only_for_their_positions(along, monkeypatch):
    # with chunks of 7 a sweep asks the set for each position once (the
    # support index and the value come from one stream), asking for the
    # last position first, and the prime table is asked for no more primes
    # than the sweep reaches
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    positions, primes_asked = [], []
    nth_primes = density.nth_primes
    monkeypatch.setattr(density, "nth_primes", lambda count: primes_asked.append(count)
                        or nth_primes(count))
    seq = sequences.subsequence(sequences.unit_coordinate_sequence(),
                                dataclasses.replace(along, nth=_tallied(along.nth, positions)))
    candidate = spaces.sparse_element({4: 1.0})
    for sweep in (lambda: oracles.joined(sequences.sweep_chunks(seq, None, H)),
                  lambda: oracles.joined(sequences.sweep_chunks(seq, candidate, H)),
                  lambda: oracles.functional_values(FUNCTIONALS[2], seq, H)):
        positions.clear()
        sweep()
        assert H < sum(positions) <= H + 1
        assert positions[0] == 1
    assert bool(primes_asked) == (along.describe() == "primes")
    assert max(primes_asked, default=0) <= H


# a leaf of each layout the constructors build: rows of s(n) times a fixed
# element or of s(n) on e_1, (n, s(n)) on e_n, and the coefficients s(n) of
# a fixed sparse element; negative values and signed zeros included
_BUILT = ["constant(dense[1,-0,2])", "constant(sparse{1:1,3:-0.5})", "null(dense[-1,-0,2])",
          "null(sparse{2:1.5})", "unit_coords", "damped_unit_coords", "spike(squares,n)",
          "spike(primes,-2)", "random(sparse,seed=3)", "index(dim=1)", "index(dim=3)",
          "alternating(dim=2)", "spike(squares,-2,dim=3)", "spike(primes,n,dim=2)"]


@pytest.mark.parametrize("text", _BUILT)
def test_leaf_chunks_have_the_bits_of_the_generator(text, monkeypatch):
    # 13 indices, two chunks of 7
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    seq = sequences.parse_sequence(text)
    ns = np.array([1, 2, 3, 4, 5, 8, 9, 16, 17, 25, 49, 97, 100], dtype=np.int64)
    terms = [seq.generator(int(n)) for n in ns]
    kind, stream = seq.structure, sequences.Stream.of(ns)
    if isinstance(kind, sequences.DenseBlock):
        got = oracles.joined(kind.rows(stream))
        assert got.tobytes() == np.array([x.coords for x in terms]).tobytes()
        if text.startswith(("index", "alternating", "spike")):
            # s(n) on e_1 leaves +0.0 off the first coordinate, whatever its sign
            assert not np.signbit(got[:, 1:]).any()
    elif isinstance(kind, sequences.SingleSupport):
        idx, val = (np.concatenate(parts) for parts in zip(*kind.terms(stream)))
        assert np.array_equal(idx, ns)
        for n, v, x in zip(ns, val, terms):
            # a generator drops a zero term's entry, which the leaf holds as +0.0
            assert x.indices.tolist() == ([n] if v else [])
            assert np.float64(x.values[0] if v else 0.0).tobytes() == v.tobytes()
    else:
        assert isinstance(kind, sequences.FixedBasisCombo) and len(kind.basis) == 1
        coeffs = oracles.joined(kind.coeffs(stream))
        (b,) = kind.basis
        for c, x in zip(coeffs[:, 0], terms):
            assert np.array_equal(x.indices, b.indices)
            assert x.values.tobytes() == (c * b.values).tobytes()
