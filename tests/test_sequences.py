"""Sequence constructors and the vectorised sweep engine.

The load-bearing check here is structure-vs-generator consistency: every
closed-form sweep must agree, index by index, with brute-force norms of the
elements the generator actually produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stconv import density, sequences, spaces

HORIZON = 300


def brute_norms(seq, horizon):
    return np.array([spaces.norm(seq.generator(n), seq.norm) for n in range(1, horizon + 1)])


def brute_distances(seq, candidate, horizon):
    return np.array(
        [spaces.norm(spaces.sub(seq.generator(n), candidate), seq.norm) for n in range(1, horizon + 1)]
    )


def catalog():
    """One instance of every constructor, sparse and dense."""
    sparse, dense = spaces.sparse_space(), spaces.dense_space(3)
    return [
        sequences.zero_sequence(sparse),
        sequences.zero_sequence(dense),
        sequences.constant_sequence(spaces.dense_element((1.0, -2.0, 0.5))),
        sequences.constant_sequence(spaces.sparse_element({2: 0.5})),
        sequences.harmonic_prefix_sequence(),
        sequences.unit_coordinate_sequence(),
        sequences.prime_coordinate_sequence(),
        sequences.damped_unit_coordinate_sequence(),
        sequences.damped_prime_coordinate_sequence(),
        sequences.decaying_sequence(spaces.sparse_element({1: 1.0, 4: -2.0})),
        sequences.decaying_sequence(spaces.dense_element((1.0, 0.0, 3.0)), exponent=0.5),
        sequences.spike_sequence(sequences.zero_sequence(sparse), density.squares()),
        sequences.spike_sequence(
            sequences.decaying_sequence(spaces.dense_element((1.0, 1.0, 1.0))),
            density.primes(),
        ),
        sequences.index_sequence(),
        sequences.alternating_sequence(),
        sequences.random_unit_ball(sparse, seed=5),
        sequences.random_unit_ball(dense, seed=6),
        sequences.combine(
            sequences.harmonic_prefix_sequence(), sequences.unit_coordinate_sequence(), 1.0, -1.0
        ),
        sequences.subsequence(sequences.harmonic_prefix_sequence(), density.multiples(3)),
        sequences.subsequence(sequences.unit_coordinate_sequence(), density.primes()),
    ]


def candidates_for(seq):
    if seq.space.kind == "sparse":
        return [
            spaces.sparse_element({}),
            spaces.sparse_element({1: 1.0}),
            spaces.sparse_element({2: 0.5, 9: -0.25}),
            seq.generator(7),
        ]
    ones = spaces.dense_element((1.0,) * seq.space.dim)
    return [spaces.zero(seq.space), ones, seq.generator(7)]


# ---------------------------------------------------------------------------
# structure vs generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seq", catalog(), ids=lambda s: s.label)
def test_norm_sweep_matches_generator(seq):
    got = sequences.norm_sweep(seq, HORIZON)
    want = brute_norms(seq, HORIZON)
    assert got.shape == (HORIZON,)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seq", catalog(), ids=lambda s: s.label)
def test_distance_sweep_matches_generator(seq):
    for candidate in candidates_for(seq):
        got = sequences.distance_sweep(seq, candidate, HORIZON)
        want = brute_distances(seq, candidate, HORIZON)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), seq.label


def test_distance_to_own_term_is_zero():
    h = sequences.harmonic_prefix_sequence()
    d = sequences.distance_sweep(h, h.generator(10), 50)
    assert d[9] == 0.0
    assert d[8] == pytest.approx(0.1, abs=1e-15)
    assert d[10] == pytest.approx(1.0 / 11.0, abs=1e-15)


def test_element_block_matches_generator():
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=9)
    block = seq.structure.block_of(np.arange(1, 31))
    want = np.array([seq.generator(n).coords for n in range(1, 31)])
    assert np.allclose(block, want, atol=0.0)


# ---------------------------------------------------------------------------
# constructor semantics
# ---------------------------------------------------------------------------

def test_harmonic_terms():
    h = sequences.harmonic_prefix_sequence()
    x3 = h.generator(3)
    assert dict(x3.support) == {1: 1.0, 2: 0.5, 3: pytest.approx(1.0 / 3.0)}
    assert h.norm_bound == 1.0


def test_unit_and_prime_coordinates():
    u = sequences.unit_coordinate_sequence()
    assert dict(u.generator(4).support) == {4: 1.0}
    p = sequences.prime_coordinate_sequence()
    assert dict(p.generator(1).support) == {2: 1.0}
    assert dict(p.generator(4).support) == {7: 1.0}


def test_damped_sequences_decay():
    # damped coordinates shrink like 1/sqrt(n): norm-null but spread out
    d = sequences.damped_unit_coordinate_sequence()
    assert dict(d.generator(4).support) == {4: pytest.approx(0.5)}
    assert dict(d.generator(100).support) == {100: pytest.approx(0.1)}
    p = sequences.damped_prime_coordinate_sequence()
    (idx, val), = p.generator(4).support.items()
    assert density.is_prime(idx) and 0.0 < val < 1.0


def test_decaying_sequence_scales_value():
    base = spaces.sparse_element({2: 3.0})
    seq = sequences.decaying_sequence(base, exponent=1.0)
    assert dict(seq.generator(3).support) == {2: 1.0}


def test_spike_replaces_base_term():
    base = sequences.constant_sequence(spaces.dense_element((1.0, 1.0, 1.0)))
    spiked = sequences.spike_sequence(base, density.squares())
    # on a spike index the term is magnitude * e_1, elsewhere the base term
    assert spiked.generator(4).coords == (4.0, 0.0, 0.0)
    assert spiked.generator(5).coords == (1.0, 1.0, 1.0)

    sparse_base = sequences.zero_sequence(spaces.sparse_space())
    sp = sequences.spike_sequence(sparse_base, density.primes(), magnitude=lambda ns: 0 * ns + 2.0)
    assert dict(sp.generator(3).support) == {3: 2.0}
    assert dict(sp.generator(4).support) == {}


def test_index_and_alternating():
    ix = sequences.index_sequence()
    assert ix.generator(5).coords == (5.0,)
    alt = sequences.alternating_sequence()
    assert alt.generator(1).coords == (-1.0,)
    assert alt.generator(2).coords == (1.0,)


def test_combine_is_pointwise_linear():
    a = sequences.harmonic_prefix_sequence()
    b = sequences.unit_coordinate_sequence()
    c = sequences.combine(a, b, 2.0, -0.5)
    want = spaces.add(spaces.scale(2.0, a.generator(6)), spaces.scale(-0.5, b.generator(6)))
    assert c.generator(6) == want


def test_combine_rejects_space_mismatch():
    with pytest.raises(ValueError):
        sequences.combine(
            sequences.harmonic_prefix_sequence(),
            sequences.index_sequence(),
            1.0,
            1.0,
        )


def test_subsequence_follows_members():
    sub = sequences.subsequence(sequences.unit_coordinate_sequence(), density.primes())
    assert dict(sub.generator(1).support) == {2: 1.0}
    assert dict(sub.generator(4).support) == {7: 1.0}


def test_subsequence_of_finite_set_exhausts():
    sub = sequences.subsequence(sequences.unit_coordinate_sequence(), density.finite([3, 8]))
    assert dict(sub.generator(2).support) == {8: 1.0}
    with pytest.raises(sequences.HorizonExhausted):
        sub.generator(3)


def test_zero_sequence_norm_bound():
    z = sequences.zero_sequence(spaces.sparse_space())
    assert z.norm_bound == 0.0
    assert sequences.norm_sweep(z, 10).tolist() == [0.0] * 10


# ---------------------------------------------------------------------------
# randomness: seeded, prefix-stable, inside the ball
# ---------------------------------------------------------------------------

def test_random_ball_reproducible():
    a = sequences.random_unit_ball(spaces.dense_space(3), seed=42)
    b = sequences.random_unit_ball(spaces.dense_space(3), seed=42)
    for n in (1, 2, 17, 400):
        assert a.generator(n) == b.generator(n)
    c = sequences.random_unit_ball(spaces.dense_space(3), seed=43)
    assert any(a.generator(n) != c.generator(n) for n in range(1, 10))


def test_random_ball_prefix_stable():
    # asking for a long sweep first must not change early terms
    a = sequences.random_unit_ball(spaces.dense_space(2), seed=11)
    early = [a.generator(n) for n in (1, 2, 3)]
    sequences.norm_sweep(a, 2_000)
    assert [a.generator(n) for n in (1, 2, 3)] == early

    b = sequences.random_unit_ball(spaces.dense_space(2), seed=11)
    sequences.norm_sweep(b, 50)
    assert [b.generator(n) for n in (1, 2, 3)] == early


def test_random_ball_stays_in_ball():
    for space in (spaces.dense_space(4), spaces.sparse_space()):
        seq = sequences.random_unit_ball(space, seed=3)
        norms = sequences.norm_sweep(seq, 500)
        assert norms.max() <= 1.0 + 1e-12


def test_random_ball_labels_carry_seed():
    assert sequences.random_unit_ball(spaces.dense_space(3), seed=7).label == "random_ball_7"


@pytest.mark.parametrize("norm", [spaces.p_norm(1), spaces.p_norm(2), spaces.p_norm(3),
                                  spaces.sup_norm()], ids=lambda n: n.describe())
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_random_ball_rows_match_whole_table_normalisation(norm, dim):
    # reference: normalise every row of the table up to the largest index
    # asked for, then pick rows; the sequence normalises only the rows picked
    count, seed = 2500, 17
    table = sequences._random_table({}, seed, count, dim)
    if norm.kind == "sup":
        whole = table
    else:
        lens = np.sum(np.abs(table) ** norm.p, axis=1) ** (1.0 / norm.p)
        whole = table / np.maximum(lens, 1.0)[:, None]
    seq = sequences.random_unit_ball(spaces.dense_space(dim), seed, norm)
    ns = np.asarray([count, 1, 7, 7, 1024, 1025, 2, 1999])
    assert seq.structure.block_of(ns).tobytes() == whole[ns - 1].tobytes()
    for n in (1, 2, 1025, count):
        assert np.asarray(seq.generator(n).coords).tobytes() == whole[n - 1].tobytes()


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def test_norm_sweep_cached_and_extended():
    seq = sequences.harmonic_prefix_sequence()
    first = sequences.norm_sweep(seq, 100)
    second = sequences.norm_sweep(seq, 100)
    assert np.array_equal(first, second)
    longer = sequences.norm_sweep(seq, 200)
    assert np.array_equal(longer[:100], first)


def test_distance_cache_keyed_by_candidate():
    seq = sequences.harmonic_prefix_sequence()
    d0 = sequences.distance_sweep(seq, spaces.sparse_element({}), 100)
    d1 = sequences.distance_sweep(seq, spaces.sparse_element({1: 1.0}), 100)
    assert not np.array_equal(d0, d1)
    again = sequences.distance_sweep(seq, spaces.sparse_element({}), 100)
    assert np.array_equal(again, d0)


def test_distance_sweeps_are_not_cached():
    seq = sequences.unit_coordinate_sequence()
    sequences.distance_sweep(seq, spaces.sparse_element({2: 1.0}), 100)
    assert list(seq.cache) == []
    sequences.distance_sweep(seq, spaces.sparse_element({}), 100)
    assert list(seq.cache) == ["norms"]


@pytest.mark.parametrize(
    "result",
    [
        lambda: density.nth_primes(50),
        lambda: density.prime_mask(100),
        lambda: sequences.norm_sweep(sequences.harmonic_prefix_sequence(), 100),
        lambda: sequences.distance_sweep(
            sequences.unit_coordinate_sequence(), spaces.sparse_element({2: 1.0}), 100
        ),
    ],
    ids=["nth_primes", "prime_mask", "norm_sweep", "distance_sweep"],
)
def test_shared_cached_arrays_are_read_only(result):
    with pytest.raises(ValueError):
        result()[:] = 99


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------

def test_parse_sequence_basic_forms():
    cases = {
        "harmonic": "harmonic_prefix",
        "unit_coords": "unit_coords",
        "prime_coords": "prime_coords",
        "spike(squares, n)": "spike(squares,n)",
        "subseq(unit_coords, multiples(2))": None,
        "combine(harmonic, unit_coords, 1, -1)": None,
        "random(dim=3, seed=7)": "random_ball_7",
        "random(seed=9)": "random_ball_9",
        "alternating()": "alternating_e1",
        "index()": "index_e1",
    }
    for text, label in cases.items():
        seq = sequences.parse_sequence(text)
        if label is not None:
            assert seq.label == label, text


def test_parse_sequence_spike_example():
    seq = sequences.parse_sequence("spike(squares, n)")
    assert dict(seq.generator(9).support) == {9: 9.0}
    assert dict(seq.generator(10).support) == {}


def test_parse_sequence_combine_example():
    seq = sequences.parse_sequence("combine(harmonic, unit_coords, 1, -1)")
    want = spaces.sub(
        sequences.harmonic_prefix_sequence().generator(5),
        sequences.unit_coordinate_sequence().generator(5),
    )
    assert seq.generator(5) == want


def test_parse_sequence_subseq_example():
    seq = sequences.parse_sequence("subseq(harmonic, multiples(2))")
    assert seq.generator(3) == sequences.harmonic_prefix_sequence().generator(6)


def test_parse_sequence_constant_and_null():
    c = sequences.parse_sequence("constant(dense[1,1,1])")
    assert c.generator(12).coords == (1.0, 1.0, 1.0)
    n = sequences.parse_sequence("null(sparse{1:1})")
    assert dict(n.generator(2).support) == {1: 0.5}


def test_parse_sequence_errors():
    with pytest.raises(sequences.ParseError if hasattr(sequences, "ParseError") else Exception):
        sequences.parse_sequence("harmonic(")
    with pytest.raises(Exception):
        sequences.parse_sequence("nosuch")


def test_parsed_random_uses_default_seed():
    assert sequences.parse_sequence("random(dim=2)", default_seed=31).label == "random_ball_31"


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=2_000))
@settings(max_examples=40, deadline=None)
def test_harmonic_norm_is_always_one(n):
    h = sequences.harmonic_prefix_sequence()
    assert spaces.norm(h.generator(n), h.norm) == 1.0


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
@settings(max_examples=30, deadline=None)
def test_harmonic_distance_formula(m, n):
    # distance between prefix sums m < n is 1/(m+1); equal indices give 0
    h = sequences.harmonic_prefix_sequence()
    d = spaces.norm(spaces.sub(h.generator(m), h.generator(n)), h.norm)
    if m == n:
        assert d == 0.0
    else:
        assert d == pytest.approx(1.0 / (min(m, n) + 1), abs=1e-15)
