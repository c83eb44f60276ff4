"""Sequence constructors and the vectorised sweep engine.

The load-bearing check here is structure-vs-generator consistency: every
closed-form sweep must agree, index by index, with brute-force norms of the
elements the generator actually produces.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stconv import density, sequences, spaces

HORIZON = 300


def brute_norms(seq, horizon):
    return np.array([spaces.norm(seq.generator(n)) for n in range(1, horizon + 1)])


def brute_distances(seq, candidate, horizon):
    return np.array(
        [spaces.norm(spaces.sub(seq.generator(n), candidate)) for n in range(1, horizon + 1)]
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
        sequences.spike_sequence(sparse, density.squares()),
        sequences.spike_sequence(dense, density.primes()),
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
            spaces.sparse_element({3: 0.75, 20: -2.0, HORIZON + 5: 1.5}),
            seq.generator(7),
        ]
    ones = spaces.dense_element((1.0,) * seq.space.dim)
    return [spaces.zero(seq.space), ones, seq.generator(7)]


# ---------------------------------------------------------------------------
# structure vs generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seq", catalog(), ids=lambda s: s.label)
def test_norm_sweep_matches_generator(seq):
    got = oracles.joined(sequences.sweep_chunks(seq, None, HORIZON))
    want = brute_norms(seq, HORIZON)
    assert got.shape == (HORIZON,)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("chunk", [None, 7], ids=["one_chunk", "chunks_of_7"])
@pytest.mark.parametrize("seq", catalog(), ids=lambda s: s.label)
def test_distance_sweep_matches_generator(seq, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(sequences, "_CHUNK", chunk)
    for candidate in candidates_for(seq):
        got = oracles.joined(sequences.sweep_chunks(seq, candidate, HORIZON))
        want = brute_distances(seq, candidate, HORIZON)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), seq.label


def test_distance_to_own_term_is_zero():
    h = sequences.harmonic_prefix_sequence()
    d = oracles.joined(sequences.sweep_chunks(h, h.generator(10), 50))
    assert d[9] == 0.0
    assert d[8] == pytest.approx(0.1, abs=1e-15)
    assert d[10] == pytest.approx(1.0 / 11.0, abs=1e-15)


def test_element_block_matches_generator():
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=9)
    block = oracles.joined(seq.structure.rows(sequences.Stream.of(np.arange(1, 31))))
    want = np.array([seq.generator(n).coords for n in range(1, 31)])
    assert np.allclose(block, want, atol=0.0)


# ---------------------------------------------------------------------------
# constructor semantics
# ---------------------------------------------------------------------------

def test_harmonic_terms():
    h = sequences.harmonic_prefix_sequence()
    x3 = h.generator(3)
    assert oracles.support(x3) == {1: 1.0, 2: 0.5, 3: pytest.approx(1.0 / 3.0)}
    assert h.norm_bound == 1.0


def test_unit_and_prime_coordinates():
    u = sequences.unit_coordinate_sequence()
    assert oracles.support(u.generator(4)) == {4: 1.0}
    p = sequences.prime_coordinate_sequence()
    assert oracles.support(p.generator(1)) == {2: 1.0}
    assert oracles.support(p.generator(4)) == {7: 1.0}


def test_damped_sequences_decay():
    # damped coordinates shrink like 1/sqrt(n): norm-null but spread out
    d = sequences.damped_unit_coordinate_sequence()
    assert oracles.support(d.generator(4)) == {4: pytest.approx(0.5)}
    assert oracles.support(d.generator(100)) == {100: pytest.approx(0.1)}
    p = sequences.damped_prime_coordinate_sequence()
    (idx, val), = oracles.support(p.generator(4)).items()
    assert density.primes().contains(idx) and 0.0 < val < 1.0


def test_decaying_sequence_scales_value():
    base = spaces.sparse_element({2: 3.0})
    seq = sequences.decaying_sequence(base, exponent=1.0)
    assert oracles.support(seq.generator(3)) == {2: 1.0}


def test_spikes_sit_on_zero():
    spiked = sequences.spike_sequence(spaces.dense_space(3), density.squares())
    # on a spike index the term is magnitude * e_1, elsewhere zero
    assert spiked.generator(4).coords == (4.0, 0.0, 0.0)
    assert spiked.generator(5).coords == (0.0, 0.0, 0.0)

    sp = sequences.spike_sequence(spaces.sparse_space(), density.primes(), magnitude=2.0)
    assert oracles.support(sp.generator(3)) == {3: 2.0}
    assert oracles.support(sp.generator(4)) == {}


@pytest.mark.parametrize("text, label", [
    ("spike(squares, n)", "spike(squares,n)"),
    ("spike(squares,-2)", "spike(squares,-2)"),
    ("spike(primes, 1.5, dim=3)", "spike(primes,1.5)"),
    ("spike(multiples(3), 2.0)", "spike(multiples(3),2)"),
])
def test_a_spike_label_names_its_magnitude(text, label):
    seq = sequences.parse_sequence(text)
    assert seq.label == label
    assert sequences.subsequence(seq, density.squares()).label == f"subseq({label},squares)"


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
    assert oracles.support(sub.generator(1)) == {2: 1.0}
    assert oracles.support(sub.generator(4)) == {7: 1.0}


def test_subsequence_of_finite_set_exhausts():
    sub = sequences.subsequence(sequences.unit_coordinate_sequence(), density.finite([3, 8]))
    assert oracles.support(sub.generator(2)) == {8: 1.0}
    with pytest.raises(sequences.HorizonExhausted):
        sub.generator(3)


def _segments_read(s, seen):
    """``s`` with every segment its mask is asked for noted in ``seen``."""
    def mask(lo, hi):
        seen.append((lo, hi))
        return s.mask(lo, hi)

    return dataclasses.replace(s, mask=mask)


def test_subsequence_terms_regrow_members_geometrically(monkeypatch):
    # term-by-term reading scans each segment once, from the last one read
    # on, and no further than the segment holding the last member asked for:
    # with the default segment that is within the O(log n) bound
    ks = np.arange(1, 20_000)
    nonsquares = ks[np.sqrt(ks).astype(np.int64) ** 2 != ks][:5000]
    for segment in (density._SEGMENT, 7):
        monkeypatch.setattr(density, "_SEGMENT", segment)
        seen = []
        along = density.complement(_segments_read(density.squares(), seen))
        sub = sequences.subsequence(sequences.unit_coordinate_sequence(), along)
        terms = [sub.generator(k) for k in range(1, 5001)]
        assert [oracles.support(x) for x in terms] == [{int(m): 1.0} for m in nonsquares]
        assert [lo for lo, _ in seen] == list(range(1, int(nonsquares[-1]) + 1, segment))
        assert seen[-1][1] - segment < nonsquares[-1] <= seen[-1][1]
        assert segment == 7 or len(seen) <= 2 * np.log2(5000)
    # a scanned finite set yields its members, and one that knows its
    # members by position runs out only past its last
    scanned = sequences.subsequence(
        sequences.unit_coordinate_sequence(),
        density.intersection(density.finite(range(1, 101)), density.multiples(1)))
    assert [oracles.support(scanned.generator(k)) for k in (1, 65)] == [{1: 1.0}, {65: 1.0}]
    hundred = sequences.subsequence(sequences.unit_coordinate_sequence(),
                                    density.finite(range(1, 101)))
    assert oracles.support(hundred.generator(100)) == {100: 1.0}
    with pytest.raises(sequences.HorizonExhausted):
        hundred.generator(101)


def test_scanned_finite_set_reaches_the_cap_once(monkeypatch):
    # the first term reads only the segment holding the third (last) member;
    # asking past it scans on to the cap once, and again refuses unscanned
    monkeypatch.setattr(density, "_SEGMENT", 7)
    monkeypatch.setattr(density, "_MEMBER_CAP", 700)
    seen = []
    along = density.union(_segments_read(density.finite([1, 2]), seen), density.finite([3]))
    assert along.describe() == "union(finite(1,2),finite(3))"
    sub = sequences.subsequence(sequences.unit_coordinate_sequence(), along)
    assert oracles.support(sub.generator(1)) == {1: 1.0}
    assert [oracles.support(sub.generator(k)) for k in (2, 3)] == [{2: 1.0}, {3: 1.0}]
    assert seen == [(1, 7)]
    for _ in range(2):
        with pytest.raises(sequences.HorizonExhausted, match="scanned past cap 700 with only 3"):
            sub.generator(4)
        assert seen == [(lo, min(lo + 6, 700)) for lo in range(1, 701, 7)]
    assert oracles.support(sub.generator(3)) == {3: 1.0}


def test_zero_sequence_norm_bound():
    z = sequences.zero_sequence(spaces.sparse_space())
    assert z.norm_bound == 0.0
    assert oracles.joined(sequences.sweep_chunks(z, None, 10)).tolist() == [0.0] * 10


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
    oracles.joined(sequences.sweep_chunks(a, None, 2_000))
    assert [a.generator(n) for n in (1, 2, 3)] == early

    b = sequences.random_unit_ball(spaces.dense_space(2), seed=11)
    oracles.joined(sequences.sweep_chunks(b, None, 50))
    assert [b.generator(n) for n in (1, 2, 3)] == early


def test_random_ball_stays_in_ball():
    for space in (spaces.dense_space(4), spaces.sparse_space()):
        seq = sequences.random_unit_ball(space, seed=3)
        norms = oracles.joined(sequences.sweep_chunks(seq, None, 500))
        assert norms.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("space", [*(spaces.dense_space(d) for d in range(1, 13)), spaces.sparse_space()],
                         ids=lambda sp: sp.describe())
def test_random_ball_terms_lie_in_their_space_unit_ball(space):
    # widths 1-12 cover both row-norm orders of the Euclidean kernel
    seq = sequences.random_unit_ball(space, seed=29)
    norms = oracles.joined(sequences.sweep_chunks(seq, None, 2000))
    assert norms.max() <= 1.0 + 1e-12
    assert np.allclose(norms[:60], brute_norms(seq, 60), rtol=1e-14, atol=0.0)


def test_random_ball_labels_carry_seed():
    assert sequences.random_unit_ball(spaces.dense_space(3), seed=7).label == "random_ball_7"


def test_random_ball_refuses_a_fractional_seed():
    with pytest.raises(ValueError, match="whole number"):
        sequences.random_unit_ball(spaces.dense_space(3), 7.5)
    assert sequences.random_unit_ball(spaces.dense_space(3), 7.0).label == "random_ball_7"


@pytest.mark.parametrize("space", [spaces.dense_space(3), spaces.sparse_space()])
def test_random_ball_refuses_a_negative_seed(space):
    with pytest.raises(ValueError, match="^a random seed must be non-negative, got -1$"):
        sequences.random_unit_ball(space, -1)


def test_index_sequence_refuses_a_fractional_dimension():
    with pytest.raises(ValueError, match="whole number"):
        sequences.index_sequence(2.5)
    assert sequences.index_sequence(5.0).space == spaces.dense_space(5)


def _one_draw(seed, count, width):
    # reference: the whole table from one draw, every row normalised
    table = np.random.default_rng(seed).random((count, width)) * 2.0 - 1.0
    table /= np.maximum(np.sum(np.abs(table) ** 2.0, axis=1) ** 0.5, 1.0)[:, None]
    return table


@pytest.mark.parametrize("space", [spaces.dense_space(1), spaces.dense_space(3),
                                   spaces.dense_space(8), spaces.sparse_space()],
                         ids=lambda sp: sp.describe())
def test_random_ball_rows_match_whole_table_normalisation(space):
    # the whole table up to the largest index asked for, then picked rows (a
    # sparse term is one value in [-1, 1], which normalising leaves alone)
    count, seed = 2500, 17
    whole = _one_draw(seed, count, space.dim or 1)
    seq = sequences.random_unit_ball(space, seed)
    ns = np.asarray([count, 1, 7, 7, 1024, 1025, 2, 1999])
    if space.kind == "dense":
        rows = oracles.joined(seq.structure.rows(sequences.Stream.of(ns)))
        assert rows.tobytes() == whole[ns - 1].tobytes()
        terms = {n: np.asarray(seq.generator(n).coords) for n in (1, 2, 1025, count)}
    else:
        values = sequences._joined(v for _, v in seq.structure.terms(sequences.Stream.of(ns)))
        assert values.tobytes() == whole[ns - 1, 0].tobytes()
        terms = {n: np.asarray([oracles.support(seq.generator(n))[n]]) for n in (1, 2, 1025, count)}
    for n, term in terms.items():
        assert term.tobytes() == whole[n - 1].tobytes()


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_random_rows_drawn_in_chunks_match_one_draw(dim, monkeypatch):
    # sweeps in chunks of 7 rows, and index sets whose gaps are longer than
    # a chunk, so the stream is advanced across rows nobody asked for
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    count, seed = 5000, 17
    table = _one_draw(seed, count, dim)
    seq = sequences.random_unit_ball(spaces.dense_space(dim), seed)

    def rows(ns):
        return oracles.joined(seq.structure.rows(sequences.Stream.of(ns)))

    assert rows(np.arange(1, count + 1)).tobytes() == table.tobytes()
    norms = oracles.joined(sequences.sweep_chunks(seq, None, count))
    assert norms.tobytes() == sequences._block_norms(table).tobytes()
    for picked in ([3, 4, 20, 21, 22, 100, 1000, count], np.arange(50, 90, 3),
                   [count, 9, 9, 1, 30]):
        picked = np.asarray(picked)
        assert rows(picked).tobytes() == table[picked - 1].tobytes()
    sub = sequences.subsequence(seq, density.multiples(10))
    want = sequences._block_norms(table[9::10])
    norms = oracles.joined(sequences.sweep_chunks(sub, None, count // 10))
    assert norms.tobytes() == want.tobytes()


def test_one_wide_random_rows_are_the_raw_draw():
    # a one-wide row u in [-1, 1] has Euclidean norm at most 1, so it is divided by exactly 1.0
    count, seed = 5000, 17
    want = np.random.default_rng(seed).random(count) * 2.0 - 1.0
    got = sequences._random_rows(seed, 1, np.arange(1, count + 1))[:, 0]
    assert got.tobytes() == want.tobytes()
    seq = sequences.random_unit_ball(spaces.sparse_space(), seed)
    values = sequences._joined(v for _, v in seq.structure.terms(sequences.Stream(count)))
    assert values.tobytes() == want.tobytes()


def test_random_sweep_draws_only_its_rows(monkeypatch):
    # each chunk of a sweep to 10^4 draws its own rows and no others
    monkeypatch.setattr(sequences, "_CHUNK", 100)
    drawn = []
    real = np.random.Generator

    class Counting:
        def __init__(self, bitgen):
            self.rng = real(bitgen)

        def random(self, size):
            drawn.append(size[0])
            return self.rng.random(size)

    monkeypatch.setattr(sequences.np.random, "Generator", Counting)
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=4)
    oracles.joined(sequences.sweep_chunks(seq, None, 10_000))
    assert sum(drawn) == 10_000


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def test_norm_sweep_uncached_and_extended():
    seq = sequences.harmonic_prefix_sequence()
    first = oracles.joined(sequences.sweep_chunks(seq, None, 100))
    second = oracles.joined(sequences.sweep_chunks(seq, None, 100))
    assert np.array_equal(first, second)
    longer = oracles.joined(sequences.sweep_chunks(seq, None, 200))
    assert np.array_equal(longer[:100], first)
    assert list(seq.cache) == []


def test_distance_cache_keyed_by_candidate():
    seq = sequences.harmonic_prefix_sequence()
    d0 = oracles.joined(sequences.sweep_chunks(seq, spaces.sparse_element({}), 100))
    d1 = oracles.joined(sequences.sweep_chunks(seq, spaces.sparse_element({1: 1.0}), 100))
    assert not np.array_equal(d0, d1)
    again = oracles.joined(sequences.sweep_chunks(seq, spaces.sparse_element({}), 100))
    assert np.array_equal(again, d0)


def test_distance_sweeps_are_not_cached():
    seq = sequences.unit_coordinate_sequence()
    oracles.joined(sequences.sweep_chunks(seq, spaces.sparse_element({2: 1.0}), 100))
    assert list(seq.cache) == []
    oracles.joined(sequences.sweep_chunks(seq, spaces.sparse_element({}), 100))
    assert list(seq.cache) == []


@pytest.mark.parametrize(
    "result",
    [
        lambda: density.nth_primes(50),
        lambda: density._primes_through(100),
        lambda: sequences.harmonic_prefix_sequence().generator(100).indices,
        lambda: sequences.harmonic_prefix_sequence().generator(100).values,
    ],
    ids=["nth_primes", "prime_table", "sparse_indices", "sparse_values"],
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
    assert oracles.support(seq.generator(9)) == {9: 9.0}
    assert oracles.support(seq.generator(10)) == {}


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
    assert oracles.support(n.generator(2)) == {1: 0.5}


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
    assert spaces.norm(h.generator(n)) == 1.0


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
@settings(max_examples=30, deadline=None)
def test_harmonic_distance_formula(m, n):
    # distance between prefix sums m < n is 1/(m+1); equal indices give 0
    h = sequences.harmonic_prefix_sequence()
    d = spaces.norm(spaces.sub(h.generator(m), h.generator(n)))
    if m == n:
        assert d == 0.0
    else:
        assert d == pytest.approx(1.0 / (min(m, n) + 1), abs=1e-15)
