"""Operators, functionals, image sequences, and norm estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stconv import density, operators, sequences, spaces

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)

sparse_elements = st.dictionaries(
    st.integers(min_value=1, max_value=30), finite_floats, max_size=5
).map(spaces.sparse_element)


def operator_pool():
    """A representative operator per kind, all on the sparse space."""
    inv = operators.named_diagonal("inverse")
    prime = operators.named_diagonal("prime_scale")
    r1 = operators.rank_one(operators.coordinate_functional(1), spaces.sparse_element({1: 1.0, 2: 1.0}))
    fr = operators.finite_rank([
        (operators.coordinate_functional(1), spaces.sparse_element({1: 1.0})),
        (operators.coordinate_functional(3), spaces.sparse_element({2: -0.5})),
    ])
    return [
        inv,
        prime,
        r1,
        fr,
        operators.compose(inv, prime),
        operators.linear_combo(1.0, inv, -2.0, r1),
        operators.identity_operator(),
    ]


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def test_coordinate_functional():
    f = operators.coordinate_functional(3)
    assert f.evaluate(spaces.sparse_element({3: 2.5, 4: 1.0})) == 2.5
    assert f.evaluate(spaces.sparse_element({4: 1.0})) == 0.0
    assert f.norm_bound(spaces.sparse_space()) == 1.0
    with pytest.raises(ValueError):
        operators.coordinate_functional(0)


def test_coordinate_functional_refuses_a_fractional_index():
    with pytest.raises(ValueError, match="whole number"):
        operators.coordinate_functional(1.5)
    assert operators.coordinate_functional(5.0).describe() == "coord(5)"


def test_dense_weights_functional():
    f = operators.dense_weights((1.0, -2.0, 0.5))
    x = spaces.dense_element((2.0, 1.0, 4.0))
    assert f.evaluate(x) == pytest.approx(2.0 - 2.0 + 2.0)
    # dual bound: sum of |w| against the sparse space's sup norm
    assert f.norm_bound(spaces.sparse_space()) == pytest.approx(3.5)
    # and the Euclidean norm of w against the dense space's
    assert f.norm_bound(spaces.dense_space(3)) == pytest.approx(np.sqrt(1 + 4 + 0.25))


def test_index_weights_functional_is_unbounded():
    f = operators.linear_growth_functional()
    assert f.norm_bound(spaces.sparse_space()) is None
    assert f.evaluate(spaces.sparse_element({5: 1.0})) == 5.0


def test_geometric_weights_functional():
    f = operators.geometric_weights_functional()
    assert f.evaluate(spaces.sparse_element({1: 1.0, 2: 1.0})) == pytest.approx(0.75)


def test_functional_sweep_matches_pointwise():
    seqs = [
        sequences.harmonic_prefix_sequence(),
        sequences.unit_coordinate_sequence(),
        sequences.decaying_sequence(spaces.sparse_element({1: 1.0, 4: -2.0})),
        sequences.random_unit_ball(spaces.sparse_space(), seed=8),
        sequences.subsequence(sequences.unit_coordinate_sequence(), density.primes()),
    ]
    fns = [
        operators.coordinate_functional(1),
        operators.coordinate_functional(4),
        operators.linear_growth_functional(),
        operators.geometric_weights_functional(),
    ]
    for seq in seqs:
        for f in fns:
            got = oracles.functional_values(f, seq, 120)
            want = np.array([f.evaluate(seq.generator(n)) for n in range(1, 121)])
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (seq.label, f.describe())


def test_functional_sweep_dense():
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=12)
    f = operators.dense_weights((0.5, -1.0, 2.0))
    got = oracles.functional_values(f, seq, 100)
    want = np.array([f.evaluate(seq.generator(n)) for n in range(1, 101)])
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# apply and linearity
# ---------------------------------------------------------------------------

def test_diagonal_apply():
    d = operators.named_diagonal("prime_scale")
    y = operators.apply(d, spaces.sparse_element({2: 1.0, 3: -0.5, 4: 2.0}))
    assert oracles.support(y) == {2: 2.0, 3: -1.5, 4: 2.0}


def test_rank_one_apply():
    r1 = operators.rank_one(operators.coordinate_functional(2), spaces.sparse_element({5: 1.0}))
    y = operators.apply(r1, spaces.sparse_element({2: 3.0}))
    assert oracles.support(y) == {5: 3.0}
    assert oracles.support(operators.apply(r1, spaces.sparse_element({1: 9.0}))) == {}


def test_matrix_apply():
    m = operators.matrix_operator(((2.0, 0.0), (1.0, 1.0), (0.0, -1.0)))
    assert m.domain == spaces.dense_space(2)
    assert m.codomain == spaces.dense_space(3)
    y = operators.apply(m, spaces.dense_element((1.0, 2.0)))
    assert y.coords == (2.0, 3.0, -2.0)


def test_compose_apply():
    inv = operators.named_diagonal("inverse")
    prime = operators.named_diagonal("prime_scale")
    c = operators.compose(inv, prime)
    x = spaces.sparse_element({3: 6.0})
    assert operators.apply(c, x) == operators.apply(inv, operators.apply(prime, x))


def test_apply_rejects_wrong_space():
    m = operators.matrix_operator(((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        operators.apply(m, spaces.dense_element((1.0, 2.0, 3.0)))
    with pytest.raises(ValueError):
        operators.apply(m, spaces.sparse_element({1: 1.0}))


def test_apply_rejects_transforms():
    tr = operators.prime_position_transform()
    with pytest.raises(TypeError):
        operators.apply(tr, spaces.sparse_element({1: 1.0}))


@pytest.mark.parametrize("build", [
    lambda tr, d: operators.compose(tr, d),
    lambda tr, d: operators.compose(d, tr),
    lambda tr, d: operators.linear_combo(1.0, tr, 1.0, d),
    lambda tr, d: operators.linear_combo(1.0, d, 1.0, tr),
], ids=["compose-outer", "compose-inner", "combo-first", "combo-second"])
def test_transforms_are_neither_composed_nor_combined(build):
    tr = operators.prime_position_transform()
    with pytest.raises(ValueError, match="sequence transforms act on whole sequences"):
        build(tr, operators.named_diagonal("inverse"))


def test_compose_rejects_space_mismatch():
    m = operators.matrix_operator(((1.0, 0.0),))
    with pytest.raises(ValueError):
        operators.compose(operators.named_diagonal("inverse"), m)


@pytest.mark.parametrize("op", operator_pool(), ids=lambda o: o.describe())
@given(x=sparse_elements, y=sparse_elements, alpha=finite_floats, beta=finite_floats)
@settings(max_examples=25, deadline=None)
def test_linearity(op, x, y, alpha, beta):
    lhs = operators.apply(op, spaces.add(spaces.scale(alpha, x), spaces.scale(beta, y)))
    rhs = spaces.add(
        spaces.scale(alpha, operators.apply(op, x)),
        spaces.scale(beta, operators.apply(op, y)),
    )
    diff = spaces.sub(lhs, rhs)
    scale = max(
        1.0,
        spaces.norm(lhs),
        spaces.norm(rhs),
    )
    assert spaces.norm(diff) <= operators.LINEARITY_TOL * scale


# ---------------------------------------------------------------------------
# norm bounds and estimates
# ---------------------------------------------------------------------------

def test_matrix_norm_bound_matches_eig_oracle():
    rng = np.random.default_rng(77)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        a = rng.normal(size=(d, d))
        m = operators.matrix_operator(tuple(tuple(row) for row in a))
        assert operators.operator_norm_bound(m) == pytest.approx(
            oracles.matrix_two_norm(a), rel=1e-10
        )


def test_matrix_norm_bound_dominates_probes():
    rng = np.random.default_rng(78)
    a = rng.normal(size=(3, 3))
    m = operators.matrix_operator(tuple(tuple(row) for row in a))
    bound = operators.operator_norm_bound(m)
    assert bound >= oracles.matrix_norm_by_search(a) - 1e-9


def test_named_diagonal_bounds():
    assert operators.operator_norm_bound(operators.named_diagonal("identity")) == 1.0
    assert operators.operator_norm_bound(operators.named_diagonal("inverse")) == 1.0
    assert operators.operator_norm_bound(operators.named_diagonal("prime_scale")) is None
    assert operators.operator_norm_bound(operators.named_diagonal("index")) is None
    assert operators.operator_norm_bound(operators.named_diagonal("inverse_trunc", 5)) == 1.0


@pytest.mark.parametrize("name", ["identity", "inverse", "one_plus_inverse", "index", "prime_scale"])
def test_named_diagonal_refuses_a_cutoff(name):
    with pytest.raises(ValueError, match="takes no cutoff"):
        operators.named_diagonal(name, 5)


@pytest.mark.parametrize("cutoff", [5.5, 0.5, 0, -3])
def test_named_diagonal_refuses_a_bad_cutoff(cutoff):
    with pytest.raises(ValueError, match="whole cutoff of at least 1"):
        operators.named_diagonal("inverse_trunc", cutoff)


def test_named_diagonal_cutoff_label_round_trips():
    op = operators.named_diagonal("inverse_trunc", 5.0)
    assert op.describe() == "diag(inverse_trunc(5))"
    assert operators.parse_operator(op.describe()).describe() == op.describe()


def test_rank_one_norm_bound():
    r1 = operators.rank_one(
        operators.coordinate_functional(1), spaces.sparse_element({1: 2.0, 2: 1.0})
    )
    assert operators.operator_norm_bound(r1) == 2.0
    unbounded = operators.rank_one(
        operators.linear_growth_functional(), spaces.sparse_element({1: 1.0})
    )
    assert operators.operator_norm_bound(unbounded) is None


def test_operator_norm_estimate_frozen_values():
    assert operators.operator_norm_estimate(operators.named_diagonal("identity")) == 1.0
    r1 = operators.rank_one(
        operators.coordinate_functional(1), spaces.sparse_element({1: 1.0, 2: 1.0})
    )
    assert operators.operator_norm_estimate(r1) == 1.0
    # coordinate probes reach e_97, the largest prime index below 100
    assert operators.operator_norm_estimate(
        operators.named_diagonal("prime_scale"), probes=100
    ) == 97.0


def test_operator_norm_estimate_never_exceeds_bound():
    for op in operator_pool():
        bound = operators.operator_norm_bound(op)
        if bound is None:
            continue
        est = operators.operator_norm_estimate(op, probes=32)
        assert est <= bound + 1e-9


def test_operator_norm_estimate_deterministic():
    m = operators.matrix_operator(((1.0, 2.0), (0.0, 1.0)))
    a = operators.operator_norm_estimate(m, probes=50)
    b = operators.operator_norm_estimate(m, probes=50)
    assert a == b


# ---------------------------------------------------------------------------
# image sequences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", operator_pool(), ids=lambda o: o.describe())
def test_image_sequence_matches_pointwise(op):
    for seq in (
        sequences.harmonic_prefix_sequence(),
        sequences.unit_coordinate_sequence(),
        sequences.random_unit_ball(spaces.sparse_space(), seed=4),
        sequences.spike_sequence(spaces.sparse_space(), density.squares()),
    ):
        img = operators.image_sequence(op, seq)
        got = oracles.joined(sequences.sweep_chunks(img, None, 150))
        want = np.array(
            [spaces.norm(operators.apply(op, seq.generator(n))) for n in range(1, 151)]
        )
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), seq.label


def test_image_sequence_dense_matrix():
    m = operators.matrix_operator(((0.5, 1.0, 0.0), (0.0, 0.0, 2.0)))
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=21)
    img = operators.image_sequence(m, seq)
    assert img.space == spaces.dense_space(2)
    got = oracles.joined(sequences.sweep_chunks(img, None, 100))
    want = np.array(
        [spaces.norm(operators.apply(m, seq.generator(n))) for n in range(1, 101)]
    )
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_image_sequence_transform():
    tr = operators.prime_position_transform()
    u = sequences.unit_coordinate_sequence()
    img = operators.image_sequence(tr, u)
    got = oracles.joined(sequences.sweep_chunks(img, None, 60))
    want = np.array([float(n) if density.primes().contains(n) else 1.0 for n in range(1, 61)])
    assert np.array_equal(got, want)
    # pointwise too, not just in norm
    assert oracles.support(img.generator(5)) == {5: 5.0}
    assert oracles.support(img.generator(6)) == {6: 1.0}


def test_image_sequence_rejects_space_mismatch():
    m = operators.matrix_operator(((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        operators.image_sequence(m, sequences.harmonic_prefix_sequence())


def test_image_norm_bound_propagates():
    inv = operators.named_diagonal("inverse")
    h = sequences.harmonic_prefix_sequence()
    img = operators.image_sequence(inv, h)
    assert img.norm_bound == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_operator_parse_round_trips():
    texts = [
        "diag(prime_scale)",
        "diag(inverse)",
        "diag(inverse_trunc(5))",
        "rank1(coord(1),sparse{1:1,2:1})",
        "rank1(weights[1,0,2],dense[0,1,0])",
        "rank1(index_weights,sparse{1:1})",
        "finite_rank(coord(1),sparse{1:1};geometric_weights,sparse{2:0.25})",
        "matrix[[1,0.5],[0,2]]",
        "compose(diag(inverse),diag(prime_scale))",
        "combo(1,diag(identity),-1,diag(inverse))",
    ]
    for text in texts:
        parsed = operators.parse_operator(text)
        assert parsed.describe() == text
        assert operators.parse_operator(parsed.describe()).describe() == text


def test_a_dense_finite_rank_descriptor_keeps_its_domain():
    pieces = [(operators.coordinate_functional(1), spaces.dense_element([1.0, 0.0, 0.0])),
              (operators.dense_weights([0.5, 0.5, 0.0]), spaces.dense_element([0.0, 1.0, 0.0]))]
    dense = operators.finite_rank(pieces, domain=spaces.dense_space(3))
    text = "finite_rank(dim=3;coord(1),dense[1,0,0];weights[0.5,0.5,0],dense[0,1,0])"
    assert dense.describe() == text
    assert operators.parse_operator(text).domain == spaces.dense_space(3)
    # the sparse domain is left unsaid, as before
    sparse = operators.finite_rank(pieces)
    assert sparse.describe() == text.replace("dim=3;", "")
    assert operators.parse_operator(sparse.describe()).domain == spaces.sparse_space()
    for bad in ("finite_rank(dim=3,coord(1),sparse{1:1})", "finite_rank(dim=0;coord(1),sparse{1:1})",
                "finite_rank(dim=3;)"):
        with pytest.raises(ValueError):
            operators.parse_operator(bad)


def test_transform_parse():
    tr = operators.parse_operator("transform(prime_scale_by_position)")
    assert isinstance(tr, operators.SequenceTransform)


def test_operator_parse_errors():
    for bad in ("diag(unknown)", "rank1(coord(1))", "matrix[[1],[2,3]]", "diag(inverse) junk"):
        with pytest.raises(Exception):
            operators.parse_operator(bad)


def test_parsed_matrix_acts_correctly():
    m = operators.parse_operator("matrix[[2,0],[0,3]]")
    y = operators.apply(m, spaces.dense_element((1.0, 1.0)))
    assert y.coords == (2.0, 3.0)
