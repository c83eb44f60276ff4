"""Norm axioms and element algebra, mostly as hypothesis properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stconv import spaces

ATOL = spaces.ALGEBRA_TOL  # 1e-12 per module contract

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

dense3 = st.tuples(finite_floats, finite_floats, finite_floats).map(spaces.dense_element)

sparse_elements = st.dictionaries(
    st.integers(min_value=1, max_value=40), finite_floats, max_size=6
).map(spaces.sparse_element)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_space_validation():
    assert spaces.dense_space(3).dim == 3
    assert spaces.sparse_space().dim is None
    with pytest.raises(ValueError):
        spaces.Space("dense")
    with pytest.raises(ValueError):
        spaces.Space("sparse", dim=4)
    with pytest.raises(ValueError):
        spaces.Space("weird")


def test_dense_space_refuses_a_fractional_dimension():
    with pytest.raises(ValueError, match="whole number"):
        spaces.dense_space(2.7)
    assert spaces.dense_space(5.0) == spaces.dense_space(5)


def test_each_space_measures_in_its_own_norm():
    assert spaces.norm(spaces.dense_element((3.0, -4.0, 0.0))) == 5.0
    assert spaces.norm(spaces.sparse_element({1: 3.0, 2: -4.0})) == 4.0


def test_sparse_element_prunes_zeros():
    x = spaces.sparse_element({1: 0.0, 2: 1.5, 7: 0.0})
    assert oracles.support(x) == {2: 1.5}
    assert oracles.support(spaces.sparse_element({})) == {}


def test_sparse_element_rejects_bad_indices():
    with pytest.raises(ValueError):
        spaces.sparse_element({0: 1.0})


def test_unit_coordinate():
    e5 = spaces.unit_coordinate(spaces.sparse_space(), 5)
    assert oracles.support(e5) == {5: 1.0}
    assert spaces.norm(e5) == 1.0
    e2 = spaces.unit_coordinate(spaces.dense_space(3), 2)
    assert e2.coords == (0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        spaces.unit_coordinate(spaces.dense_space(3), 4)


# ---------------------------------------------------------------------------
# norms vs direct computation
# ---------------------------------------------------------------------------

def test_sup_norm_sparse_matches_oracle():
    x = spaces.sparse_element({3: -2.5, 10: 1.0, 11: 2.5})
    assert spaces.norm(x) == oracles.sparse_sup_norm({3: -2.5, 10: 1.0, 11: 2.5})
    assert spaces.norm(spaces.sparse_element({})) == 0.0


def test_dense_norms_match_oracle():
    x = spaces.dense_element((3.0, -4.0, 0.0))
    assert spaces.norm(x) == pytest.approx(oracles.dense_p_norm((3.0, -4.0, 0.0), 2.0), abs=ATOL)


# ---------------------------------------------------------------------------
# norm axioms (hypothesis)
# ---------------------------------------------------------------------------

@given(st.one_of(dense3, sparse_elements))
def test_norm_nonnegative_and_zero_only_at_zero(x):
    value = spaces.norm(x)
    assert value >= 0.0
    is_zero = (
        not oracles.support(x) if isinstance(x, spaces.SparseElement) else all(c == 0.0 for c in x.coords)
    )
    assert (value == 0.0) == is_zero


@given(st.one_of(dense3, sparse_elements), st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_norm_absolute_homogeneity(x, alpha):
    lhs = spaces.norm(spaces.scale(alpha, x))
    rhs = abs(alpha) * spaces.norm(x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=ATOL)


@given(dense3, dense3)
def test_norm_triangle_inequality_dense(x, y):
    lhs = spaces.norm(spaces.add(x, y))
    rhs = spaces.norm(x) + spaces.norm(y)
    assert lhs <= rhs + ATOL * max(1.0, rhs)


@given(sparse_elements, sparse_elements)
def test_norm_triangle_inequality_sparse(x, y):
    lhs = spaces.norm(spaces.add(x, y))
    rhs = spaces.norm(x) + spaces.norm(y)
    assert lhs <= rhs + ATOL * max(1.0, rhs)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

@given(sparse_elements, sparse_elements)
def test_sub_is_add_of_negation(x, y):
    direct = spaces.sub(x, y)
    via_add = spaces.add(x, spaces.scale(-1.0, y))
    assert oracles.support(direct) == pytest.approx(oracles.support(via_add), abs=ATOL)


@given(sparse_elements)
def test_subtracting_self_gives_zero(x):
    assert oracles.support(spaces.sub(x, x)) == {}


def test_add_mixed_spaces_rejected():
    with pytest.raises((ValueError, TypeError)):
        spaces.add(spaces.dense_element((1.0,)), spaces.sparse_element({1: 1.0}))


def test_add_mismatched_dims_rejected():
    with pytest.raises(ValueError):
        spaces.add(spaces.dense_element((1.0, 2.0)), spaces.dense_element((1.0,)))


def test_space_of():
    assert spaces.space_of(spaces.dense_element((1.0, 2.0))) == spaces.dense_space(2)
    assert spaces.space_of(spaces.sparse_element({2: 1.0})) == spaces.sparse_space()


def test_zero_elements():
    assert spaces.zero(spaces.dense_space(2)).coords == (0.0, 0.0)
    assert oracles.support(spaces.zero(spaces.sparse_space())) == {}


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def test_element_format_parse_round_trip():
    for x in (
        spaces.dense_element((1.0, -0.5, 0.0)),
        spaces.sparse_element({1: 1.0, 3: 0.25}),
        spaces.sparse_element({}),
    ):
        text = spaces.format_element(x)
        assert spaces.parse_element(text) == x


@given(sparse_elements)
def test_sparse_literal_round_trip(x):
    assert spaces.parse_element(spaces.format_element(x)) == x


def test_scale_drops_an_underflowed_product():
    x = spaces.parse_element("sparse{1:1e-300,2:1}")
    y = spaces.scale(1e-300, x)
    assert spaces.format_element(y) == "sparse{2:1e-300}"
    assert y == spaces.parse_element("sparse{2:1e-300}")


def test_literals_sort_their_indices_and_keep_the_last_repeat():
    assert spaces.format_element(spaces.parse_element("sparse{3:1,1:2}")) == "sparse{1:2,3:1}"
    assert spaces.parse_element("sparse{1:1,1:2}") == spaces.parse_element("sparse{1:2}")
    assert spaces.parse_element("sparse{2:1,2:0}") == spaces.sparse_element({})
    with pytest.raises(ValueError, match="stop at"):
        spaces.parse_element("sparse{1e300:1}")


def test_sparse_arrays_are_read_only():
    x = spaces.sparse_element({1: 1.0, 4: -2.0})
    assert x.indices.dtype == np.int64 and x.values.dtype == np.float64
    with pytest.raises(ValueError):
        x.indices[0] = 2
    with pytest.raises(ValueError):
        x.values[0] = 2.0
    with pytest.raises(ValueError, match="increase"):
        spaces.sparse_from_arrays([2, 1], [1.0, 1.0])


def _entries(x):
    """The element's entries in index order, as plain pairs."""
    assert x.indices.dtype == np.int64 and x.values.dtype == np.float64
    assert not x.indices.flags.writeable and not x.values.flags.writeable
    return list(zip(x.indices.tolist(), x.values.tolist()))


# values that cancel, underflow under a tiny scale, or are exactly zero
_EDGE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 2.5e-200])
sparse_dicts = st.dictionaries(st.integers(min_value=1, max_value=12), _EDGE | finite_floats,
                               max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_dicts, sparse_dicts, st.sampled_from([0.0, -1.0, 1e-300, 3.0]) | finite_floats)
def test_sparse_algebra_matches_a_dict_oracle(a, b, alpha):
    x, y = spaces.sparse_element(a), spaces.sparse_element(b)
    assert _entries(x) == sorted(oracles.sparse_pruned(a).items())
    assert _entries(spaces.add(x, y)) == sorted(oracles.sparse_add(a, b).items())
    assert _entries(spaces.sub(x, y)) == sorted(oracles.sparse_sub(a, b).items())
    assert _entries(spaces.scale(alpha, x)) == sorted(oracles.sparse_scale(alpha, a).items())
    assert spaces.norm(x) == oracles.sparse_sup_norm(oracles.sparse_pruned(a))
    assert (x == y) == (oracles.sparse_pruned(a) == oracles.sparse_pruned(b))
    assert spaces.parse_element(spaces.format_element(x)) == x
    # a literal written in any order, with a key repeated, reads as the mapping
    items = list(a.items())[::-1] + list(a.items())
    literal = "sparse{" + ",".join(f"{k}:{v!r}" for k, v in items) + "}"
    assert spaces.parse_element(literal) == x


def test_parse_element_errors():
    with pytest.raises(spaces.ParseError if hasattr(spaces, "ParseError") else Exception):
        spaces.parse_element("dense[1,")
    with pytest.raises(Exception):
        spaces.parse_element("box{1:2}")
