"""Vectors for the two supported spaces: fixed-dimension dense and finitely
supported sparse (real sequences with finitely many nonzero entries, indexed
from 1).

A dense element is a plain coordinate tuple.  A sparse element is two
read-only arrays of one length, its increasing int64 indices (all at least
1) and their float64 values, with exact zeros dropped so that supports stay
honest.  This module is the one place that builds a sparse element:
:func:`sparse_element` from a mapping (a literal) and
:func:`sparse_from_arrays` from the two arrays (the sequence engine), and
``add``, ``scale``, ``sub``, ``norm``, ``==`` and :func:`format_element`
read the arrays.  Each space measures in its own norm, and :func:`norm` is
where that is decided: an element is measured in the norm of its space,
Euclidean on dense and sup on sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .parsing import Cursor, format_float, parse_whole, whole_number

ALGEBRA_TOL = 1e-12
_LARGEST_INDEX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Space:
    kind: str                 # "dense" | "sparse"
    dim: Optional[int] = None

    def __post_init__(self):
        if self.kind == "dense":
            if self.dim is None or self.dim < 1:
                raise ValueError("dense spaces need a positive dimension")
        elif self.kind == "sparse":
            if self.dim is not None:
                raise ValueError("sparse space has no fixed dimension")
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")

    def describe(self):
        return f"dense:{self.dim}" if self.kind == "dense" else "sparse"


def dense_space(dim):
    return Space("dense", whole_number(dim, "a dimension"))


def sparse_space():
    return Space("sparse")


@dataclass(frozen=True)
class DenseElement:
    coords: tuple

    @property
    def dim(self):
        return len(self.coords)

    def __repr__(self):
        return format_element(self)


@dataclass(frozen=True, eq=False)
class SparseElement:
    """``values[j]`` at ``indices[j]``: read-only arrays, see :func:`sparse_from_arrays`."""

    indices: np.ndarray   # int64, increasing, >= 1
    values: np.ndarray    # float64, nonzero

    def __eq__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        return (np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return format_element(self)


def dense_element(coords):
    coords = tuple(float(c) for c in coords)
    if not coords:
        raise ValueError("dense elements need at least one coordinate")
    return DenseElement(coords)


def sparse_from_arrays(indices, values):
    """The sparse element with ``values[j]`` at ``indices[j]``, ``indices``
    increasing from 1; exact zeros are dropped.

    The arrays become the element's and are made read-only, so the caller
    hands them over and writes them no more.
    """
    idx = np.asarray(indices, dtype=np.int64)
    val = np.asarray(values, dtype=float)
    if idx.ndim != 1 or idx.shape != val.shape:
        raise ValueError("sparse indices and values must be two arrays of one length")
    if len(idx) and idx[0] < 1:
        raise ValueError("sparse indices start at 1")
    if not (idx[1:] > idx[:-1]).all():
        raise ValueError("sparse indices must increase")
    nonzero = val != 0.0
    if not nonzero.all():
        idx, val = idx[nonzero], val[nonzero]
    idx.setflags(write=False)
    val.setflags(write=False)
    return SparseElement(idx, val)


_SPARSE_ZERO = sparse_from_arrays([], [])


def sparse_element(support):
    """The sparse element of the mapping index -> value, dropping exact zeros."""
    items = sorted((int(k), float(v)) for k, v in support.items())
    if items and items[-1][0] > _LARGEST_INDEX:
        raise ValueError(f"sparse indices stop at {_LARGEST_INDEX}")
    return sparse_from_arrays([k for k, _ in items], [v for _, v in items])


def space_of(x):
    if isinstance(x, DenseElement):
        return Space("dense", x.dim)
    if isinstance(x, SparseElement):
        return Space("sparse")
    raise TypeError(f"not a space element: {x!r}")


def zero(space):
    if space.kind == "dense":
        return DenseElement((0.0,) * space.dim)
    return _SPARSE_ZERO


def unit_coordinate(space, k):
    """The k-th coordinate vector."""
    k = int(k)
    if space.kind == "dense":
        if not 1 <= k <= space.dim:
            raise ValueError(f"coordinate {k} outside dense:{space.dim}")
        coords = [0.0] * space.dim
        coords[k - 1] = 1.0
        return DenseElement(tuple(coords))
    if k < 1:
        raise ValueError("sparse coordinates start at 1")
    return sparse_from_arrays([k], [1.0])


def norm(x):
    """``||x||`` in the norm of ``x``'s space: sup on sparse, Euclidean on dense."""
    if isinstance(x, SparseElement):
        return float(np.abs(x.values).max()) if len(x.values) else 0.0
    arr = np.abs(np.asarray(x.coords))
    peak = float(arr.max())
    if peak == 0.0:
        return 0.0
    # scale by the peak so extreme coordinates cannot underflow or overflow
    return float(peak * np.sum((arr / peak) ** 2.0) ** 0.5)


def _check_same_space(x, y):
    sx, sy = space_of(x), space_of(y)
    if sx != sy:
        raise ValueError(f"space mismatch: {sx.describe()} vs {sy.describe()}")


def index_union(*arrays):
    """The increasing union of increasing int64 index arrays."""
    # a stable sort merges the sorted runs; numpy's unique hashes, far slower here
    both = np.sort(np.concatenate(arrays), kind="stable")
    keep = np.empty(len(both), dtype=bool)
    keep[:1] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


def add(x, y):
    _check_same_space(x, y)
    if isinstance(x, DenseElement):
        return DenseElement(tuple(a + b for a, b in zip(x.coords, y.coords)))
    idx = index_union(x.indices, y.indices)
    val = np.zeros(len(idx))
    val[np.searchsorted(idx, x.indices)] = x.values
    val[np.searchsorted(idx, y.indices)] += y.values
    return sparse_from_arrays(idx, val)


def scale(alpha, x):
    alpha = float(alpha)
    if isinstance(x, DenseElement):
        return DenseElement(tuple(alpha * c for c in x.coords))
    if alpha == 0.0:
        return _SPARSE_ZERO
    # a product may underflow to zero, which the constructor drops
    return sparse_from_arrays(x.indices, alpha * x.values)


def sub(x, y):
    return add(x, scale(-1.0, y))


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def format_element(x):
    if isinstance(x, DenseElement):
        return "dense[" + ",".join(format_float(c) for c in x.coords) + "]"
    items = zip(x.indices.tolist(), x.values.tolist())
    return "sparse{" + ",".join(f"{k}:{format_float(v)}" for k, v in items) + "}"


def parse_element_at(cur):
    name = cur.ident()
    if name == "dense":
        return dense_element(cur.items(Cursor.number, "[", "]", ","))
    if name == "sparse":
        cur.expect("{")
        support = {}
        if not cur.try_eat("}"):
            while True:
                k = cur.integer()
                cur.expect(":")
                support[k] = cur.number()
                if not cur.try_eat(","):
                    break
            cur.expect("}")
        return sparse_element(support)
    cur.error(f"expected an element literal, got {name!r}")


def parse_element(text):
    """Parse ``dense[1,0.5]`` or ``sparse{1:1,3:0.25}`` literals."""
    return parse_whole(text, parse_element_at, "element")


__all__ = [
    "ALGEBRA_TOL",
    "Space",
    "DenseElement",
    "SparseElement",
    "dense_space",
    "sparse_space",
    "dense_element",
    "sparse_element",
    "sparse_from_arrays",
    "index_union",
    "space_of",
    "zero",
    "unit_coordinate",
    "norm",
    "add",
    "scale",
    "sub",
    "format_element",
    "parse_element",
    "parse_element_at",
]
