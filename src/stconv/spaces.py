"""Vectors for the two supported spaces: fixed-dimension dense and finitely
supported sparse (real sequences with finitely many nonzero entries, indexed
from 1).

Sparse elements prune exact zeros so that supports stay honest; dense
elements are plain coordinate tuples.  Each space measures in its own norm,
and :func:`norm` is where that is decided: an element is measured in the
norm of its space, Euclidean on dense and sup on sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .parsing import Cursor, format_float, parse_whole, whole_number

ALGEBRA_TOL = 1e-12


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


@dataclass(frozen=True)
class SparseElement:
    support: Mapping  # index (>= 1) -> nonzero float

    def __repr__(self):
        return format_element(self)


def dense_element(coords):
    coords = tuple(float(c) for c in coords)
    if not coords:
        raise ValueError("dense elements need at least one coordinate")
    return DenseElement(coords)


def sparse_element(support):
    """Build a sparse element, dropping exact zeros and checking indices."""
    pruned = {}
    for k, v in support.items():
        k = int(k)
        v = float(v)
        if k < 1:
            raise ValueError("sparse indices start at 1")
        if v != 0.0:
            pruned[k] = v
    return SparseElement(pruned)


def space_of(x):
    if isinstance(x, DenseElement):
        return Space("dense", x.dim)
    if isinstance(x, SparseElement):
        return Space("sparse")
    raise TypeError(f"not a space element: {x!r}")


def zero(space):
    if space.kind == "dense":
        return DenseElement((0.0,) * space.dim)
    return SparseElement({})


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
    return SparseElement({k: 1.0})


def norm(x):
    """``||x||`` in the norm of ``x``'s space: sup on sparse, Euclidean on dense."""
    if isinstance(x, SparseElement):
        if not x.support:
            return 0.0
        return max(abs(v) for v in x.support.values())
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


def add(x, y):
    _check_same_space(x, y)
    if isinstance(x, DenseElement):
        return DenseElement(tuple(a + b for a, b in zip(x.coords, y.coords)))
    out = dict(x.support)
    for k, v in y.support.items():
        s = out.get(k, 0.0) + v
        if s == 0.0:
            out.pop(k, None)
        else:
            out[k] = s
    return SparseElement(out)


def scale(alpha, x):
    alpha = float(alpha)
    if isinstance(x, DenseElement):
        return DenseElement(tuple(alpha * c for c in x.coords))
    if alpha == 0.0:
        return SparseElement({})
    return SparseElement({k: alpha * v for k, v in x.support.items()})


def sub(x, y):
    return add(x, scale(-1.0, y))


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def format_element(x):
    if isinstance(x, DenseElement):
        return "dense[" + ",".join(format_float(c) for c in x.coords) + "]"
    items = sorted(x.support.items())
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
