"""Linear operators between the supported spaces, plus position-dependent
sequence transforms.

Operators are one frozen class per kind (diagonal, finite-rank, of which
rank-one is the one-piece case, matrix, composition, linear combination),
evaluated by :func:`apply`.  When an operator is pushed through a sequence
with :func:`image_sequence`, the image's structure is derived from the
sequence's: it stays vectorised wherever the sequence's kind can say how,
so downstream sweeps stay fast, and is the per-index kind otherwise.

Diagonal coefficient functions and the weight functions of
``sparse_weighted`` functionals must accept numpy integer arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import density, spaces
from .parsing import Cursor, format_float, parse_whole, whole_number
from .sequences import (
    DenseBlock,
    FixedBasisCombo,
    SequenceSpec,
    Structure,
)
from .spaces import DenseElement, Space, SparseElement, dense_space, sparse_space

LINEARITY_TOL = 1e-10
_ESTIMATE_SEED = 2024


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class FunctionalSpec:
    """A linear functional on one of the spaces, as the functions its
    constructor chose.

    ``weights(ks)`` is ``f(e_k)`` at the int64 indices ``ks`` (zero off the
    support); ``norm_bound(domain)`` is a known bound on ``|f(x)| / ||x||``
    for ``x`` in the space ``domain``, or None; ``last`` is the largest index
    the functional weighs, when a dense space must reach it, else None.
    """

    label: str
    weights: Callable
    norm_bound: Callable
    last: Optional[int]

    def weights_upto(self, dim):
        """``f(e_k)`` for ``k = 1..dim``, the weights on ``dense:dim``."""
        if self.last is not None and self.last > dim:
            raise ValueError(f"coordinate {self.last} outside dense:{dim}")
        return self.weights(np.arange(1, dim + 1, dtype=np.int64))

    def evaluate(self, x):
        if isinstance(x, SparseElement):
            return float(np.sum(self.weights(x.indices) * x.values))
        return float(np.sum(self.weights_upto(len(x.coords)) * np.asarray(x.coords)))

    def describe(self):
        return self.label

    def __repr__(self):
        return f"FunctionalSpec({self.label})"


def coordinate_functional(j):
    if j < 1:
        raise ValueError("coordinate functionals are indexed from 1")
    j = whole_number(j, "a coordinate index")
    return FunctionalSpec(f"coord({j})", lambda ks: (ks == j).astype(float), lambda _: 1.0, j)


def dense_weights(weights):
    w = np.array(weights, dtype=float)

    def norm_bound(domain):
        # the dual norm of the domain's: l1 against sup, Euclidean against Euclidean
        if domain.kind == "sparse":
            return float(np.sum(np.abs(w)))
        return float(np.sum(np.abs(w) ** 2.0) ** 0.5)

    return FunctionalSpec(
        "weights[" + ",".join(format_float(v) for v in w.tolist()) + "]",
        lambda ks: np.where(ks <= len(w), w[np.minimum(ks, len(w)) - 1], 0.0),
        norm_bound, None,
    )


def sparse_weighted(name, wfun):
    """The functional with the vectorised weight function ``wfun``, described by ``name``."""
    return FunctionalSpec(name, wfun, lambda _: None, None)


def linear_growth_functional():
    """The classic unbounded functional: weight k at coordinate k."""
    return sparse_weighted("index_weights", lambda ks: ks.astype(float))


def geometric_weights_functional():
    # 2^-k by exponent alone; bitwise equal to 0.5 ** k, underflow included
    return sparse_weighted("geometric_weights", lambda ks: np.ldexp(1.0, -ks))


_FUNCTIONAL_NAMES = {
    "index_weights": linear_growth_functional,
    "geometric_weights": geometric_weights_functional,
}


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class OperatorSpec:
    """A linear operator from ``domain`` to ``codomain``; each kind is a
    subclass that answers its value at an element (``evaluate``), its known
    norm bound or None (``norm_bound``), the structure of its image of a
    vectorised sequence (``image_structure``) and ``describe``."""

    def __repr__(self):
        return f"OperatorSpec({self.describe()})"


@dataclass(frozen=True, eq=False, repr=False)
class Diagonal(OperatorSpec):
    """Coordinatewise scaling ``(x_k) -> (d(k) x_k)`` of the sparse space.

    ``dfun`` maps numpy integer arrays to the scaling coefficients; ``name``
    is used by the descriptor grammar.  ``bound`` is a known sup of ``|d|``
    when there is one.  A diagonal of a dense space is a :class:`Matrix`.
    """

    name: str
    dfun: Callable
    bound: Optional[float] = None
    domain = codomain = sparse_space()

    def evaluate(self, x):
        if not len(x.indices):
            return x
        d = np.asarray(self.dfun(x.indices), dtype=float)
        return spaces.sparse_from_arrays(x.indices, d * x.values)

    def norm_bound(self):
        return self.bound

    def image_structure(self, seq):
        return seq.structure.diagonal_image(self.dfun, self.evaluate)

    def describe(self):
        return f"diag({self.name})"


@dataclass(frozen=True, eq=False, repr=False)
class FiniteRank(OperatorSpec):
    """``x -> sum_j f_j(x) y_j`` over the (functional, element) ``pieces``,
    whose elements share one space; ``name`` heads the descriptor, ``rank1``
    for the one piece of :func:`rank_one`."""

    pieces: tuple
    name: str
    domain: Space
    codomain = property(lambda self: spaces.space_of(self.pieces[0][1]))

    def evaluate(self, x):
        out = spaces.zero(self.codomain)
        for f, y0 in self.pieces:
            out = spaces.add(out, spaces.scale(f.evaluate(x), y0))
        return out

    def norm_bound(self):
        total = 0.0
        for f, y0 in self.pieces:
            fb = f.norm_bound(self.domain)
            if fb is None:
                return None
            total += fb * spaces.norm(y0)
        return total

    def image_structure(self, seq):
        fs = tuple(f for f, _ in self.pieces)

        def coeff(c, values):
            values = iter(values)
            out = np.empty((len(c), len(fs)))
            for j in range(len(fs)):
                out[:, j] = next(values)     # each functional's values go once copied
            return out

        def coeffs(ns):
            # one walk of the sequence evaluates every functional on each chunk
            return map(coeff, ns, seq.structure.functionals(seq, fs, ns))

        basis = tuple(y0 for _, y0 in self.pieces)
        if self.codomain.kind == "dense":
            # a combination of fixed dense elements is just a dense block
            mat = np.asarray([y0.coords for y0 in basis])
            return DenseBlock(lambda ns: map(np.matmul, coeffs(ns), itertools.repeat(mat)))
        return FixedBasisCombo(coeffs, basis)

    def describe(self):
        body = ";".join(f"{f.describe()},{spaces.format_element(y0)}" for f, y0 in self.pieces)
        if self.domain.kind == "dense":          # the sparse domain goes unsaid
            body = f"dim={self.domain.dim};{body}"
        return f"{self.name}({body})"


@dataclass(frozen=True, eq=False, repr=False)
class Matrix(OperatorSpec):
    """``x -> a @ x`` from ``dense:a.shape[1]`` to ``dense:a.shape[0]``; ``a`` is read-only."""

    a: np.ndarray
    domain = property(lambda self: dense_space(self.a.shape[1]))
    codomain = property(lambda self: dense_space(self.a.shape[0]))

    def evaluate(self, x):
        return DenseElement(tuple(float(v) for v in self.a @ np.asarray(x.coords)))

    def norm_bound(self):
        return float(np.linalg.svd(self.a, compute_uv=False)[0])

    def image_structure(self, seq):
        return seq.structure.matrix_image(self.a)

    def describe(self):
        rows = ("[" + ",".join(format_float(v) for v in row) + "]" for row in self.a.tolist())
        return f"matrix[{','.join(rows)}]"


@dataclass(frozen=True, eq=False, repr=False)
class Compose(OperatorSpec):
    """``x -> outer(inner(x))``."""

    outer: OperatorSpec
    inner: OperatorSpec
    domain = property(lambda self: self.inner.domain)
    codomain = property(lambda self: self.outer.codomain)

    def evaluate(self, x):
        return apply(self.outer, apply(self.inner, x))

    def norm_bound(self):
        a, b = operator_norm_bound(self.outer), operator_norm_bound(self.inner)
        return None if a is None or b is None else a * b

    def image_structure(self, seq):
        return image_sequence(self.outer, image_sequence(self.inner, seq)).structure

    def describe(self):
        return f"compose({self.outer.describe()},{self.inner.describe()})"


@dataclass(frozen=True, eq=False, repr=False)
class LinearCombo(OperatorSpec):
    """``x -> alpha s(x) + beta t(x)``."""

    alpha: float
    s: OperatorSpec
    beta: float
    t: OperatorSpec
    domain = property(lambda self: self.s.domain)
    codomain = property(lambda self: self.s.codomain)

    def evaluate(self, x):
        return spaces.add(spaces.scale(self.alpha, apply(self.s, x)),
                          spaces.scale(self.beta, apply(self.t, x)))

    def norm_bound(self):
        a, b = operator_norm_bound(self.s), operator_norm_bound(self.t)
        return None if a is None or b is None else abs(self.alpha) * a + abs(self.beta) * b

    def image_structure(self, seq):
        left = image_sequence(self.s, seq).structure
        return left.combined(image_sequence(self.t, seq).structure, self.alpha, self.beta)

    def describe(self):
        return (f"combo({format_float(self.alpha)},{self.s.describe()},"
                f"{format_float(self.beta)},{self.t.describe()})")


diagonal = Diagonal


def rank_one(f, y0):
    """``x -> f(x) y0`` on the sparse space: a one-piece finite-rank operator."""
    return FiniteRank(((f, y0),), "rank1", sparse_space())


def finite_rank(pieces, domain=None):
    """Sum of rank-one operators; ``pieces`` is a list of (functional, element)."""
    pieces = tuple((f, y0) for f, y0 in pieces)
    if not pieces:
        raise ValueError("finite_rank needs at least one rank-one piece")
    if len({spaces.space_of(y0) for _, y0 in pieces}) > 1:
        raise ValueError("finite_rank pieces must share a codomain")
    return FiniteRank(pieces, "finite_rank", domain or sparse_space())


def matrix_operator(rows):
    a = np.array(rows, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix operators need a 2-d coefficient array")
    a.flags.writeable = False
    return Matrix(a)


def _refuse_transforms(*ops):
    if any(isinstance(op, SequenceTransform) for op in ops):
        raise ValueError("sequence transforms act on whole sequences; "
                         "they cannot be composed or combined with other operators")


def compose(outer, inner):
    _refuse_transforms(outer, inner)
    if inner.codomain != outer.domain:
        raise ValueError(
            f"cannot compose: inner codomain {inner.codomain.describe()} "
            f"!= outer domain {outer.domain.describe()}"
        )
    return Compose(outer, inner)


def linear_combo(alpha, s, beta, t):
    _refuse_transforms(s, t)
    if s.domain != t.domain or s.codomain != t.codomain:
        raise ValueError("linear combinations need matching domains and codomains")
    return LinearCombo(float(alpha), s, float(beta), t)


def identity_operator():
    return diagonal("identity", lambda ks: np.ones(len(ks)), bound=1.0)


def apply(op, x):
    """Evaluate the operator at one element."""
    if isinstance(op, SequenceTransform):
        raise TypeError("sequence transforms are position-dependent; use image_sequence")
    if spaces.space_of(x) != op.domain:
        raise ValueError(
            f"operator domain {op.domain.describe()} does not accept "
            f"{spaces.space_of(x).describe()} elements"
        )
    return op.evaluate(x)


def operator_norm_bound(op):
    """Known upper bound on the operator norm, or None if unbounded/unknown."""
    return None if isinstance(op, SequenceTransform) else op.norm_bound()


# ---------------------------------------------------------------------------
# position-dependent transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SequenceTransform:
    """Maps a whole sequence by the positional rescaling ``y_n = scale_of(n) * x_n``,
    ``scale_of`` a function of index arrays."""

    label: str
    scale_of: Callable

    def describe(self):
        return f"transform({self.label})"


def prime_scale_values(ks):
    """``k`` on primes, ``1`` elsewhere (vectorised)."""
    ks = np.asarray(ks, dtype=np.int64)
    lo = int(ks.min())
    mask = density.primes().mask(lo, int(ks.max()))[ks - lo]
    return np.where(mask, ks.astype(float), 1.0)


def prime_position_transform():
    """Rescales the n-th term by n when n is prime and leaves it alone otherwise."""
    return SequenceTransform("prime_scale_by_position", prime_scale_values)


_TRANSFORM_NAMES = {
    "prime_scale_by_position": prime_position_transform,
}


# ---------------------------------------------------------------------------
# image sequences
# ---------------------------------------------------------------------------

def image_sequence(op, seq):
    """The sequence ``n -> op(x_n)`` (or ``scale_of(n) * x_n`` for transforms)."""
    if isinstance(op, SequenceTransform):
        scale_of = op.scale_of
        gen = seq.generator

        def tgen(n):
            return spaces.scale(scale_of(np.asarray([n], dtype=np.int64))[0], gen(n))

        return SequenceSpec(
            tgen, seq.space, f"{op.label}({seq.label})",
            structure=seq.structure.rescaled(op.scale_of),
        )

    if seq.space != op.domain:
        raise ValueError(
            f"operator domain {op.domain.describe()} does not accept "
            f"sequences in {seq.space.describe()}"
        )
    gen = seq.generator

    def igen(n):
        return apply(op, gen(n))

    ob = operator_norm_bound(op)
    bound = None if ob is None or seq.norm_bound is None else ob * seq.norm_bound
    structure = seq.structure
    if type(structure) is not Structure:   # a per-index sequence's image runs per index too
        structure = op.image_structure(seq)
    return SequenceSpec(
        igen, op.codomain, f"image({seq.label})", structure=structure, norm_bound=bound,
    )


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

def operator_norm_estimate(op, probes=64):
    """Lower bound on the operator norm from coordinate and random unit probes."""
    if isinstance(op, SequenceTransform):
        raise TypeError("sequence transforms have no single operator norm")
    candidates = []
    rng = np.random.default_rng(_ESTIMATE_SEED)
    if op.domain.kind == "dense":
        dim = op.domain.dim
        for k in range(1, dim + 1):
            candidates.append(spaces.unit_coordinate(op.domain, k))
        for _ in range(int(probes)):
            row = rng.random(dim) * 2.0 - 1.0
            if not row.any():
                continue
            candidates.append(DenseElement(tuple(row)))
    else:
        for k in range(1, int(probes) + 1):
            candidates.append(spaces.unit_coordinate(op.domain, k))
        for _ in range(int(probes)):
            support = rng.integers(1, max(2, int(probes)), size=4)
            vals = rng.random(4) * 2.0 - 1.0
            # a repeated index keeps its last draw
            idx, last = np.unique(support[::-1], return_index=True)
            x = spaces.sparse_from_arrays(idx, vals[::-1][last])
            if len(x.indices):
                candidates.append(x)
    best = 0.0
    for x in candidates:
        nx = spaces.norm(x)
        if nx == 0.0:
            continue
        best = max(best, spaces.norm(apply(op, x)) / nx)
    return best


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------

def _inverse_trunc(m):
    def dfun(ks):
        ks = np.asarray(ks, dtype=np.int64)
        return np.where(ks <= m, 1.0 / ks.astype(float), 0.0)

    return dfun


# the named diagonals without a cutoff; ``inverse_trunc`` is the one with
_DIAGONAL_NAMES = {
    "prime_scale": lambda: diagonal("prime_scale", prime_scale_values),
    "identity": identity_operator,
    "inverse": lambda: diagonal("inverse", lambda ks: 1.0 / np.asarray(ks, dtype=float), bound=1.0),
    "one_plus_inverse": lambda: diagonal(
        "one_plus_inverse", lambda ks: 1.0 + 1.0 / np.asarray(ks, dtype=float), bound=2.0),
    "index": lambda: diagonal("index", lambda ks: np.asarray(ks, dtype=float)),
}


def named_diagonal(name, arg=None):
    """The diagonal ``name``; ``arg`` is the cutoff of ``inverse_trunc``, the
    one named diagonal that takes one."""
    if name == "inverse_trunc":
        if arg is None:
            raise ValueError("inverse_trunc needs a cutoff, e.g. inverse_trunc(5)")
        if arg != int(arg) or arg < 1:
            raise ValueError(f"inverse_trunc needs a whole cutoff of at least 1, got {arg!r}")
        m = int(arg)
        return diagonal(f"inverse_trunc({m})", _inverse_trunc(m), bound=1.0)
    if name not in _DIAGONAL_NAMES:
        raise ValueError(f"unknown diagonal name {name!r}")
    if arg is not None:
        raise ValueError(f"diagonal {name!r} takes no cutoff")
    return _DIAGONAL_NAMES[name]()


def _parse_functional(cur):
    name = cur.ident()
    if name == "coord":
        return coordinate_functional(*cur.args(Cursor.integer))
    if name == "weights":
        return dense_weights(cur.items(Cursor.number, "[", "]", ","))
    if name in _FUNCTIONAL_NAMES:
        return _FUNCTIONAL_NAMES[name]()
    cur.error(f"unknown functional {name!r}")


def _parse_piece(cur):
    """``functional , element``: the one piece of ``rank1``, each piece of ``finite_rank``."""
    f = _parse_functional(cur)
    cur.expect(",")
    return f, spaces.parse_element_at(cur)


def _parse_operator(cur):
    name = cur.ident()
    if name == "diag":
        cur.expect("(")
        dname = cur.ident()
        if dname == "inverse_trunc":
            op = named_diagonal(dname, *cur.args(Cursor.integer))
        elif dname in _DIAGONAL_NAMES:
            op = _DIAGONAL_NAMES[dname]()
        else:
            cur.error(f"unknown diagonal {dname!r}")
        cur.expect(")")
        return op
    if name == "rank1":
        (f, y0), = cur.args(_parse_piece)
        return rank_one(f, y0)
    if name == "finite_rank":
        cur.expect("(")
        domain = None
        if cur.keyword("dim"):                   # a dense domain leads as ``dim=K;``
            cur.expect("=")
            domain = dense_space(cur.integer())
            cur.expect(";")
        return finite_rank(cur.items(_parse_piece, "", ")", ";"), domain)
    if name == "matrix":
        rows = cur.items(lambda c: c.items(Cursor.number, "[", "]", ","), "[", "]", ",")
        if any(len(r) != len(rows[0]) for r in rows):
            cur.error("matrix rows must share a length")
        return matrix_operator(rows)
    if name == "compose":
        return compose(*cur.args(_parse_operator, _parse_operator))
    if name == "combo":
        return linear_combo(*cur.args(Cursor.number, _parse_operator, Cursor.number, _parse_operator))
    if name == "transform":
        tname, = cur.args(Cursor.ident)
        if tname not in _TRANSFORM_NAMES:
            cur.error(f"unknown transform {tname!r}")
        return _TRANSFORM_NAMES[tname]()
    cur.error(f"unknown operator {name!r}")


def parse_operator(text):
    """Parse operator descriptors like ``diag(prime_scale)`` or ``matrix[[2,0],[0,3]]``."""
    return parse_whole(text, _parse_operator, "operator")


__all__ = [
    "LINEARITY_TOL",
    "FunctionalSpec",
    "OperatorSpec",
    "Diagonal",
    "FiniteRank",
    "Matrix",
    "Compose",
    "LinearCombo",
    "SequenceTransform",
    "coordinate_functional",
    "dense_weights",
    "sparse_weighted",
    "linear_growth_functional",
    "geometric_weights_functional",
    "diagonal",
    "named_diagonal",
    "rank_one",
    "finite_rank",
    "matrix_operator",
    "compose",
    "linear_combo",
    "identity_operator",
    "apply",
    "operator_norm_bound",
    "prime_scale_values",
    "prime_position_transform",
    "image_sequence",
    "operator_norm_estimate",
    "parse_operator",
]
