"""Linear operators between the supported spaces, plus position-dependent
sequence transforms.

Operators are descriptor records (diagonal, rank-one, finite-rank, matrix,
composition, linear combination) evaluated by :func:`apply`.  When an
operator is pushed through a structured sequence with
:func:`image_sequence`, the image keeps a vectorised structure wherever one
can be derived, so downstream sweeps stay fast; otherwise the image falls
back to per-index evaluation.

Diagonal coefficient functions and the weight functions of
``sparse_weighted`` functionals must accept numpy integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import density, sequences, spaces
from .parsing import Cursor, format_float
from .sequences import (
    DenseBlock,
    FixedBasisCombo,
    Scaled,
    SequenceSpec,
    functional_sweep,
)
from .spaces import DenseElement, Space, SparseElement, dense_space, sparse_space

LINEARITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalSpec:
    """A linear functional on one of the spaces.

    kinds: ``coordinate`` (params: index), ``dense_weights`` (params: weight
    tuple), ``sparse_weighted`` (params: name; ``wfun`` vectorised weight
    function, ``bounded`` advisory flag from the caller).
    """

    kind: str
    params: tuple = ()
    wfun: Optional[Callable] = None
    bounded: bool = True

    def weights(self, ks):
        """``f(e_k)`` at the int64 indices ``ks`` (zero off the support)."""
        if self.kind == "coordinate":
            return (ks == self.params[0]).astype(float)
        if self.kind == "dense_weights":
            w = np.asarray(self.params)
            return np.where(ks <= len(w), w[np.minimum(ks, len(w)) - 1], 0.0)
        return self.wfun(ks)

    def weights_upto(self, dim):
        """``f(e_k)`` for ``k = 1..dim``, the weights on ``dense:dim``."""
        if self.kind == "coordinate" and self.params[0] > dim:
            raise ValueError(f"coordinate {self.params[0]} outside dense:{dim}")
        return self.weights(np.arange(1, dim + 1, dtype=np.int64))

    def evaluate(self, x):
        if isinstance(x, SparseElement):
            idx, vals = sequences._sparse_support_arrays(x)
            return float(np.sum(self.weights(idx) * vals))
        return float(np.sum(self.weights_upto(len(x.coords)) * np.asarray(x.coords)))

    def norm_bound(self, domain_norm):
        """Known bound on ``|f(x)| / ||x||``, or None."""
        if self.kind == "coordinate":
            return 1.0
        if self.kind == "dense_weights":
            w = np.asarray(self.params)
            if domain_norm.kind == "sup":
                return float(np.sum(np.abs(w)))
            q = domain_norm.p / (domain_norm.p - 1) if domain_norm.p > 1 else np.inf
            if q == np.inf:
                return float(np.max(np.abs(w)))
            return float(np.sum(np.abs(w) ** q) ** (1.0 / q))
        return None

    def describe(self):
        if self.kind == "coordinate":
            return f"coord({self.params[0]})"
        if self.kind == "dense_weights":
            return "weights[" + ",".join(format_float(w) for w in self.params) + "]"
        return self.params[0]


def coordinate_functional(j):
    if j < 1:
        raise ValueError("coordinate functionals are indexed from 1")
    return FunctionalSpec("coordinate", (int(j),))


def dense_weights(weights):
    return FunctionalSpec("dense_weights", tuple(float(w) for w in weights))


def sparse_weighted(name, wfun, bounded):
    return FunctionalSpec("sparse_weighted", (name,), wfun=wfun, bounded=bounded)


def linear_growth_functional():
    """The classic unbounded functional: weight k at coordinate k."""
    return sparse_weighted("index_weights", lambda ks: ks.astype(float), bounded=False)


def geometric_weights_functional():
    return sparse_weighted("geometric_weights", lambda ks: 0.5 ** ks.astype(float), bounded=True)


_FUNCTIONAL_NAMES = {
    "index_weights": linear_growth_functional,
    "geometric_weights": geometric_weights_functional,
}


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorSpec:
    kind: str         # diagonal | rank_one | finite_rank | matrix | compose | linear_combo
    params: tuple
    domain: Space
    codomain: Space

    def describe(self):
        return _describe_operator(self)

    def __repr__(self):
        return f"OperatorSpec({self.describe()})"


def diagonal(name, dfun, space=None, bound=None):
    """Coordinatewise scaling ``(x_k) -> (d(k) x_k)``.

    ``dfun`` maps numpy integer arrays to the scaling coefficients; ``name``
    is used by the descriptor grammar.  ``bound`` is a known sup of ``|d|``
    when there is one.
    """
    space = space or sparse_space()
    return OperatorSpec("diagonal", (name, dfun, bound), space, space)


def rank_one(f, y0, domain=None):
    domain = domain or sparse_space()
    return OperatorSpec("rank_one", (f, y0), domain, spaces.space_of(y0))


def finite_rank(pieces, domain=None):
    """Sum of rank-one operators; ``pieces`` is a list of (functional, element)."""
    pieces = tuple((f, y0) for f, y0 in pieces)
    if not pieces:
        raise ValueError("finite_rank needs at least one rank-one piece")
    domain = domain or sparse_space()
    codomain = spaces.space_of(pieces[0][1])
    for _, y0 in pieces:
        if spaces.space_of(y0) != codomain:
            raise ValueError("finite_rank pieces must share a codomain")
    return OperatorSpec("finite_rank", pieces, domain, codomain)


def matrix_operator(rows):
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix operators need a 2-d coefficient array")
    return OperatorSpec(
        "matrix", (tuple(tuple(float(v) for v in row) for row in a),),
        dense_space(a.shape[1]), dense_space(a.shape[0]),
    )


def _matrix_array(op):
    return np.asarray(op.params[0])


def compose(outer, inner):
    if inner.codomain != outer.domain:
        raise ValueError(
            f"cannot compose: inner codomain {inner.codomain.describe()} "
            f"!= outer domain {outer.domain.describe()}"
        )
    return OperatorSpec("compose", (outer, inner), inner.domain, outer.codomain)


def linear_combo(alpha, s, beta, t):
    if s.domain != t.domain or s.codomain != t.codomain:
        raise ValueError("linear combinations need matching domains and codomains")
    return OperatorSpec(
        "linear_combo", (float(alpha), s, float(beta), t), s.domain, s.codomain
    )


def identity_operator(space=None):
    return diagonal("identity", lambda ks: np.ones(len(ks)), space, bound=1.0)


def apply(op, x):
    """Evaluate the operator at one element."""
    if isinstance(op, SequenceTransform):
        raise TypeError("sequence transforms are position-dependent; use image_sequence")
    if spaces.space_of(x) != op.domain:
        raise ValueError(
            f"operator domain {op.domain.describe()} does not accept "
            f"{spaces.space_of(x).describe()} elements"
        )
    if op.kind == "diagonal":
        dfun = op.params[1]
        if isinstance(x, SparseElement):
            if not x.support:
                return x
            idx = np.asarray(sorted(x.support.keys()), dtype=np.int64)
            vals = dfun(idx)
            out = {int(k): float(v) * x.support[int(k)] for k, v in zip(idx, vals)}
            return spaces.sparse_element(out)
        dim = len(x.coords)
        d = dfun(np.arange(1, dim + 1, dtype=np.int64))
        return DenseElement(tuple(float(a * b) for a, b in zip(d, x.coords)))
    if op.kind == "rank_one":
        f, y0 = op.params
        return spaces.scale(f.evaluate(x), y0)
    if op.kind == "finite_rank":
        out = spaces.zero(op.codomain)
        for f, y0 in op.params:
            out = spaces.add(out, spaces.scale(f.evaluate(x), y0))
        return out
    if op.kind == "matrix":
        a = _matrix_array(op)
        return DenseElement(tuple(float(v) for v in a @ np.asarray(x.coords)))
    if op.kind == "compose":
        outer, inner = op.params
        return apply(outer, apply(inner, x))
    if op.kind == "linear_combo":
        alpha, s, beta, t = op.params
        return spaces.add(
            spaces.scale(alpha, apply(s, x)), spaces.scale(beta, apply(t, x))
        )
    raise ValueError(f"unknown operator kind {op.kind!r}")


def operator_norm_bound(op):
    """Known upper bound on the operator norm, or None if unbounded/unknown."""
    if isinstance(op, SequenceTransform):
        return None
    if op.kind == "diagonal":
        return op.params[2]
    if op.kind == "rank_one":
        f, y0 = op.params
        fb = f.norm_bound(sequences._default_norm(op.domain))
        if fb is None:
            return None
        return fb * spaces.norm(y0, sequences._default_norm(op.codomain))
    if op.kind == "finite_rank":
        total = 0.0
        for f, y0 in op.params:
            fb = f.norm_bound(sequences._default_norm(op.domain))
            if fb is None:
                return None
            total += fb * spaces.norm(y0, sequences._default_norm(op.codomain))
        return total
    if op.kind == "matrix":
        return float(np.linalg.svd(_matrix_array(op), compute_uv=False)[0])
    if op.kind == "compose":
        outer, inner = op.params
        a, b = operator_norm_bound(outer), operator_norm_bound(inner)
        return None if a is None or b is None else a * b
    if op.kind == "linear_combo":
        alpha, s, beta, t = op.params
        a, b = operator_norm_bound(s), operator_norm_bound(t)
        return None if a is None or b is None else abs(alpha) * a + abs(beta) * b
    return None


# ---------------------------------------------------------------------------
# position-dependent transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SequenceTransform:
    """Maps a whole sequence by ``y_n = rule(n, x_n)``.

    When the rule is a positional rescaling ``y_n = scale(n) * x_n``, pass the
    vectorised ``scale_of`` so image sequences keep their structure.
    """

    rule: Callable
    label: str
    scale_of: Optional[Callable] = None

    def describe(self):
        return f"transform({self.label})"


def prime_scale_values(ks):
    """``k`` on primes, ``1`` elsewhere (vectorised)."""
    ks = np.asarray(ks, dtype=np.int64)
    mask = density.prime_mask(int(ks.max()))[ks]
    return np.where(mask, ks.astype(float), 1.0)


def prime_position_transform():
    """Rescales the n-th term by n when n is prime and leaves it alone otherwise."""

    def rule(n, x):
        return spaces.scale(float(n), x) if density.is_prime(n) else x

    return SequenceTransform(rule, "prime_scale_by_position", scale_of=prime_scale_values)


_TRANSFORM_NAMES = {
    "prime_scale_by_position": prime_position_transform,
}


# ---------------------------------------------------------------------------
# image sequences
# ---------------------------------------------------------------------------

def _image_structure(op, seq):
    st = seq.structure
    if st is None:
        return None
    lifted = st.lifted(lambda parent: image_sequence(op, parent))
    if lifted is not None:
        return lifted

    if op.kind == "diagonal":
        return st.diagonal_image(op.params[1], lambda x: apply(op, x))

    if op.kind in ("rank_one", "finite_rank"):
        pieces = [op.params] if op.kind == "rank_one" else list(op.params)
        basis = tuple(y0 for _, y0 in pieces)
        fs = [f for f, _ in pieces]

        def coeff_of(ns):
            horizon = int(np.asarray(ns).max())
            cols = [functional_sweep(f, seq, horizon)[np.asarray(ns) - 1] for f in fs]
            return np.stack(cols, axis=1)

        if op.codomain.kind == "dense":
            # a combination of fixed dense elements is just a dense block
            mat = np.asarray([y0.coords for y0 in basis])
            return DenseBlock(lambda ns: coeff_of(ns) @ mat)
        return FixedBasisCombo(coeff_of, basis)

    if op.kind == "matrix":
        return st.matrix_image(_matrix_array(op))

    if op.kind == "compose":
        outer, inner = op.params
        return _image_structure(outer, image_sequence(inner, seq))

    if op.kind == "linear_combo":
        alpha, s, beta, t = op.params
        left = image_sequence(s, seq).structure
        right = image_sequence(t, seq).structure
        return None if left is None else left.combined(right, alpha, beta)

    return None


def image_sequence(op, seq):
    """The sequence ``n -> op(x_n)`` (or ``rule(n, x_n)`` for transforms)."""
    if isinstance(op, SequenceTransform):
        rule = op.rule
        gen = seq.generator

        def tgen(n):
            return rule(n, gen(n))

        structure = None
        if op.scale_of is not None:
            if seq.structure is not None:
                structure = seq.structure.rescaled(op.scale_of)
            if structure is None:
                structure = Scaled(seq, op.scale_of)
        return SequenceSpec(
            tgen, seq.space, seq.norm, f"{op.label}({seq.label})",
            structure=structure,
        )

    if seq.space != op.domain:
        raise ValueError(
            f"operator domain {op.domain.describe()} does not accept "
            f"sequences in {seq.space.describe()}"
        )
    gen = seq.generator

    def igen(n):
        return apply(op, gen(n))

    norm = seq.norm if op.codomain == seq.space else sequences._default_norm(op.codomain)
    bound = None
    ob = operator_norm_bound(op)
    if ob is not None and seq.norm_bound is not None:
        bound = ob * seq.norm_bound
    return SequenceSpec(
        igen, op.codomain, norm, f"image({seq.label})",
        structure=_image_structure(op, seq), norm_bound=bound,
    )


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

def operator_norm_estimate(op, probes=64, seed=2024):
    """Lower bound on the operator norm from coordinate and random unit probes."""
    if isinstance(op, SequenceTransform):
        raise TypeError("sequence transforms have no single operator norm")
    dn, cn = sequences._default_norm(op.domain), sequences._default_norm(op.codomain)
    candidates = []
    if op.domain.kind == "dense":
        dim = op.domain.dim
        for k in range(1, dim + 1):
            candidates.append(spaces.unit_coordinate(op.domain, k))
        rng = np.random.default_rng(seed)
        for _ in range(int(probes)):
            row = rng.random(dim) * 2.0 - 1.0
            if not row.any():
                continue
            candidates.append(DenseElement(tuple(row)))
    else:
        for k in range(1, int(probes) + 1):
            candidates.append(SparseElement({k: 1.0}))
        rng = np.random.default_rng(seed)
        for _ in range(int(probes)):
            support = rng.integers(1, max(2, int(probes)), size=4)
            vals = rng.random(4) * 2.0 - 1.0
            x = spaces.sparse_element({int(k): float(v) for k, v in zip(support, vals)})
            if x.support:
                candidates.append(x)
    best = 0.0
    for x in candidates:
        nx = spaces.norm(x, dn)
        if nx == 0.0:
            continue
        best = max(best, spaces.norm(apply(op, x), cn) / nx)
    return best


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------

def _inverse_trunc(m):
    def dfun(ks):
        ks = np.asarray(ks, dtype=np.int64)
        return np.where(ks <= m, 1.0 / ks.astype(float), 0.0)

    return dfun


def named_diagonal(name, arg=None, space=None):
    if name == "prime_scale":
        return diagonal("prime_scale", prime_scale_values, space, bound=None)
    if name == "identity":
        return identity_operator(space)
    if name == "inverse":
        return diagonal("inverse", lambda ks: 1.0 / np.asarray(ks, dtype=float), space, bound=1.0)
    if name == "one_plus_inverse":
        return diagonal(
            "one_plus_inverse", lambda ks: 1.0 + 1.0 / np.asarray(ks, dtype=float),
            space, bound=2.0,
        )
    if name == "index":
        return diagonal("index", lambda ks: np.asarray(ks, dtype=float), space, bound=None)
    if name == "inverse_trunc":
        if arg is None:
            raise ValueError("inverse_trunc needs a cutoff, e.g. inverse_trunc(5)")
        return diagonal(f"inverse_trunc({arg})", _inverse_trunc(int(arg)), space, bound=1.0)
    raise ValueError(f"unknown diagonal name {name!r}")


def _describe_operator(op):
    if op.kind == "diagonal":
        return f"diag({op.params[0]})"
    if op.kind == "rank_one":
        f, y0 = op.params
        return f"rank1({f.describe()},{spaces.format_element(y0)})"
    if op.kind == "finite_rank":
        inner = ";".join(f"{f.describe()},{spaces.format_element(y0)}" for f, y0 in op.params)
        return f"finite_rank({inner})"
    if op.kind == "matrix":
        rows = op.params[0]
        body = ",".join("[" + ",".join(format_float(v) for v in row) + "]" for row in rows)
        return f"matrix[{body}]"
    if op.kind == "compose":
        outer, inner = op.params
        return f"compose({outer.describe()},{inner.describe()})"
    if op.kind == "linear_combo":
        alpha, s, beta, t = op.params
        return f"combo({format_float(alpha)},{s.describe()},{format_float(beta)},{t.describe()})"
    return op.kind


def _parse_functional(cur):
    name = cur.ident()
    if name == "coord":
        cur.expect("(")
        j = cur.integer()
        cur.expect(")")
        return coordinate_functional(j)
    if name == "weights":
        cur.expect("[")
        vals = [cur.number()]
        while cur.try_eat(","):
            vals.append(cur.number())
        cur.expect("]")
        return dense_weights(vals)
    if name in _FUNCTIONAL_NAMES:
        return _FUNCTIONAL_NAMES[name]()
    cur.error(f"unknown functional {name!r}")


def _parse_matrix(cur):
    cur.expect("[")
    rows = []
    while True:
        cur.expect("[")
        row = [cur.number()]
        while cur.try_eat(","):
            row.append(cur.number())
        cur.expect("]")
        rows.append(row)
        if not cur.try_eat(","):
            break
    cur.expect("]")
    if any(len(r) != len(rows[0]) for r in rows):
        cur.error("matrix rows must share a length")
    return matrix_operator(rows)


def _parse_operator(cur):
    name = cur.ident()
    if name == "diag":
        cur.expect("(")
        dname = cur.ident()
        arg = None
        if cur.try_eat("("):
            arg = cur.integer()
            cur.expect(")")
        cur.expect(")")
        return named_diagonal(dname, arg)
    if name == "rank1":
        cur.expect("(")
        f = _parse_functional(cur)
        cur.expect(",")
        y0 = spaces.parse_element_at(cur)
        cur.expect(")")
        return rank_one(f, y0)
    if name == "finite_rank":
        cur.expect("(")
        pieces = []
        while True:
            f = _parse_functional(cur)
            cur.expect(",")
            y0 = spaces.parse_element_at(cur)
            pieces.append((f, y0))
            if not cur.try_eat(";"):
                break
        cur.expect(")")
        return finite_rank(pieces)
    if name == "matrix":
        return _parse_matrix(cur)
    if name == "compose":
        cur.expect("(")
        outer = _parse_operator(cur)
        cur.expect(",")
        inner = _parse_operator(cur)
        cur.expect(")")
        return compose(outer, inner)
    if name == "combo":
        cur.expect("(")
        alpha = cur.number()
        cur.expect(",")
        s = _parse_operator(cur)
        cur.expect(",")
        beta = cur.number()
        cur.expect(",")
        t = _parse_operator(cur)
        cur.expect(")")
        return linear_combo(alpha, s, beta, t)
    if name == "transform":
        cur.expect("(")
        tname = cur.ident()
        cur.expect(")")
        if tname not in _TRANSFORM_NAMES:
            cur.error(f"unknown transform {tname!r}")
        return _TRANSFORM_NAMES[tname]()
    cur.error(f"unknown operator {name!r}")


def parse_operator(text):
    """Parse operator descriptors like ``diag(prime_scale)`` or ``matrix[[2,0],[0,3]]``."""
    cur = Cursor(text)
    op = _parse_operator(cur)
    cur.finish("operator")
    return op


__all__ = [
    "LINEARITY_TOL",
    "FunctionalSpec",
    "OperatorSpec",
    "SequenceTransform",
    "coordinate_functional",
    "dense_weights",
    "sparse_weighted",
    "linear_growth_functional",
    "geometric_weights_functional",
    "functional_sweep",
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
