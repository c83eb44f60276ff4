"""Sequence generators over the dense and sparse spaces.

A :class:`SequenceSpec` couples a per-index generator with the space and
norm the sequence lives in.  Specs built by the constructors here also carry
a *structure*: a vectorised description of the whole sequence, one of the
:class:`Structure` kinds below.  Each kind answers through its own methods:
norm and distance sweeps, functional sweeps, windowed medians, and its image
under a diagonal, a matrix, a positional rescale, a linear combination or,
for subsequences, any operator.
All of these run over every ``n`` up to a horizon in a few numpy passes.
Where a kind cannot answer, and for sequences without a structure, callers
fall back to a per-index loop, which is fine for cheap generators and small
horizons but would be hopeless for, say, growing-support prefixes at
``n = 10^5``.

Structures are consistency-tested against the generators; they are an
evaluation strategy, never a second source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import density, parsing, spaces
from .density import HorizonExhausted
from .parsing import format_float
from .spaces import (
    DenseElement,
    Norm,
    Space,
    SparseElement,
    dense_space,
    norm as element_norm,
    p_norm,
    sparse_space,
    sub,
    sup_norm,
)

DEFAULT_DENSE_NORM = p_norm(2)
DEFAULT_SPARSE_NORM = sup_norm()

CORPUS_VERSION = "v1"


# ---------------------------------------------------------------------------
# structures: vectorised whole-sequence descriptions
# ---------------------------------------------------------------------------

def _upto(horizon):
    return np.arange(1, horizon + 1, dtype=np.int64)


class Structure:
    """The structure protocol: vectorised answers about a whole sequence.

    Each kind below overrides what it can answer.  A method returns ``None``
    where the kind cannot answer; the caller then evaluates the sequence
    index by index, exactly as for a sequence whose ``structure`` is None.
    """

    def sweep(self, norm, candidate, horizon):
        """``||x_n - candidate||`` (``||x_n||`` for ``candidate=None``), ``n = 1..horizon``."""
        return None

    def functional(self, f, horizon):
        """``f(x_n)`` for ``n = 1..horizon``; ``f`` is an ``operators.FunctionalSpec``."""
        return None

    def median(self, seq, ns):
        """Coordinatewise median of the terms at the sample indices ``ns``."""
        return None

    def diagonal_image(self, dfun, apply_to):
        """Structure of ``n -> D x_n``, ``D`` the diagonal ``dfun``; ``apply_to(x)`` is ``D x``."""
        return None

    def matrix_image(self, a):
        """Structure of ``n -> a @ x_n``."""
        return None

    def rescaled(self, scale_of):
        """Structure of ``n -> scale_of(n) * x_n``."""
        return None

    def combined(self, other, alpha, beta):
        """Structure of ``n -> alpha * x_n + beta * y_n``; ``other`` is that of ``y``."""
        return None

    def lifted(self, image_of):
        """Structure of ``n -> T x_n``; ``image_of(s)`` is the sequence ``n -> T s_n``."""
        return None


@dataclass(frozen=True)
class SingleSupport(Structure):
    """Sparse ``x_n = value_of(n) * e_{index_of(n)}``."""

    index_of: Callable
    value_of: Callable

    def sweep(self, norm, candidate, horizon):
        ns = _upto(horizon)
        idx = self.index_of(ns)
        val = self.value_of(ns).astype(float)
        if candidate is None:
            return np.abs(val)
        cidx, cval = _sparse_support_arrays(candidate)
        if len(cidx) == 0:
            return np.abs(val)
        acv = np.abs(cval)
        top = int(np.argmax(acv))
        top_val = acv[top]
        second = np.max(np.delete(acv, top)) if len(acv) > 1 else 0.0
        off = np.where(idx == cidx[top], second, top_val)
        pos = np.searchsorted(cidx, idx)
        pos_ok = (pos < len(cidx)) & (cidx[np.minimum(pos, len(cidx) - 1)] == idx)
        c_at = np.where(pos_ok, cval[np.minimum(pos, len(cidx) - 1)], 0.0)
        return np.maximum(np.abs(val - c_at), off)

    def functional(self, f, horizon):
        ns = _upto(horizon)
        return f.weights(self.index_of(ns)) * self.value_of(ns).astype(float)

    def median(self, seq, ns):
        # one row per support index, one column per sample; a sample's
        # entry is zero off its support index, as in the sparse element
        keys, rows = np.unique(self.index_of(ns), return_inverse=True)
        table = np.zeros((len(keys), len(ns)))
        table[rows, np.arange(len(ns))] = self.value_of(ns)
        med = np.median(table, axis=1)
        return spaces.sparse_element(dict(zip(keys.tolist(), med.tolist())))

    def diagonal_image(self, dfun, apply_to):
        return SingleSupport(
            self.index_of,
            lambda ns: dfun(self.index_of(ns)).astype(float) * self.value_of(ns),
        )

    def rescaled(self, scale_of):
        return SingleSupport(
            self.index_of,
            lambda ns: scale_of(np.asarray(ns, dtype=np.int64)) * self.value_of(ns),
        )

    def combined(self, other, alpha, beta):
        # only terms on one shared support index add up to a single support;
        # operator images of one sequence share the ``index_of`` object
        if type(other) is not SingleSupport or other.index_of is not self.index_of:
            return None
        return SingleSupport(
            self.index_of, lambda ns: alpha * self.value_of(ns) + beta * other.value_of(ns)
        )


@dataclass(frozen=True)
class PrefixValues(Structure):
    """Sparse ``x_n = {k -> value_of(k) : k <= n}``."""

    value_of: Callable

    def sweep(self, norm, candidate, horizon):
        vals = self.value_of(_upto(horizon)).astype(float)
        if candidate is None:
            return np.maximum.accumulate(np.abs(vals))
        cidx, cval = _sparse_support_arrays(candidate)
        j = int(cidx.max()) if len(cidx) else 0
        cfull = np.zeros(max(horizon, j))
        if len(cidx):
            cfull[cidx - 1] = cval
        diff = np.abs(vals - cfull[:horizon])
        prefix = np.maximum.accumulate(diff)
        suffix_part = np.zeros(horizon)
        if j > 1:
            tail = np.abs(cfull[:j])
            rev = np.maximum.accumulate(tail[::-1])[::-1]   # rev[i] = max_{t >= i} |c_{t+1}|
            upto = min(horizon, j - 1)
            suffix_part[:upto] = rev[1 : upto + 1]
        return np.maximum(prefix, suffix_part)

    def functional(self, f, horizon):
        ns = _upto(horizon)
        return np.cumsum(f.weights(ns) * self.value_of(ns).astype(float))

    def median(self, seq, ns):
        # prefix supports are nested, so the middle sample is the
        # coordinatewise median
        return seq.generator(int(np.median(ns)))

    def diagonal_image(self, dfun, apply_to):
        return PrefixValues(lambda ks: dfun(np.asarray(ks, dtype=np.int64)) * self.value_of(ks))

    def combined(self, other, alpha, beta):
        if type(other) is not PrefixValues:
            return None
        return PrefixValues(lambda ks: alpha * self.value_of(ks) + beta * other.value_of(ks))


@dataclass(frozen=True)
class FixedBasisCombo(Structure):
    """``x_n = sum_j coeff_of(n)[., j] * basis[j]`` over a fixed finite basis."""

    coeff_of: Callable      # (N,) int array -> (N, r) float array
    basis: tuple

    def sweep(self, norm, candidate, horizon):
        coeff = self.coeff_of(_upto(horizon))
        support = set()
        for b in self.basis:
            support.update(b.support.keys())
        if candidate is not None:
            support.update(candidate.support.keys())
        uidx = np.asarray(sorted(support), dtype=np.int64)
        mat = np.zeros((len(self.basis), len(uidx)))
        lookup = {k: t for t, k in enumerate(uidx)}
        for r, b in enumerate(self.basis):
            for k, v in b.support.items():
                mat[r, lookup[k]] = v
        offset = None
        if candidate is not None:
            offset = np.zeros(len(uidx))
            for k, v in candidate.support.items():
                offset[lookup[k]] = v
        if len(uidx) == 0:
            return np.zeros(horizon)
        return _chunked_abs_rowmax(coeff, mat, offset)

    def functional(self, f, horizon):
        fvec = np.asarray([f.evaluate(b) for b in self.basis])
        return self.coeff_of(_upto(horizon)) @ fvec

    def median(self, seq, ns):
        med = np.median(self.coeff_of(ns), axis=0)
        out = spaces.zero(seq.space)
        for c, b in zip(med, self.basis):
            out = spaces.add(out, spaces.scale(float(c), b))
        return out

    def diagonal_image(self, dfun, apply_to):
        return FixedBasisCombo(self.coeff_of, tuple(apply_to(b) for b in self.basis))

    def rescaled(self, scale_of):
        return FixedBasisCombo(
            lambda ns: self.coeff_of(ns) * scale_of(np.asarray(ns, dtype=np.int64))[:, None],
            self.basis,
        )

    def combined(self, other, alpha, beta):
        if type(other) is not FixedBasisCombo:
            return None

        def coeff_of(ns):
            return np.concatenate([alpha * self.coeff_of(ns), beta * other.coeff_of(ns)], axis=1)

        return FixedBasisCombo(coeff_of, self.basis + other.basis)


@dataclass(frozen=True)
class DenseBlock(Structure):
    """Dense rows: ``block_of(ns)`` returns the ``(len(ns), dim)`` coordinate rows."""

    block_of: Callable

    def sweep(self, norm, candidate, horizon):
        block = self.block_of(_upto(horizon))
        if candidate is not None:
            block = block - np.asarray(candidate.coords)[None, :]
        return _block_norms(block, norm)

    def functional(self, f, horizon):
        block = self.block_of(_upto(horizon))
        return block @ f.weights_upto(block.shape[1])

    def median(self, seq, ns):
        return spaces.dense_element(np.median(self.block_of(ns), axis=0))

    def diagonal_image(self, dfun, apply_to):
        def block_of(ns):
            block = self.block_of(ns)
            return block * dfun(np.arange(1, block.shape[1] + 1, dtype=np.int64))[None, :]

        return DenseBlock(block_of)

    def matrix_image(self, a):
        return DenseBlock(lambda ns: self.block_of(ns) @ a.T)

    def rescaled(self, scale_of):
        return DenseBlock(
            lambda ns: self.block_of(ns) * scale_of(np.asarray(ns, dtype=np.int64))[:, None]
        )

    def combined(self, other, alpha, beta):
        if type(other) is not DenseBlock:
            return None
        return DenseBlock(lambda ns: alpha * self.block_of(ns) + beta * other.block_of(ns))


@dataclass(frozen=True)
class Reindexed(Structure):
    """``x_k = parent`` at the k-th member of the index set ``along`` (see :func:`subsequence`)."""

    parent: "SequenceSpec"
    along: object
    _members: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def members_upto(self, count):
        """The first ``count`` members of ``along``, as an index array."""
        have = self._members.get("members")
        if have is None or len(have) < count:
            try:
                self._members["members"] = density.members(self.along, max(count, 64))
            except density.HorizonExhausted:
                # the set may simply be smaller than the chunk; only a
                # request it genuinely cannot satisfy should raise
                self._members["members"] = density.members(self.along, count)
        return self._members["members"][:count]

    def sweep(self, norm, candidate, horizon):
        m = self.members_upto(horizon)
        parent_sweep = (
            norm_sweep(self.parent, int(m[-1]))
            if candidate is None
            else distance_sweep(self.parent, candidate, int(m[-1]))
        )
        return parent_sweep[m - 1]

    def functional(self, f, horizon):
        m = self.members_upto(horizon)
        return functional_sweep(f, self.parent, int(m[-1]))[m - 1]

    def median(self, seq, ns):
        st = self.parent.structure
        if st is None:
            return None
        return st.median(self.parent, self.members_upto(int(ns.max()))[ns - 1])

    def lifted(self, image_of):
        # T(x_{m_k}) = (T x)_{m_k}: the image is the same subsequence of the parent's image
        return Reindexed(image_of(self.parent), self.along)


@dataclass(frozen=True)
class Scaled(Structure):
    """``x_n = scale_of(n) * parent_n`` (norm sweeps only; distances stay generic)."""

    parent: "SequenceSpec"
    scale_of: Callable

    def sweep(self, norm, candidate, horizon):
        if candidate is not None:
            return None
        base = norm_sweep(self.parent, horizon)
        return np.abs(self.scale_of(_upto(horizon)).astype(float)) * base

    def functional(self, f, horizon):
        base = functional_sweep(f, self.parent, horizon)
        return self.scale_of(_upto(horizon)).astype(float) * base


@dataclass(frozen=True)
class SequenceSpec:
    """A sequence of space elements, one per index ``n >= 1``."""

    generator: Callable
    space: Space
    norm: Norm
    label: str
    seed: Optional[int] = None
    structure: Optional[Structure] = None
    norm_bound: Optional[float] = None
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __repr__(self):
        return f"SequenceSpec({self.label!r}, {self.space.describe()}, {self.norm.describe()})"


def _as_index_array(ns):
    return np.asarray(ns, dtype=np.int64)


def _default_norm(space):
    return DEFAULT_DENSE_NORM if space.kind == "dense" else DEFAULT_SPARSE_NORM


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_sequence(space, norm=None):
    norm = norm or _default_norm(space)
    z = spaces.zero(space)
    if space.kind == "dense":
        dim = space.dim
        structure = DenseBlock(lambda ns: np.zeros((len(_as_index_array(ns)), dim)))
    else:
        structure = SingleSupport(
            lambda ns: np.ones(len(_as_index_array(ns)), dtype=np.int64),
            lambda ns: np.zeros(len(_as_index_array(ns))),
        )
    return SequenceSpec(lambda n: z, space, norm, "zero", structure=structure, norm_bound=0.0)


def constant_sequence(value, label=None):
    space = spaces.space_of(value)
    norm = _default_norm(space)
    if space.kind == "dense":
        row = np.asarray(value.coords)
        structure = DenseBlock(lambda ns: np.tile(row, (len(_as_index_array(ns)), 1)))
    else:
        structure = FixedBasisCombo(
            lambda ns: np.ones((len(_as_index_array(ns)), 1)), (value,)
        )
    return SequenceSpec(
        lambda n: value,
        space,
        norm,
        label or f"constant({spaces.format_element(value)})",
        structure=structure,
        norm_bound=element_norm(value, norm),
    )


def harmonic_prefix_sequence():
    """Growing prefixes of the reciprocals: ``x_n`` holds ``1/k`` at ``k <= n``."""

    def gen(n):
        return SparseElement({k: 1.0 / k for k in range(1, n + 1)})

    structure = PrefixValues(lambda ks: 1.0 / _as_index_array(ks).astype(float))
    return SequenceSpec(
        gen, sparse_space(), sup_norm(), "harmonic_prefix",
        structure=structure, norm_bound=1.0,
    )


def unit_coordinate_sequence():
    structure = SingleSupport(
        lambda ns: _as_index_array(ns),
        lambda ns: np.ones(len(_as_index_array(ns))),
    )
    return SequenceSpec(
        lambda n: SparseElement({n: 1.0}), sparse_space(), sup_norm(),
        "unit_coords", structure=structure, norm_bound=1.0,
    )


def prime_coordinate_sequence():
    """``x_n`` is the coordinate vector at the n-th prime."""

    def index_of(ns):
        ns = _as_index_array(ns)
        table = density.nth_primes(int(ns.max()))
        return table[ns - 1]

    structure = SingleSupport(index_of, lambda ns: np.ones(len(_as_index_array(ns))))
    return SequenceSpec(
        lambda n: SparseElement({int(density.nth_primes(n)[-1]): 1.0}),
        sparse_space(), sup_norm(), "prime_coords",
        structure=structure, norm_bound=1.0,
    )


def damped_unit_coordinate_sequence():
    """Coordinate vectors shrunk to norm ``1/sqrt(n)``: norm-null but spread out."""
    structure = SingleSupport(
        lambda ns: _as_index_array(ns),
        lambda ns: 1.0 / np.sqrt(_as_index_array(ns).astype(float)),
    )
    return SequenceSpec(
        lambda n: SparseElement({n: 1.0 / math.sqrt(n)}),
        sparse_space(), sup_norm(), "damped_unit_coords",
        structure=structure, norm_bound=1.0,
    )


def damped_prime_coordinate_sequence():
    def index_of(ns):
        ns = _as_index_array(ns)
        return density.nth_primes(int(ns.max()))[ns - 1]

    def value_of(ns):
        return 1.0 / np.sqrt(index_of(ns).astype(float))

    def gen(n):
        p = int(density.nth_primes(n)[-1])
        return SparseElement({p: 1.0 / math.sqrt(p)})

    return SequenceSpec(
        gen, sparse_space(), sup_norm(), "damped_prime_coords",
        structure=SingleSupport(index_of, value_of), norm_bound=1.0,
    )


def decaying_sequence(value, exponent=1.0, label=None):
    """``x_n = n^(-exponent) * value``; the workhorse null sequence."""
    space = spaces.space_of(value)
    norm = _default_norm(space)
    exponent = float(exponent)

    def gen(n):
        return spaces.scale(n ** (-exponent), value)

    if space.kind == "dense":
        row = np.asarray(value.coords)
        structure = DenseBlock(
            lambda ns: row[None, :] * (_as_index_array(ns).astype(float) ** -exponent)[:, None]
        )
    else:
        structure = FixedBasisCombo(
            lambda ns: (_as_index_array(ns).astype(float) ** -exponent)[:, None], (value,)
        )
    return SequenceSpec(
        gen, space, norm, label or f"null({spaces.format_element(value)})",
        structure=structure, norm_bound=element_norm(value, norm),
    )


def _identity_magnitude(ns):
    return np.asarray(ns, dtype=float)


def spike_sequence(base, spikes, magnitude=None, label=None):
    """``base`` with the terms on the index set ``spikes`` replaced.

    On a spike index ``n`` the term becomes ``magnitude(n) * e_n`` (sparse)
    or ``magnitude(n) * e_1`` (dense; the first coordinate carries dense
    spikes).  Off the spike set the base term passes through unchanged.
    ``magnitude`` must accept numpy index arrays; it defaults to ``n -> n``.
    """
    if isinstance(base, Space):
        base = zero_sequence(base)
    mag = magnitude if magnitude is not None else _identity_magnitude
    space, norm = base.space, base.norm
    base_gen = base.generator

    def mag_at(n):
        return float(mag(np.asarray([n], dtype=np.int64))[0])

    def mask_at(ns):
        ns = _as_index_array(ns)
        full = density.membership_mask(spikes, int(ns.max()))
        return full[ns - 1]

    if space.kind == "sparse":
        def gen(n):
            if spikes.contains(n):
                m = mag_at(n)
                return SparseElement({n: m} if m != 0.0 else {})
            return base_gen(n)

        structure = None
        if base.norm_bound == 0.0:
            structure = SingleSupport(
                lambda ns: _as_index_array(ns),
                lambda ns: np.where(mask_at(ns), mag(_as_index_array(ns)).astype(float), 0.0),
            )
    else:
        dim = space.dim

        def gen(n):
            if spikes.contains(n):
                coords = [0.0] * dim
                coords[0] = mag_at(n)
                return DenseElement(tuple(coords))
            return base_gen(n)

        structure = None
        if isinstance(base.structure, DenseBlock):
            base_block = base.structure.block_of

            def block_of(ns):
                ns = _as_index_array(ns)
                mask = mask_at(ns)
                block = base_block(ns).copy()
                block[mask] = 0.0
                block[mask, 0] = mag(ns).astype(float)[mask]
                return block

            structure = DenseBlock(block_of)

    return SequenceSpec(
        gen, space, norm,
        label or f"spike({spikes.describe()},n)",
        structure=structure, norm_bound=None,
    )


def index_sequence(dim=1):
    """``x_n = n * e_1`` in a dense space; the standard unbounded sequence."""
    space = dense_space(dim)

    def block_of(ns):
        ns = _as_index_array(ns)
        block = np.zeros((len(ns), dim))
        block[:, 0] = ns.astype(float)
        return block

    def gen(n):
        coords = [0.0] * dim
        coords[0] = float(n)
        return DenseElement(tuple(coords))

    return SequenceSpec(gen, space, DEFAULT_DENSE_NORM, "index_e1",
                        structure=DenseBlock(block_of))


def alternating_sequence(dim=1):
    """``x_n = (-1)^n * e_1`` in a dense space."""
    space = dense_space(dim)

    def block_of(ns):
        ns = _as_index_array(ns)
        block = np.zeros((len(ns), dim))
        block[:, 0] = np.where(ns % 2 == 0, 1.0, -1.0)
        return block

    def gen(n):
        coords = [0.0] * dim
        coords[0] = 1.0 if n % 2 == 0 else -1.0
        return DenseElement(tuple(coords))

    return SequenceSpec(gen, space, DEFAULT_DENSE_NORM, "alternating_e1",
                        structure=DenseBlock(block_of), norm_bound=1.0)


def _random_table(cache, seed, count, width):
    """Seeded uniform [-1, 1] table, grown as needed; prefixes are stable."""
    have = cache.get("table")
    if have is None or have.shape[0] < count:
        size = max(count, 2 * (have.shape[0] if have is not None else 0), 1024)
        rng = np.random.default_rng(seed)
        cache["table"] = rng.random((size, width)) * 2.0 - 1.0
    return cache["table"][:count]


def random_unit_ball(space, seed, norm=None):
    """Seeded random elements of norm at most 1; bitwise reproducible per seed."""
    norm = norm or _default_norm(space)
    seed = int(seed)
    cache = {}

    if space.kind == "dense":
        dim = space.dim

        def block_of(ns):
            # normalise only the rows asked for, in place in their own copy
            ns = _as_index_array(ns)
            rows = _random_table(cache, seed, int(ns.max()), dim)[ns - 1]
            if norm.kind == "sup":
                return rows   # already inside the sup ball
            rows /= np.maximum(_block_norms(rows, norm), 1.0)[:, None]
            return rows

        def gen(n):
            return DenseElement(tuple(float(c) for c in block_of([n])[0]))

        structure = DenseBlock(block_of)
    else:
        def values_upto(count):
            return _random_table(cache, seed, count, 1)[:, 0]

        def gen(n):
            v = float(values_upto(n)[n - 1])
            return SparseElement({n: v} if v != 0.0 else {})

        structure = SingleSupport(
            lambda ns: _as_index_array(ns),
            lambda ns: values_upto(int(_as_index_array(ns).max()))[_as_index_array(ns) - 1],
        )

    return SequenceSpec(
        gen, space, norm, f"random_ball_{seed}", seed=seed,
        structure=structure, norm_bound=1.0,
    )


def combine(a, b, alpha, beta, label=None):
    """Pointwise ``alpha * a_n + beta * b_n``."""
    if a.space != b.space:
        raise ValueError(f"cannot combine {a.space.describe()} with {b.space.describe()}")
    if a.norm != b.norm:
        raise ValueError("combined sequences must share a norm")
    alpha, beta = float(alpha), float(beta)
    ga, gb = a.generator, b.generator

    def gen(n):
        return spaces.add(spaces.scale(alpha, ga(n)), spaces.scale(beta, gb(n)))

    structure = None if a.structure is None else a.structure.combined(b.structure, alpha, beta)
    bound = None
    if a.norm_bound is not None and b.norm_bound is not None:
        bound = abs(alpha) * a.norm_bound + abs(beta) * b.norm_bound
    return SequenceSpec(
        gen, a.space, a.norm,
        label or f"combine({a.label},{b.label},{format_float(alpha)},{format_float(beta)})",
        structure=structure, norm_bound=bound,
    )


def subsequence(seq, along, label=None):
    """``x_k = seq`` at the k-th member of ``along``.

    Raises :class:`HorizonExhausted` if the set runs out of members (finite
    sets) or enumeration would pass the member cap of :func:`density.members`.
    """
    structure = Reindexed(seq, along)

    def gen(k):
        return seq.generator(int(structure.members_upto(k)[k - 1]))

    return SequenceSpec(
        gen, seq.space, seq.norm,
        label or f"subseq({seq.label},{along.describe()})",
        structure=structure,
        norm_bound=seq.norm_bound,
    )


# ---------------------------------------------------------------------------
# sweep engine
# ---------------------------------------------------------------------------

_CHUNK = 8192


def _chunked_abs_rowmax(coeff, mat, offset):
    """max_j |coeff @ mat - offset| per row, chunked to keep memory flat."""
    n = coeff.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        rows = coeff[lo:hi] @ mat
        if offset is not None:
            rows = rows - offset
        out[lo:hi] = np.max(np.abs(rows), axis=1) if rows.shape[1] else 0.0
    return out


def _sparse_support_arrays(x):
    """Support indices in increasing order and their values, as arrays."""
    size = len(x.support)
    idx = np.fromiter(x.support.keys(), dtype=np.int64, count=size)
    val = np.fromiter(x.support.values(), dtype=float, count=size)
    order = np.argsort(idx)
    return idx[order], val[order]


def _block_norms(block, nrm):
    mags = np.abs(block)
    if nrm.kind == "sup":
        return np.max(mags, axis=1)
    mags **= nrm.p   # in place: one block-sized temporary rather than two
    return np.sum(mags, axis=1) ** (1.0 / nrm.p)


def _is_zero_element(x):
    if isinstance(x, SparseElement):
        return not x.support
    return all(c == 0.0 for c in x.coords)


def _generic_sweep(seq, candidate, horizon):
    gen = seq.generator
    nrm = seq.norm
    if candidate is None:
        return np.asarray([element_norm(gen(n), nrm) for n in range(1, horizon + 1)])
    return np.asarray(
        [element_norm(sub(gen(n), candidate), nrm) for n in range(1, horizon + 1)]
    )


def _sweep(seq, candidate, horizon):
    """The structure's sweep, else the per-index one."""
    st = seq.structure
    arr = None if st is None else st.sweep(seq.norm, candidate, horizon)
    if arr is None:
        arr = _generic_sweep(seq, candidate, horizon)
    arr.setflags(write=False)
    return arr


def norm_sweep(seq, horizon):
    """``||x_n||`` for ``n = 1..horizon`` as one read-only array, cached per spec."""
    horizon = int(horizon)
    have = seq.cache.get("norms")
    if have is None or len(have) < horizon:
        have = seq.cache["norms"] = _sweep(seq, None, horizon)
    return have[:horizon]


def distance_sweep(seq, candidate, horizon):
    """``||x_n - candidate||`` for ``n = 1..horizon`` as one read-only array.

    Only the zero candidate's sweep (the norm sweep) is cached.
    """
    horizon = int(horizon)
    if spaces.space_of(candidate) != seq.space:
        raise ValueError("candidate lives in a different space than the sequence")
    if _is_zero_element(candidate):
        return norm_sweep(seq, horizon)
    return _sweep(seq, candidate, horizon)


def functional_sweep(f, seq, horizon):
    """``f(x_n)`` for ``n = 1..horizon``, vectorised when the structure allows."""
    horizon = int(horizon)
    st = seq.structure
    out = None if st is None else st.functional(f, horizon)
    if out is None:
        gen = seq.generator
        out = np.asarray([f.evaluate(gen(n)) for n in range(1, horizon + 1)])
    return out


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------

def _parse_space_arg(cur, default_dim=3):
    """Either ``sparse`` or ``dim=K`` (default dense:3)."""
    if cur.try_eat("sparse"):
        return sparse_space()
    if cur.try_eat("dim"):
        cur.expect("=")
        return dense_space(cur.integer())
    return dense_space(default_dim)


def _parse_magnitude(cur):
    """``n`` for the identity magnitude, or a numeric constant."""
    if cur.try_eat("n"):
        return None
    value = cur.number()
    return lambda ns: np.full(len(_as_index_array(ns)), float(value))


def parse_sequence_at(cur, default_seed=7):
    name = cur.ident()
    if name == "harmonic":
        return harmonic_prefix_sequence()
    if name == "unit_coords":
        return unit_coordinate_sequence()
    if name == "prime_coords":
        return prime_coordinate_sequence()
    if name == "damped_unit_coords":
        return damped_unit_coordinate_sequence()
    if name == "damped_prime_coords":
        return damped_prime_coordinate_sequence()
    if name == "zero":
        space = sparse_space()
        if cur.try_eat("("):
            space = _parse_space_arg(cur)
            cur.expect(")")
        return zero_sequence(space)
    if name in ("constant", "null"):
        cur.expect("(")
        value = spaces.parse_element_at(cur)
        cur.expect(")")
        if name == "constant":
            return constant_sequence(value)
        return decaying_sequence(value)
    if name == "index":
        cur.expect("(")
        space = _parse_space_arg(cur, default_dim=1)
        cur.expect(")")
        if space.kind != "dense":
            cur.error("index sequences are dense")
        return index_sequence(space.dim)
    if name == "alternating":
        cur.expect("(")
        space = _parse_space_arg(cur, default_dim=1)
        cur.expect(")")
        if space.kind != "dense":
            cur.error("alternating sequences are dense")
        return alternating_sequence(space.dim)
    if name == "spike":
        cur.expect("(")
        spikes = density.parse_index_set_at(cur)
        cur.expect(",")
        mag = _parse_magnitude(cur)
        space = sparse_space()
        if cur.try_eat(","):
            space = _parse_space_arg(cur)
        cur.expect(")")
        return spike_sequence(space, spikes, magnitude=mag)
    if name == "random":
        cur.expect("(")
        space = dense_space(3)
        seed = default_seed
        while not cur.try_eat(")"):
            if cur.try_eat("seed"):
                cur.expect("=")
                seed = cur.integer()
            else:
                space = _parse_space_arg(cur)
            if not cur.try_eat(","):
                cur.expect(")")
                break
        return random_unit_ball(space, seed)
    if name == "combine":
        cur.expect("(")
        a = parse_sequence_at(cur, default_seed)
        cur.expect(",")
        b = parse_sequence_at(cur, default_seed)
        cur.expect(",")
        alpha = cur.number()
        cur.expect(",")
        beta = cur.number()
        cur.expect(")")
        return combine(a, b, alpha, beta)
    if name == "subseq":
        cur.expect("(")
        seq = parse_sequence_at(cur, default_seed)
        cur.expect(",")
        along = density.parse_index_set_at(cur)
        cur.expect(")")
        return subsequence(seq, along)
    cur.error(f"unknown sequence {name!r}")


def parse_sequence(text, default_seed=7):
    """Parse sequence descriptors like ``harmonic`` or ``spike(squares,n)``."""
    cur = parsing.Cursor(text)
    seq = parse_sequence_at(cur, default_seed)
    cur.finish("sequence")
    return seq


__all__ = [
    "CORPUS_VERSION",
    "DEFAULT_DENSE_NORM",
    "DEFAULT_SPARSE_NORM",
    "HorizonExhausted",
    "SequenceSpec",
    "Structure",
    "SingleSupport",
    "PrefixValues",
    "FixedBasisCombo",
    "DenseBlock",
    "Reindexed",
    "Scaled",
    "zero_sequence",
    "constant_sequence",
    "harmonic_prefix_sequence",
    "unit_coordinate_sequence",
    "prime_coordinate_sequence",
    "damped_unit_coordinate_sequence",
    "damped_prime_coordinate_sequence",
    "decaying_sequence",
    "spike_sequence",
    "index_sequence",
    "alternating_sequence",
    "random_unit_ball",
    "combine",
    "subsequence",
    "parse_sequence",
    "parse_sequence_at",
    "norm_sweep",
    "distance_sweep",
    "functional_sweep",
]
