"""Sequence generators over the dense and sparse spaces.

A :class:`SequenceSpec` couples a per-index generator with the space the
sequence lives in, whose norm measures it, and with a *structure* that
answers questions about the whole sequence: norm and distance sweeps,
functional sweeps, windowed medians, and its image under a diagonal, a
matrix, a positional rescale, a linear combination or, for subsequences,
any operator.
The base :class:`Structure` is the per-index kind: it evaluates the
generator term by term, which is fine for cheap generators and small
horizons but would be hopeless for, say, growing-support prefixes at
``n = 10^5``.  The constructors here give their specs a vectorised kind
instead, which answers in a few numpy passes and leaves to the per-index
kind only what it cannot answer.

Every structure method takes an increasing int64 array ``ns`` of the
indices it is asked about and evaluates only those, one chunk of at most
``_CHUNK`` indices at a time: a sweep holds its ``len(ns)`` results and no
temporary wider than one chunk, so its memory is ``O(len(ns))`` words
whatever the dimension or support width.  A prefix kind walks
``1..ns[-1]`` once, chunk by chunk, carrying its running state.  A
subsequence asks its parent only about its members: a *pointwise* kind (term
``n`` depends on ``n`` alone) read at them is the same kind, and only prefix
and per-index parents give :class:`Reindexed`.

A seeded random member keeps no rows either: row ``k`` of a ``w``-wide
member is outputs ``(k-1)*w .. k*w - 1`` of ``PCG64(seed)``, and each chunk
or term draws the rows it asks for from there (see :func:`_random_rows`).

Structures are consistency-tested against the generators; they are an
evaluation strategy, never a second source of truth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import density, spaces
from .density import HorizonExhausted
from .parsing import Cursor, format_float, parse_whole, whole_number
from .spaces import (
    DenseElement,
    Space,
    SparseElement,
    dense_space,
    norm as element_norm,
    sparse_space,
    sub,
)

CORPUS_VERSION = "v1"


# ---------------------------------------------------------------------------
# chunks: every sweep evaluates its indices this many at a time
# ---------------------------------------------------------------------------

# small enough that a chunk of 8-wide rows (1 MB) stays in cache, which
# measured faster than fewer, larger chunks; a sweep to 10^5 is 7 chunks
_CHUNK = 1 << 14


def _upto(horizon):
    return np.arange(1, horizon + 1, dtype=np.int64)


def _spans(count):
    """``(lo, hi)`` bounds of the consecutive chunks of ``count`` positions."""
    return [(lo, min(lo + _CHUNK, count)) for lo in range(0, count, _CHUNK)]


def _chunks(ns):
    return (ns[lo:hi] for lo, hi in _spans(len(ns)))


def _pointwise(fn):
    """The chunk stream of ``fn``, a function of index arrays whose value at
    an index does not depend on the other indices."""
    return lambda ns: map(fn, _chunks(ns))


def _joined(blocks):
    blocks = list(blocks)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _fill(ns, blocks, fn):
    """``fn`` of each block of the chunk stream ``blocks`` over ``ns``, written
    into one array of ``len(ns)`` values.

    ``fn`` must return a new array (or a list): a lone chunk's result is
    returned as it is, and callers write into what they get.
    """
    spans = _spans(len(ns))
    if len(spans) == 1:
        return np.asarray(fn(next(iter(blocks))), dtype=float)
    out = np.empty(len(ns))
    for (lo, hi), block in zip(spans, blocks):
        out[lo:hi] = fn(block)
    return out


def _rescale(vals, ns, factor_of):
    """``vals * factor_of(ns)`` in place, one chunk at a time."""
    for lo, hi in _spans(len(ns)):
        vals[lo:hi] *= factor_of(ns[lo:hi])
    return vals


# ---------------------------------------------------------------------------
# structures: per-index and vectorised whole-sequence evaluation
# ---------------------------------------------------------------------------

class Structure:
    """The structure protocol, and its per-index kind.

    This base kind answers every question by evaluating the generator term
    by term.  Each vectorised kind below overrides what it can answer and
    leaves the rest to this one.  ``ns`` is always an increasing int64
    index array.
    """

    def sweep(self, seq, candidate, ns):
        """``||x_n - candidate||`` (``||x_n||`` for ``candidate=None``) at ``n`` in ``ns``."""
        gen = seq.generator
        if candidate is None:
            def term(n):
                return element_norm(gen(n))
        else:
            def term(n):
                return element_norm(sub(gen(n), candidate))
        return _fill(ns, _chunks(ns), lambda c: [term(n) for n in c.tolist()])

    def functional(self, seq, f, ns):
        """``f(x_n)`` at ``n`` in ``ns``; ``f`` is an ``operators.FunctionalSpec``."""
        gen = seq.generator
        return _fill(ns, _chunks(ns), lambda c: [f.evaluate(gen(n)) for n in c.tolist()])

    def median(self, seq, ns):
        """Coordinatewise median of the terms at the sample indices ``ns``."""
        gen = seq.generator
        elements = [gen(int(n)) for n in ns]
        if seq.space.kind == "dense":
            return spaces.dense_element(np.median([x.coords for x in elements], axis=0))
        support = sorted({k for x in elements for k in x.support})
        out = {}
        for k in support:
            vals = np.asarray([x.support.get(k, 0.0) for x in elements])
            out[k] = float(np.median(vals))
        return spaces.sparse_element(out)

    def diagonal_image(self, dfun, apply_to):
        """Structure of ``n -> D x_n``, ``D`` the diagonal ``dfun``; ``apply_to(x)`` is ``D x``."""
        return Structure()

    def matrix_image(self, a):
        """Structure of ``n -> a @ x_n``."""
        return Structure()

    def rescaled(self, seq, scale_of):
        """Structure of ``n -> scale_of(n) * x_n``, ``seq`` the sequence ``x``."""
        return Scaled(seq, scale_of)

    def combined(self, other, alpha, beta):
        """Structure of ``n -> alpha * x_n + beta * y_n``; ``other`` is that of ``y``."""
        return Structure()

    def lifted(self, image_of):
        """Structure of ``n -> T x_n`` for any operator ``T``, or None where it
        depends on ``T``; ``image_of(s)`` is the sequence ``n -> T s_n``."""
        return None

    def reindexed(self, seq, at):
        """Structure of ``k -> x_{m_k}``; ``seq`` is ``x``, ``at(ks)`` the indices ``m_k``."""
        return Reindexed(seq, at)


@dataclass(frozen=True)
class SingleSupport(Structure):
    """Sparse ``x_n = value_of(n) * e_{index_of(n)}``."""

    index_of: Callable
    value_of: Callable

    def sweep(self, seq, candidate, ns):
        if candidate is None or not candidate.support:
            return _fill(ns, _chunks(ns), lambda c: np.abs(self.value_of(c).astype(float)))
        cidx, cval = _sparse_support_arrays(candidate)
        acv = np.abs(cval)
        top = int(np.argmax(acv))
        top_val = acv[top]
        second = np.max(np.delete(acv, top)) if len(acv) > 1 else 0.0
        last = len(cidx) - 1

        def distances(c):
            idx = self.index_of(c)
            val = self.value_of(c).astype(float)
            off = np.where(idx == cidx[top], second, top_val)
            pos = np.minimum(np.searchsorted(cidx, idx), last)
            c_at = np.where(cidx[pos] == idx, cval[pos], 0.0)
            return np.maximum(np.abs(val - c_at), off)

        return _fill(ns, _chunks(ns), distances)

    def functional(self, seq, f, ns):
        return _fill(ns, _chunks(ns),
                     lambda c: f.weights(self.index_of(c)) * self.value_of(c).astype(float))

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

    def rescaled(self, seq, scale_of):
        return SingleSupport(
            self.index_of,
            lambda ns: scale_of(np.asarray(ns, dtype=np.int64)) * self.value_of(ns),
        )

    def combined(self, other, alpha, beta):
        # only terms on one shared support index add up to a single support;
        # operator images of one sequence share the ``index_of`` object
        if type(other) is not SingleSupport or other.index_of is not self.index_of:
            return super().combined(other, alpha, beta)
        return SingleSupport(
            self.index_of, lambda ns: alpha * self.value_of(ns) + beta * other.value_of(ns)
        )

    def reindexed(self, seq, at):
        return SingleSupport(lambda ks: self.index_of(at(ks)), lambda ks: self.value_of(at(ks)))


@dataclass(frozen=True)
class PrefixValues(Structure):
    """Sparse ``x_n = {k -> value_of(k) : k <= n}``."""

    value_of: Callable

    @staticmethod
    def _walk(ns, step):
        """``step`` over ``1..ns[-1]``, one chunk of consecutive indices at a
        time and in order (so it may carry state across chunks), kept at ``ns``."""
        out = np.empty(len(ns))
        at = 0
        for lo, hi in _spans(int(ns[-1]) if len(ns) else 0):
            vals = step(np.arange(lo + 1, hi + 1, dtype=np.int64))
            end = at + int(np.searchsorted(ns[at:], hi, side="right"))
            out[at:end] = vals[ns[at:end] - (lo + 1)]
            at = end
        return out

    def sweep(self, seq, candidate, ns):
        # x_n - c is value_of(k) - c_k at k <= n and -c_k past n, so its sup
        # norm is the running max of the first part against max_{k>n} |c_k|
        c = np.zeros(0)
        if candidate is not None:
            cidx, cval = _sparse_support_arrays(candidate)
            if len(cidx):
                c = np.zeros(int(cidx[-1]))
                c[cidx - 1] = cval
        j = len(c)
        later = np.maximum.accumulate(np.abs(c)[::-1])[::-1]   # later[i] = max_{t >= i} |c[t]|
        carry = 0.0

        def step(ks):
            nonlocal carry
            lo, hi = int(ks[0]) - 1, int(ks[-1])
            diff = self.value_of(ks).astype(float)
            if lo < j:
                diff[: min(hi, j) - lo] -= c[lo:hi]
            run = np.maximum.accumulate(np.abs(diff, out=diff))
            np.maximum(run, carry, out=run)
            carry = run[-1]
            upto = min(hi, j - 1)
            if upto > lo:
                np.maximum(run[: upto - lo], later[lo + 1 : upto + 1], out=run[: upto - lo])
            return run

        return self._walk(ns, step)

    def functional(self, seq, f, ns):
        # the running sum is carried into the first term of the next chunk,
        # so the partial sums are those of one cumsum over 1..ns[-1]
        carry = None

        def step(ks):
            nonlocal carry
            terms = f.weights(ks) * self.value_of(ks).astype(float)
            if carry is not None:
                terms[0] += carry
            np.cumsum(terms, out=terms)
            carry = terms[-1]
            return terms

        return self._walk(ns, step)

    def median(self, seq, ns):
        # prefix supports are nested: coordinate k is nonzero exactly in the
        # samples n >= k, so the median is value_of(k) up to the middle
        # sample and 0 past it.  An even window has two middle samples:
        # between them half of the samples hold value_of(k), the median half
        ns = np.sort(ns)
        mid = len(ns) // 2
        ks = _upto(int(ns[mid]))
        vals = self.value_of(ks).astype(float)
        if len(ns) % 2 == 0:
            vals[int(ns[mid - 1]):] /= 2
        return spaces.sparse_element(dict(zip(ks.tolist(), vals.tolist())))

    def diagonal_image(self, dfun, apply_to):
        return PrefixValues(lambda ks: dfun(np.asarray(ks, dtype=np.int64)) * self.value_of(ks))

    def combined(self, other, alpha, beta):
        if type(other) is not PrefixValues:
            return super().combined(other, alpha, beta)
        return PrefixValues(lambda ks: alpha * self.value_of(ks) + beta * other.value_of(ks))


@dataclass(frozen=True)
class FixedBasisCombo(Structure):
    """``x_n = sum_j coeff[n, j] * basis[j]`` over a fixed finite basis.

    ``coeffs(ns)`` yields the ``(len(chunk), r)`` coefficient rows of each
    chunk of ``ns`` in turn.
    """

    coeffs: Callable
    basis: tuple

    def _support_matrix(self, extra=()):
        """The basis support joined with the indices ``extra``, increasing, and
        the basis rows over it, one row per basis element."""
        support = set(extra)
        for b in self.basis:
            support.update(b.support.keys())
        uidx = np.asarray(sorted(support), dtype=np.int64)
        mat = np.zeros((len(self.basis), len(uidx)))
        for r, b in enumerate(self.basis):
            idx, val = _sparse_support_arrays(b)
            mat[r, np.searchsorted(uidx, idx)] = val
        return uidx, mat

    def sweep(self, seq, candidate, ns):
        uidx, mat = self._support_matrix(() if candidate is None else candidate.support)
        if len(uidx) == 0:
            return np.zeros(len(ns))
        offset = None
        if candidate is not None:
            cidx, cval = _sparse_support_arrays(candidate)
            offset = np.zeros(len(uidx))
            offset[np.searchsorted(uidx, cidx)] = cval

        def distances(coeff):
            rows = coeff @ mat
            if offset is not None:
                rows -= offset
            return _abs_rowmax(rows)

        return _fill(ns, self.coeffs(ns), distances)

    def functional(self, seq, f, ns):
        fvec = np.asarray([f.evaluate(b) for b in self.basis])
        return _fill(ns, self.coeffs(ns), lambda coeff: coeff @ fvec)

    def median(self, seq, ns):
        # coordinatewise over the support: basis supports may overlap
        uidx, mat = self._support_matrix()
        med = np.median(_joined(self.coeffs(ns)) @ mat, axis=0)
        return spaces.sparse_element(dict(zip(uidx.tolist(), med.tolist())))

    def diagonal_image(self, dfun, apply_to):
        return FixedBasisCombo(self.coeffs, tuple(apply_to(b) for b in self.basis))

    def rescaled(self, seq, scale_of):
        def coeffs(ns):
            return (coeff * scale_of(c)[:, None] for c, coeff in zip(_chunks(ns), self.coeffs(ns)))

        return FixedBasisCombo(coeffs, self.basis)

    def combined(self, other, alpha, beta):
        if type(other) is not FixedBasisCombo:
            return super().combined(other, alpha, beta)

        def coeffs(ns):
            return (np.concatenate([alpha * a, beta * b], axis=1)
                    for a, b in zip(self.coeffs(ns), other.coeffs(ns)))

        return FixedBasisCombo(coeffs, self.basis + other.basis)

    def reindexed(self, seq, at):
        return FixedBasisCombo(lambda ks: self.coeffs(at(ks)), self.basis)


@dataclass(frozen=True)
class DenseBlock(Structure):
    """Dense rows: ``rows(ns)`` yields the ``(len(chunk), dim)`` coordinate
    rows of each chunk of ``ns`` in turn."""

    rows: Callable

    def block_of(self, ns):
        """The coordinate rows at ``ns``, all at once."""
        return _joined(self.rows(_as_index_array(ns)))

    def sweep(self, seq, candidate, ns):
        c = None if candidate is None else np.asarray(candidate.coords)[None, :]

        def norms(block):
            return _block_norms(block if c is None else block - c)

        return _fill(ns, self.rows(ns), norms)

    def functional(self, seq, f, ns):
        return _fill(ns, self.rows(ns), lambda block: block @ f.weights_upto(block.shape[1]))

    def median(self, seq, ns):
        return spaces.dense_element(np.median(self.block_of(ns), axis=0))

    def matrix_image(self, a):
        # a C-ordered copy of a.T: the same bits as ``block @ a.T``, and
        # several times faster on narrow blocks
        at = np.ascontiguousarray(a.T)
        return DenseBlock(lambda ns: (block @ at for block in self.rows(ns)))

    def rescaled(self, seq, scale_of):
        def rows(ns):
            return (block * scale_of(c)[:, None] for c, block in zip(_chunks(ns), self.rows(ns)))

        return DenseBlock(rows)

    def combined(self, other, alpha, beta):
        if type(other) is not DenseBlock:
            return super().combined(other, alpha, beta)
        return DenseBlock(lambda ns: (alpha * a + beta * b
                                      for a, b in zip(self.rows(ns), other.rows(ns))))

    def reindexed(self, seq, at):
        return DenseBlock(lambda ks: self.rows(at(ks)))


@dataclass(frozen=True)
class Reindexed(Structure):
    """``x_k = parent_{m_k}``, ``at(ks)`` the members ``m_k`` (see :func:`subsequence`),
    for a parent that is not pointwise: a prefix, per-index or scaled one.

    Every question about the terms ``ns`` is asked of the parent at their
    member indices, and only there.
    """

    parent: "SequenceSpec"
    at: Callable

    def sweep(self, seq, candidate, ns):
        return self.parent.structure.sweep(self.parent, candidate, self.at(ns))

    def functional(self, seq, f, ns):
        return self.parent.structure.functional(self.parent, f, self.at(ns))

    def median(self, seq, ns):
        return self.parent.structure.median(self.parent, self.at(ns))

    def lifted(self, image_of):
        # T(x_{m_k}) = (T x)_{m_k}: the image is the same subsequence of the parent's image
        image = image_of(self.parent)
        return image.structure.reindexed(image, self.at)


@dataclass(frozen=True)
class Scaled(Structure):
    """``x_n = scale_of(n) * parent_n``; distance sweeps and medians run per index."""

    parent: "SequenceSpec"
    scale_of: Callable

    def sweep(self, seq, candidate, ns):
        if candidate is not None:
            return super().sweep(seq, candidate, ns)
        base = self.parent.structure.sweep(self.parent, None, ns)
        return _rescale(base, ns, lambda c: np.abs(self.scale_of(c).astype(float)))

    def functional(self, seq, f, ns):
        base = self.parent.structure.functional(self.parent, f, ns)
        return _rescale(base, ns, lambda c: self.scale_of(c).astype(float))


@dataclass(frozen=True)
class SequenceSpec:
    """A sequence of space elements, one per index ``n >= 1``."""

    generator: Callable
    space: Space
    label: str
    structure: Structure = Structure()
    norm_bound: Optional[float] = None
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __repr__(self):
        return f"SequenceSpec({self.label!r}, {self.space.describe()})"


def _as_index_array(ns):
    return np.asarray(ns, dtype=np.int64)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_sequence(space):
    z = spaces.zero(space)
    if space.kind == "dense":
        dim = space.dim
        structure = DenseBlock(_pointwise(lambda ns: np.zeros((len(ns), dim))))
    else:
        structure = SingleSupport(
            lambda ns: np.ones(len(_as_index_array(ns)), dtype=np.int64),
            lambda ns: np.zeros(len(_as_index_array(ns))),
        )
    return SequenceSpec(lambda n: z, space, "zero", structure=structure, norm_bound=0.0)


def constant_sequence(value, label=None):
    space = spaces.space_of(value)
    if space.kind == "dense":
        row = np.asarray(value.coords)
        structure = DenseBlock(_pointwise(lambda ns: np.tile(row, (len(ns), 1))))
    else:
        structure = FixedBasisCombo(_pointwise(lambda ns: np.ones((len(ns), 1))), (value,))
    return SequenceSpec(
        lambda n: value,
        space,
        label or f"constant({spaces.format_element(value)})",
        structure=structure,
        norm_bound=element_norm(value),
    )


def harmonic_prefix_sequence():
    """Growing prefixes of the reciprocals: ``x_n`` holds ``1/k`` at ``k <= n``."""

    def gen(n):
        return SparseElement({k: 1.0 / k for k in range(1, n + 1)})

    structure = PrefixValues(lambda ks: 1.0 / _as_index_array(ks).astype(float))
    return SequenceSpec(
        gen, sparse_space(), "harmonic_prefix",
        structure=structure, norm_bound=1.0,
    )


def unit_coordinate_sequence():
    structure = SingleSupport(
        lambda ns: _as_index_array(ns),
        lambda ns: np.ones(len(_as_index_array(ns))),
    )
    return SequenceSpec(
        lambda n: SparseElement({n: 1.0}), sparse_space(), "unit_coords",
        structure=structure, norm_bound=1.0,
    )


def prime_coordinate_sequence():
    """``x_n`` is the coordinate vector at the n-th prime: ``subseq(unit_coords, primes)``."""
    return replace(subsequence(unit_coordinate_sequence(), density.primes()), label="prime_coords")


def damped_unit_coordinate_sequence():
    """Coordinate vectors shrunk to norm ``1/sqrt(n)``: norm-null but spread out."""
    structure = SingleSupport(
        lambda ns: _as_index_array(ns),
        lambda ns: 1.0 / np.sqrt(_as_index_array(ns).astype(float)),
    )
    return SequenceSpec(
        lambda n: SparseElement({n: 1.0 / math.sqrt(n)}),
        sparse_space(), "damped_unit_coords",
        structure=structure, norm_bound=1.0,
    )


def damped_prime_coordinate_sequence():
    return replace(subsequence(damped_unit_coordinate_sequence(), density.primes()),
                   label="damped_prime_coords")


def decaying_sequence(value, exponent=1.0, label=None):
    """``x_n = n^(-exponent) * value``; the workhorse null sequence."""
    space = spaces.space_of(value)
    exponent = float(exponent)

    def gen(n):
        return spaces.scale(n ** (-exponent), value)

    if space.kind == "dense":
        row = value.coords

        def rows(ns):
            # column by column: numpy broadcasts onto a few-wide inner axis slowly
            s = ns.astype(float) ** -exponent
            block = np.empty((len(ns), len(row)))
            for j, r in enumerate(row):
                np.multiply(s, r, out=block[:, j])
            return block

        structure = DenseBlock(_pointwise(rows))
    else:
        structure = FixedBasisCombo(
            _pointwise(lambda ns: (ns.astype(float) ** -exponent)[:, None]), (value,)
        )
    return SequenceSpec(
        gen, space, label or f"null({spaces.format_element(value)})",
        structure=structure, norm_bound=element_norm(value),
    )


def _identity_magnitude(ns):
    return np.asarray(ns, dtype=float)


def spike_sequence(space, spikes, magnitude=None, label=None):
    """The zero sequence of ``space`` with spikes on the index set ``spikes``.

    On a spike index ``n`` the term is ``magnitude(n) * e_n`` (sparse) or
    ``magnitude(n) * e_1`` (dense; the first coordinate carries dense
    spikes).  ``magnitude`` must accept numpy index arrays; it defaults to
    ``n -> n``.
    """
    mag = magnitude if magnitude is not None else _identity_magnitude

    def mag_at(n):
        return float(mag(np.asarray([n], dtype=np.int64))[0]) if spikes.contains(n) else 0.0

    def spiked(ns):
        """The term's magnitude at each of ``ns``: zero off the spike set."""
        ns = _as_index_array(ns)
        mask = density.membership_mask(spikes, int(ns.max()))[ns - 1]
        return np.where(mask, mag(ns).astype(float), 0.0)

    if space.kind == "sparse":
        def gen(n):
            m = mag_at(n)
            return SparseElement({n: m} if m != 0.0 else {})

        structure = SingleSupport(lambda ns: _as_index_array(ns), spiked)
    else:
        dim = space.dim

        def gen(n):
            coords = [0.0] * dim
            coords[0] = mag_at(n)
            return DenseElement(tuple(coords))

        def rows(ns):
            block = np.zeros((len(ns), dim))
            block[:, 0] = spiked(ns)
            return block

        structure = DenseBlock(_pointwise(rows))

    return SequenceSpec(gen, space, label or f"spike({spikes.describe()},n)", structure=structure)


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

    return SequenceSpec(gen, space, "index_e1",
                        structure=DenseBlock(_pointwise(block_of)))


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

    return SequenceSpec(gen, space, "alternating_e1",
                        structure=DenseBlock(_pointwise(block_of)), norm_bound=1.0)


def _random_rows(seed, width, ns):
    """Rows ``ns`` (in any order, repeats allowed) of the seeded random
    table: uniform [-1, 1] rows of ``width`` scaled into the Euclidean unit
    ball, drawn afresh on every call.

    ``rng.random`` spends one ``PCG64`` output per double, so row ``k`` is
    outputs ``(k-1)*width .. k*width - 1`` of ``PCG64(seed)``, the stream of
    ``default_rng(seed)``: the rows are those of one
    ``default_rng(seed).random((count, width))`` draw, whatever is asked.
    A run of consecutive indices is drawn straight into the result; other
    index sets are read in windows of at most ``_CHUNK`` rows that hold a
    wanted row, and the stream is advanced across the rest.

    A one-wide row in [-1, 1] has Euclidean norm at most 1 and would be
    divided by exactly 1.0, so it is left as drawn.
    """
    ns = _as_index_array(ns)
    bitgen = np.random.PCG64(seed)
    rng = np.random.Generator(bitgen)
    if len(ns) and ns[-1] - ns[0] == len(ns) - 1 and (np.diff(ns) == 1).all():
        bitgen.advance((int(ns[0]) - 1) * width)
        out = rng.random((len(ns), width))
    else:
        want, where = np.unique(ns, return_inverse=True)
        out = np.empty((len(want), width))
        at, i = 1, 0                      # the stream stands at row ``at``
        while i < len(want):
            first = int(want[i])
            j = int(np.searchsorted(want, first + _CHUNK))
            last = int(want[j - 1])
            bitgen.advance((first - at) * width)
            window = rng.random((last - first + 1, width))
            out[i:j] = window[want[i:j] - first]
            at, i = last + 1, j
        out = out[where]
    out *= 2.0
    out -= 1.0
    if width > 1:
        scale = np.maximum(_block_norms(out), 1.0)
        for j in range(width):
            np.divide(out[:, j], scale, out=out[:, j])
    return out


def random_unit_ball(space, seed):
    """Seeded random elements of the unit ball of ``space``'s norm; bitwise
    reproducible per seed.

    Term ``n`` is row ``n`` of :func:`_random_rows`, outputs
    ``(n-1)*width .. n*width - 1`` of ``PCG64(seed)`` (``width`` is the
    dimension, 1 for the sparse space, whose term ``n`` sits at ``e_n``).
    Every sweep chunk and every term draws its own rows; nothing is kept.
    """
    seed = whole_number(seed, "a random seed")

    if space.kind == "dense":
        dim = space.dim

        def gen(n):
            return DenseElement(tuple(_random_rows(seed, dim, [n])[0].tolist()))

        structure = DenseBlock(_pointwise(lambda ns: _random_rows(seed, dim, ns)))
    else:
        def value_of(ns):
            return _random_rows(seed, 1, ns)[:, 0]

        def gen(n):
            v = float(value_of([n])[0])
            return SparseElement({n: v} if v != 0.0 else {})

        structure = SingleSupport(lambda ns: _as_index_array(ns), value_of)

    return SequenceSpec(
        gen, space, f"random_ball_{seed}",
        structure=structure, norm_bound=1.0,
    )


def combine(a, b, alpha, beta, label=None):
    """Pointwise ``alpha * a_n + beta * b_n``."""
    if a.space != b.space:
        raise ValueError(f"cannot combine {a.space.describe()} with {b.space.describe()}")
    alpha, beta = float(alpha), float(beta)
    ga, gb = a.generator, b.generator

    def gen(n):
        return spaces.add(spaces.scale(alpha, ga(n)), spaces.scale(beta, gb(n)))

    structure = a.structure.combined(b.structure, alpha, beta)
    bound = None
    if a.norm_bound is not None and b.norm_bound is not None:
        bound = abs(alpha) * a.norm_bound + abs(beta) * b.norm_bound
    return SequenceSpec(
        gen, a.space,
        label or f"combine({a.label},{b.label},{format_float(alpha)},{format_float(beta)})",
        structure=structure, norm_bound=bound,
    )


def _members_at(along):
    """``at(ks)``, the members of ``along`` at the increasing positions ``ks``: the
    set's own ``nth`` where it has one (a sweep to ``H`` asks no further), else one
    table of first members, grown geometrically so term-by-term callers rescan rarely."""
    if along.nth is not None:
        return along.nth
    table = np.zeros(0, dtype=np.int64)

    def at(ks):
        nonlocal table
        count = int(ks[-1])
        if len(table) < count:
            try:
                table = density.members(along, max(count, 2 * len(table), 64))
            except HorizonExhausted:
                # a finite set may hold fewer than the grown request; only ``count`` must exist
                table = density.members(along, count)
        return table[ks - 1]

    return at


def subsequence(seq, along):
    """``x_k = seq`` at the k-th member of ``along``, read by the generator and structure alike.

    Raises :class:`HorizonExhausted` if the set runs out of members (finite
    sets) or enumeration would pass the member cap of :func:`density.members`.
    """
    at = _members_at(along)

    def gen(k):
        return seq.generator(int(at(_as_index_array([k]))[0]))

    return SequenceSpec(
        gen, seq.space,
        f"subseq({seq.label},{along.describe()})",
        structure=seq.structure.reindexed(seq, at),
        norm_bound=seq.norm_bound,
    )


# ---------------------------------------------------------------------------
# sweep engine
# ---------------------------------------------------------------------------

def _abs_rowmax(rows):
    """``max_j |rows[:, j]|`` per row, folded in one column at a time.

    numpy reduces ``axis=1`` one short row at a time; a whole column per
    step is far faster on narrow blocks, and a maximum is exact in any order.
    """
    acc = np.abs(rows[:, 0])
    col = np.empty_like(acc)
    for j in range(1, rows.shape[1]):
        np.maximum(acc, np.abs(rows[:, j], out=col), out=acc)
    return acc


def _sparse_support_arrays(x):
    """Support indices in increasing order and their values, as arrays."""
    size = len(x.support)
    idx = np.fromiter(x.support.keys(), dtype=np.int64, count=size)
    val = np.fromiter(x.support.values(), dtype=float, count=size)
    order = np.argsort(idx)
    return idx[order], val[order]


def _block_norms(block):
    """The Euclidean norm of each row of ``block``."""
    # x * x has the bits of |x| ** 2.0, and np.sqrt is what ** 0.5 runs
    if block.shape[1] >= 8:
        # numpy sums a row of 8 or more by pairwise blocks, an order that
        # only its own row-wise reduction repeats bit for bit
        return np.sqrt(np.sum(np.multiply(block, block), axis=1))
    # narrower rows numpy sums left to right, as this column-wise fold does
    first = block[:, 0]
    acc = np.multiply(first, first)
    col = np.empty_like(acc)
    for j in range(1, block.shape[1]):
        c = block[:, j]
        acc += np.multiply(c, c, out=col)
    return np.sqrt(acc, out=acc)


def _sweep(seq, candidate, horizon):
    arr = seq.structure.sweep(seq, candidate, _upto(horizon))
    arr.setflags(write=False)
    return arr


def norm_sweep(seq, horizon):
    """``||x_n||`` for ``n = 1..horizon`` as one read-only array, computed afresh."""
    return _sweep(seq, None, int(horizon))


def distance_sweep(seq, candidate, horizon):
    """``||x_n - candidate||`` for ``n = 1..horizon`` as one read-only array."""
    horizon = int(horizon)
    if spaces.space_of(candidate) != seq.space:
        raise ValueError("candidate lives in a different space than the sequence")
    if candidate == spaces.zero(seq.space):
        return norm_sweep(seq, horizon)
    return _sweep(seq, candidate, horizon)


def functional_sweep(f, seq, horizon):
    """``f(x_n)`` for ``n = 1..horizon``, as the sequence's structure answers it."""
    return seq.structure.functional(seq, f, _upto(int(horizon)))


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------

def _parse_space_arg(cur):
    """``sparse`` or ``dim=K``; None, reading nothing, where neither is."""
    if cur.keyword("sparse"):
        return sparse_space()
    if cur.keyword("dim"):
        cur.expect("=")
        return dense_space(cur.integer())
    return None


def _parse_given_space(cur):
    """A space argument after ``(`` or ``,``, where an empty one is an error;
    other text is left unread for the caller's ``)`` to refuse."""
    cur.skip_ws()
    if cur.text.startswith((")", ","), cur.pos):
        cur.error("expected an argument")
    return _parse_space_arg(cur)


def _parse_magnitude(cur):
    """``n`` for the identity magnitude, or a numeric constant."""
    if cur.keyword("n"):
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
            space = _parse_given_space(cur)
            cur.expect(")")
        return zero_sequence(space)
    if name in ("constant", "null"):
        value, = cur.args(spaces.parse_element_at)
        if name == "constant":
            return constant_sequence(value)
        return decaying_sequence(value)
    if name in ("index", "alternating"):
        space, = cur.args(_parse_space_arg)
        space = space or dense_space(1)
        if space.kind != "dense":
            cur.error(f"{name} sequences are dense")
        return (index_sequence if name == "index" else alternating_sequence)(space.dim)
    if name == "spike":
        cur.expect("(")
        spikes = density.parse_index_set_at(cur)
        cur.expect(",")
        mag = _parse_magnitude(cur)
        space = sparse_space()
        if cur.try_eat(","):
            space = _parse_given_space(cur)
        cur.expect(")")
        return spike_sequence(space, spikes, magnitude=mag)
    if name == "random":
        cur.expect("(")
        given = {}
        if not cur.try_eat(")"):
            while True:
                cur.skip_ws()
                start = cur.pos
                if cur.keyword("seed"):
                    cur.expect("=")
                    key, value = "seed", cur.integer(0)
                else:
                    key, value = "space", _parse_given_space(cur)
                if key in given:
                    cur.pos = start
                    cur.error(f"repeated {key} argument")
                given[key] = value
                if not cur.try_eat(","):
                    break
            cur.expect(")")
        return random_unit_ball(given.get("space", dense_space(3)), given.get("seed", default_seed))
    seq = functools.partial(parse_sequence_at, default_seed=default_seed)
    if name == "combine":
        return combine(*cur.args(seq, seq, Cursor.number, Cursor.number))
    if name == "subseq":
        return subsequence(*cur.args(seq, density.parse_index_set_at))
    cur.error(f"unknown sequence {name!r}")


def parse_sequence(text, default_seed=7):
    """Parse sequence descriptors like ``harmonic`` or ``spike(squares,n)``."""
    return parse_whole(text, functools.partial(parse_sequence_at, default_seed=default_seed), "sequence")


__all__ = [
    "CORPUS_VERSION",
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
