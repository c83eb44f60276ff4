"""Sequence generators over the dense and sparse spaces.

A :class:`SequenceSpec` couples a per-index generator with the space the
sequence lives in, whose norm measures it, and with a *structure* that
answers questions about the whole sequence: norm and distance sweeps,
functional sweeps, windowed medians, its image under a diagonal, a
matrix, a positional rescale or a linear combination, and its subsequences.
The base :class:`Structure` is the per-index kind: it evaluates the
generator term by term, which is fine for cheap generators and small
horizons but would be hopeless for, say, growing-support prefixes at
``n = 10^5``.  The constructors here give their specs a vectorised kind
instead, which answers in a few numpy passes and leaves to the per-index
kind only what it cannot answer.  Most are a scalar formula ``s(n)`` times
a fixed element, on ``e_n`` or on ``e_1``, and are built by
:func:`_times_element`, :func:`_times_own_coordinate` or
:func:`_times_first_coordinate` from ``s`` on index arrays for the
structure and ``s`` at one index for the generator.

A sweep takes a :class:`Stream` of the indices it is asked about and yields
one array per chunk of at most ``_CHUNK`` indices: it evaluates only those
indices and holds no temporary wider than one chunk, whatever the dimension
or support width, so a consumer that folds the chunks as they come (every
verdict in ``stanalysis``) needs memory independent of the horizon.  A
prefix kind walks ``1, 2, ..`` once, span by span, carrying its running
maximum or running sum.  A subsequence passes its parent the stream of its
members: a *pointwise* kind (term ``n`` depends on ``n`` alone) read along
them is the same kind, a prefix kind walks its prefixes at the members'
lengths, and a subsequence of a per-index sequence runs per index through
its generator.  Either way the last member is asked for first, so a
subsequence past the member cap is refused before any chunk runs.  A
positional rescale is answered the same way, by every kind but the
per-index one.  Walks in step over one stream (a member and its images, see
:func:`norm_chunks`) evaluate each index chunk and each chunk of a pointwise
leaf once: the stream's share hands every reader the same read-only array.

Every stage of a walk makes its chunk once and lets it go before the next
chunk is made: stages are ``map`` and ``itertools.starmap``, which hold no
item once they return it, where a generator expression, a ``for .. yield``
or a ``zip`` keeps its last item until it is resumed.  So a walk holds one
chunk of each array, and walks in step hold one stream's arrays at a time.

Sparse terms, candidates and medians are read and built as the two arrays
of a :class:`~stconv.spaces.SparseElement`, indices and values: a median is
made from the arrays the structure computes, never through a mapping.

A seeded random member keeps no rows either: row ``k`` of a ``w``-wide
member is outputs ``(k-1)*w .. k*w - 1`` of ``PCG64(seed)``, and each chunk
or term draws the rows it asks for from there (see :func:`_random_rows`).

Structures are consistency-tested against the generators; they are an
evaluation strategy, never a second source of truth.
"""

from __future__ import annotations

import functools
import itertools
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


@dataclass(frozen=True, eq=False)
class Stream:
    """The indices ``at(1), .., at(count)``, read ``_CHUNK`` positions at a time.

    ``at`` maps an increasing int64 array of positions to their indices,
    which increase too (None reads each position as its own index).
    Iterating yields one read-only int64 index array per chunk, in order,
    and may be repeated.  A stream that maps its positions asks ``at`` for
    the last one first, once, so an index set refuses a stream past its
    member cap before any chunk runs.

    ``share`` holds the index chunk read last, which every reader of the
    stream gets as the same array, the same for each pointwise leaf read
    along the stream (see :func:`_pointwise`), and one derived stream per
    ``at`` asked of :meth:`along`; it lives as long as the stream, that is
    as long as the walks over it.
    """

    count: int
    at: Optional[Callable] = None
    share: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, ns):
        """The indices ``ns`` as they are given (any order, repeats allowed)."""
        ns = _as_index_array(ns)
        return cls(len(ns), lambda ks: ns[ks - 1])

    def along(self, at):
        """The stream of ``at`` of this stream's indices, the same one for the same ``at``."""
        if at not in self.share:
            outer = self.at          # not ``self``: the share would hold its own stream
            self.share[at] = Stream(self.count, at if outer is None else lambda ks: at(outer(ks)))
        return self.share[at]

    def __len__(self):
        return self.count

    def __iter__(self):
        if self.at is not None and self.count and Stream not in self.share:
            self.at(np.array([self.count], dtype=np.int64))   # before the first chunk is kept
        for i, lo in enumerate(range(0, self.count, _CHUNK)):
            yield _kept(self.share, Stream, i, lambda: self._chunk(lo))

    def _chunk(self, lo):
        ks = np.arange(lo + 1, min(lo + _CHUNK, self.count) + 1, dtype=np.int64)
        return ks if self.at is None else self.at(ks)


def _kept(share, key, i, make):
    """Chunk ``i`` of ``key``: ``make()``, made read-only and kept in the
    stream's ``share`` until a reader asks for another chunk, so every
    reader at chunk ``i`` gets the same value."""
    kept = share.get(key)
    if kept is None or kept[0] != i:
        value = make()
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
        kept = share[key] = (i, value)
    return kept[1]


def _pointwise(fn):
    """The chunk stream of ``fn``, a function of index arrays whose value at
    an index does not depend on the other indices.

    Each chunk is evaluated once for every reader of the stream (see
    :func:`_kept`): walks in step over one stream read each chunk once."""
    def chunks(ns):
        for i, c in enumerate(ns):
            yield _kept(ns.share, chunks, i, lambda: fn(c))

    return chunks


def _joined(blocks):
    """The blocks of a chunk stream as one array."""
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks) if blocks else np.zeros(0)


# ---------------------------------------------------------------------------
# structures: per-index and vectorised whole-sequence evaluation
# ---------------------------------------------------------------------------

class Structure:
    """The structure protocol, and its per-index kind.

    This base kind answers every question by evaluating the generator term
    by term (see :func:`_terms`).  Each vectorised kind below overrides what
    it can answer and leaves the rest to this one.  Every question takes a
    :class:`Stream` ``ns``; sweeps yield one array per chunk of it.
    """

    def sweep(self, seq, candidate, ns):
        """``||x_n - candidate||`` (``||x_n||`` for ``candidate=None``) at ``n`` in ``ns``."""
        def distance(x):
            return element_norm(x if candidate is None else sub(x, candidate))

        return (np.fromiter(map(distance, xs), dtype=float) for xs in _terms(seq, ns))

    def functionals(self, seq, fs, ns):
        """``f(x_n)`` at ``n`` in ``ns`` for each ``f`` of ``fs``
        (``operators.FunctionalSpec`` objects): per chunk, an iterable of
        fresh arrays, one per functional in order, which the caller may
        overwrite and reads before it asks for the next chunk.  Every
        functional reads the chunk's terms as they are made once."""
        for xs in _terms(seq, ns):
            yield tuple(np.array([[f.evaluate(x) for f in fs] for x in xs], dtype=float).T)

    def median(self, seq, ns):
        """Coordinatewise median of the terms at the sample indices ``ns``."""
        elements = [x for xs in _terms(seq, ns) for x in xs]
        if seq.space.kind == "dense":
            return spaces.dense_element(np.median([x.coords for x in elements], axis=0))
        sizes = [len(x.indices) for x in elements]
        return _sparse_median(np.concatenate([x.indices for x in elements]),
                              np.concatenate([x.values for x in elements]),
                              np.repeat(np.arange(len(elements)), sizes), len(elements))

    def diagonal_image(self, dfun, apply_to):
        """Structure of ``n -> D x_n``, ``D`` the diagonal ``dfun``; ``apply_to(x)`` is ``D x``."""
        return Structure()

    def matrix_image(self, a):
        """Structure of ``n -> a @ x_n``."""
        return Structure()

    def rescaled(self, scale_of):
        """Structure of ``n -> scale_of(n) * x_n``."""
        return Structure()

    def combined(self, other, alpha, beta):
        """Structure of ``n -> alpha * x_n + beta * y_n``; ``other`` is that of ``y``."""
        return Structure()

    def reindexed(self, at):
        """Structure of ``k -> x_{m_k}``, ``at(ks)`` the indices ``m_k``."""
        return Structure()


def _terms(seq, ns):
    """The terms ``x_n`` of ``seq`` at each chunk of the stream ``ns``, one
    lazy iterable per chunk, made one at a time by the generator.  The term
    at the stream's last index is made first, so a subsequence past its
    member cap is refused before any chunk runs."""
    gen = seq.generator
    if len(ns):
        gen(len(ns) if ns.at is None else int(ns.at(np.array([len(ns)], dtype=np.int64))[0]))
    for c in ns:
        yield map(gen, c.tolist())


@dataclass(frozen=True)
class SingleSupport(Structure):
    """Sparse ``x_n = v_n * e_{i_n}``: ``terms(ns)`` yields the arrays ``(i, v)``
    of each chunk of the stream ``ns``, so a walk maps each chunk's positions
    once.  ``support`` is the ``terms`` of the sequence whose support these
    indices are (None: this one's own); operator images of one sequence share it."""

    terms: Callable
    support: Optional[Callable] = None

    @property
    def _support(self):
        return self.support or self.terms

    def sweep(self, seq, candidate, ns):
        if candidate is None or not len(candidate.indices):
            return itertools.starmap(lambda _, val: np.abs(val, dtype=float), self.terms(ns))
        cidx, cval = candidate.indices, candidate.values
        acv = np.abs(cval)
        top = int(np.argmax(acv))
        top_val = acv[top]
        second = np.max(np.delete(acv, top)) if len(acv) > 1 else 0.0
        last = len(cidx) - 1

        def distances(idx, val):
            val = val.astype(float)
            off = np.where(idx == cidx[top], second, top_val)
            pos = np.minimum(np.searchsorted(cidx, idx), last)
            c_at = np.where(cidx[pos] == idx, cval[pos], 0.0)
            return np.maximum(np.abs(val - c_at), off)

        return itertools.starmap(distances, self.terms(ns))

    def functionals(self, seq, fs, ns):
        def values(idx, val):
            val = val.astype(float, copy=False)
            return (f.weights(idx) * val for f in fs)

        return itertools.starmap(values, self.terms(ns))

    def median(self, seq, ns):
        terms = list(self.terms(ns))
        return _sparse_median(_joined(idx for idx, _ in terms), _joined(val for _, val in terms),
                              np.arange(len(ns)), len(ns))

    def diagonal_image(self, dfun, apply_to):
        def term(idx, val):
            return idx, np.multiply(dfun(idx), val, dtype=float)

        return SingleSupport(lambda ns: itertools.starmap(term, self.terms(ns)), self._support)

    def rescaled(self, scale_of):
        def term(c, t):
            return t[0], scale_of(c) * t[1]

        return SingleSupport(lambda ns: map(term, ns, self.terms(ns)), self._support)

    def combined(self, other, alpha, beta):
        # only terms on one shared support index add up to a single support;
        # operator images of one sequence share its ``support``
        if type(other) is not SingleSupport or other._support is not self._support:
            return super().combined(other, alpha, beta)

        def term(s, t):
            return s[0], alpha * s[1] + beta * t[1]

        return SingleSupport(lambda ns: map(term, self.terms(ns), other.terms(ns)), self._support)

    def reindexed(self, at):
        return SingleSupport(lambda ns: self.terms(ns.along(at)))


@dataclass(frozen=True)
class PrefixValues(Structure):
    """Sparse ``x_n = scale_of(n) * {k -> value_of(k) : k <= at(n)}``.

    ``at`` maps positions to the prefix lengths of a subsequence (None: ``n``
    itself) and ``scale_of`` is a positional rescale (None: 1).  A rescaled
    prefix leaves its medians and its distances to a nonzero candidate to
    the per-index kind.
    """

    value_of: Callable
    at: Optional[Callable] = None
    scale_of: Optional[Callable] = None

    def _read(self, ns, step, signed):
        """:meth:`_walk` of ``step`` at the prefix lengths of the stream ``ns``,
        times ``scale_of`` (``|scale_of|`` unless ``signed``) at each chunk of ``ns``."""
        chunks = self._walk(ns if self.at is None else ns.along(self.at), step)
        if self.scale_of is None:
            return chunks

        def scaled(c, values):
            scale = self.scale_of(c).astype(float)
            return values * (scale if signed else np.abs(scale))

        return map(scaled, ns, chunks)

    @staticmethod
    def _walk(ns, step):
        """``step`` over ``1, 2, ..``, one span of at most ``_CHUNK`` consecutive
        indices at a time and in order (so it may carry state across spans),
        read at each chunk of ``ns`` and walked no further than its last index.
        ``step`` returns its values along the last axis, so a 2-d result
        gives one row per quantity and each chunk is read as rows too."""
        vals, top = None, 0               # vals holds step's values at top - width + 1 .. top
        for c in ns:
            out = None
            at = 0
            while at < len(c):
                if c[at] > top:
                    lo, top = top, min(top + _CHUNK, int(c[-1]))
                    vals = step(np.arange(lo + 1, top + 1, dtype=np.int64))
                if out is None:
                    out = np.empty(vals.shape[:-1] + (len(c),))
                end = at + int(np.searchsorted(c[at:], top, side="right"))
                out[..., at:end] = vals[..., c[at:end] - (top - vals.shape[-1] + 1)]
                at = end
            yield out
            del out

    def sweep(self, seq, candidate, ns):
        if candidate is not None and self.scale_of is not None:
            return super().sweep(seq, candidate, ns)
        # x_n - c is value_of(k) - c_k at k <= n and -c_k past n, so its sup
        # norm is the running max of the first part against max_{k>n} |c_k|
        c = np.zeros(0)
        if candidate is not None and len(candidate.indices):
            idx, c = candidate.indices, candidate.values
            if idx[-1] > len(idx):             # a gap in 1..idx[-1]: spread c out
                c = np.zeros(int(idx[-1]))
                c[idx - 1] = candidate.values
        j = len(c)
        later = np.abs(c)[::-1]
        np.maximum.accumulate(later, out=later)
        later = later[::-1]                  # later[i] = max_{t >= i} |c[t]|
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

        return self._read(ns, step, signed=False)

    def functionals(self, seq, fs, ns):
        # each running sum is carried into the first term of the next span,
        # so the partial sums are those of one cumsum over 1..ns[-1]; the
        # span's values are made once for every functional, one row each
        carry = None

        def step(ks):
            nonlocal carry
            vals = self.value_of(ks).astype(float)
            rows = np.empty((len(fs), len(ks)))
            for r, f in enumerate(fs):
                terms = rows[r]
                np.multiply(f.weights(ks), vals, out=terms)
                if carry is not None:
                    terms[0] += carry[r]
                np.cumsum(terms, out=terms)
            carry = rows[:, -1].copy()
            return rows

        return map(tuple, self._read(ns, step, signed=True))

    def median(self, seq, ns):
        if self.scale_of is not None:
            return super().median(seq, ns)
        # prefix supports are nested: coordinate k is nonzero exactly in the
        # samples n >= k, so the median is value_of(k) up to the middle
        # sample and 0 past it.  An even window has two middle samples:
        # between them half of the samples hold value_of(k), the median half
        ns = _joined(ns if self.at is None else ns.along(self.at))   # increasing, as samples are
        mid = len(ns) // 2
        ks = np.arange(1, int(ns[mid]) + 1, dtype=np.int64)
        vals = np.empty(len(ks))
        for lo in range(0, len(ks), _CHUNK):   # value_of's temporaries stay chunk-sized
            vals[lo:lo + _CHUNK] = self.value_of(ks[lo:lo + _CHUNK])
        if len(ns) % 2 == 0:
            vals[int(ns[mid - 1]):] /= 2
        return spaces.sparse_from_arrays(ks, vals)

    def diagonal_image(self, dfun, apply_to):
        return replace(self, value_of=lambda ks: dfun(np.asarray(ks, dtype=np.int64))
                       * self.value_of(ks))

    def rescaled(self, scale_of):
        inner = self.scale_of
        return replace(self, scale_of=scale_of if inner is None
                       else lambda ks: inner(ks) * scale_of(ks))

    def combined(self, other, alpha, beta):
        # only prefixes read at the same lengths and scales add up to a prefix
        if type(other) is not PrefixValues or (other.at, other.scale_of) != (self.at, self.scale_of):
            return super().combined(other, alpha, beta)
        return replace(self, value_of=lambda ks: alpha * self.value_of(ks)
                       + beta * other.value_of(ks))

    def reindexed(self, at):
        inner_at, inner_scale = self.at, self.scale_of
        return replace(self, at=at if inner_at is None else lambda ks: inner_at(at(ks)),
                       scale_of=None if inner_scale is None else lambda ks: inner_scale(at(ks)))


@dataclass(frozen=True)
class FixedBasisCombo(Structure):
    """``x_n = sum_j coeff[n, j] * basis[j]`` over a fixed finite basis.

    ``coeffs(ns)`` yields the ``(len(chunk), r)`` coefficient rows of each
    chunk of the stream ``ns`` in turn.
    """

    coeffs: Callable
    basis: tuple

    def _support_matrix(self, candidate=None):
        """The indices of the basis and ``candidate`` supports, increasing, and
        the basis rows over them, one row per basis element."""
        elements = self.basis if candidate is None else self.basis + (candidate,)
        uidx = spaces.index_union(*(x.indices for x in elements))
        mat = np.zeros((len(self.basis), len(uidx)))
        for r, b in enumerate(self.basis):
            mat[r, np.searchsorted(uidx, b.indices)] = b.values
        return uidx, mat

    def sweep(self, seq, candidate, ns):
        uidx, mat = self._support_matrix(candidate)
        if len(uidx) == 0:
            return map(lambda c: np.zeros(len(c)), ns)
        offset = None
        if candidate is not None:
            offset = np.zeros(len(uidx))
            offset[np.searchsorted(uidx, candidate.indices)] = candidate.values

        def distances(coeff):
            rows = coeff @ mat
            if offset is not None:
                rows -= offset
            return _abs_rowmax(rows)

        return map(distances, self.coeffs(ns))

    def functionals(self, seq, fs, ns):
        fvecs = [np.asarray([f.evaluate(b) for b in self.basis]) for f in fs]
        return map(lambda coeff: map(coeff.__matmul__, fvecs), self.coeffs(ns))

    def median(self, seq, ns):
        # coordinatewise over the support: basis supports may overlap
        uidx, mat = self._support_matrix()
        med = np.median(_joined(self.coeffs(ns)) @ mat, axis=0)
        return spaces.sparse_from_arrays(uidx, med)

    def diagonal_image(self, dfun, apply_to):
        return FixedBasisCombo(self.coeffs, tuple(apply_to(b) for b in self.basis))

    def rescaled(self, scale_of):
        def coeff(c, a):
            return a * scale_of(c)[:, None]

        return FixedBasisCombo(lambda ns: map(coeff, ns, self.coeffs(ns)), self.basis)

    def combined(self, other, alpha, beta):
        if type(other) is not FixedBasisCombo:
            return super().combined(other, alpha, beta)

        def coeff(a, b):
            return np.concatenate([alpha * a, beta * b], axis=1)

        return FixedBasisCombo(lambda ns: map(coeff, self.coeffs(ns), other.coeffs(ns)),
                               self.basis + other.basis)

    def reindexed(self, at):
        return FixedBasisCombo(lambda ns: self.coeffs(ns.along(at)), self.basis)


@dataclass(frozen=True)
class DenseBlock(Structure):
    """Dense rows: ``rows(ns)`` yields the ``(len(chunk), dim)`` coordinate
    rows of each chunk of the stream ``ns`` in turn."""

    rows: Callable

    def sweep(self, seq, candidate, ns):
        c = None if candidate is None else np.asarray(candidate.coords)
        return map(_block_norms, self.rows(ns), itertools.repeat(c))

    def functionals(self, seq, fs, ns):
        ws = []

        def values(block):
            if not ws:
                ws.extend(f.weights_upto(block.shape[1]) for f in fs)
            # made as they are read, so a walk of many functionals holds one
            return map(block.__matmul__, ws)

        return map(values, self.rows(ns))

    def median(self, seq, ns):
        return spaces.dense_element(np.median(_joined(self.rows(ns)), axis=0))

    def matrix_image(self, a):
        at = _transposed(a)
        return DenseBlock(lambda ns: map(np.matmul, self.rows(ns), itertools.repeat(at)))

    def rescaled(self, scale_of):
        def row(c, block):
            return block * scale_of(c)[:, None]

        return DenseBlock(lambda ns: map(row, ns, self.rows(ns)))

    def combined(self, other, alpha, beta):
        if type(other) is not DenseBlock:
            return super().combined(other, alpha, beta)
        return DenseBlock(lambda ns: map(lambda a, b: alpha * a + beta * b,
                                         self.rows(ns), other.rows(ns)))

    def reindexed(self, at):
        return DenseBlock(lambda ns: self.rows(ns.along(at)))


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

# Each builder takes s(n) twice: ``value_of(ns)`` on index arrays for the
# structure, and ``value_at(n)`` for the generator, which reads nothing else
# of it, so the per-index path stays an independent reference.

def _times_element(value, value_of, value_at, label):
    """``x_n = s(n) * value``."""
    space = spaces.space_of(value)
    if space.kind == "dense":
        row = value.coords

        def rows(ns):
            # column by column: numpy broadcasts onto a few-wide inner axis slowly
            s = value_of(ns)
            block = np.empty((len(ns), len(row)))
            for j, r in enumerate(row):
                np.multiply(s, r, out=block[:, j])
            return block

        structure = DenseBlock(_pointwise(rows))
    else:
        structure = FixedBasisCombo(_pointwise(lambda ns: value_of(ns)[:, None]), (value,))
    return SequenceSpec(lambda n: spaces.scale(value_at(n), value), space, label,
                        structure=structure, norm_bound=element_norm(value))


def _times_own_coordinate(value_of, value_at, label, norm_bound=None):
    """Sparse ``x_n = s(n) * e_n``."""
    return SequenceSpec(
        lambda n: spaces.sparse_from_arrays([n], [value_at(n)]), sparse_space(), label,
        structure=SingleSupport(_pointwise(lambda ns: (ns, value_of(ns)))), norm_bound=norm_bound,
    )


def _times_first_coordinate(dim, value_of, value_at, label, norm_bound=None):
    """``x_n = s(n) * e_1`` in ``dense:dim``; the other coordinates are +0.0
    whatever the sign of ``s(n)``."""
    def gen(n):
        coords = [0.0] * dim
        coords[0] = value_at(n)
        return DenseElement(tuple(coords))

    def rows(ns):
        block = np.zeros((len(ns), dim))
        block[:, 0] = value_of(ns)
        return block

    return SequenceSpec(gen, dense_space(dim), label,
                        structure=DenseBlock(_pointwise(rows)), norm_bound=norm_bound)


def zero_sequence(space):
    z = spaces.zero(space)
    if space.kind == "dense":
        dim = space.dim
        structure = DenseBlock(_pointwise(lambda ns: np.zeros((len(ns), dim))))
    else:
        structure = SingleSupport(_pointwise(lambda ns: (np.ones(len(ns), dtype=np.int64),
                                                         np.zeros(len(ns)))))
    return SequenceSpec(lambda n: z, space, "zero", structure=structure, norm_bound=0.0)


def constant_sequence(value, label=None):
    return _times_element(value, lambda ns: np.ones(len(ns)), lambda n: 1.0,
                          label or f"constant({spaces.format_element(value)})")


def harmonic_prefix_sequence():
    """Growing prefixes of the reciprocals: ``x_n`` holds ``1/k`` at ``k <= n``."""

    def gen(n):
        ks = np.arange(1, n + 1, dtype=np.int64)
        return spaces.sparse_from_arrays(ks, 1.0 / ks)

    structure = PrefixValues(lambda ks: 1.0 / _as_index_array(ks).astype(float))
    return SequenceSpec(
        gen, sparse_space(), "harmonic_prefix",
        structure=structure, norm_bound=1.0,
    )


def unit_coordinate_sequence():
    return _times_own_coordinate(lambda ns: np.ones(len(ns)), lambda n: 1.0, "unit_coords", 1.0)


def prime_coordinate_sequence():
    """``x_n`` is the coordinate vector at the n-th prime: ``subseq(unit_coords, primes)``."""
    return replace(subsequence(unit_coordinate_sequence(), density.primes()), label="prime_coords")


def damped_unit_coordinate_sequence():
    """Coordinate vectors shrunk to norm ``1/sqrt(n)``: norm-null but spread out."""
    return _times_own_coordinate(lambda ns: 1.0 / np.sqrt(ns.astype(float)),
                                 lambda n: 1.0 / math.sqrt(n), "damped_unit_coords", 1.0)


def damped_prime_coordinate_sequence():
    return replace(subsequence(damped_unit_coordinate_sequence(), density.primes()),
                   label="damped_prime_coords")


def decaying_sequence(value, exponent=1.0, label=None):
    """``x_n = n^(-exponent) * value``; the workhorse null sequence."""
    exponent = float(exponent)
    return _times_element(value, lambda ns: ns.astype(float) ** -exponent,
                          lambda n: n ** (-exponent),
                          label or f"null({spaces.format_element(value)})")


def spike_sequence(space, spikes, magnitude=None, label=None):
    """The zero sequence of ``space`` with spikes on the index set ``spikes``.

    On a spike index ``n`` the term is ``m(n) * e_n`` (sparse) or
    ``m(n) * e_1`` (dense; the first coordinate carries dense spikes), where
    ``m(n)`` is ``n``, or the constant ``magnitude`` when one is given.  The
    label names the magnitude as the descriptor does: ``spike(squares,n)``,
    ``spike(squares,-2)``.
    """
    if magnitude is None:
        mag_of, mag_at, named = (lambda ns: ns.astype(float)), float, "n"
    else:
        m = float(magnitude)
        mag_of, mag_at, named = (lambda ns: np.full(len(ns), m)), (lambda n: m), format_float(m)

    def value_at(n):
        return mag_at(n) if spikes.contains(n) else 0.0

    def value_of(ns):
        """The term's magnitude at each of ``ns``: zero off the spike set."""
        lo = int(ns.min())
        mask = spikes.mask(lo, int(ns.max()))[ns - lo]
        return np.where(mask, mag_of(ns), 0.0)

    label = label or f"spike({spikes.describe()},{named})"
    if space.kind == "sparse":
        return _times_own_coordinate(value_of, value_at, label)
    return _times_first_coordinate(space.dim, value_of, value_at, label)


def index_sequence(dim=1):
    """``x_n = n * e_1`` in a dense space; the standard unbounded sequence."""
    return _times_first_coordinate(dim, lambda ns: ns.astype(float), float, "index_e1")


def alternating_sequence(dim=1):
    """``x_n = (-1)^n * e_1`` in a dense space."""
    return _times_first_coordinate(dim, lambda ns: np.where(ns % 2 == 0, 1.0, -1.0),
                                   lambda n: 1.0 if n % 2 == 0 else -1.0, "alternating_e1", 1.0)


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
        scale = _block_norms(out)
        np.maximum(scale, 1.0, out=scale)
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
    if seed < 0:
        raise ValueError(f"a random seed must be non-negative, got {seed}")
    label = f"random_ball_{seed}"
    if space.kind == "sparse":
        return _times_own_coordinate(lambda ns: _random_rows(seed, 1, ns)[:, 0],
                                     lambda n: _random_rows(seed, 1, [n])[0, 0], label, 1.0)
    dim = space.dim

    def gen(n):
        return DenseElement(tuple(_random_rows(seed, dim, [n])[0].tolist()))

    structure = DenseBlock(_pointwise(lambda ns: _random_rows(seed, dim, ns)))
    return SequenceSpec(gen, space, label, structure=structure, norm_bound=1.0)


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


def subsequence(seq, along):
    """``x_k = seq`` at the k-th member of ``along``, read by the generator and structure alike.

    Raises :class:`HorizonExhausted` if the set runs out of members (finite
    sets) or they would pass the member cap of :mod:`density`.
    """
    def gen(k):
        return seq.generator(int(along.nth(_as_index_array([k]))[0]))

    return SequenceSpec(
        gen, seq.space,
        f"subseq({seq.label},{along.describe()})",
        structure=seq.structure.reindexed(along.nth),
        norm_bound=seq.norm_bound,
    )


# ---------------------------------------------------------------------------
# sweep engine
# ---------------------------------------------------------------------------

def _transposed(a):
    """A C-ordered copy of ``a.T``: ``block @`` it has the bits of ``block @ a.T``,
    and is several times faster on narrow blocks."""
    return np.ascontiguousarray(a.T)


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


def _sparse_median(idx, val, col, count):
    """The coordinatewise median of ``count`` sparse terms, entry ``j`` of
    which is ``val[j]`` at index ``idx[j]`` of term ``col[j]``.

    The table has one row per index and one column per term; a term's entry
    is zero off its support, as in the sparse element.
    """
    keys, rows = np.unique(idx, return_inverse=True)
    table = np.zeros((len(keys), count))
    table[rows, col] = val
    return spaces.sparse_from_arrays(keys, np.median(table, axis=1))


def _block_norms(block, offset=None):
    """The Euclidean norm of each row of ``block``, or of ``block - offset``
    for a row ``offset``, which is then subtracted column by column."""
    # x * x has the bits of |x| ** 2.0, and np.sqrt is what ** 0.5 runs
    if block.shape[1] >= 8:
        # numpy sums a row of 8 or more by pairwise blocks, an order that
        # only its own row-wise reduction repeats bit for bit
        squares = np.multiply(block, block) if offset is None else block - offset
        if offset is not None:
            np.multiply(squares, squares, out=squares)
        return np.sqrt(np.sum(squares, axis=1))
    # narrower rows numpy sums left to right, as this column-wise fold does
    acc = np.empty(len(block))
    col = np.empty_like(acc)
    for j in range(block.shape[1]):
        x = block[:, j]
        if offset is not None:
            x = np.subtract(x, offset[j], out=col)
        if j == 0:
            np.multiply(x, x, out=acc)
        else:
            acc += np.multiply(x, x, out=col)
    return np.sqrt(acc, out=acc)


def sweep_chunks(seq, candidate, horizon):
    """``||x_n - candidate||`` for ``n = 1..horizon`` (``||x_n||`` for
    ``candidate=None``), one array per chunk, computed afresh."""
    if candidate is not None:
        if spaces.space_of(candidate) != seq.space:
            raise ValueError("candidate lives in a different space than the sequence")
        if candidate == spaces.zero(seq.space):
            candidate = None
    return seq.structure.sweep(seq, candidate, Stream(int(horizon)))


def norm_chunks(seqs, horizon):
    """``||x_n||`` for ``n = 1..horizon`` of each sequence of ``seqs``, from
    their walks in step over one stream, so a pointwise leaf they share (one
    member under its images) is read once.

    Per chunk, a lazy iterable of arrays, one per sequence in order, each
    made as it is read, so the walk holds one sequence's arrays at a time.
    The caller reads every one before it asks for the next chunk: one left
    unread would pair later chunks of the walks out of step, so asking past
    it raises ``RuntimeError``."""
    ns = Stream(int(horizon))
    walks = [seq.structure.sweep(seq, None, ns) for seq in seqs]
    for _ in range(-(-ns.count // _CHUNK)):
        chunk = map(next, walks)      # holds the walks, never an array it made
        yield chunk
        if next(chunk, None) is not None:
            raise RuntimeError("a chunk of norm_chunks was not read to its end")


def functional_chunks(fs, seq, horizon):
    """``f(x_n)`` for ``n = 1..horizon`` and each ``f`` of ``fs``, as the
    sequence's structure answers it from one walk: per chunk, an iterable
    of arrays, one per functional in order."""
    return seq.structure.functionals(seq, tuple(fs), Stream(int(horizon)))


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
    """``n`` for the identity magnitude (None), or a numeric constant."""
    return None if cur.keyword("n") else cur.number()


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
    "Stream",
    "Structure",
    "SingleSupport",
    "PrefixValues",
    "FixedBasisCombo",
    "DenseBlock",
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
    "sweep_chunks",
    "norm_chunks",
    "functional_chunks",
]
