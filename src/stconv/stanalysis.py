"""Finite-horizon statistical verdicts for sequences.

Every asymptotic notion (statistical convergence, statistical boundedness,
statistical Cauchy) is replaced by a three-valued desk verdict: the relevant
exceedance index set is counted exactly at the checkpoints of a schedule up
to a horizon, and the resulting density profile is judged confirmed /
refuted / inconclusive.  The counts are folded chunk by chunk from the
sequence's sweep (``density.count_table``), every threshold of a grid or
probe ladder in the same pass, so no verdict holds a horizon-length sweep or
mask.  One walk of the norms (a :class:`NormCounts`) answers every norm
verdict asked of a sequence together, and one walk of a sequence answers
every probe functional of a weak verdict.
Inconclusive is a first-class outcome; a finite horizon cannot decide a
limit, so tests only pin down confirmed or refuted where the exceedance
counts are analytically understood.

Conventions, fixed across the package:

* convergence and Cauchy exceedance is ``distance >= epsilon``,
* boundedness exceedance is ``norm > M`` (strict),
* a verdict is confirmed iff every per-epsilon (or deciding per-probe)
  density verdict confirms a zero-density exceedance set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import operators, spaces
from .density import DEFAULT_SCHEDULE, DensityProfile, DensityVerdict, count_table, density_verdict
from .sequences import Stream, functional_chunks, norm_chunks, sweep_chunks

DEFAULT_ANALYSIS_HORIZON = 100_000
DEFAULT_EPS_GRID = (0.5, 0.1, 0.01)
DEFAULT_PROBES = tuple(float(2 ** i) for i in range(11))
DEFAULT_ST_TOLERANCE = 0.1
_LIMIT_LITERAL_SUPPORT = 32
WEAK_PROBE_SEED = 4242
_WEAK_RANDOM_PROBES = 8
_MEDIAN_SAMPLES = 255


@dataclass(frozen=True)
class EpsilonReport:
    """One exceedance-density verdict, tagged with its threshold.

    ``epsilon`` is the distance threshold for convergence and Cauchy
    verdicts and the norm probe M for boundedness verdicts.  ``anchor`` is
    set only by Cauchy analyses.
    """

    epsilon: float
    verdict: DensityVerdict
    anchor: Optional[int] = None

    @property
    def decision(self):
        return self.verdict.decision

    @property
    def final_ratio(self):
        return self.verdict.profile.final_ratio

    def to_json_dict(self):
        out = {
            "epsilon": self.epsilon,
            "final_ratio": self.final_ratio,
            "decision": self.decision,
        }
        if self.anchor is not None:
            out["anchor"] = self.anchor
        return out


def _limit_json(limit):
    if limit is None:
        return None
    if isinstance(limit, spaces.SparseElement) and len(limit.indices) > _LIMIT_LITERAL_SUPPORT:
        return {
            "support_size": len(limit.indices),
            "max_index": int(limit.indices[-1]),
            "sup_norm": spaces.norm(limit),
        }
    return spaces.format_element(limit)


@dataclass(frozen=True)
class StVerdict:
    """Aggregate three-valued verdict over an epsilon grid or probe ladder."""

    kind: str                      # convergence | bounded | weak_bounded | cauchy
    decision: str                  # confirmed | refuted | inconclusive
    horizon: int
    epsilon_grid: tuple
    per_epsilon: tuple             # EpsilonReport entries, grid order
    limit: object = None           # convergence: the candidate tested
    bound: Optional[float] = None  # bounded: first confirmed probe M
    anchor_index: Optional[int] = None
    witness: object = None

    def to_json_dict(self):
        out = {
            "kind": self.kind,
            "decision": self.decision,
            "horizon": self.horizon,
            "epsilon_grid": list(self.epsilon_grid),
            "per_epsilon": [r.to_json_dict() for r in self.per_epsilon],
            "witness": self.witness,
        }
        if self.kind == "convergence":
            out["limit"] = _limit_json(self.limit)
        if self.kind in ("bounded", "weak_bounded"):
            out["bound"] = self.bound
        if self.kind == "cauchy":
            out["anchor_index"] = self.anchor_index
        return out


def _normalized_grid(grid):
    grid = tuple(float(e) for e in grid)
    if not grid:
        raise ValueError("epsilon grid must be nonempty")
    if not all(0 < e < math.inf for e in grid):
        raise ValueError("epsilon grid entries must be positive and finite")
    return tuple(sorted(grid, reverse=True))


def _ladder(probes):
    probes = tuple(float(m) for m in probes)
    if not probes or list(probes) != sorted(probes):
        raise ValueError("probes must be a nonempty increasing ladder")
    if not all(math.isfinite(m) for m in probes):
        raise ValueError("probes must be finite")
    return probes


_DEFAULT_LADDER = _ladder(DEFAULT_PROBES)
_DEFAULT_GRID = _normalized_grid(DEFAULT_EPS_GRID)


@dataclass(frozen=True, slots=True)
class NormCounts:
    """What one walk of the values ``v_1..v_horizon`` (norms or distances)
    tells the verdicts: at the checkpoints ``cps``, whose last is the
    horizon, the counts of ``{n : v_n > M}`` for each probe ``M`` of
    ``probes`` (``above``, one row per probe) and of ``{n : v_n >= eps}``
    for each ``eps`` of ``grid`` (``reach``), and the largest and smallest
    ``v_n`` past the first tenth of the horizon (``top`` and ``bottom``,
    infinite where not asked for).
    """

    cps: tuple
    probes: tuple = ()
    above: tuple = ()
    grid: tuple = ()
    reach: tuple = ()
    top: float = -math.inf
    bottom: float = math.inf

    @property
    def horizon(self):
        return self.cps[-1]


def _walk(chunks, k, cps, probes=(), grid=(), tail=False):
    """The :class:`NormCounts` of each of ``k`` streams of non-negative
    values ``v_1..v_horizon``, the horizon being the last of the increasing
    checkpoints ``cps``, from one pass over ``chunks``, which yields per
    chunk an iterable of ``k`` arrays, one per stream, read in turn.

    Every threshold is counted in the same pass, ``v > M`` for the probes
    and ``v >= eps`` for the grid; a threshold that the chunk's largest
    value does not reach counts zero there without a compare.  With
    ``tail``, the extremes past the first tenth are folded in too.
    """
    cps = tuple(cps)
    start = cps[-1] // 10     # the tail starts at this 0-based offset
    extremes = [[-math.inf, math.inf] for _ in range(k)]

    def masks(first, values, lo):
        # one stream's values and masks at a time: each stream's values go
        # before the next stream's are made
        for ext in extremes:
            v = first.pop() if first else next(values)
            peak = v.max()
            if tail and lo + len(v) > start:
                at = max(start - lo, 0)
                # np.maximum and np.minimum carry a NaN, as a max or min over the whole tail does
                ext[0] = np.maximum(ext[0], v[at:].max())
                ext[1] = np.minimum(ext[1], v[at:].min())
            for m in probes:
                yield None if m >= peak else v > m
            for e in grid:
                yield None if e > peak else v >= e
            del v

    def blocks():
        lo = 0
        for values in chunks:
            values = iter(values)
            first = [next(values)]      # popped by masks, so nothing here holds it
            size = len(first[0])
            yield size, masks(first, values, lo)
            del values                  # so the next chunk is made without this one
            lo += size

    table = count_table(blocks(), cps)
    width = len(probes) + len(grid)
    out = []
    for s, (top, bottom) in enumerate(extremes):
        rows = [tuple(r) for r in table[s * width:(s + 1) * width]]
        out.append(NormCounts(cps, probes, tuple(rows[:len(probes)]),
                              grid, tuple(rows[len(probes):]), float(top), float(bottom)))
    return out


def _seq_walk(seq, candidate, cps, probes=(), grid=(), tail=False):
    """The :class:`NormCounts` of ``||x_n - candidate||`` (of ``||x_n||``
    for ``candidate`` None) up to the last checkpoint, from one walk."""
    return _walk(zip(sweep_chunks(seq, candidate, cps[-1])), 1, cps, probes, grid, tail)[0]


def norm_counts_of(seqs, horizon=DEFAULT_ANALYSIS_HORIZON):
    """Everything the norm verdicts at the default probes, grid and schedule
    ask of ``||x_n||`` (``st_bounded``, ``st_converges`` to zero, the zero
    candidate and the bounded fallback of ``st_converges_search``, and
    ``norm_limit_zero``), for each sequence of ``seqs``, from their walks in
    step over one stream (``sequences.norm_chunks``)."""
    cps = DEFAULT_SCHEDULE.checkpoints(horizon)
    return _walk(norm_chunks(seqs, cps[-1]), len(seqs), cps, _DEFAULT_LADDER, _DEFAULT_GRID,
                 tail=True)


def _zero_density_verdict(cps, counts, tolerance):
    return density_verdict(DensityProfile(tuple(cps), tuple(counts)), Fraction(0), tolerance)


def _overall(decisions):
    """Confirmed if every decision confirms, refuted if one refutes, else inconclusive."""
    decisions = list(decisions)
    if all(d == "confirmed" for d in decisions):
        return "confirmed"
    if "refuted" in decisions:
        return "refuted"
    return "inconclusive"


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def st_converges(seq, candidate=None, grid=DEFAULT_EPS_GRID,
                 horizon=DEFAULT_ANALYSIS_HORIZON, tolerance=DEFAULT_ST_TOLERANCE,
                 schedule=DEFAULT_SCHEDULE):
    """Test statistical convergence of ``seq`` to ``candidate`` (default zero).

    For each epsilon the exceedance set ``{n : ||x_n - candidate|| >= eps}``
    gets a zero-density verdict; confirmed iff all confirm, refuted iff any
    refutes.
    """
    horizon = int(horizon)
    grid = _normalized_grid(grid)
    if candidate is None:
        candidate = spaces.zero(seq.space)
    if spaces.space_of(candidate) != seq.space:
        raise ValueError(
            f"candidate lives in {spaces.space_of(candidate).describe()}, "
            f"sequence in {seq.space.describe()}"
        )
    counts = _seq_walk(seq, candidate, schedule.checkpoints(horizon), grid=grid)
    return convergence_verdict(counts, candidate, tolerance)


def convergence_verdict(counts, candidate, tolerance=DEFAULT_ST_TOLERANCE):
    """The convergence verdict to ``candidate`` from the ``reach`` counts of
    its distances (of the norms for the zero candidate)."""
    reports = []
    witness = None
    for eps, row in zip(counts.grid, counts.reach):
        verdict = _zero_density_verdict(counts.cps, row, tolerance)
        reports.append(EpsilonReport(eps, verdict))
        if verdict.decision == "refuted" and witness is None:
            witness = {"epsilon": eps, "checkpoint": verdict.witness}
    return StVerdict(
        "convergence", _overall(r.decision for r in reports), counts.horizon, counts.grid,
        tuple(reports), limit=candidate, witness=witness,
    )


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------

def st_bounded(seq, probes=DEFAULT_PROBES, horizon=DEFAULT_ANALYSIS_HORIZON,
               tolerance=DEFAULT_ST_TOLERANCE, schedule=DEFAULT_SCHEDULE):
    """Search the probe ladder for the first M whose exceedance set
    ``{n : ||x_n|| > M}`` has confirmed-zero density.

    Refuted only when the largest probe still yields a refuted-zero verdict.
    """
    horizon = int(horizon)
    probes = _ladder(probes)
    return bounded_verdict(_seq_walk(seq, None, schedule.checkpoints(horizon), probes), tolerance)


def st_bounded_real(xs, probes=DEFAULT_PROBES, horizon=DEFAULT_ANALYSIS_HORIZON,
                    tolerance=DEFAULT_ST_TOLERANCE, schedule=DEFAULT_SCHEDULE):
    """Boundedness verdict for a real scalar sequence.

    ``xs`` is an array-like holding ``x_1..x_horizon``.  The probe ladder is
    searched for the first M whose exceedance set ``{n : |x_n| > M}`` has
    confirmed-zero density.
    """
    horizon = int(horizon)
    values = np.asarray(xs, dtype=float)
    if len(values) < horizon:
        raise ValueError(f"need {horizon} values, got {len(values)}")
    probes = _ladder(probes)
    counts, = _walk([(np.abs(values[:horizon]),)], 1, schedule.checkpoints(horizon), probes)
    return bounded_verdict(counts, tolerance)


def bounded_verdict(counts, tolerance=DEFAULT_ST_TOLERANCE):
    """The boundedness verdict from the ``above`` counts of the probe ladder;
    every bounded kind ends here."""
    reports = []
    for m, row in zip(counts.probes, counts.above):
        verdict = _zero_density_verdict(counts.cps, row, tolerance)
        reports.append(EpsilonReport(m, verdict))
        if verdict.decision == "confirmed":
            return StVerdict("bounded", "confirmed", counts.horizon, counts.probes,
                             tuple(reports), bound=m)
    last = reports[-1]
    witness = None
    if last.decision == "refuted":
        witness = {"probe": last.epsilon, "checkpoint": last.verdict.witness}
    return StVerdict("bounded", last.decision, counts.horizon, counts.probes, tuple(reports),
                     witness=witness)


def _magnitudes(values):
    return map(lambda v: np.abs(v, out=v), values)


def _weak_probe_functionals(dim):
    probes = [operators.coordinate_functional(j) for j in range(1, dim + 1)]
    rng = np.random.default_rng(WEAK_PROBE_SEED)
    for _ in range(_WEAK_RANDOM_PROBES):
        w = rng.random(dim) * 2.0 - 1.0
        probes.append(operators.dense_weights(w))
    return probes


def weakly_st_bounded(seq, probes=DEFAULT_PROBES, horizon=DEFAULT_ANALYSIS_HORIZON,
                      tolerance=DEFAULT_ST_TOLERANCE, schedule=DEFAULT_SCHEDULE):
    """Statistical boundedness through linear-functional probes.

    Confirmed iff the scalar sequence ``f(x_n)`` is st-bounded for every
    probe functional; dense spaces only.  The reported per-probe table is
    the one for the deciding functional (the first refuting one, otherwise
    the one needing the largest confirmed probe when all confirm, otherwise
    the first inconclusive one); the witness names it unless all confirm.
    One walk of the sequence evaluates every functional on each chunk.
    """
    if seq.space.kind != "dense":
        raise ValueError("weak boundedness probes require a dense space")
    horizon = int(horizon)
    probes = _ladder(probes)
    fs = _weak_probe_functionals(seq.space.dim)
    chunks = map(_magnitudes, functional_chunks(fs, seq, horizon))
    results = []
    for f, counts in zip(fs, _walk(chunks, len(fs), schedule.checkpoints(horizon), probes)):
        verdict = bounded_verdict(counts, tolerance)
        results.append((f, verdict))
        if verdict.decision == "refuted":
            break
    decision = _overall(v.decision for _, v in results)
    if decision == "confirmed":
        _, verdict = max(results, key=lambda fv: fv[1].bound)
        return replace(verdict, kind="weak_bounded")
    f, verdict = next(fv for fv in results if fv[1].decision == decision)
    witness = {"functional": f.describe(), **(verdict.witness or {})}
    return replace(verdict, kind="weak_bounded", witness=witness)


# ---------------------------------------------------------------------------
# Cauchy
# ---------------------------------------------------------------------------

def default_anchors(horizon):
    """Geometric anchor schedule 10, 100, ... up to horizon/10."""
    anchors = []
    a = 10
    while a <= horizon // 10:
        anchors.append(a)
        a *= 10
    return tuple(anchors) or (1,)


def st_cauchy(seq, grid=DEFAULT_EPS_GRID, horizon=DEFAULT_ANALYSIS_HORIZON,
              tolerance=DEFAULT_ST_TOLERANCE, anchors=None, schedule=DEFAULT_SCHEDULE):
    """Anchored statistical Cauchy verdict.

    For each epsilon the anchors are searched in order for one whose
    exceedance set ``{n : ||x_n - x_anchor|| >= eps}`` has confirmed-zero
    density.  An epsilon is refuted only when every anchor refutes.  Anchors
    are searched independently per epsilon; no joint anchor constraint is
    imposed.
    """
    horizon = int(horizon)
    grid = _normalized_grid(grid)
    anchors = tuple(int(a) for a in (default_anchors(horizon) if anchors is None else anchors))
    if not anchors:
        raise ValueError("need at least one anchor index")
    if min(anchors) < 1:
        raise ValueError("anchor indices start at 1")
    # one walk per anchor, counting every epsilon still without a confirmed
    # anchor; each epsilon sees the anchors in order either way
    cps = schedule.checkpoints(horizon)
    per_anchor = [[] for _ in grid]
    found = [None] * len(grid)
    for a in anchors:
        open_eps = [i for i, r in enumerate(found) if r is None]
        if not open_eps:
            break
        reach = _seq_walk(seq, seq.generator(a), cps, grid=[grid[i] for i in open_eps]).reach
        for i, counts in zip(open_eps, reach):
            verdict = _zero_density_verdict(cps, counts, tolerance)
            per_anchor[i].append((a, verdict))
            if verdict.decision == "confirmed":
                found[i] = EpsilonReport(grid[i], verdict, anchor=a)
    reports = []
    witness = None
    for eps, chosen, tried in zip(grid, found, per_anchor):
        if chosen is None:
            _, verdict = min(tried, key=lambda av: av[1].profile.final_ratio)
            chosen = EpsilonReport(eps, verdict)
            if witness is None and all(v.decision == "refuted" for _, v in tried):
                witness = {"epsilon": eps, "checkpoint": verdict.witness}
        reports.append(chosen)
    confirmed = [r for r in reports if r.anchor is not None]
    if len(confirmed) == len(reports):
        decision = "confirmed"
        anchor_index = max(r.anchor for r in confirmed)
    elif witness is not None:
        decision = "refuted"
        anchor_index = None
    else:
        decision = "inconclusive"
        anchor_index = None
    return StVerdict(
        "cauchy", decision, horizon, grid, tuple(reports),
        anchor_index=anchor_index, witness=witness,
    )


# ---------------------------------------------------------------------------
# limit-candidate search
# ---------------------------------------------------------------------------

def _median_candidate(seq, horizon):
    """Coordinatewise median of a late sample window.

    The window [horizon/2, horizon] avoids transients, and the median is
    robust to density-zero spikes inside it.
    """
    lo = max(1, horizon // 2)
    ns = np.unique(np.linspace(lo, horizon, _MEDIAN_SAMPLES).astype(np.int64))
    return seq.structure.median(seq, Stream.of(ns))


def st_converges_search(seq, grid=DEFAULT_EPS_GRID, horizon=DEFAULT_ANALYSIS_HORIZON,
                        tolerance=DEFAULT_ST_TOLERANCE, schedule=DEFAULT_SCHEDULE):
    """Statistical convergence with the limit found by candidate search.

    The candidates are zero and the density-weighted (windowed median)
    candidate.  Returns the first confirmed verdict; refutes when every
    candidate refutes, or when the sequence is not even st-bounded (an
    st-convergent sequence is st-bounded, so a refuted boundedness verdict
    refutes convergence outright; the witness records that reason).  One
    walk of the norms answers both the zero candidate and that boundedness
    verdict.
    """
    horizon = int(horizon)
    counts = _seq_walk(seq, None, schedule.checkpoints(horizon), _DEFAULT_LADDER,
                       _normalized_grid(grid))
    return converges_search(seq, counts, tolerance, schedule)


def converges_search(seq, counts, tolerance=DEFAULT_ST_TOLERANCE, schedule=DEFAULT_SCHEDULE):
    """:func:`st_converges_search` from ``counts``, the :class:`NormCounts`
    of the norms at the default probes and at the grid, whose horizon and
    grid the search reads."""
    horizon = counts.horizon
    zero = spaces.zero(seq.space)
    verdicts = [convergence_verdict(counts, zero, tolerance)]   # zero's distances are the norms
    if verdicts[0].decision == "confirmed":
        return verdicts[0]
    median = _median_candidate(seq, horizon)
    if median != zero:
        v = st_converges(seq, median, counts.grid, horizon, tolerance, schedule)
        if v.decision == "confirmed":
            return v
        verdicts.append(v)
    if all(v.decision == "refuted" for v in verdicts):
        return verdicts[0]
    bounded = bounded_verdict(counts, tolerance)
    if bounded.decision == "refuted":
        base = verdicts[0]
        return StVerdict(
            "convergence", "refuted", horizon, base.epsilon_grid, base.per_epsilon,
            limit=None, witness={"reason": "st_bounded refuted", **(bounded.witness or {})},
        )
    best = min(verdicts, key=lambda v: sum(r.final_ratio for r in v.per_epsilon))
    return StVerdict(
        "convergence", "inconclusive", horizon, best.epsilon_grid, best.per_epsilon,
        limit=None, witness=None,
    )


def norm_limit_zero(seq, horizon=DEFAULT_ANALYSIS_HORIZON, tolerance=DEFAULT_ST_TOLERANCE):
    """Desk verdict on whether ||x_n|| -> 0 in the ordinary norm sense.

    Judged on the trailing nine tenths of the horizon: confirmed when the
    tail supremum is at most the tolerance, refuted when the tail infimum
    stays at 2x the tolerance or above, inconclusive otherwise (spiky tails
    land here).
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return norm_limit_decision(_seq_walk(seq, None, (horizon,), tail=True), tolerance)


def norm_limit_decision(counts, tolerance=DEFAULT_ST_TOLERANCE):
    """The :func:`norm_limit_zero` decision from the tail extremes of the norms."""
    if counts.top <= tolerance:
        return "confirmed"
    if counts.bottom >= 2 * tolerance:
        return "refuted"
    return "inconclusive"


__all__ = [
    "DEFAULT_ANALYSIS_HORIZON",
    "DEFAULT_EPS_GRID",
    "DEFAULT_PROBES",
    "DEFAULT_ST_TOLERANCE",
    "WEAK_PROBE_SEED",
    "EpsilonReport",
    "StVerdict",
    "st_converges",
    "st_bounded",
    "st_bounded_real",
    "weakly_st_bounded",
    "st_cauchy",
    "default_anchors",
    "st_converges_search",
    "norm_limit_zero",
    "NormCounts",
    "norm_counts_of",
    "bounded_verdict",
    "convergence_verdict",
    "converges_search",
    "norm_limit_decision",
]
