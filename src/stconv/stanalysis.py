"""Finite-horizon statistical verdicts for sequences.

Every asymptotic notion (statistical convergence, statistical boundedness,
statistical Cauchy) is replaced by a three-valued desk verdict: the relevant
exceedance index set is materialized up to a horizon, its density profile is
computed, and the profile is judged confirmed / refuted / inconclusive.
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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import operators, spaces
from .density import DEFAULT_SCHEDULE, DensityVerdict, density_verdict, profile_from_mask
from .sequences import distance_sweep, norm_sweep

DEFAULT_ANALYSIS_HORIZON = 100_000
DEFAULT_EPS_GRID = (0.5, 0.1, 0.01)
DEFAULT_PROBES = tuple(float(2 ** i) for i in range(11))
DEFAULT_ST_TOLERANCE = 0.1
_LIMIT_LITERAL_SUPPORT = 32
WEAK_PROBE_SEED = 4242
_WEAK_RANDOM_PROBES = 8


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
    if isinstance(limit, spaces.SparseElement) and len(limit.support) > _LIMIT_LITERAL_SUPPORT:
        return {
            "support_size": len(limit.support),
            "max_index": max(limit.support),
            "sup_norm": max(abs(v) for v in limit.support.values()),
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
    if any(e <= 0 for e in grid):
        raise ValueError("epsilon grid entries must be positive")
    return tuple(sorted(grid, reverse=True))


def _zero_density_verdict(mask, horizon, tolerance, schedule):
    profile = profile_from_mask(mask, horizon, schedule)
    return density_verdict(profile, Fraction(0), tolerance)


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
    dists = distance_sweep(seq, candidate, horizon)
    reports = []
    witness = None
    for eps in grid:
        verdict = _zero_density_verdict(dists >= eps, horizon, tolerance, schedule)
        reports.append(EpsilonReport(eps, verdict))
        if verdict.decision == "refuted" and witness is None:
            witness = {"epsilon": eps, "checkpoint": verdict.witness}
    decisions = [r.decision for r in reports]
    if all(d == "confirmed" for d in decisions):
        decision = "confirmed"
    elif any(d == "refuted" for d in decisions):
        decision = "refuted"
    else:
        decision = "inconclusive"
    return StVerdict(
        "convergence", decision, horizon, grid, tuple(reports),
        limit=candidate, witness=witness,
    )


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------

def _bounded_scan(values, probes, horizon, tolerance, schedule):
    """Probe-ladder scan over nonnegative ``values``; shared by all bounded kinds."""
    if not probes or list(probes) != sorted(probes):
        raise ValueError("probes must be a nonempty increasing ladder")
    reports = []
    bound = None
    for m in probes:
        verdict = _zero_density_verdict(values > m, horizon, tolerance, schedule)
        reports.append(EpsilonReport(float(m), verdict))
        if verdict.decision == "confirmed":
            bound = float(m)
            break
    if bound is not None:
        return "confirmed", bound, reports, None
    last = reports[-1]
    if last.decision == "refuted":
        witness = {"probe": last.epsilon, "checkpoint": last.verdict.witness}
        return "refuted", None, reports, witness
    return "inconclusive", None, reports, None


def st_bounded(seq, probes=DEFAULT_PROBES, horizon=DEFAULT_ANALYSIS_HORIZON,
               tolerance=DEFAULT_ST_TOLERANCE, schedule=DEFAULT_SCHEDULE):
    """Search the probe ladder for the first M whose exceedance set
    ``{n : ||x_n|| > M}`` has confirmed-zero density.

    Refuted only when the largest probe still yields a refuted-zero verdict.
    """
    horizon = int(horizon)
    probes = tuple(float(m) for m in probes)
    norms = norm_sweep(seq, horizon)
    decision, bound, reports, witness = _bounded_scan(
        norms, probes, horizon, tolerance, schedule
    )
    return StVerdict(
        "bounded", decision, horizon, probes, tuple(reports),
        bound=bound, witness=witness,
    )


def st_bounded_real(xs, probes=DEFAULT_PROBES, horizon=DEFAULT_ANALYSIS_HORIZON,
                    tolerance=DEFAULT_ST_TOLERANCE, schedule=DEFAULT_SCHEDULE):
    """Boundedness verdict for a real scalar sequence.

    ``xs`` is either a callable ``n -> float`` (indices from 1) or an
    array-like already holding ``x_1..x_horizon``.
    """
    horizon = int(horizon)
    probes = tuple(float(m) for m in probes)
    if callable(xs):
        values = np.asarray([float(xs(n)) for n in range(1, horizon + 1)])
    else:
        values = np.asarray(xs, dtype=float)
        if len(values) < horizon:
            raise ValueError(f"need {horizon} values, got {len(values)}")
        values = values[:horizon]
    decision, bound, reports, witness = _bounded_scan(
        np.abs(values), probes, horizon, tolerance, schedule
    )
    return StVerdict(
        "bounded", decision, horizon, probes, tuple(reports),
        bound=bound, witness=witness,
    )


def _weak_probe_functionals(dim):
    probes = [operators.coordinate_functional(j) for j in range(1, dim + 1)]
    rng = np.random.default_rng(WEAK_PROBE_SEED)
    for _ in range(_WEAK_RANDOM_PROBES):
        w = rng.random(dim) * 2.0 - 1.0
        probes.append(operators.dense_weights(w))
    return probes


def weakly_st_bounded(seq, functionals=None, probes=DEFAULT_PROBES,
                      horizon=DEFAULT_ANALYSIS_HORIZON, tolerance=DEFAULT_ST_TOLERANCE,
                      schedule=DEFAULT_SCHEDULE):
    """Statistical boundedness through linear-functional probes.

    Confirmed iff the scalar sequence ``f(x_n)`` is st-bounded for every
    probe functional; dense spaces only.  The reported per-probe table is
    the one for the deciding functional (the first refuting one, otherwise
    the one needing the largest confirmed probe).
    """
    if seq.space.kind != "dense":
        raise ValueError("weak boundedness probes require a dense space")
    horizon = int(horizon)
    probes = tuple(float(m) for m in probes)
    if functionals is None:
        functionals = _weak_probe_functionals(seq.space.dim)
    if not functionals:
        raise ValueError("need at least one probe functional")
    results = []
    for f in functionals:
        values = operators.functional_sweep(f, seq, horizon)
        scan = _bounded_scan(np.abs(values), probes, horizon, tolerance, schedule)
        results.append((f, scan))
        if scan[0] == "refuted":
            break
    decisions = [scan[0] for _, scan in results]
    if any(d == "refuted" for d in decisions):
        f, scan = next(pair for pair in results if pair[1][0] == "refuted")
        return StVerdict(
            "weak_bounded", "refuted", horizon, probes, tuple(scan[2]),
            witness={"functional": f.describe(), **scan[3]},
        )
    if all(d == "confirmed" for d in decisions):
        f, scan = max(results, key=lambda pair: pair[1][1])
        return StVerdict(
            "weak_bounded", "confirmed", horizon, probes, tuple(scan[2]),
            bound=scan[1],
        )
    f, scan = next(pair for pair in results if pair[1][0] == "inconclusive")
    return StVerdict(
        "weak_bounded", "inconclusive", horizon, probes, tuple(scan[2]),
        witness={"functional": f.describe()},
    )


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
    anchors = tuple(int(a) for a in (anchors or default_anchors(horizon)))
    if not anchors:
        raise ValueError("need at least one anchor index")
    if min(anchors) < 1:
        raise ValueError("anchor indices start at 1")
    sweeps = []
    for a in anchors:
        x_a = seq.generator(a)
        sweeps.append((a, distance_sweep(seq, x_a, horizon)))
    reports = []
    witness = None
    for eps in grid:
        chosen = None
        per_anchor = []
        for a, dists in sweeps:
            verdict = _zero_density_verdict(dists >= eps, horizon, tolerance, schedule)
            per_anchor.append((a, verdict))
            if verdict.decision == "confirmed":
                chosen = EpsilonReport(eps, verdict, anchor=a)
                break
        if chosen is None:
            a, verdict = min(per_anchor, key=lambda av: av[1].profile.final_ratio)
            if all(v.decision == "refuted" for _, v in per_anchor):
                chosen = EpsilonReport(eps, verdict, anchor=None)
                if witness is None:
                    witness = {"epsilon": eps, "checkpoint": verdict.witness}
            else:
                chosen = EpsilonReport(eps, verdict, anchor=None)
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

def _median_candidate(seq, horizon, samples=255):
    """Coordinatewise median of a late sample window.

    The window [horizon/2, horizon] avoids transients, and the median is
    robust to density-zero spikes inside it.
    """
    lo = max(1, horizon // 2)
    ns = np.unique(np.linspace(lo, horizon, samples).astype(np.int64))
    median = None if seq.structure is None else seq.structure.median(seq, ns)
    if median is not None:
        return median
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


def find_limit_candidates(seq, horizon=DEFAULT_ANALYSIS_HORIZON, samples=255):
    """Zero plus the windowed coordinatewise median, deduplicated."""
    horizon = int(horizon)
    zero = spaces.zero(seq.space)
    median = _median_candidate(seq, horizon, samples)
    if median == zero:
        return [zero]
    return [zero, median]


def st_converges_search(seq, grid=DEFAULT_EPS_GRID, horizon=DEFAULT_ANALYSIS_HORIZON,
                        tolerance=DEFAULT_ST_TOLERANCE, schedule=DEFAULT_SCHEDULE,
                        candidates=None):
    """Statistical convergence with the limit found by candidate search.

    Candidates default to zero and the density-weighted (windowed median)
    candidate.  Returns the first confirmed verdict; refutes when every
    candidate refutes, or when the sequence is not even st-bounded (an
    st-convergent sequence is st-bounded, so a refuted boundedness verdict
    refutes convergence outright; the witness records that reason).
    """
    horizon = int(horizon)
    if candidates is None:
        candidates = find_limit_candidates(seq, horizon)
    verdicts = []
    for cand in candidates:
        v = st_converges(seq, cand, grid, horizon, tolerance, schedule)
        if v.decision == "confirmed":
            return v
        verdicts.append(v)
    if all(v.decision == "refuted" for v in verdicts):
        return verdicts[0]
    bounded = st_bounded(seq, horizon=horizon, tolerance=tolerance, schedule=schedule)
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
    norms = norm_sweep(seq, horizon)
    tail = norms[horizon // 10:]
    if float(np.max(tail)) <= tolerance:
        return "confirmed"
    if float(np.min(tail)) >= 2 * tolerance:
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
    "find_limit_candidates",
    "st_converges_search",
    "norm_limit_zero",
]
