"""Empirical operator classification and the theorem-check suite.

An operator property here is an implication quantified over sequences
("st-bounded inputs give st-bounded images").  Such a property can be
falsified by one corpus witness but never proven by finitely many, so the
strongest positive outcome is ``consistent``: every hypothesis-confirmed
corpus member produced a conclusion that was not refuted.

The suite at the bottom re-checks every operator-level statement the
package encodes, at desk scale, and reports one
:class:`TheoremCheckResult` per statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import operators, sequences, spaces, stanalysis
from .operators import (
    OperatorSpec,
    SequenceTransform,
    coordinate_functional,
    dense_weights,
    finite_rank,
    geometric_weights_functional,
    identity_operator,
    image_sequence,
    linear_combo,
    linear_growth_functional,
    matrix_operator,
    named_diagonal,
    operator_norm_bound,
    operator_norm_estimate,
    prime_position_transform,
    rank_one,
)
from .sequences import (
    alternating_sequence,
    combine,
    constant_sequence,
    damped_prime_coordinate_sequence,
    damped_unit_coordinate_sequence,
    decaying_sequence,
    harmonic_prefix_sequence,
    index_sequence,
    norm_sweep,
    prime_coordinate_sequence,
    random_unit_ball,
    spike_sequence,
    unit_coordinate_sequence,
    zero_sequence,
)
from .spaces import dense_element, dense_space, sparse_element, sparse_space
from .stanalysis import (
    norm_limit_zero,
    st_bounded,
    st_cauchy,
    st_converges,
    st_converges_search,
    weakly_st_bounded,
)
from . import density

DEFAULT_CLASSIFY_HORIZON = 100_000
DEFAULT_CLASSIFY_TOLERANCE = 0.1

PROPERTIES = ("st_bounded", "n_st_bounded", "st_continuous", "n_st_continuous", "st_compact")


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    """A fixed, versioned family of test sequences in one space."""

    version: str
    space: spaces.Space
    members: tuple

    def labels(self):
        return tuple(m.label for m in self.members)


@lru_cache(maxsize=None)
def sparse_corpus():
    """The c00 test family: coordinate walks, spikes, prefixes, nulls."""
    sp = sparse_space()
    squares = density.squares()
    primes = density.primes()
    members = (
        random_unit_ball(sp, 101),
        random_unit_ball(sp, 102),
        random_unit_ball(sp, 103),
        spike_sequence(sp, squares, label="spike_squares"),
        spike_sequence(sp, primes, label="spike_primes"),
        decaying_sequence(sparse_element({1: 1.0}), label="null_decay"),
        harmonic_prefix_sequence(),
        unit_coordinate_sequence(),
        prime_coordinate_sequence(),
        damped_unit_coordinate_sequence(),
        damped_prime_coordinate_sequence(),
    )
    return Corpus(f"sparse-{sequences.CORPUS_VERSION}", sp, members)


@lru_cache(maxsize=None)
def dense_corpus(dim):
    """Classification family in R^dim."""
    sp = dense_space(dim)
    squares = density.squares()
    primes = density.primes()
    ones = dense_element([1.0] * dim)
    members = (
        zero_sequence(sp),
        random_unit_ball(sp, 201),
        random_unit_ball(sp, 202),
        random_unit_ball(sp, 203),
        spike_sequence(sp, squares, label="spike_squares"),
        spike_sequence(sp, primes, label="spike_primes"),
        decaying_sequence(ones, label="null_ones"),
    )
    return Corpus(f"dense{dim}-{sequences.CORPUS_VERSION}", sp, members)


@lru_cache(maxsize=None)
def cauchy_corpus(dim=3):
    """Convergence-vs-Cauchy family: limits, spiky corruptions, divergers."""
    sp = dense_space(dim)
    squares = density.squares()
    primes = density.primes()
    ones_el = dense_element([1.0] * dim)
    ones = constant_sequence(ones_el, label="constant_ones")
    null_decay = decaying_sequence(ones_el, label="null_decay")
    spike_sq = spike_sequence(sp, squares, label="spike_squares")
    rb11 = random_unit_ball(sp, 11)
    members = (
        zero_sequence(sp),
        ones,
        null_decay,
        decaying_sequence(ones_el, exponent=2.0, label="null_decay_sq"),
        decaying_sequence(ones_el, exponent=0.5, label="slow_null"),
        rb11,
        random_unit_ball(sp, 12),
        random_unit_ball(sp, 13),
        spike_sq,
        spike_sequence(sp, primes, label="spike_primes"),
        combine(ones, spike_sq, 1.0, 1.0, label="ones_plus_spike"),
        combine(null_decay, spike_sq, 1.0, 1.0, label="null_plus_spike"),
        combine(ones, null_decay, 1.0, 1.0, label="ones_plus_null"),
        alternating_sequence(dim),
        index_sequence(dim),
        combine(rb11, null_decay, 1.0, 1.0, label="random_plus_null"),
    )
    return Corpus(f"cauchy{dim}-{sequences.CORPUS_VERSION}", sp, members)


def corpus_for(op):
    if isinstance(op, SequenceTransform):
        return sparse_corpus()
    if op.domain.kind == "sparse":
        return sparse_corpus()
    return dense_corpus(op.domain.dim)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    operator: str
    property: str
    outcome: str                  # consistent | refuted | inconclusive
    witnesses: tuple              # (sequence label, conclusion StVerdict) pairs
    corpus_version: str
    horizon: int
    tolerance: float

    def to_json_dict(self):
        return {
            "operator": self.operator,
            "property": self.property,
            "outcome": self.outcome,
            "witnesses": [
                {"sequence": label, "verdict": verdict.to_json_dict()}
                for label, verdict in self.witnesses
            ],
            "corpus_version": self.corpus_version,
            "horizon": self.horizon,
            "tolerance": self.tolerance,
        }

    def __repr__(self):
        return f"ClassificationReport({self.operator}, {self.property}: {self.outcome})"


_HYPOTHESIS_OF = {
    "st_bounded": "st_bounded",
    "st_compact": "st_bounded",
    "n_st_bounded": "norm_bounded",
    "st_continuous": "st_null",
    "n_st_continuous": "norm_null",
}


def _hypothesis_confirmed(member, prop, horizon, tolerance):
    """Whether the corpus member satisfies the property's input hypothesis."""
    kind = _HYPOTHESIS_OF[prop]
    key = ("hypothesis", kind, horizon, tolerance)
    hit = member.cache.get(key)
    if hit is None:
        if kind == "st_bounded":
            hit = st_bounded(member, horizon=horizon, tolerance=tolerance).decision
        elif kind == "st_null":
            hit = st_converges(member, horizon=horizon, tolerance=tolerance).decision
        elif kind == "norm_bounded":
            # analytic bounds only: a finite sweep cannot certify sup ||x_n||
            hit = "confirmed" if member.norm_bound is not None else "inconclusive"
        else:  # norm_null
            hit = norm_limit_zero(member, horizon=horizon, tolerance=tolerance)
        member.cache[key] = hit
    return hit == "confirmed"


def _conclusion_verdict(op, member, prop, horizon, tolerance):
    image = image_sequence(op, member)
    if prop in ("st_bounded", "n_st_bounded"):
        return st_bounded(image, horizon=horizon, tolerance=tolerance)
    if prop in ("st_continuous", "n_st_continuous"):
        return st_converges(image, horizon=horizon, tolerance=tolerance)
    return st_converges_search(image, horizon=horizon, tolerance=tolerance)


def classify(op, prop, corpus=None, horizon=DEFAULT_CLASSIFY_HORIZON,
             tolerance=DEFAULT_CLASSIFY_TOLERANCE):
    """Empirically test one operator property against a corpus.

    Refuted when some member confirms the hypothesis while its image refutes
    the conclusion; consistent when no member refutes and at least one
    hypothesis was confirmed; inconclusive otherwise.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if corpus is None:
        corpus = corpus_for(op)
    if not corpus.members:
        raise ValueError("classification needs a nonempty corpus")
    if isinstance(op, OperatorSpec) and corpus.space != op.domain:
        raise ValueError(
            f"corpus space {corpus.space.describe()} does not match "
            f"operator domain {op.domain.describe()}"
        )
    horizon = int(horizon)
    witnesses = []
    confirmed = 0
    for member in corpus.members:
        if not _hypothesis_confirmed(member, prop, horizon, tolerance):
            continue
        confirmed += 1
        verdict = _conclusion_verdict(op, member, prop, horizon, tolerance)
        if verdict.decision == "refuted":
            witnesses.append((member.label, verdict))
    if witnesses:
        outcome = "refuted"
    elif confirmed:
        outcome = "consistent"
    else:
        outcome = "inconclusive"
    return ClassificationReport(
        op.describe(), prop, outcome, tuple(witnesses),
        corpus.version, horizon, tolerance,
    )


# ---------------------------------------------------------------------------
# theorem-check plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TheoremCheckResult:
    check: str
    instances: int
    passes: int
    failures: tuple = ()
    notes: str = ""
    data: dict = field(default_factory=dict)

    @property
    def status(self):
        return "pass" if not self.failures and self.instances >= 1 else "fail"

    def to_json_dict(self):
        return {
            "check": self.check,
            "status": self.status,
            "instances": self.instances,
            "passes": self.passes,
            "failures": list(self.failures),
            "notes": self.notes,
            "data": self.data,
        }

    def __repr__(self):
        tag = "PASS" if self.status == "pass" else "FAIL"
        return f"[{tag}] {self.check}: {self.passes}/{self.instances}"


def _result(check, outcomes, notes="", data=None):
    """Build a result from (instance label, ok, detail) triples."""
    failures = tuple(
        {"instance": label, "detail": detail}
        for label, ok, detail in outcomes if not ok
    )
    return TheoremCheckResult(
        check, len(outcomes), sum(1 for _, ok, _ in outcomes if ok),
        failures, notes, data or {},
    )


def _e(k, v=1.0):
    return sparse_element({k: v})


def _norm_bounded_operator_pool():
    """Operators with a known finite norm bound, sparse and dense."""
    ops = [
        identity_operator(),
        named_diagonal("inverse"),
        named_diagonal("one_plus_inverse"),
        rank_one(coordinate_functional(1), _e(1)),
        finite_rank([(coordinate_functional(1), _e(1)),
                     (coordinate_functional(2), _e(2, 0.5))]),
        linear_combo(0.5, identity_operator(), 0.25, named_diagonal("inverse")),
        operators.compose(named_diagonal("inverse"), named_diagonal("one_plus_inverse")),
        matrix_operator([[2.0, 0.0], [0.0, 3.0]]),
        matrix_operator([[1.0, 1.0], [0.0, 1.0]]),
    ]
    assert all(operator_norm_bound(op) is not None for op in ops)
    return ops


def _consistent(op, props, horizon, tolerance):
    """``(label, ok, detail)``: ``op`` classifies consistent under every one of ``props``."""
    corpus = corpus_for(op)
    outcomes = {prop: classify(op, prop, corpus, horizon, tolerance).outcome for prop in props}
    detail = "; ".join(f"{p} outcome {o}" for p, o in outcomes.items() if o != "consistent")
    return op.describe(), not detail, detail


def check_bounded_inclusion(horizon, tolerance):
    """Operators with a known norm bound classify st-bounded both ways."""
    outcomes = [_consistent(op, ("st_bounded", "n_st_bounded"), horizon, tolerance)
                for op in _norm_bounded_operator_pool()]
    return _result("bounded_inclusion", outcomes,
                   notes="norm-bounded operators stay statistically bounded")


def check_finite_dim_all_bounded(horizon, tolerance):
    """20 seeded random matrices on R^d (d <= 8) all classify st-bounded."""
    rng = np.random.default_rng(7)
    outcomes = []
    for i in range(20):
        d = int(rng.integers(1, 9))
        a = rng.normal(size=(d, d))
        _, ok, detail = _consistent(matrix_operator(a), ("st_bounded",), horizon, tolerance)
        outcomes.append((f"seeded_matrix_{i}(d={d})", ok, detail))
    return _result("finite_dim_all_bounded", outcomes,
                   notes="every matrix operator on a finite-dimensional space is st-bounded")


def _find_ratio_bound(op, corpus, horizon, tolerance, start, max_doublings=60):
    """Smallest doubling multiple of ``start`` with ||Sx_n|| <= M ||x_n|| a.e."""
    m = max(float(start), 1e-9)
    for k in range(max_doublings):
        ok = True
        for member in corpus.members:
            base = norm_sweep(member, horizon)
            img = norm_sweep(image_sequence(op, member), horizon)
            mask = img > m * base * (1.0 + 1e-12)
            verdict = stanalysis._zero_density_verdict(
                mask, horizon, tolerance, density.DEFAULT_SCHEDULE
            )
            if verdict.decision != "confirmed":
                ok = False
                break
        if ok:
            return m, k
        m *= 2.0
    return None, max_doublings


def check_ratio_bound(horizon, tolerance):
    """Doubling search finds M with ||Sx_n|| <= M ||x_n|| on almost all n,
    within a factor 2 of the probe estimate for small matrices."""
    rng = np.random.default_rng(40)
    ops = [
        identity_operator(),
        named_diagonal("inverse"),
        matrix_operator([[2.0, 0.0], [0.0, 3.0]]),
        matrix_operator([[1.0, 1.0], [0.0, 1.0]]),
        matrix_operator(rng.normal(size=(3, 3))),
        matrix_operator(rng.normal(size=(4, 4))),
    ]
    outcomes = []
    data = {"instances": []}
    for op in ops:
        corpus = corpus_for(op)
        est = operator_norm_estimate(op, probes=100)
        m, doublings = _find_ratio_bound(op, corpus, horizon, tolerance, est)
        ok = m is not None
        detail = "no bound found" if not ok else ""
        if ok and op.kind == "matrix" and op.domain.dim <= 4 and m > 2.0 * est + 1e-12:
            ok = False
            detail = f"bound {m} exceeds twice the probe estimate {est}"
        outcomes.append((op.describe(), ok, detail))
        data["instances"].append({
            "operator": op.describe(),
            "estimate": est,
            "bound": m,
            "doublings": doublings,
        })
    return _result("ratio_bound", outcomes, data=data,
                   notes="statistically bounded operators admit a ratio bound M on a density-one set")


def check_subspace_closure(horizon, tolerance):
    """Sums and scalar multiples of st-bounded-consistent operators stay consistent."""
    inv = named_diagonal("inverse")
    opi = named_diagonal("one_plus_inverse")
    ident = identity_operator()
    r1 = rank_one(coordinate_functional(1), _e(1))
    r2 = rank_one(geometric_weights_functional(), _e(1))
    combos = [
        linear_combo(1.0, inv, 1.0, opi),
        linear_combo(1.0, ident, 1.0, inv),
        linear_combo(2.5, inv, 0.0, inv),
        linear_combo(1.0, r1, 1.0, r2),
        linear_combo(1.0, matrix_operator([[2.0, 0.0], [0.0, 3.0]]),
                     -0.5, matrix_operator([[1.0, 1.0], [0.0, 1.0]])),
    ]
    outcomes = [_consistent(op, ("st_bounded",), horizon, tolerance) for op in combos]
    return _result("subspace_closure", outcomes,
                   notes="st-bounded operators form a linear subspace")


def check_finite_rank_bounded(horizon, tolerance):
    ops = [
        finite_rank([(coordinate_functional(1), _e(1)),
                     (coordinate_functional(2), _e(2, 0.5))]),
        finite_rank([(coordinate_functional(1), dense_element([1.0, 0.0, 0.0])),
                     (dense_weights([0.5, 0.5, 0.0]), dense_element([0.0, 1.0, 0.0]))],
                    domain=dense_space(3)),
    ]
    outcomes = [_consistent(op, ("st_bounded", "n_st_bounded"), horizon, tolerance) for op in ops]
    return _result("finite_rank_bounded", outcomes,
                   notes="finite-rank operators with bounded functionals are st-bounded")


def _iff_operator_pool():
    return [
        identity_operator(),
        named_diagonal("inverse"),
        named_diagonal("one_plus_inverse"),
        named_diagonal("prime_scale"),
        named_diagonal("index"),
        rank_one(coordinate_functional(1), _e(1)),
        rank_one(geometric_weights_functional(), _e(1)),
        rank_one(linear_growth_functional(), _e(1)),
        finite_rank([(coordinate_functional(1), _e(1)),
                     (coordinate_functional(2), _e(2, 0.5))]),
        operators.compose(named_diagonal("inverse"), named_diagonal("prime_scale")),
        linear_combo(1.0, identity_operator(), 1.0, named_diagonal("inverse")),
        matrix_operator([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]]),
        matrix_operator([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ]


def check_bounded_iff_continuous(horizon, tolerance):
    """st_bounded and st_continuous classification outcomes agree per operator."""
    outcomes = []
    for op in _iff_operator_pool():
        b = classify(op, "st_bounded", corpus_for(op), horizon, tolerance)
        c = classify(op, "st_continuous", corpus_for(op), horizon, tolerance)
        ok = b.outcome == c.outcome
        detail = "" if ok else f"st_bounded {b.outcome} vs st_continuous {c.outcome}"
        outcomes.append((op.describe(), ok, detail))
    return _result("bounded_iff_continuous", outcomes,
                   notes="for linear operators the two classifications coincide")


def check_continuity_inclusions(horizon, tolerance):
    """Norm-continuous (known-bound) operators classify st-continuous."""
    outcomes = [_consistent(op, ("st_continuous", "n_st_continuous"), horizon, tolerance)
                for op in _norm_bounded_operator_pool()]
    return _result("continuity_inclusions", outcomes,
                   notes="norm continuity implies both statistical continuity notions")


def _compact_consistent_pool():
    return [
        named_diagonal("inverse"),
        rank_one(coordinate_functional(1), _e(1)),
        rank_one(geometric_weights_functional(), _e(1)),
        finite_rank([(coordinate_functional(1), _e(1)),
                     (coordinate_functional(2), _e(2, 0.5))]),
        operators.compose(named_diagonal("inverse"), named_diagonal("one_plus_inverse")),
    ]


def check_compact_implies_bounded_and_continuous(horizon, tolerance):
    outcomes = [_consistent(op, ("st_compact", "st_bounded", "st_continuous"), horizon, tolerance)
                for op in _compact_consistent_pool()]
    return _result("compact_implies_bounded_and_continuous", outcomes)


def check_compact_composition(horizon, tolerance):
    """Composing with continuous (left) or bounded (right) operators preserves
    compact-consistency."""
    t = named_diagonal("inverse")                 # compact-consistent
    s = named_diagonal("one_plus_inverse")        # continuous-consistent
    r = linear_combo(0.5, identity_operator(), 0.0, identity_operator())
    outcomes = [_consistent(op, ("st_compact",), horizon, tolerance)
                for op in (operators.compose(s, t), operators.compose(t, r))]
    return _result("compact_composition", outcomes)


def check_compact_norm_limit(horizon, tolerance):
    """Finite-rank truncations converge to the reciprocal diagonal in operator
    norm with probe exactly 1/(m+1), and the limit classifies compact-consistent."""
    s = named_diagonal("inverse")
    outcomes = []
    data = {"probes": []}
    for m in (1, 2, 4, 8, 16):
        s_m = named_diagonal("inverse_trunc", m)
        diff = linear_combo(1.0, s_m, -1.0, s)
        probe = operator_norm_estimate(diff, probes=64)
        expected = 1.0 / (m + 1)
        ok = abs(probe - expected) <= 1e-12
        # the truncation really is finite-rank: check agreement on probes
        fr = finite_rank([(coordinate_functional(k), _e(k, 1.0 / k))
                          for k in range(1, m + 1)])
        for k in range(1, 2 * m + 3):
            delta = spaces.sub(operators.apply(s_m, _e(k)), operators.apply(fr, _e(k)))
            if spaces.norm(delta, sequences.DEFAULT_SPARSE_NORM) > 1e-12:
                ok = False
                break
        detail = "" if ok else f"norm probe {probe!r} vs expected {expected!r}"
        outcomes.append((f"truncation m={m}", ok, detail))
        data["probes"].append({"m": m, "probe": probe, "expected": expected})
    outcomes.append(_consistent(s, ("st_compact",), horizon, tolerance))
    return _result("compact_norm_limit", outcomes, data=data,
                   notes="operator-norm limits of st-compact operators are st-compact")


def check_unbounded_functional_not_compact(horizon, tolerance):
    op = rank_one(linear_growth_functional(), _e(1))
    report = classify(op, "st_compact", corpus_for(op), horizon, tolerance)
    ok = report.outcome == "refuted" and len(report.witnesses) >= 1
    detail = "" if ok else f"outcome {report.outcome} with {len(report.witnesses)} witnesses"
    witness_labels = [label for label, _ in report.witnesses]
    return _result(
        "unbounded_functional_not_compact",
        [(op.describe(), ok, detail)],
        notes="rank-one over an unbounded functional fails st-compactness",
        data={"witnesses": witness_labels},
    )


def check_weak_equiv(horizon, tolerance):
    """Functional-probe boundedness agrees with norm boundedness member by member."""
    outcomes = []
    for member in cauchy_corpus().members:
        strong = st_bounded(member, horizon=horizon, tolerance=tolerance)
        weak = weakly_st_bounded(member, horizon=horizon, tolerance=tolerance)
        ok = strong.decision == weak.decision
        detail = "" if ok else f"strong {strong.decision} vs weak {weak.decision}"
        outcomes.append((member.label, ok, detail))
    return _result("weak_equiv", outcomes)


def harmonic_candidate_family():
    """20 finite-support candidates (max support index 50) for the separating
    example: the harmonic prefix sequence st-converges to none of them."""
    h = harmonic_prefix_sequence()
    family = [sparse_element({})]
    family += [h.generator(j) for j in (1, 2, 3, 5, 8, 13, 21, 34, 50)]
    family += [_e(j) for j in (1, 2, 3, 5, 10)]
    family += [
        _e(1, 0.5),
        _e(1, 2.0),
        sparse_element({1: 1.0, 2: 0.5}),
        sparse_element({2: 1.5, 4: 0.25}),
        spaces.scale(0.75, h.generator(4)),
    ]
    return family


def check_cauchy_suite(horizon, tolerance):
    """Convergence/Cauchy agreement on the dense corpus plus the sparse
    separating example."""
    outcomes = []
    for member in cauchy_corpus().members:
        vc = st_cauchy(member, horizon=horizon, tolerance=tolerance)
        vs = st_converges_search(member, horizon=horizon, tolerance=tolerance)
        contradiction = {vc.decision, vs.decision} == {"confirmed", "refuted"}
        ok = not contradiction
        if vs.decision == "confirmed" and vc.decision == "refuted":
            ok = False
        detail = "" if ok else f"cauchy {vc.decision} vs convergence {vs.decision}"
        outcomes.append((member.label, ok, detail))
    harmonic = harmonic_prefix_sequence()
    vh = st_cauchy(harmonic, horizon=horizon, tolerance=tolerance)
    outcomes.append((
        "harmonic_prefix st_cauchy",
        vh.decision == "confirmed",
        "" if vh.decision == "confirmed" else f"decision {vh.decision}",
    ))
    for i, cand in enumerate(harmonic_candidate_family()):
        v = st_converges(harmonic, cand, horizon=horizon, tolerance=tolerance)
        ok = v.decision == "refuted"
        outcomes.append((
            f"harmonic_prefix candidate_{i}", ok,
            "" if ok else f"decision {v.decision}",
        ))
    return _result("cauchy_suite", outcomes,
                   notes="convergence implies Cauchy; the sparse prefix sequence separates them")


def check_prime_scaling_readings(horizon, tolerance):
    """The prime-scaling example admits two formalizations with opposite
    st-boundedness outcomes; both are checked and the discrepancy recorded."""
    transform = prime_position_transform()
    diag = named_diagonal("prime_scale")
    rep_t = classify(transform, "st_bounded", sparse_corpus(), horizon, tolerance)
    rep_d = classify(diag, "st_bounded", sparse_corpus(), horizon, tolerance)
    t_ok = rep_t.outcome == "consistent"
    d_ok = rep_d.outcome == "refuted" and any(
        label == "prime_coords" for label, _ in rep_d.witnesses
    )
    outcomes = [
        (transform.describe(), t_ok, "" if t_ok else f"outcome {rep_t.outcome}"),
        (diag.describe(), d_ok,
         "" if d_ok else f"outcome {rep_d.outcome}; witnesses {rep_d.witnesses}"),
    ]
    notes = (
        "position-dependent reading is st-bounded-consistent; the linear "
        "diagonal reading is refuted by the prime coordinate walk"
    )
    data = {
        "transform_outcome": rep_t.outcome,
        "diagonal_outcome": rep_d.outcome,
        "diagonal_witnesses": [label for label, _ in rep_d.witnesses],
    }
    return _result("prime_scaling_readings", outcomes, notes=notes, data=data)


_SUITE = (
    ("bounded_inclusion", check_bounded_inclusion),
    ("finite_dim_all_bounded", check_finite_dim_all_bounded),
    ("ratio_bound", check_ratio_bound),
    ("subspace_closure", check_subspace_closure),
    ("finite_rank_bounded", check_finite_rank_bounded),
    ("bounded_iff_continuous", check_bounded_iff_continuous),
    ("continuity_inclusions", check_continuity_inclusions),
    ("compact_implies_bounded_and_continuous", check_compact_implies_bounded_and_continuous),
    ("compact_composition", check_compact_composition),
    ("compact_norm_limit", check_compact_norm_limit),
    ("unbounded_functional_not_compact", check_unbounded_functional_not_compact),
    ("weak_equiv", check_weak_equiv),
    ("cauchy_suite", check_cauchy_suite),
    ("prime_scaling_readings", check_prime_scaling_readings),
)

SUITE_CHECKS = tuple(name for name, _ in _SUITE)


def check_theorem(check, horizon=DEFAULT_CLASSIFY_HORIZON,
                  tolerance=DEFAULT_CLASSIFY_TOLERANCE):
    """Run one named suite check."""
    table = dict(_SUITE)
    if check not in table:
        raise ValueError(f"unknown check {check!r}; expected one of {SUITE_CHECKS}")
    return table[check](int(horizon), tolerance)


def run_suite(horizon=DEFAULT_CLASSIFY_HORIZON, tolerance=DEFAULT_CLASSIFY_TOLERANCE):
    """Run every suite check in fixed order."""
    return tuple(fn(int(horizon), tolerance) for _, fn in _SUITE)


def suite_passed(results):
    return all(r.status == "pass" for r in results)


__all__ = [
    "DEFAULT_CLASSIFY_HORIZON",
    "DEFAULT_CLASSIFY_TOLERANCE",
    "PROPERTIES",
    "SUITE_CHECKS",
    "Corpus",
    "ClassificationReport",
    "TheoremCheckResult",
    "sparse_corpus",
    "dense_corpus",
    "cauchy_corpus",
    "corpus_for",
    "classify",
    "check_theorem",
    "run_suite",
    "suite_passed",
    "harmonic_candidate_family",
]
