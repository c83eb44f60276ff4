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
    norm_chunks,
    prime_coordinate_sequence,
    random_unit_ball,
    spike_sequence,
    unit_coordinate_sequence,
    zero_sequence,
)
from .spaces import dense_element, dense_space, sparse_element, sparse_space
from .stanalysis import (
    bounded_verdict,
    convergence_verdict,
    converges_search,
    norm_limit_decision,
    st_cauchy,
    st_converges,
    weakly_st_bounded,
)
from . import density

DEFAULT_CLASSIFY_HORIZON = 100_000
DEFAULT_CLASSIFY_TOLERANCE = 0.1
_RATIO_DOUBLINGS = 60


def _st_bounded_input(member, counts, tolerance):
    return bounded_verdict(counts, tolerance).decision


def _st_null_input(member, counts, tolerance):
    return _null(member, counts, tolerance).decision


def _norm_null_input(member, counts, tolerance):
    return norm_limit_decision(counts, tolerance)


def _norm_bounded_input(member, counts, tolerance):
    # analytic bounds only: a finite sweep cannot certify sup ||x_n||
    return "confirmed" if member.norm_bound is not None else "inconclusive"


def _bounded(image, counts, tolerance):
    return bounded_verdict(counts, tolerance)


def _null(image, counts, tolerance):
    return convergence_verdict(counts, spaces.zero(image.space), tolerance)


def _compact(image, counts, tolerance):
    return converges_search(image, counts, tolerance)


# The paper's five definitions as data.  Each property is an implication:
# when the input x_n satisfies the hypothesis, the image T x_n must satisfy
# the conclusion.  The hypothesis decides ``(member, counts, tolerance)``
# and the conclusion is the verdict of ``(image, counts, tolerance)``;
# ``counts`` is the ``stanalysis.NormCounts`` of the member or the image, at
# the run's horizon, walked at most once in a run (see :class:`_Walks`),
# which answers ``st_bounded``, ``st_converges`` to zero, ``norm_limit_zero``
# and the zero candidate of ``st_converges_search`` at their defaults.
_DEFINITIONS = {
    "st_bounded": (_st_bounded_input, _bounded),
    "n_st_bounded": (_norm_bounded_input, _bounded),
    "st_continuous": (_st_null_input, _null),
    "n_st_continuous": (_norm_null_input, _null),
    "st_compact": (_st_bounded_input, _compact),
}

PROPERTIES = tuple(_DEFINITIONS)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    """A fixed, versioned family of test sequences in one space."""

    version: str
    space: spaces.Space
    members: tuple


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
def cauchy_corpus():
    """Convergence-vs-Cauchy family in R^3: limits, spiky corruptions, divergers."""
    sp = dense_space(3)
    squares = density.squares()
    primes = density.primes()
    ones_el = dense_element([1.0, 1.0, 1.0])
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
        alternating_sequence(3),
        index_sequence(3),
        combine(rb11, null_decay, 1.0, 1.0, label="random_plus_null"),
    )
    return Corpus(f"cauchy3-{sequences.CORPUS_VERSION}", sp, members)


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


class _Walks:
    """The norm counts of one run (a ``classify``, ``check_theorem`` or
    ``run_suite`` call) at its horizon, so that the run walks each corpus
    member and each operator image at most once, whichever check asks first.

    A member is keyed ``(corpus version, label)`` and its image under an
    operator ``(descriptor, corpus version, label)``: operators with one
    descriptor act alike on one corpus.  The memo holds
    ``stanalysis.NormCounts`` only, as they were walked, never an element,
    a sweep or a candidate, and goes when the run returns.
    """

    def __init__(self, horizon):
        self.horizon = horizon
        self.counts = {}

    def count(self, seqs):
        """The counts of each sequence of ``seqs``, a dict from memo key to
        sequence, in order; those not counted yet are counted from one walk
        of them all in step, so a member walked with its images is read once."""
        todo = {key: seq for key, seq in seqs.items() if key not in self.counts}
        if todo:
            walked = stanalysis.norm_counts_of(list(todo.values()), self.horizon)
            self.counts.update(zip(todo, walked))
        return [self.counts[key] for key in seqs]


def _classify(ops, props, horizon, tolerance, walks):
    """For each operator of ``ops``, one report per property in ``props``;
    ``walks`` is the run's :class:`_Walks`.

    The pass is member-major over the corpus of each domain.  A member the
    run has not counted yet is walked in step with its images under the
    pool, so its chunks are read once for all of them; a counted member's
    images are walked, in step, only where it confirms some hypothesis.
    Each member's hypotheses are decided once per pass, from its counts,
    and each distinct conclusion verdict on an image at most once.
    """
    for prop in props:
        if prop not in _DEFINITIONS:
            raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    horizon = int(horizon)
    # refused before any walk, whether or not some member's tail would answer
    density.DEFAULT_SCHEDULE.checkpoints(horizon)
    names = [op.describe() for op in ops]
    corpora = [corpus_for(op) for op in ops]
    witnesses = [{prop: [] for prop in props} for _ in ops]
    confirmed = [dict.fromkeys(props, 0) for _ in ops]
    for corpus in {id(c): c for c in corpora}.values():
        pool = [i for i, c in enumerate(corpora) if c is corpus]
        for member in corpus.members:
            key = (corpus.version, member.label)
            images = {(names[i], *key): image_sequence(ops[i], member) for i in pool}
            # a member not counted yet is walked with its images, as its hypotheses wait for it
            counts = walks.count({key: member} if key in walks.counts else {key: member, **images})[0]
            held = [prop for prop in props
                    if _DEFINITIONS[prop][0](member, counts, tolerance) == "confirmed"]
            if not held:
                continue
            walks.count(images)
            for i in pool:
                image_key = (names[i], *key)
                image, counts = images[image_key], walks.counts[image_key]
                verdicts = {}
                for prop in held:
                    confirmed[i][prop] += 1
                    conclude = _DEFINITIONS[prop][1]
                    verdict = verdicts.get(conclude)
                    if verdict is None:
                        verdict = verdicts[conclude] = conclude(image, counts, tolerance)
                    if verdict.decision == "refuted":
                        witnesses[i][prop].append((member.label, verdict))
    return [[ClassificationReport(name, prop, "refuted" if found[prop] else
                                  "consistent" if hits[prop] else "inconclusive",
                                  tuple(found[prop]), corpus.version, horizon, tolerance)
             for prop in props]
            for name, corpus, found, hits in zip(names, corpora, witnesses, confirmed)]


def classify(op, prop, horizon=DEFAULT_CLASSIFY_HORIZON, tolerance=DEFAULT_CLASSIFY_TOLERANCE):
    """Empirically test one operator property against the corpus of its domain.

    Refuted when some member confirms the hypothesis while its image refutes
    the conclusion; consistent when no member refutes and at least one
    hypothesis was confirmed; inconclusive otherwise.
    """
    return _classify([op], (prop,), horizon, tolerance, _Walks(int(horizon)))[0][0]


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


def _consistent(ops, props, horizon, tolerance, walks):
    """``(label, ok, detail)`` per operator of ``ops``: whether it classifies
    consistent under every one of ``props``."""
    details = ["; ".join(f"{r.property} outcome {r.outcome}" for r in reports
                         if r.outcome != "consistent")
               for reports in _classify(ops, props, horizon, tolerance, walks)]
    return [(op.describe(), not detail, detail) for op, detail in zip(ops, details)]


def _all_consistent(pool, props, notes=""):
    """The check that every operator of ``pool()`` classifies consistent under ``props``."""
    def check(horizon, tolerance, walks):
        return _consistent(pool(), props, horizon, tolerance, walks), notes, {}
    return check


def check_finite_dim_all_bounded(horizon, tolerance, walks):
    """20 seeded random matrices on R^d (d <= 8) all classify st-bounded."""
    rng = np.random.default_rng(7)
    ops = []
    for i in range(20):
        d = int(rng.integers(1, 9))
        ops.append((f"seeded_matrix_{i}(d={d})", matrix_operator(rng.normal(size=(d, d)))))
    outcomes = [(label, ok, detail) for (label, _), (_, ok, detail) in zip(
        ops, _consistent([op for _, op in ops], ("st_bounded",), horizon, tolerance, walks))]
    return outcomes, "every matrix operator on a finite-dimensional space is st-bounded", {}


def _find_ratio_bound(op, corpus, horizon, tolerance, start):
    """Smallest doubling multiple of ``start`` with ||Sx_n|| <= M ||x_n|| a.e."""
    m = max(float(start), 1e-9)
    bounds = [m * 2.0 ** k for k in range(_RATIO_DOUBLINGS)]
    cps = density.DEFAULT_SCHEDULE.checkpoints(horizon)

    def exceedances(norms):
        # norms are >= 0, so the bound m * base grows with m: once a chunk has
        # no exceedance of one bound it has none of a larger one
        base, img = norms
        masks = [None] * len(bounds)
        for k, m in enumerate(bounds):
            mask = img > m * base * (1.0 + 1e-12)
            if not mask.any():
                break
            masks[k] = mask
        return len(base), masks

    # one walk per member, its norms and its image's in step, counting every doubling
    tables = [density.count_table(map(exceedances, norm_chunks(
                  [member, image_sequence(op, member)], horizon)), cps)
              for member in corpus.members]
    for k, m in enumerate(bounds):
        if all(stanalysis._zero_density_verdict(cps, table[k], tolerance).decision == "confirmed"
               for table in tables):
            return m, k
    return None, _RATIO_DOUBLINGS


def check_ratio_bound(horizon, tolerance, walks):
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
        if ok and isinstance(op, operators.Matrix) and op.domain.dim <= 4 and m > 2.0 * est + 1e-12:
            ok = False
            detail = f"bound {m} exceeds twice the probe estimate {est}"
        outcomes.append((op.describe(), ok, detail))
        data["instances"].append({
            "operator": op.describe(),
            "estimate": est,
            "bound": m,
            "doublings": doublings,
        })
    notes = "statistically bounded operators admit a ratio bound M on a density-one set"
    return outcomes, notes, data


def _linear_combination_pool():
    """Sums and scalar multiples of st-bounded-consistent operators."""
    inv = named_diagonal("inverse")
    opi = named_diagonal("one_plus_inverse")
    ident = identity_operator()
    r1 = rank_one(coordinate_functional(1), _e(1))
    r2 = rank_one(geometric_weights_functional(), _e(1))
    return [
        linear_combo(1.0, inv, 1.0, opi),
        linear_combo(1.0, ident, 1.0, inv),
        linear_combo(2.5, inv, 0.0, inv),
        linear_combo(1.0, r1, 1.0, r2),
        linear_combo(1.0, matrix_operator([[2.0, 0.0], [0.0, 3.0]]),
                     -0.5, matrix_operator([[1.0, 1.0], [0.0, 1.0]])),
    ]


def _finite_rank_pool():
    """Finite-rank operators over bounded functionals, sparse and dense."""
    return [
        finite_rank([(coordinate_functional(1), _e(1)),
                     (coordinate_functional(2), _e(2, 0.5))]),
        finite_rank([(coordinate_functional(1), dense_element([1.0, 0.0, 0.0])),
                     (dense_weights([0.5, 0.5, 0.0]), dense_element([0.0, 1.0, 0.0]))],
                    domain=dense_space(3)),
    ]


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


def check_bounded_iff_continuous(horizon, tolerance, walks):
    """st_bounded and st_continuous classification outcomes agree per operator."""
    outcomes = []
    pool = _iff_operator_pool()
    for op, (b, c) in zip(pool, _classify(pool, ("st_bounded", "st_continuous"),
                                          horizon, tolerance, walks)):
        ok = b.outcome == c.outcome
        detail = "" if ok else f"st_bounded {b.outcome} vs st_continuous {c.outcome}"
        outcomes.append((op.describe(), ok, detail))
    return outcomes, "for linear operators the two classifications coincide", {}


def _compact_consistent_pool():
    return [
        named_diagonal("inverse"),
        rank_one(coordinate_functional(1), _e(1)),
        rank_one(geometric_weights_functional(), _e(1)),
        finite_rank([(coordinate_functional(1), _e(1)),
                     (coordinate_functional(2), _e(2, 0.5))]),
        operators.compose(named_diagonal("inverse"), named_diagonal("one_plus_inverse")),
    ]


def _compact_composition_pool():
    """A compact-consistent operator composed with a continuous one on the left
    and with a bounded one on the right."""
    t = named_diagonal("inverse")                 # compact-consistent
    s = named_diagonal("one_plus_inverse")        # continuous-consistent
    r = linear_combo(0.5, identity_operator(), 0.0, identity_operator())
    return [operators.compose(s, t), operators.compose(t, r)]


def check_compact_norm_limit(horizon, tolerance, walks):
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
            if spaces.norm(delta) > 1e-12:
                ok = False
                break
        detail = "" if ok else f"norm probe {probe!r} vs expected {expected!r}"
        outcomes.append((f"truncation m={m}", ok, detail))
        data["probes"].append({"m": m, "probe": probe, "expected": expected})
    outcomes += _consistent([s], ("st_compact",), horizon, tolerance, walks)
    return outcomes, "operator-norm limits of st-compact operators are st-compact", data


def check_unbounded_functional_not_compact(horizon, tolerance, walks):
    op = rank_one(linear_growth_functional(), _e(1))
    [report], = _classify([op], ("st_compact",), horizon, tolerance, walks)
    ok = report.outcome == "refuted" and len(report.witnesses) >= 1
    detail = "" if ok else f"outcome {report.outcome} with {len(report.witnesses)} witnesses"
    return ([(op.describe(), ok, detail)],
            "rank-one over an unbounded functional fails st-compactness",
            {"witnesses": [label for label, _ in report.witnesses]})


def check_weak_equiv(horizon, tolerance, walks):
    """Functional-probe boundedness agrees with norm boundedness member by member."""
    corpus = cauchy_corpus()
    outcomes = []
    for member in corpus.members:
        counts, = walks.count({(corpus.version, member.label): member})
        strong = bounded_verdict(counts, tolerance)
        weak = weakly_st_bounded(member, horizon=horizon, tolerance=tolerance)
        ok = strong.decision == weak.decision
        detail = "" if ok else f"strong {strong.decision} vs weak {weak.decision}"
        outcomes.append((member.label, ok, detail))
    return outcomes, "", {}


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


def check_cauchy_suite(horizon, tolerance, walks):
    """Convergence/Cauchy agreement on the dense corpus plus the sparse
    separating example."""
    corpus = cauchy_corpus()
    outcomes = []
    for member in corpus.members:
        vc = st_cauchy(member, horizon=horizon, tolerance=tolerance)
        counts, = walks.count({(corpus.version, member.label): member})
        vs = converges_search(member, counts, tolerance)
        ok = {vc.decision, vs.decision} != {"confirmed", "refuted"}
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
    return outcomes, "convergence implies Cauchy; the sparse prefix sequence separates them", {}


def check_prime_scaling_readings(horizon, tolerance, walks):
    """The prime-scaling example admits two formalizations with opposite
    st-boundedness outcomes; both are checked and the discrepancy recorded."""
    transform = prime_position_transform()
    diag = named_diagonal("prime_scale")
    [rep_t], [rep_d] = _classify([transform, diag], ("st_bounded",), horizon, tolerance, walks)
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
    return outcomes, notes, data


# Each check maps ``(horizon, tolerance, walks)`` to ``(outcomes, notes,
# data)``, where an outcome is an ``(instance label, ok, detail)`` triple and
# ``walks`` is the run's :class:`_Walks`.
_SUITE = {
    "bounded_inclusion": _all_consistent(
        _norm_bounded_operator_pool, ("st_bounded", "n_st_bounded"),
        "norm-bounded operators stay statistically bounded"),
    "finite_dim_all_bounded": check_finite_dim_all_bounded,
    "ratio_bound": check_ratio_bound,
    "subspace_closure": _all_consistent(
        _linear_combination_pool, ("st_bounded",),
        "st-bounded operators form a linear subspace"),
    "finite_rank_bounded": _all_consistent(
        _finite_rank_pool, ("st_bounded", "n_st_bounded"),
        "finite-rank operators with bounded functionals are st-bounded"),
    "bounded_iff_continuous": check_bounded_iff_continuous,
    "continuity_inclusions": _all_consistent(
        _norm_bounded_operator_pool, ("st_continuous", "n_st_continuous"),
        "norm continuity implies both statistical continuity notions"),
    "compact_implies_bounded_and_continuous": _all_consistent(
        _compact_consistent_pool, ("st_compact", "st_bounded", "st_continuous")),
    "compact_composition": _all_consistent(_compact_composition_pool, ("st_compact",)),
    "compact_norm_limit": check_compact_norm_limit,
    "unbounded_functional_not_compact": check_unbounded_functional_not_compact,
    "weak_equiv": check_weak_equiv,
    "cauchy_suite": check_cauchy_suite,
    "prime_scaling_readings": check_prime_scaling_readings,
}

SUITE_CHECKS = tuple(_SUITE)


def check_theorem(check, horizon=DEFAULT_CLASSIFY_HORIZON,
                  tolerance=DEFAULT_CLASSIFY_TOLERANCE):
    """Run one named suite check."""
    if check not in _SUITE:
        raise ValueError(f"unknown check {check!r}; expected one of {SUITE_CHECKS}")
    return _check(check, int(horizon), tolerance, _Walks(int(horizon)))


def _check(check, horizon, tolerance, walks):
    outcomes, notes, data = _SUITE[check](horizon, tolerance, walks)
    failures = tuple({"instance": label, "detail": detail}
                     for label, ok, detail in outcomes if not ok)
    return TheoremCheckResult(check, len(outcomes), sum(1 for _, ok, _ in outcomes if ok),
                              failures, notes, data)


def run_suite(horizon=DEFAULT_CLASSIFY_HORIZON, tolerance=DEFAULT_CLASSIFY_TOLERANCE):
    """Run every suite check in fixed order, sharing one :class:`_Walks`."""
    walks = _Walks(int(horizon))
    return tuple(_check(name, int(horizon), tolerance, walks) for name in SUITE_CHECKS)


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
