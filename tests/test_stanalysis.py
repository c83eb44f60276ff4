"""Finite-horizon statistical verdicts: convergence, boundedness, Cauchy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stconv import density, operators, sequences, spaces, stanalysis
from stconv.classify import (
    _compact_consistent_pool,
    _iff_operator_pool,
    _norm_bounded_operator_pool,
    cauchy_corpus,
    dense_corpus,
    sparse_corpus,
)

SPARSE = spaces.sparse_space()
H = 10_000


def exceedance_count(seq, candidate, eps, n):
    dists = oracles.joined(sequences.sweep_chunks(seq, candidate, n))
    return int(np.count_nonzero(dists >= eps))


# ---------------------------------------------------------------------------
# st_converges
# ---------------------------------------------------------------------------

def test_harmonic_does_not_converge_to_zero():
    v = stanalysis.st_converges(sequences.harmonic_prefix_sequence(), spaces.sparse_element({}), horizon=H)
    assert v.decision == "refuted"
    # the distance is exactly 1 everywhere, so every epsilon refutes with ratio 1
    for report in v.per_epsilon:
        assert report.verdict.decision == "refuted"
        assert report.verdict.final_ratio == 1.0
    assert v.witness is not None and v.witness["epsilon"] == 0.5


def test_decaying_sequence_converges_to_zero():
    seq = sequences.decaying_sequence(spaces.sparse_element({1: 1.0}))
    v = stanalysis.st_converges(seq, spaces.sparse_element({}), horizon=H)
    assert v.decision == "confirmed"
    assert all(r.verdict.decision == "confirmed" for r in v.per_epsilon)


def test_spiked_null_sequence_still_st_converges():
    # spikes on the squares have density zero, so exceedances thin out
    seq = sequences.spike_sequence(SPARSE, density.squares())
    v = stanalysis.st_converges(seq, spaces.sparse_element({}), horizon=100_000)
    assert v.decision == "confirmed"


def test_constant_sequence_converges_to_its_value_only():
    value = spaces.dense_element((1.0, 1.0, 1.0))
    seq = sequences.constant_sequence(value)
    assert stanalysis.st_converges(seq, value, horizon=H).decision == "confirmed"
    assert stanalysis.st_converges(seq, spaces.zero(seq.space), horizon=H).decision == "refuted"


def test_converges_exceedance_counts_are_exact():
    seq = sequences.harmonic_prefix_sequence()
    candidate = seq.generator(50)
    v = stanalysis.st_converges(seq, candidate, horizon=H)
    for report in v.per_epsilon:
        prof = report.verdict.profile
        for cp, count in zip(prof.checkpoints, prof.counts):
            assert count == exceedance_count(seq, candidate, report.epsilon, cp)


def test_converges_epsilon_monotone():
    # smaller epsilon can only add exceedances, exactly
    seq = sequences.random_unit_ball(SPARSE, seed=14)
    candidate = spaces.sparse_element({})
    v = stanalysis.st_converges(seq, candidate, grid=(0.9, 0.5, 0.2), horizon=H)
    counts = [r.verdict.profile.counts for r in v.per_epsilon]
    for tighter, looser in zip(counts[1:], counts[:-1]):
        assert all(t >= l for t, l in zip(tighter, looser))


def test_converges_complement_identity():
    seq = sequences.random_unit_ball(SPARSE, seed=15)
    candidate = spaces.sparse_element({})
    v = stanalysis.st_converges(seq, candidate, horizon=H)
    for report in v.per_epsilon:
        dists = oracles.joined(sequences.sweep_chunks(seq, candidate, H))
        prof = report.verdict.profile
        for cp, count in zip(prof.checkpoints, prof.counts):
            within = int(np.count_nonzero(dists[:cp] < report.epsilon))
            assert count + within == cp


def test_converges_verdict_invariants():
    # confirmed iff every epsilon confirmed; refuted iff some epsilon refuted
    cases = [
        stanalysis.st_converges(sequences.harmonic_prefix_sequence(), spaces.sparse_element({}), horizon=H),
        stanalysis.st_converges(
            sequences.decaying_sequence(spaces.sparse_element({1: 1.0})), spaces.sparse_element({}), horizon=H
        ),
    ]
    for v in cases:
        per = [r.verdict.decision for r in v.per_epsilon]
        if v.decision == "confirmed":
            assert all(d == "confirmed" for d in per)
        if v.decision == "refuted":
            assert any(d == "refuted" for d in per)


def test_converges_grid_validation():
    seq = sequences.harmonic_prefix_sequence()
    with pytest.raises(ValueError):
        stanalysis.st_converges(seq, spaces.sparse_element({}), grid=(), horizon=H)
    with pytest.raises(ValueError):
        stanalysis.st_converges(seq, spaces.sparse_element({}), grid=(0.1, -0.5), horizon=H)
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            stanalysis.st_converges(seq, grid=(0.5, eps), horizon=H)
        with pytest.raises(ValueError, match="finite"):
            stanalysis.st_cauchy(seq, grid=(eps,), horizon=H)


# ---------------------------------------------------------------------------
# st_bounded
# ---------------------------------------------------------------------------

def test_spike_sequence_is_st_bounded_with_small_bound():
    seq = sequences.spike_sequence(SPARSE, density.squares())
    v = stanalysis.st_bounded(seq, horizon=100_000)
    assert v.decision == "confirmed"
    assert v.bound == 1.0
    # while the raw norms blow past every probe on the spikes
    norms = oracles.joined(sequences.sweep_chunks(seq, None, 10_000))
    assert norms.max() >= max(stanalysis.DEFAULT_PROBES)


def test_index_sequence_is_not_st_bounded():
    v = stanalysis.st_bounded(sequences.index_sequence(), horizon=H)
    assert v.decision == "refuted"
    assert v.witness is not None
    assert v.witness["probe"] == max(stanalysis.DEFAULT_PROBES)


def test_unit_ball_bounded_at_first_probe():
    v = stanalysis.st_bounded(sequences.random_unit_ball(SPARSE, seed=2), horizon=H)
    assert v.decision == "confirmed"
    assert v.bound == 1.0


def test_bounded_exceedances_are_strict():
    # norms exactly equal to the probe do not count as exceedances
    ones = sequences.constant_sequence(spaces.sparse_element({1: 1.0}))
    v = stanalysis.st_bounded(ones, probes=(1.0,), horizon=H)
    assert v.decision == "confirmed"


def test_bounded_probe_validation():
    seq = sequences.index_sequence()
    with pytest.raises(ValueError):
        stanalysis.st_bounded(seq, probes=(), horizon=H)
    with pytest.raises(ValueError):
        stanalysis.st_bounded(seq, probes=(4.0, 2.0), horizon=H)
    # the weak and the real-valued verdicts share the ladder check
    for probes in ((), (4.0, 2.0)):
        with pytest.raises(ValueError, match="increasing ladder"):
            stanalysis.weakly_st_bounded(seq, probes=probes, horizon=H)
        with pytest.raises(ValueError, match="increasing ladder"):
            stanalysis.st_bounded_real(np.ones(H), probes=probes, horizon=H)
    for probes in ((math.nan,), (1.0, math.inf)):
        with pytest.raises(ValueError, match="probes must be finite"):
            stanalysis.st_bounded(seq, probes=probes, horizon=H)
        with pytest.raises(ValueError, match="probes must be finite"):
            stanalysis.weakly_st_bounded(seq, probes=probes, horizon=H)


def test_st_bounded_real_accepts_arrays():
    xs = np.ones(H)
    xs[::100] = 50.0  # density 0.01 exceedances over probe 2
    v = stanalysis.st_bounded_real(xs, horizon=H)
    assert v.decision == "confirmed"
    # values equal to the probe are not exceedances, so probe 1 already works
    assert v.bound == 1.0
    with pytest.raises(ValueError):
        stanalysis.st_bounded_real([1.0, 2.0], horizon=H)


# ---------------------------------------------------------------------------
# weak boundedness
# ---------------------------------------------------------------------------

def test_weakly_bounded_dense_ball():
    seq = sequences.random_unit_ball(spaces.dense_space(3), seed=5)
    v = stanalysis.weakly_st_bounded(seq, horizon=H)
    assert v.decision == "confirmed"


def test_weakly_bounded_refuted_with_functional_witness():
    v = stanalysis.weakly_st_bounded(sequences.index_sequence(), horizon=H)
    assert v.decision == "refuted"
    assert "functional" in v.witness


def test_weakly_bounded_rejects_sparse():
    with pytest.raises(ValueError):
        stanalysis.weakly_st_bounded(sequences.harmonic_prefix_sequence(), horizon=H)


def test_weak_and_strong_agree_on_dense_examples():
    for seq in (
        sequences.random_unit_ball(spaces.dense_space(3), seed=6),
        sequences.index_sequence(),
        sequences.constant_sequence(spaces.dense_element((3.0, 0.0, 0.0))),
    ):
        strong = stanalysis.st_bounded(seq, horizon=H)
        weak = stanalysis.weakly_st_bounded(seq, horizon=H) if seq.space.kind == "dense" else None
        if weak is not None:
            assert strong.decision == weak.decision, seq.label


# ---------------------------------------------------------------------------
# st_cauchy
# ---------------------------------------------------------------------------

def test_harmonic_is_st_cauchy():
    v = stanalysis.st_cauchy(sequences.harmonic_prefix_sequence(), horizon=100_000)
    assert v.decision == "confirmed"
    assert v.anchor_index in stanalysis.default_anchors(100_000)


def test_unit_coordinates_are_not_st_cauchy():
    v = stanalysis.st_cauchy(sequences.unit_coordinate_sequence(), horizon=H)
    assert v.decision == "refuted"


def test_cauchy_anchors_default():
    assert stanalysis.default_anchors(100_000) == (10, 100, 1_000, 10_000)
    assert stanalysis.default_anchors(500) == (10,)
    assert stanalysis.default_anchors(20_000) == (10, 100, 1_000)


def test_cauchy_respects_explicit_anchors():
    v = stanalysis.st_cauchy(sequences.harmonic_prefix_sequence(), horizon=H, anchors=(100,))
    assert v.decision == "confirmed"
    assert v.anchor_index == 100


def test_cauchy_rejects_anchors_below_one():
    for seq in (sequences.unit_coordinate_sequence(), sequences.prime_coordinate_sequence()):
        for anchors in ((0,), (10, -3)):
            with pytest.raises(ValueError, match="anchor indices start at 1"):
                stanalysis.st_cauchy(seq, horizon=H, anchors=anchors)


@pytest.mark.parametrize("anchors", [[], ()])
def test_cauchy_rejects_an_empty_anchor_list(anchors):
    # only None asks for the default anchors
    with pytest.raises(ValueError, match="need at least one anchor index"):
        stanalysis.st_cauchy(sequences.harmonic_prefix_sequence(), horizon=H, anchors=anchors)


def test_cauchy_and_convergence_agree_for_convergent_case():
    seq = sequences.decaying_sequence(spaces.sparse_element({3: 1.0}))
    assert stanalysis.st_cauchy(seq, horizon=H).decision == "confirmed"
    assert stanalysis.st_converges(seq, spaces.sparse_element({}), horizon=H).decision == "confirmed"


def _counted_sweeps(monkeypatch):
    swept = []

    def counting(seq, candidate, horizon):
        swept.append(candidate)
        return sequences.sweep_chunks(seq, candidate, horizon)

    monkeypatch.setattr(stanalysis, "sweep_chunks", counting)
    return swept


def test_cauchy_sweeps_no_anchor_once_every_epsilon_is_confirmed(monkeypatch):
    # the first anchor of a constant sequence confirms every epsilon
    swept = _counted_sweeps(monkeypatch)
    v = stanalysis.st_cauchy(sequences.parse_sequence("constant(dense[1,1,1])"), horizon=H)
    assert v.decision == "confirmed"
    assert len(swept) == 1


def test_cauchy_sweeps_each_anchor_once_while_an_epsilon_is_open(monkeypatch):
    swept = _counted_sweeps(monkeypatch)
    seq = sequences.parse_sequence("random(dim=3)")
    v = stanalysis.st_cauchy(seq, horizon=H)
    assert v.decision != "confirmed"
    assert swept == [seq.generator(a) for a in stanalysis.default_anchors(H)]


def _cumsum_profile(mask, schedule):
    """The profile of ``mask`` (entry ``k-1`` is index ``k``) by one cumsum."""
    cps = tuple(schedule.checkpoints(len(mask)))
    return density.DensityProfile(cps, oracles.cumsum_counts(mask, cps))


def _cauchy_all_sweeps_first(seq, grid, horizon, anchors):
    """Reference: every anchor's sweep up front, then each epsilon searches them."""
    sweeps = [(a, oracles.joined(sequences.sweep_chunks(seq, seq.generator(a), horizon)))
              for a in anchors]
    reports, witness = [], None
    for eps in grid:
        tried = []
        for a, dists in sweeps:
            verdict = density.density_verdict(
                _cumsum_profile(dists >= eps, density.DEFAULT_SCHEDULE), 0, 0.1)
            tried.append((a, verdict))
            if verdict.decision == "confirmed":
                reports.append(stanalysis.EpsilonReport(eps, verdict, anchor=a))
                break
        else:
            _, verdict = min(tried, key=lambda av: av[1].profile.final_ratio)
            if witness is None and all(v.decision == "refuted" for _, v in tried):
                witness = {"epsilon": eps, "checkpoint": verdict.witness}
            reports.append(stanalysis.EpsilonReport(eps, verdict))
    return [r.to_json_dict() for r in reports], witness


@pytest.mark.parametrize("text", ["harmonic", "unit_coords", "random(dim=3)", "alternating(dim=3)",
                                  "constant(dense[1,1,1])", "null(sparse{1:1.5,2:1,4:1.5})",
                                  "spike(squares, n)", "subseq(harmonic, multiples(3))"])
@pytest.mark.parametrize("anchors", [None, (10, 100, 1000), (2, 3)])
def test_cauchy_reports_match_sweeping_every_anchor_first(text, anchors):
    seq = sequences.parse_sequence(text)
    grid = (0.5, 0.1, 0.01)
    v = stanalysis.st_cauchy(seq, grid, horizon=H, anchors=anchors)
    reports, witness = _cauchy_all_sweeps_first(
        seq, grid, H, anchors or stanalysis.default_anchors(H))
    assert [r.to_json_dict() for r in v.per_epsilon] == reports
    assert v.witness == witness


# ---------------------------------------------------------------------------
# limit search
# ---------------------------------------------------------------------------

def test_search_computes_the_median_only_where_zero_does_not_confirm(monkeypatch):
    medians = []
    median_candidate = stanalysis._median_candidate
    monkeypatch.setattr(stanalysis, "_median_candidate",
                        lambda seq, horizon: medians.append(seq.label)
                        or median_candidate(seq, horizon))
    spikes = sequences.spike_sequence(spaces.sparse_space(), density.squares())
    v = stanalysis.st_converges_search(spikes, horizon=H)
    assert (v.decision, v.limit, medians) == ("confirmed", spaces.zero(spikes.space), [])
    ones = sequences.constant_sequence(spaces.dense_element((1.0, 1.0)))
    v = stanalysis.st_converges_search(ones, horizon=H)
    assert (v.decision, v.limit, medians) == ("confirmed", ones.generator(1), [ones.label])


def _classify_sparse_operators():
    pools = _norm_bounded_operator_pool() + _iff_operator_pool() + _compact_consistent_pool()
    ops = [op for op in pools if op.domain.kind == "sparse"]
    return ops + [operators.prime_position_transform()]


@pytest.mark.parametrize(
    "member",
    [m for m in sparse_corpus().members
     if isinstance(m.structure, sequences.SingleSupport)],
    ids=lambda m: m.label,
)
def test_single_support_median_matches_generator(member):
    images = [operators.image_sequence(op, member) for op in _classify_sparse_operators()]
    checked = [member] + [im for im in images
                          if isinstance(im.structure, sequences.SingleSupport)]
    assert len(checked) > 10
    for seq in checked:
        got = stanalysis._median_candidate(seq, 2_000)
        assert oracles.support(got) == oracles.sparse_window_median(seq.generator, 2_000), seq.label


def test_search_finds_nonzero_dense_limit():
    value = spaces.dense_element((1.0, -0.5, 2.0))
    seq = sequences.constant_sequence(value)
    v = stanalysis.st_converges_search(seq, horizon=H)
    assert v.decision == "confirmed"
    assert v.limit == value


def test_search_confirms_spiky_corruption_of_constant():
    base = sequences.constant_sequence(spaces.dense_element((1.0, 1.0, 1.0)))
    spike = sequences.spike_sequence(spaces.dense_space(3), density.squares())
    seq = sequences.combine(base, spike, 1.0, 1.0)
    v = stanalysis.st_converges_search(seq, horizon=100_000)
    assert v.decision == "confirmed"
    assert v.limit == spaces.dense_element((1.0, 1.0, 1.0))


def test_search_refutes_unbounded_sequence():
    v = stanalysis.st_converges_search(sequences.index_sequence(), horizon=H)
    assert v.decision == "refuted"
    assert v.witness is not None and "reason" in v.witness


def test_search_refutes_alternating():
    v = stanalysis.st_converges_search(sequences.alternating_sequence(), horizon=H)
    assert v.decision == "refuted"


def test_norm_limit_zero_three_ways():
    assert stanalysis.norm_limit_zero(
        sequences.decaying_sequence(spaces.sparse_element({1: 1.0})), horizon=H
    ) == "confirmed"
    assert stanalysis.norm_limit_zero(
        sequences.constant_sequence(spaces.sparse_element({1: 1.0})), horizon=H
    ) == "refuted"
    spiky = sequences.spike_sequence(SPARSE, density.squares())
    assert stanalysis.norm_limit_zero(spiky, horizon=100_000) == "inconclusive"


# ---------------------------------------------------------------------------
# report serialization and determinism
# ---------------------------------------------------------------------------

def test_verdict_json_shapes():
    h = sequences.harmonic_prefix_sequence()
    conv = stanalysis.st_converges(h, spaces.sparse_element({}), horizon=H).to_json_dict()
    assert conv["kind"] == "convergence"
    assert {"decision", "horizon", "epsilon_grid", "per_epsilon", "limit"} <= set(conv)
    bound = stanalysis.st_bounded(h, horizon=H).to_json_dict()
    assert bound["kind"] == "bounded"
    assert "bound" in bound
    cauchy = stanalysis.st_cauchy(h, horizon=H).to_json_dict()
    assert cauchy["kind"] == "cauchy"
    assert "anchor_index" in cauchy


def test_large_sparse_limit_summarized_in_json():
    h = sequences.harmonic_prefix_sequence()
    big = h.generator(100)  # support size 100 > the 32-entry cutoff
    v = stanalysis.st_converges(h, big, horizon=H)
    d = v.to_json_dict()
    assert set(d["limit"]) == {"support_size", "max_index", "sup_norm"}
    assert d["limit"]["support_size"] == 100


def test_analysis_is_deterministic():
    a = stanalysis.st_converges(
        sequences.random_unit_ball(SPARSE, seed=33), spaces.sparse_element({}), horizon=H
    )
    b = stanalysis.st_converges(
        sequences.random_unit_ball(SPARSE, seed=33), spaces.sparse_element({}), horizon=H
    )
    assert a.to_json_dict() == b.to_json_dict()


@given(st.integers(min_value=100, max_value=5_000))
@settings(max_examples=20, deadline=None)
def test_bounded_decision_total_and_stable(horizon):
    v = stanalysis.st_bounded(sequences.random_unit_ball(SPARSE, seed=1), horizon=horizon)
    assert v.decision in ("confirmed", "refuted", "inconclusive")
    assert v.horizon == horizon


# ---------------------------------------------------------------------------
# Connor's strong p-Cesaro guard
# ---------------------------------------------------------------------------
#
# For bounded sequences st-convergence to L is equivalent to strong p-Cesaro
# convergence, (1/n) sum_{k<=n} |x_k - L|^p -> 0 (J. Connor, "The statistical
# and strong p-Cesaro convergence of sequences", Analysis 8, 1988).  At every
# finite n the Cesaro mean C_n of the distance sweep d and the exceedance
# count N_n(eps) = #{k <= n : d_k >= eps} obey two exact inequalities, with
# M = max(d_1..d_n):
#     N_n / n <= C_n / eps^p                  (Markov)
#     C_n <= eps^p + M^p * N_n / n
# C_n comes from one cumsum of powers, never through masks or profiles, so
# the guard checks the count pipeline independently.

CESARO_H = 20_000
CESARO_SLACK = 1e-12
CESARO_MEMBERS = [
    (f"{corpus.version}:{m.label}", m)
    for corpus in (sparse_corpus(), dense_corpus(3), cauchy_corpus())
    for m in corpus.members
]


def _assert_cesaro_bounds(d, checkpoints, counts, eps, p):
    cesaro = np.cumsum(d ** p)
    for n, count in zip(checkpoints, counts):
        mean = cesaro[n - 1] / n
        top = float(np.max(d[:n]))
        assert count / n <= mean / eps ** p * (1 + CESARO_SLACK), (n, eps, p)
        assert mean <= (eps ** p + top ** p * count / n) * (1 + CESARO_SLACK), (n, eps, p)


@pytest.mark.parametrize("name,seq", CESARO_MEMBERS, ids=[name for name, _ in CESARO_MEMBERS])
def test_counts_obey_strong_cesaro_bounds(name, seq):
    for candidate in (spaces.zero(seq.space), stanalysis._median_candidate(seq, CESARO_H)):
        verdict = stanalysis.st_converges(seq, candidate, horizon=CESARO_H)
        assert verdict.epsilon_grid == stanalysis.DEFAULT_EPS_GRID
        d = oracles.joined(sequences.sweep_chunks(seq, candidate, CESARO_H))
        for report in verdict.per_epsilon:
            profile = report.verdict.profile
            assert profile.checkpoints == tuple(density.DEFAULT_SCHEDULE.checkpoints(CESARO_H))
            for p in (1, 2):
                _assert_cesaro_bounds(d, profile.checkpoints, profile.counts, report.epsilon, p)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2, max_size=400),
    st.floats(min_value=1e-3, max_value=10.0),
    st.sampled_from([1, 2]),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_random_counts_obey_strong_cesaro_bounds(values, eps, p, data):
    d = np.asarray(values)
    step = data.draw(st.integers(min_value=1, max_value=len(d) - 1))
    profile = _cumsum_profile(d >= eps, density.linear(step))
    _assert_cesaro_bounds(d, profile.checkpoints, profile.counts, eps, p)
