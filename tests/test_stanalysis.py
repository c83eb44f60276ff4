"""Finite-horizon statistical verdicts: convergence, boundedness, Cauchy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stconv import density, operators, sequences, spaces, stanalysis
from stconv.classify import (
    _compact_consistent_pool,
    _iff_operator_pool,
    _norm_bounded_operator_pool,
    sparse_corpus,
)

SPARSE = spaces.sparse_space()
H = 10_000


def exceedance_count(seq, candidate, eps, n):
    dists = sequences.distance_sweep(seq, candidate, n)
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
    seq = sequences.spike_sequence(sequences.zero_sequence(SPARSE), density.squares())
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
        dists = sequences.distance_sweep(seq, candidate, H)
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


# ---------------------------------------------------------------------------
# st_bounded
# ---------------------------------------------------------------------------

def test_spike_sequence_is_st_bounded_with_small_bound():
    seq = sequences.spike_sequence(sequences.zero_sequence(SPARSE), density.squares())
    v = stanalysis.st_bounded(seq, horizon=100_000)
    assert v.decision == "confirmed"
    assert v.bound == 1.0
    # while the raw norms blow past every probe on the spikes
    norms = sequences.norm_sweep(seq, 10_000)
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


def test_st_bounded_real_accepts_arrays():
    xs = np.ones(H)
    xs[::100] = 50.0  # density 0.01 exceedances over probe 2
    v = stanalysis.st_bounded_real(xs, horizon=H)
    assert v.decision == "confirmed"
    # values equal to the probe are not exceedances, so probe 1 already works
    assert v.bound == 1.0


def test_st_bounded_real_accepts_callables():
    v = stanalysis.st_bounded_real(lambda n: np.log1p(float(n)), horizon=H)
    assert v.decision == "confirmed"
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


def test_cauchy_and_convergence_agree_for_convergent_case():
    seq = sequences.decaying_sequence(spaces.sparse_element({3: 1.0}))
    assert stanalysis.st_cauchy(seq, horizon=H).decision == "confirmed"
    assert stanalysis.st_converges(seq, spaces.sparse_element({}), horizon=H).decision == "confirmed"


# ---------------------------------------------------------------------------
# limit search
# ---------------------------------------------------------------------------

def test_find_limit_candidates_include_zero():
    cands = stanalysis.find_limit_candidates(sequences.harmonic_prefix_sequence(), horizon=H)
    assert any(
        isinstance(c, spaces.SparseElement) and not c.support for c in cands
    )


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
        assert got.support == oracles.sparse_window_median(seq.generator, 2_000), seq.label


def test_search_finds_nonzero_dense_limit():
    value = spaces.dense_element((1.0, -0.5, 2.0))
    seq = sequences.constant_sequence(value)
    v = stanalysis.st_converges_search(seq, horizon=H)
    assert v.decision == "confirmed"
    assert v.limit == value


def test_search_confirms_spiky_corruption_of_constant():
    base = sequences.constant_sequence(spaces.dense_element((1.0, 1.0, 1.0)))
    spike = sequences.spike_sequence(
        sequences.zero_sequence(spaces.dense_space(3)), density.squares()
    )
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
    spiky = sequences.spike_sequence(sequences.zero_sequence(SPARSE), density.squares())
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
