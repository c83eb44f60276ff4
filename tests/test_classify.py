"""Empirical operator classification and the theorem-check suite."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from stconv import classify as classify_module
from stconv import cli, operators, spaces, stanalysis
from stconv.classify import (
    PROPERTIES,
    SUITE_CHECKS,
    cauchy_corpus,
    check_theorem,
    classify,
    corpus_for,
    dense_corpus,
    run_suite,
    sparse_corpus,
)

REDUCED = 20_000  # keeps unit-test reruns cheap; the full suite runs in acceptance


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def test_corpus_versions_and_sizes():
    assert sparse_corpus().version == "sparse-v1"
    assert len(sparse_corpus().members) == 11
    assert dense_corpus(3).version == "dense3-v1"
    assert len(dense_corpus(3).members) == 7
    assert cauchy_corpus().version == "cauchy3-v1"
    assert len(cauchy_corpus().members) == 16


def test_corpus_labels_unique():
    for corpus in (sparse_corpus(), dense_corpus(3), cauchy_corpus()):
        labels = [m.label for m in corpus.members]
        assert len(labels) == len(set(labels))


def test_corpus_is_cached():
    assert sparse_corpus() is sparse_corpus()
    assert dense_corpus(3) is dense_corpus(3)


def test_corpus_for_matches_operator_domain():
    assert corpus_for(operators.named_diagonal("inverse")).space.kind == "sparse"
    m = operators.matrix_operator(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    assert corpus_for(m).space == spaces.dense_space(3)


# ---------------------------------------------------------------------------
# classification outcomes
# ---------------------------------------------------------------------------

def test_identity_is_consistent_for_st_bounded():
    rep = classify(operators.named_diagonal("identity"), "st_bounded", horizon=REDUCED)
    assert rep.outcome == "consistent"
    assert rep.witnesses == ()


def test_prime_diagonal_refuted_with_prime_coords_witness():
    rep = classify(operators.named_diagonal("prime_scale"), "st_bounded", horizon=REDUCED)
    assert rep.outcome == "refuted"
    labels = [label for label, _ in rep.witnesses]
    assert "prime_coords" in labels
    for _, verdict in rep.witnesses:
        assert verdict.decision == "refuted"


def test_prime_transform_reading_is_consistent():
    rep = classify(operators.prime_position_transform(), "st_bounded", horizon=REDUCED)
    assert rep.outcome == "consistent"


def test_index_diagonal_refuted_both_readings():
    d = operators.named_diagonal("index")
    assert classify(d, "st_bounded", horizon=REDUCED).outcome == "refuted"
    assert classify(d, "st_continuous", horizon=REDUCED).outcome == "refuted"


def test_inverse_diagonal_compact_consistent():
    rep = classify(operators.named_diagonal("inverse"), "st_compact", horizon=REDUCED)
    assert rep.outcome == "consistent"


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        classify(operators.named_diagonal("identity"), "st_weird", horizon=REDUCED)


def test_report_json_round_trip_shape():
    rep = classify(operators.named_diagonal("prime_scale"), "st_bounded", horizon=REDUCED)
    d = rep.to_json_dict()
    assert d["outcome"] == "refuted"
    assert d["property"] == "st_bounded"
    assert d["corpus_version"] == "sparse-v1"
    assert d["horizon"] == REDUCED
    assert all({"sequence", "verdict"} == set(w) for w in d["witnesses"])


def test_refuted_witnesses_reverify():
    # soundness: a serialized witness re-checks from scratch
    rep = classify(operators.named_diagonal("prime_scale"), "st_bounded", horizon=REDUCED)
    corpus = sparse_corpus()
    by_label = {m.label: m for m in corpus.members}
    for label, _ in rep.witnesses:
        member = by_label[label]
        hyp = stanalysis.st_bounded(member, horizon=REDUCED)
        assert hyp.decision == "confirmed"
        image = operators.image_sequence(operators.named_diagonal("prime_scale"), member)
        concl = stanalysis.st_bounded(image, horizon=REDUCED)
        assert concl.decision == "refuted"


def test_outcomes_are_deterministic():
    a = classify(operators.named_diagonal("prime_scale"), "st_bounded", horizon=REDUCED)
    b = classify(operators.named_diagonal("prime_scale"), "st_bounded", horizon=REDUCED)
    assert a.to_json_dict() == b.to_json_dict()


def test_all_properties_run_for_one_operator():
    for prop in PROPERTIES:
        rep = classify(operators.named_diagonal("inverse"), prop, horizon=REDUCED)
        assert rep.outcome in ("consistent", "refuted", "inconclusive")


def test_property_table_keeps_the_order():
    assert PROPERTIES == ("st_bounded", "n_st_bounded", "st_continuous", "n_st_continuous",
                          "st_compact")


@pytest.mark.parametrize("op", [
    operators.named_diagonal("prime_scale"),
    operators.rank_one(operators.linear_growth_functional(), spaces.sparse_element({1: 1.0})),
    operators.matrix_operator([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]]),
], ids=lambda op: op.describe())
def test_one_pass_matches_one_property_at_a_time(op, monkeypatch):
    images = []
    build_image = classify_module.image_sequence

    def counted(op_, member):
        images.append(member.label)
        return build_image(op_, member)

    monkeypatch.setattr(classify_module, "image_sequence", counted)
    reports, = classify_module._classify([op], PROPERTIES, REDUCED, 0.1,
                                         classify_module._Walks(REDUCED))
    assert len(images) == len(set(images)) <= len(corpus_for(op).members)
    for prop, report in zip(PROPERTIES, reports):
        alone = classify(op, prop, horizon=REDUCED)
        assert report.to_json_dict() == alone.to_json_dict()


def test_a_pool_classified_member_major_matches_each_operator_alone():
    # operators on two corpora, one repeated, classified in one pass
    pool = [operators.parse_operator(text) for text in (
        "diag(prime_scale)", "matrix[[1,2],[0,1]]", "rank1(index_weights,sparse{1:1})",
        "diag(prime_scale)", "transform(prime_scale_by_position)", "matrix[[0,0],[0,1]]")]
    horizon = 1000            # the transform's st_compact is quadratic in the horizon
    together = classify_module._classify(pool, PROPERTIES, horizon, 0.1,
                                         classify_module._Walks(horizon))
    for op, reports in zip(pool, together):
        for prop, report in zip(PROPERTIES, reports):
            assert report.to_json_dict() == classify(op, prop, horizon=horizon).to_json_dict()


# ---------------------------------------------------------------------------
# theorem checks (individual, at reduced horizon)
# ---------------------------------------------------------------------------

def test_suite_catalog():
    assert SUITE_CHECKS == (
        "bounded_inclusion",
        "finite_dim_all_bounded",
        "ratio_bound",
        "subspace_closure",
        "finite_rank_bounded",
        "bounded_iff_continuous",
        "continuity_inclusions",
        "compact_implies_bounded_and_continuous",
        "compact_composition",
        "compact_norm_limit",
        "unbounded_functional_not_compact",
        "weak_equiv",
        "cauchy_suite",
        "prime_scaling_readings",
    )


def test_classify_module_is_importable_by_name():
    # the package must not rebind ``stconv.classify`` to the function of that name
    import types

    import stconv.classify as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.run_suite)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        check_theorem("no_such_check", horizon=REDUCED)


@pytest.mark.parametrize("check", SUITE_CHECKS)
def test_each_check_passes_at_reduced_horizon(check):
    result = check_theorem(check, horizon=REDUCED)
    assert result.status == "pass", result.failures
    assert result.passes == result.instances
    assert result.check == check


def test_check_result_repr_and_counts():
    result = check_theorem("finite_dim_all_bounded", horizon=REDUCED)
    assert result.instances == 20
    assert "[PASS] finite_dim_all_bounded: 20/20" in repr(result)


def test_ratio_bound_reports_constants():
    result = check_theorem("ratio_bound", horizon=REDUCED)
    assert result.status == "pass"
    # every instance records the constant that worked
    assert result.data, "expected per-instance bound constants"


def test_compact_norm_limit_probe_values():
    result = check_theorem("compact_norm_limit", horizon=REDUCED)
    probes = result.data.get("probes")
    assert probes
    for row in probes:
        assert row["probe"] == pytest.approx(1.0 / (row["m"] + 1), abs=1e-12)
        assert row["probe"] == pytest.approx(row["expected"], abs=1e-12)


def test_suite_retains_no_sweeps_and_keeps_its_reports():
    run_suite(REDUCED)
    corpora = [sparse_corpus(), cauchy_corpus()] + [dense_corpus(d) for d in range(1, 9)]
    for corpus in corpora:
        for member in corpus.members:
            held = [k for k, v in member.cache.items() if isinstance(v, np.ndarray)]
            assert held == [], (corpus.version, member.label)
    # the same report as in a fresh process (pinned in test_golden.py)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["suite", "--horizon", "2000"]) == 1
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "2c537c8705b0f9e46d3b07643a6a32f5f6c7feeabf3fe6d27437b3cbf83cb9a5")
