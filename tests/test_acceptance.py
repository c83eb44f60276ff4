"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line;
tolerances and runtime budgets are stated inline.  Run with ``pytest -v``
(add ``-s`` to see the printed lines on success).
"""

import json
import time

import numpy as np
import pytest

import oracles
from stconv import cli, density, operators, sequences, spaces, stanalysis
from stconv.classify import (
    SUITE_CHECKS,
    cauchy_corpus,
    classify,
    harmonic_candidate_family,
    run_suite,
    sparse_corpus,
    suite_passed,
)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_density_engine_exact_counts():
    started = time.time()

    prime_count = density.count(density.primes(), 1_000_000)
    sieve_count = oracles.sieve_prime_count(1_000_000)
    profile = density.density_profile(density.primes(), horizon=1_000_000)
    ratio_exact = profile.ratios[-1] == 78_498 / 1_000_000

    multiples_ok = all(
        abs(m * density.count(density.multiples(m), n) - n) < m
        for m in range(1, 51)
        for n in range(1, 10_001)
    )

    elapsed = time.time() - started
    report(
        1,
        prime_count == sieve_count == 78_498
        and ratio_exact
        and multiples_ok
        and elapsed < 5.0,
        f"primes(10^6) = {prime_count} vs sieve {sieve_count}, final ratio exact, "
        f"multiples identity m<=50 n<=10^4, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_prime_transform_example():
    started = time.time()
    horizon = 100_000

    transform = operators.prime_position_transform()
    transform_report = classify(transform, "st_bounded", horizon=horizon)

    unit = sequences.unit_coordinate_sequence()
    image = operators.image_sequence(transform, unit)
    bounded = stanalysis.st_bounded(image, horizon=horizon)
    norms = oracles.joined(sequences.sweep_chunks(image, None, horizon))
    exceedances = np.flatnonzero(norms > 1.0) + 1
    prime_mask = oracles.membership_mask(density.primes(), horizon)
    subset_of_primes = bool(np.all(prime_mask[exceedances - 1]))

    diagonal_report = classify(
        operators.named_diagonal("prime_scale"), "st_bounded", horizon=horizon
    )
    witness_labels = [label for label, _ in diagonal_report.witnesses]

    elapsed = time.time() - started
    report(
        2,
        transform_report.outcome == "consistent"
        and bounded.decision == "confirmed"
        and bounded.bound == 1.0
        and subset_of_primes
        and diagonal_report.outcome == "refuted"
        and "prime_coords" in witness_labels
        and elapsed < 30.0,
        f"transform consistent with M = {bounded.bound}, {len(exceedances)} exceedances "
        f"all prime, diagonal refuted with witness prime_coords, {elapsed:.2f}s < 30s",
    )


def test_criterion_3_harmonic_cauchy_but_not_convergent():
    horizon = 100_000
    harmonic = sequences.harmonic_prefix_sequence()

    cauchy = stanalysis.st_cauchy(harmonic, grid=(0.5, 0.1, 0.01), horizon=horizon)

    family = harmonic_candidate_family()
    all_refuted = True
    ratios_ok = True
    for candidate in family:
        verdict = stanalysis.st_converges(harmonic, candidate, horizon=horizon)
        all_refuted &= verdict.decision == "refuted"
        top = max(oracles.support(candidate), default=0)
        for entry in verdict.per_epsilon:
            if entry.epsilon < 1.0 / (top + 1):
                ratios_ok &= entry.verdict.final_ratio >= 0.99

    report(
        3,
        cauchy.decision == "confirmed" and len(family) == 20 and all_refuted and ratios_ok,
        f"st_cauchy confirmed (anchor {cauchy.anchor_index}), all 20 candidates refuted "
        f"with final ratio >= 0.99 whenever eps < 1/(j+1)",
    )


def test_criterion_4_theorem_suite():
    started = time.time()
    results = run_suite()
    elapsed = time.time() - started

    by_name = {r.check: r for r in results}
    finite_dim = by_name["finite_dim_all_bounded"]
    iff = by_name["bounded_iff_continuous"]
    ratio = by_name["ratio_bound"]
    norm_limit = by_name["compact_norm_limit"]

    factor_two = True
    for row in ratio.data["instances"]:
        parsed = operators.parse_operator(row["operator"])
        if isinstance(parsed, operators.Matrix) and parsed.domain.dim <= 4:
            exact = oracles.matrix_two_norm(parsed.a)
            estimate = operators.operator_norm_estimate(parsed)
            factor_two &= row["bound"] <= 2.0 * estimate + 1e-9
            factor_two &= exact <= 2.0 * estimate + 1e-9

    probes_ok = all(
        abs(row["probe"] - 1.0 / (row["m"] + 1)) <= 1e-12 for row in norm_limit.data["probes"]
    )

    report(
        4,
        suite_passed(results)
        and tuple(by_name) == SUITE_CHECKS
        and finite_dim.passes == finite_dim.instances == 20
        and iff.instances >= 10
        and factor_two
        and probes_ok
        and elapsed < 120.0,
        f"all {len(results)} checks pass, finite_dim 20/20, iff on {iff.instances} operators, "
        f"ratio constants within 2x of estimates, norm probes within 1e-12, {elapsed:.1f}s < 120s",
    )


def test_criterion_5_cauchy_convergence_agreement():
    corpus = cauchy_corpus()
    horizon = 100_000
    contradictions = []
    for member in corpus.members:
        cauchy = stanalysis.st_cauchy(member, horizon=horizon)
        conv = stanalysis.st_converges_search(member, horizon=horizon)
        pair = {cauchy.decision, conv.decision}
        if pair == {"confirmed", "refuted"}:
            contradictions.append((member.label, cauchy.decision, conv.decision))

    report(
        5,
        len(corpus.members) >= 15 and not contradictions,
        f"{len(corpus.members)}-member dense corpus, zero confirmed/refuted "
        f"contradictions between st_cauchy and st_converges",
    )


def test_criterion_6_invariant_suites(capsys):
    rng = np.random.default_rng(2026)

    # norm axioms at 1e-12 on sampled dense and sparse elements, each in its space's norm
    def sample(kind):
        values = rng.normal(scale=5.0, size=3)
        if kind == "dense":
            return spaces.dense_element(tuple(values))
        return spaces.sparse_element(dict(zip(rng.integers(1, 8, size=3).tolist(), values.tolist())))

    axioms_ok = True
    for _ in range(200):
        for kind in ("dense", "sparse"):
            x, y = sample(kind), sample(kind)
            alpha = float(rng.normal(scale=3.0))
            homog = abs(spaces.norm(spaces.scale(alpha, x)) - abs(alpha) * spaces.norm(x))
            triangle = spaces.norm(spaces.add(x, y)) - (spaces.norm(x) + spaces.norm(y))
            axioms_ok &= homog <= 1e-12 * max(1.0, abs(alpha) * spaces.norm(x))
            axioms_ok &= triangle <= 1e-12

    # operator linearity at 1e-10
    linear_ok = True
    ops = [
        operators.named_diagonal("prime_scale"),
        operators.rank_one(operators.coordinate_functional(1), spaces.sparse_element({2: 1.0})),
        operators.compose(operators.named_diagonal("inverse"), operators.named_diagonal("index")),
    ]
    for _ in range(100):
        x = spaces.sparse_element({int(rng.integers(1, 20)): float(rng.normal(scale=4.0))})
        y = spaces.sparse_element({int(rng.integers(1, 20)): float(rng.normal(scale=4.0))})
        a, b = float(rng.normal()), float(rng.normal())
        for op in ops:
            lhs = operators.apply(op, spaces.add(spaces.scale(a, x), spaces.scale(b, y)))
            rhs = spaces.add(
                spaces.scale(a, operators.apply(op, x)), spaces.scale(b, operators.apply(op, y))
            )
            gap = spaces.norm(spaces.sub(lhs, rhs))
            linear_ok &= gap <= 1e-10 * max(1.0, spaces.norm(lhs))

    # exceedance-count epsilon-monotonicity, exact integers
    seq = sequences.random_unit_ball(spaces.sparse_space(), seed=99)
    zero = spaces.sparse_element({})
    verdict = stanalysis.st_converges(seq, zero, grid=(0.8, 0.4, 0.2, 0.1), horizon=10_000)
    count_rows = [entry.verdict.profile.counts for entry in verdict.per_epsilon]
    monotone_ok = all(
        all(t >= l for t, l in zip(tighter, looser))
        for tighter, looser in zip(count_rows[1:], count_rows[:-1])
    )

    # complement-count identity, exact integers
    dists = oracles.joined(sequences.sweep_chunks(seq, zero, 10_000))
    complement_ok = True
    for entry in verdict.per_epsilon:
        prof = entry.verdict.profile
        for checkpoint, exceed in zip(prof.checkpoints, prof.counts):
            within = int(np.count_nonzero(dists[:checkpoint] < entry.epsilon))
            complement_ok &= exceed + within == checkpoint

    # byte-identical determinism across two CLI runs with equal seeds
    argv = ["converge", "--sequence", "random(seed=7)", "--horizon", "10000"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    determinism_ok = first == second and json.loads(first) == json.loads(second)

    report(
        6,
        axioms_ok and linear_ok and monotone_ok and complement_ok and determinism_ok,
        "norm axioms at 1e-12, linearity at 1e-10, exact epsilon-monotone counts, "
        "exact complement identity, byte-identical reports",
    )
