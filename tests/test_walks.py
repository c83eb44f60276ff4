"""Shared walks: one walk of a sequence feeds every verdict asked of it.

A sequence's norm verdicts (``st_bounded``, ``st_converges`` to zero,
``norm_limit_zero``, the zero candidate and bounded fallback of
``st_converges_search``) are answered from one ``stanalysis.NormCounts``; a
weak verdict evaluates every probe functional on each chunk of one walk;
a suite run keeps the counts of each corpus member and operator image in a
memo that lives as long as the run; and the matrices of one dimension read
each chunk of a member's rows once.  The answers are those of each verdict
alone, bit for bit, whatever ran before in the process.
"""

import dataclasses
import json
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
import stconv
from stconv import classify as classify_module
from stconv import operators, sequences, spaces, stanalysis
from stconv.classify import (
    PROPERTIES,
    cauchy_corpus,
    classify,
    corpus_for,
    dense_corpus,
    run_suite,
    sparse_corpus,
)

REDUCED = 20_000
SRC = str(Path(stconv.__file__).resolve().parents[1])


# ---------------------------------------------------------------------------
# one walk of the norms answers every norm verdict
# ---------------------------------------------------------------------------

def _norm_cases():
    members = list(sparse_corpus().members) + list(cauchy_corpus().members)
    images = [operators.image_sequence(operators.parse_operator(text), member)
              for text in ("diag(index)", "rank1(index_weights,sparse{1:1})",
                           "transform(prime_scale_by_position)")
              for member in sparse_corpus().members[3:8]]
    return members + images


@pytest.mark.parametrize("seq", _norm_cases(), ids=lambda s: s.label)
@pytest.mark.parametrize("tolerance", [0.1, 0.25])
def test_norm_counts_answer_each_norm_verdict_as_it_is_alone(seq, tolerance):
    horizon = 3000
    counts = stanalysis.norm_counts(seq, horizon)
    zero = spaces.zero(seq.space)
    pairs = [
        (stanalysis.bounded_verdict(counts, tolerance),
         stanalysis.st_bounded(seq, horizon=horizon, tolerance=tolerance)),
        (stanalysis.convergence_verdict(counts, zero, tolerance),
         stanalysis.st_converges(seq, horizon=horizon, tolerance=tolerance)),
        (stanalysis.converges_search(seq, lambda: counts, horizon=horizon, tolerance=tolerance),
         stanalysis.st_converges_search(seq, horizon=horizon, tolerance=tolerance)),
    ]
    for shared, alone in pairs:
        assert shared.to_json_dict() == alone.to_json_dict()
    assert (stanalysis.norm_limit_decision(counts, tolerance)
            == stanalysis.norm_limit_zero(seq, horizon, tolerance))


def test_a_horizon_below_the_first_checkpoint_keeps_the_tail_verdict():
    # norm_limit_zero needs no schedule; the counted verdicts refuse the
    # horizon with the schedule's own message
    seq = sequences.harmonic_prefix_sequence()
    counts = stanalysis.norm_counts(seq, 5)
    assert stanalysis.norm_limit_decision(counts, 0.1) == stanalysis.norm_limit_zero(seq, 5, 0.1)
    for shared, alone in ((lambda: stanalysis.bounded_verdict(counts, 0.1),
                           lambda: stanalysis.st_bounded(seq, horizon=5)),
                          (lambda: stanalysis.convergence_verdict(counts, spaces.zero(seq.space)),
                           lambda: stanalysis.st_converges(seq, horizon=5))):
        with pytest.raises(ValueError) as got:
            shared()
        with pytest.raises(ValueError) as want:
            alone()
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# one walk for several functionals, or several matrices
# ---------------------------------------------------------------------------

_FUNCTIONALS = (operators.coordinate_functional(1), operators.dense_weights([0.5, -1.0, 2.0]),
                operators.geometric_weights_functional())
_WALKED = ["harmonic", "unit_coords", "subseq(unit_coords, primes)", "null(sparse{1:1,3:-2})",
           "random(sparse, seed=4)", "random(dim=3, seed=4)", "subseq(harmonic, multiples(3))",
           "spike(squares, n, dim=3)"]


@pytest.mark.parametrize("chunk", [sequences._CHUNK, 7])
@pytest.mark.parametrize("text", _WALKED)
def test_functionals_of_one_walk_have_the_bits_of_one_at_a_time(text, chunk, monkeypatch):
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    seqs = [sequences.parse_sequence(text)]
    seqs.append(operators.image_sequence(operators.prime_position_transform(), seqs[0]))
    for seq in seqs:
        together = [tuple(values)
                    for values in sequences.functional_chunks(_FUNCTIONALS, seq, 300)]
        for i, f in enumerate(_FUNCTIONALS):
            got = oracles.joined(values[i] for values in together)
            assert got.tobytes() == oracles.functional_values(f, seq, 300).tobytes()


@pytest.mark.parametrize("chunk", [sequences._CHUNK, 7])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_matrix_sweeps_have_the_bits_of_each_image_sweep(dim, chunk, monkeypatch):
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    rng = np.random.default_rng(dim)
    ops = [operators.matrix_operator(rng.normal(size=(dim, dim))) for _ in range(3)]
    for member in dense_corpus(dim).members:
        together = list(sequences.matrix_sweep_chunks(member, [None] + [op.a for op in ops], 300))
        alone = [member] + [operators.image_sequence(op, member) for op in ops]
        for i, seq in enumerate(alone):
            got = oracles.joined(norms[i] for norms in together)
            want = oracles.joined(sequences.sweep_chunks(seq, None, 300))
            assert got.tobytes() == want.tobytes(), (member.label, i)


# ---------------------------------------------------------------------------
# the run memo
# ---------------------------------------------------------------------------

def _once(check, running, name):
    def wrapped(*args):
        running.append(name)
        try:
            return check(*args)
        finally:
            running.pop()

    return wrapped


def test_one_suite_walks_each_member_and_image_once(monkeypatch):
    # every norm walk of a corpus member or of an operator image goes
    # through ``stanalysis.sweep_chunks`` or ``sequences.matrix_sweep_chunks``;
    # ratio_bound's walks of a member and its image in step, and Cauchy's
    # anchored distance walks, are not norm walks here
    corpora = [sparse_corpus(), cauchy_corpus()] + [dense_corpus(d) for d in range(1, 9)]
    names = {id(m): (c.version, m.label) for c in corpora for m in c.members}
    kept = []
    build_image = classify_module.image_sequence

    def image_sequence(op, seq):
        image = build_image(op, seq)
        kept.append(image)          # no id is reused while the suite runs
        names[id(image)] = (op.describe(), *names[id(seq)])
        return image

    walks = Counter()
    sweep = stanalysis.sweep_chunks

    def sweep_chunks(seq, candidate, horizon):
        if candidate is None and id(seq) in names:
            walks[names[id(seq)]] += 1
        return sweep(seq, candidate, horizon)

    matrix_sweep = sequences.matrix_sweep_chunks

    def matrix_sweep_chunks(seq, mats, horizon):
        for a in mats:
            image = () if a is None else (operators.Matrix(a).describe(),)
            walks[(*image, *names[id(seq)])] += 1
        return matrix_sweep(seq, mats, horizon)

    running, draws, functional_walks = [], Counter(), Counter()
    rows = sequences._random_rows

    def random_rows(seed, width, ns):
        if running == ["finite_dim_all_bounded"]:
            draws[(seed, width, int(ns[0]), len(ns))] += 1
        return rows(seed, width, ns)

    functional_chunks = stanalysis.functional_chunks

    def counted_functional_chunks(fs, seq, horizon):
        if running == ["weak_equiv"]:
            functional_walks[names[id(seq)]] += 1
        return functional_chunks(fs, seq, horizon)

    monkeypatch.setattr(classify_module, "image_sequence", image_sequence)
    monkeypatch.setattr(stanalysis, "sweep_chunks", sweep_chunks)
    monkeypatch.setattr(sequences, "matrix_sweep_chunks", matrix_sweep_chunks)
    monkeypatch.setattr(sequences, "_random_rows", random_rows)
    monkeypatch.setattr(stanalysis, "functional_chunks", counted_functional_chunks)
    for name in ("finite_dim_all_bounded", "weak_equiv"):
        monkeypatch.setitem(classify_module._SUITE, name,
                            _once(classify_module._SUITE[name], running, name))
    run_suite(REDUCED)

    assert len(walks) > 300
    assert {key: n for key, n in walks.items() if n > 1} == {}
    # each random member of each dimension: its rows once per chunk
    chunks = -(-REDUCED // sequences._CHUNK)
    seen = {(seed, width) for seed, width, _, _ in draws}
    assert {seed for seed, _ in seen} == {201, 202, 203}
    assert len(draws) == len(seen) * chunks
    assert set(draws.values()) == {1}
    corpus = cauchy_corpus()
    assert functional_walks == Counter({(corpus.version, m.label): 1 for m in corpus.members})


def _contents(obj):
    yield obj
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        children = ()
    for child in children:
        yield from _contents(child)


def test_the_run_memo_goes_with_the_run_and_holds_counts_only(monkeypatch):
    made = []

    class Walks(classify_module._Walks):
        def __init__(self, horizon):
            super().__init__(horizon)
            made.append((weakref.ref(self), self.counts))

    monkeypatch.setattr(classify_module, "_Walks", Walks)
    run_suite(REDUCED)
    (memo, counts), = made
    assert memo() is None
    assert len(counts) > 300
    held = {type(x) for x in _contents(counts)}
    assert held <= {dict, tuple, str, int, float, type(None), stanalysis.NormCounts}


def _suite_json(horizon):
    return json.dumps([r.to_json_dict() for r in run_suite(horizon)], sort_keys=True)


def _fresh(code):
    """Standard output of ``code`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": SRC},
                          capture_output=True, text=True, check=True).stdout


def test_a_suite_after_a_longer_suite_matches_a_fresh_process():
    run_suite(100_000)
    fresh = _fresh("import json; from stconv.classify import run_suite; "
                   f"print(json.dumps([r.to_json_dict() for r in run_suite({REDUCED})], "
                   "sort_keys=True))")
    assert _suite_json(REDUCED) + "\n" == fresh


_TOLERANCE_OPERATORS = ("diag(inverse)", "rank1(index_weights,sparse{1:1})",
                        "matrix[[1,2],[0,1]]")


def _reports(tolerance):
    return [classify(operators.parse_operator(text), prop, REDUCED, tolerance).to_json_dict()
            for text in _TOLERANCE_OPERATORS for prop in PROPERTIES]


def test_classify_at_two_tolerances_matches_each_alone():
    together = [_reports(0.1), _reports(0.2)]
    code = ("import json, sys; sys.path.insert(0, {tests!r}); import test_walks; "
            "print(json.dumps(test_walks._reports({tolerance})))")
    tests = str(Path(__file__).resolve().parent)
    alone = [json.loads(_fresh(code.format(tests=tests, tolerance=t))) for t in (0.1, 0.2)]
    assert together == alone
    assert together[0] != together[1]


def test_operators_sharing_a_memo_key_act_alike(monkeypatch):
    # the memo keys an image by its operator's descriptor and its corpus, so
    # the suite's operators with one key must have the same images; the
    # descriptor reads back as such an operator, except that a finite-rank
    # operator on a dense space is read back on the sparse one
    ops = []
    classify_ = classify_module._classify

    def recorded(op, *args):
        ops.append(op)
        return classify_(op, *args)

    monkeypatch.setattr(classify_module, "_classify", recorded)
    run_suite(2000)
    keys = {}
    for op in ops:
        keys.setdefault((op.describe(), corpus_for(op).version), []).append(op)
    assert len(keys) < len(ops)
    for (text, version), same in keys.items():
        again = operators.parse_operator(text)
        assert again.describe() == text
        if corpus_for(again).version == version:
            same = same + [again]
        for member in corpus_for(same[0]).members:
            norms = {oracles.joined(sequences.sweep_chunks(
                operators.image_sequence(op, member), None, 300)).tobytes() for op in same}
            assert len(norms) == 1, (text, member.label)
