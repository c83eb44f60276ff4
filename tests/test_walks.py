"""Shared walks: one walk of a sequence feeds every verdict asked of it.

A sequence's norm verdicts (``st_bounded``, ``st_converges`` to zero,
``norm_limit_zero``, the zero candidate and bounded fallback of
``st_converges_search``) are answered from one ``stanalysis.NormCounts``; a
weak verdict evaluates every probe functional on each chunk of one walk;
walks zipped over one stream read each chunk of a pointwise leaf once, so a
member walked in step with its images is drawn once; and a suite run keeps
the counts of each corpus member and operator image in a memo that lives
as long as the run.  The answers are those of each verdict alone, bit for
bit, whatever ran before in the process.

A walk is told its length by its checkpoints alone: the counted walks
refuse a horizon that the default schedule refuses, and ``norm_limit_zero``
walks to the single checkpoint of its own horizon.
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
    counts = stanalysis.norm_counts_of([seq], horizon)[0]
    zero = spaces.zero(seq.space)
    pairs = [
        (stanalysis.bounded_verdict(counts, tolerance),
         stanalysis.st_bounded(seq, horizon=horizon, tolerance=tolerance)),
        (stanalysis.convergence_verdict(counts, zero, tolerance),
         stanalysis.st_converges(seq, horizon=horizon, tolerance=tolerance)),
        (stanalysis.converges_search(seq, counts, tolerance),
         stanalysis.st_converges_search(seq, horizon=horizon, tolerance=tolerance)),
    ]
    for shared, alone in pairs:
        assert shared.to_json_dict() == alone.to_json_dict()
    assert (stanalysis.norm_limit_decision(counts, tolerance)
            == stanalysis.norm_limit_zero(seq, horizon, tolerance))


def _tail_decision(seq, horizon, tolerance):
    """``norm_limit_zero``'s decision from the norms of the generated terms past the first tenth."""
    tail = [spaces.norm(seq.generator(n)) for n in range(horizon // 10 + 1, horizon + 1)]
    if max(tail) <= tolerance:
        return "confirmed"
    if min(tail) >= 2 * tolerance:
        return "refuted"
    return "inconclusive"


@pytest.mark.parametrize("seq", list(sparse_corpus().members) + list(cauchy_corpus().members)
                         + list(dense_corpus(3).members), ids=lambda s: s.label)
def test_the_tail_verdict_walks_to_its_horizon_alone(seq):
    # one checkpoint, the horizon itself, at horizons the default schedule
    # refuses and at ones it counts
    for horizon in (1, 2, 5, 10, 11, 100):
        for tolerance in (0.1, 0.25):
            assert (stanalysis.norm_limit_zero(seq, horizon, tolerance)
                    == _tail_decision(seq, horizon, tolerance)), horizon
    with pytest.raises(ValueError, match="^horizon must be at least 1$"):
        stanalysis.norm_limit_zero(seq, 0)


def test_a_horizon_below_the_first_checkpoint_keeps_the_tail_verdict():
    # norm_limit_zero needs no schedule; the counted walk refuses the
    # horizon with the schedule's own message, as the counted verdicts do
    seq = sequences.harmonic_prefix_sequence()
    assert stanalysis.norm_limit_zero(seq, 5, 0.1) == _tail_decision(seq, 5, 0.1) == "refuted"
    with pytest.raises(ValueError) as got:
        stanalysis.norm_counts_of([seq], 5)
    for alone in (lambda: stanalysis.st_bounded(seq, horizon=5),
                  lambda: stanalysis.st_converges(seq, horizon=5)):
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
def test_norms_in_step_have_the_bits_of_each_sweep_alone(dim, chunk, monkeypatch):
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    rng = np.random.default_rng(dim)
    ops = [operators.matrix_operator(rng.normal(size=(dim, dim))) for _ in range(3)]
    for member in dense_corpus(dim).members:
        seqs = [member] + [operators.image_sequence(op, member) for op in ops]
        # each chunk is read whole before the next is asked for
        together = [tuple(norms) for norms in sequences.norm_chunks(seqs, 300)]
        assert all(len(norms) == len(seqs) for norms in together)
        for i, seq in enumerate(seqs):
            got = oracles.joined(norms[i] for norms in together)
            want = oracles.joined(sequences.sweep_chunks(seq, None, 300))
            assert got.tobytes() == want.tobytes(), (member.label, i)


# ---------------------------------------------------------------------------
# the stream's share: one read of each leaf chunk for the walks over a stream
# ---------------------------------------------------------------------------

def _counting_rows(monkeypatch):
    """A list that gets the number of random rows of each draw from now on."""
    drawn = []
    rows = sequences._random_rows

    def counted(seed, width, ns):
        drawn.append(len(ns))
        return rows(seed, width, ns)

    monkeypatch.setattr(sequences, "_random_rows", counted)
    return drawn


@pytest.mark.parametrize("space, text", [
    (spaces.dense_space(2), "combo(1,matrix[[2,0],[0,3]],-0.5,matrix[[1,1],[0,1]])"),
    (spaces.sparse_space(), "combo(1,diag(inverse),2,diag(identity))"),
    (spaces.sparse_space(), "combo(1,rank1(coord(1),sparse{1:1}),1,rank1(coord(2),sparse{2:1}))"),
])
def test_a_combination_of_images_draws_its_member_once(space, text, monkeypatch):
    member = sequences.random_unit_ball(space, 201)
    image = operators.image_sequence(operators.parse_operator(text), member)
    drawn = _counting_rows(monkeypatch)
    norms = oracles.joined(sequences.sweep_chunks(image, None, 50_000))
    assert sum(drawn) == 50_000
    assert len(norms) == 50_000


def test_walks_in_step_draw_their_member_once_and_subsequences_share_too(monkeypatch):
    member = sequences.parse_sequence("subseq(random(sparse, seed=5), multiples(3))")
    seqs = [member] + [operators.image_sequence(operators.parse_operator(text), member)
                       for text in ("diag(inverse)", "rank1(coord(3),sparse{1:1})",
                                    "transform(prime_scale_by_position)")]
    drawn = _counting_rows(monkeypatch)
    counts = stanalysis.norm_counts_of(seqs, 20_000)
    assert sum(drawn) == 20_000
    assert counts == [stanalysis.norm_counts_of([seq], 20_000)[0] for seq in seqs]


def test_a_shared_chunk_is_read_only_and_goes_with_its_stream(monkeypatch):
    monkeypatch.setattr(sequences, "_CHUNK", 40)
    member = sequences.random_unit_ball(spaces.dense_space(2), 201)
    rows = member.structure.rows
    ns = sequences.Stream(100)
    first, second = rows(ns), rows(ns)
    a, b = next(first), next(second)
    assert a is b
    with pytest.raises(ValueError):
        a[0, 0] = 2.0
    ks, again = iter(ns), iter(ns)
    k = next(ks)
    assert k is next(again)
    with pytest.raises(ValueError):
        k[0] = 2
    # the share keeps the last index chunk, the last chunk of the leaf, and
    # one derived stream per ``at``
    next(first)
    assert len(ns.share) == 2
    at = np.negative
    assert ns.along(at) is ns.along(at) and len(ns.share) == 3
    refs = [weakref.ref(x) for x in (ns, a, k, ns.along(at))]
    del ns, first, second, a, b, ks, again, k
    assert [ref() for ref in refs] == [None] * 4


def test_a_walk_in_step_holds_one_chunk_per_leaf_and_nothing_after(monkeypatch):
    monkeypatch.setattr(sequences, "_CHUNK", 64)
    member = sequences.random_unit_ball(spaces.dense_space(3), 202)
    seqs = [member] + [operators.image_sequence(operators.parse_operator(text), member)
                       for text in ("matrix[[1,0,0],[0,2,0],[0,0,3]]",
                                    "finite_rank(dim=3;coord(2),dense[1,1,1])")]
    drawn, rows = [], sequences._random_rows

    def kept(seed, width, ns):
        out = rows(seed, width, ns)
        drawn.append(weakref.ref(out))
        return out

    monkeypatch.setattr(sequences, "_random_rows", kept)
    walk = sequences.norm_chunks(seqs, 1000)
    for norms in walk:
        assert len(list(norms)) == len(seqs)
        assert sum(ref() is not None for ref in drawn) == 1
    assert len(drawn) == -(-1000 // 64)
    del walk
    assert all(ref() is None for ref in drawn)


@pytest.mark.parametrize("read", [lambda norms: next(norms), lambda norms: None])
def test_a_chunk_in_step_left_unread_is_refused(read, monkeypatch):
    # reading a chunk in part, or skipping it, would leave the other walks a
    # chunk behind and pair later norms across chunks
    monkeypatch.setattr(sequences, "_CHUNK", 64)
    member = sequences.random_unit_ball(spaces.dense_space(3), 202)
    seqs = [member, operators.image_sequence(operators.parse_operator("matrix[[1,0,0],[0,2,0],[0,0,3]]"),
                                             member)]
    walk = sequences.norm_chunks(seqs, 1000)
    read(next(walk))
    with pytest.raises(RuntimeError, match="not read to its end"):
        next(walk)


def test_a_walk_in_step_holds_the_arrays_of_one_stream_at_a_time(monkeypatch):
    # each image's rows and norms are made once and go before the next
    # stream's are made; walks that kept their last chunk (and a zip of
    # every stream's norms) held all of them until the next chunk
    monkeypatch.setattr(sequences, "_CHUNK", 64)
    rng = np.random.default_rng(3)
    member = sequences.random_unit_ball(spaces.dense_space(3), 202)
    seqs = [member] + [operators.image_sequence(operators.matrix_operator(rng.normal(size=(3, 3))),
                                                member) for _ in range(4)]
    made, alive = [], []
    norms = sequences._block_norms

    def derived(refs):
        # the member's rows are the stream's share, made read-only once drawn
        return sum(ref() is not None and ref().flags.writeable for ref in refs)

    def watched(block, offset=None):
        earlier = list(made)
        alive.append(derived(earlier))
        made.append(weakref.ref(block))
        out = norms(block, offset)
        alive.append(derived(earlier))
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(sequences, "_block_norms", watched)
    counts = stanalysis.norm_counts_of(seqs, 1000)
    # per chunk, two arrays per stream and two for the member's draw (its rows and their scales)
    assert len(made) == 12 * -(-1000 // 64)
    assert max(alive) <= 1
    assert all(ref() is None for ref in made)
    monkeypatch.undo()
    assert counts == [stanalysis.norm_counts_of([seq], 1000)[0] for seq in seqs]


def _suite_pools(horizon=2000):
    """The operator pools one ``run_suite(horizon)`` classifies, in order."""
    pools = []
    classify_ = classify_module._classify

    def recorded(ops, *args):
        pools.append(list(ops))
        return classify_(ops, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify_module, "_classify", recorded)
        run_suite(horizon)
    return pools


def test_every_pool_walked_in_step_counts_as_each_walk_alone(monkeypatch):
    ops = {}
    for pool in _suite_pools():
        for op in pool:
            ops.setdefault((op.describe(), corpus_for(op).version), op)
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    corpora = {corpus_for(op).version: corpus_for(op) for op in ops.values()}
    for version, corpus in corpora.items():
        pool = [op for (_, v), op in ops.items() if v == version]
        for member in corpus.members:
            seqs = [member] + [operators.image_sequence(op, member) for op in pool]
            alone = [stanalysis.norm_counts_of([seq], 400)[0] for seq in seqs]
            assert stanalysis.norm_counts_of(seqs, 400) == alone, (version, member.label)


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
    # through ``stanalysis.norm_chunks`` (or a distance sweep at the zero
    # candidate); ratio_bound's walks of a member and its image in step, and
    # Cauchy's anchored distance walks, are not norm walks here
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
    norm_chunks, sweep = stanalysis.norm_chunks, stanalysis.sweep_chunks

    def counted_norm_chunks(seqs, horizon):
        walks.update(names[id(seq)] for seq in seqs if id(seq) in names)
        return norm_chunks(seqs, horizon)

    def sweep_chunks(seq, candidate, horizon):
        if candidate is None and id(seq) in names:
            walks[names[id(seq)]] += 1
        return sweep(seq, candidate, horizon)

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
    monkeypatch.setattr(stanalysis, "norm_chunks", counted_norm_chunks)
    monkeypatch.setattr(stanalysis, "sweep_chunks", sweep_chunks)
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


def test_a_suite_draws_each_random_member_about_once_per_check(monkeypatch):
    # 1,927,917 rows, where image walks that drew their member afresh took
    # 3,788,682 (and 10,007,921 against 19,308,686 at 10^5): each member is
    # drawn about once per check that walks it, plus the sample windows of
    # medians and the anchored Cauchy walks
    drawn = _counting_rows(monkeypatch)
    run_suite(REDUCED)
    assert sum(drawn) <= 97 * REDUCED


def test_a_suite_leaves_no_state_on_its_corpus_members():
    run_suite(REDUCED)
    corpora = [sparse_corpus(), cauchy_corpus()] + [dense_corpus(d) for d in range(1, 9)]
    assert [m.label for c in corpora for m in c.members if m.cache] == []


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


def test_operators_sharing_a_memo_key_act_alike():
    # the memo keys an image by its operator's descriptor and its corpus, so
    # the suite's operators with one key must have the same images; each
    # descriptor reads back as such an operator, on the same domain
    ops = [op for pool in _suite_pools() for op in pool]
    keys = {}
    for op in ops:
        keys.setdefault((op.describe(), corpus_for(op).version), []).append(op)
    assert len(keys) < len(ops)
    for (text, version), same in keys.items():
        again = operators.parse_operator(text)
        assert again.describe() == text
        assert corpus_for(again).version == version
        if not isinstance(again, operators.SequenceTransform):
            assert again.domain == same[0].domain
        for member in corpus_for(again).members:
            norms = {oracles.joined(sequences.sweep_chunks(
                operators.image_sequence(op, member), None, 300)).tobytes() for op in same + [again]}
            assert len(norms) == 1, (text, member.label)
