"""Command-line front end: reports, exit codes, determinism."""

import csv
import io
import json

import pytest

from stconv import cli, sequences, spaces


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_text(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_primes_example(capsys):
    code, report = run_json(capsys, ["density", "--set", "primes", "--horizon", "1000000"])
    assert code == 0
    assert report["command"] == "density"
    assert report["final_ratio"] == 0.078498
    assert report["config"]["set"] == "primes"
    assert report["config"]["horizon"] == 1_000_000


def test_density_multiples_confirmed(capsys):
    code, report = run_json(
        capsys, ["density", "--set", "multiples(4)", "--target", "0.25", "--horizon", "100000"]
    )
    assert code == 0
    assert report["verdict"]["decision"] == "confirmed"


def test_density_csv_rows(capsys):
    code, out, _ = run_text(
        capsys, ["density", "--set", "multiples(2)", "--horizon", "1000", "--output", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["epsilon", "checkpoint", "count", "ratio"]
    assert rows[1] == ["", "10", "5", "0.5"]
    assert rows[-1] == ["", "1000", "500", "0.5"]


def test_density_schedule_flag(capsys):
    code, report = run_json(
        capsys,
        ["density", "--set", "squares", "--horizon", "1000", "--schedule", "linear:250"],
    )
    assert code == 0
    assert report["profile"]["checkpoints"] == [250, 500, 750, 1000]


# ---------------------------------------------------------------------------
# converge / bounded / cauchy
# ---------------------------------------------------------------------------

def test_converge_refutes_harmonic_to_zero(capsys):
    code, report = run_json(
        capsys,
        ["converge", "--sequence", "harmonic", "--candidate", "sparse{}", "--eps", "0.5,0.1"],
    )
    assert code == 0
    assert report["verdict"]["decision"] == "refuted"
    assert [e["epsilon"] for e in report["verdict"]["per_epsilon"]] == [0.5, 0.1]


def test_converge_without_candidate_tests_against_zero(capsys):
    code, report = run_json(
        capsys,
        ["converge", "--sequence", "null(sparse{1:1})", "--horizon", "10000"],
    )
    assert code == 0
    assert report["verdict"]["decision"] == "confirmed"
    assert report["verdict"]["limit"] == "sparse{}"


def test_converge_with_operator_image(capsys):
    code, report = run_json(
        capsys,
        [
            "converge",
            "--sequence", "harmonic",
            "--operator", "diag(inverse)",
            "--horizon", "10000",
        ],
    )
    assert code == 0
    assert report["config"]["operator"] == "diag(inverse)"


def test_bounded_spike_confirmed(capsys):
    code, report = run_json(
        capsys, ["bounded", "--sequence", "spike(squares, n)", "--horizon", "100000"]
    )
    assert code == 0
    assert report["verdict"]["decision"] == "confirmed"
    assert report["verdict"]["bound"] == 1.0


def test_bounded_custom_probes(capsys):
    code, report = run_json(
        capsys,
        ["bounded", "--sequence", "unit_coords", "--probes", "0.5,2", "--horizon", "1000"],
    )
    assert code == 0
    assert report["verdict"]["decision"] == "confirmed"
    assert report["verdict"]["bound"] == 2.0


def test_bounded_weak_flag_dense_only(capsys):
    code, report = run_json(
        capsys,
        ["bounded", "--sequence", "random(dim=3, seed=7)", "--weak", "--horizon", "10000"],
    )
    assert code == 0
    assert report["verdict"]["decision"] == "confirmed"

    code2, _, err = run_text(
        capsys, ["bounded", "--sequence", "harmonic", "--weak", "--horizon", "1000"]
    )
    assert code2 == 2
    assert "error" in err


def test_bounded_weak_rejects_a_decreasing_ladder(capsys):
    code, _, err = run_text(
        capsys,
        ["bounded", "--sequence", "random(dim=3, seed=7)", "--weak", "--probes", "4,2,1",
         "--horizon", "1000"],
    )
    assert code == 2
    assert "increasing ladder" in err


def test_cauchy_harmonic(capsys):
    code, report = run_json(capsys, ["cauchy", "--sequence", "harmonic", "--horizon", "100000"])
    assert code == 0
    assert report["verdict"]["decision"] == "confirmed"


def test_cauchy_explicit_anchors(capsys):
    code, report = run_json(
        capsys,
        ["cauchy", "--sequence", "harmonic", "--anchors", "10,100", "--horizon", "10000"],
    )
    assert code == 0
    assert report["config"]["anchors"] == [10, 100]


@pytest.mark.parametrize("anchors", ["0", "-3"])
def test_cauchy_rejects_anchors_below_one(capsys, anchors):
    code, out, err = run_text(
        capsys,
        ["cauchy", "--sequence", "prime_coords", f"--anchors={anchors}", "--horizon", "1000"],
    )
    assert code == 2
    assert out == ""
    assert "anchor indices start at 1" in err


# ---------------------------------------------------------------------------
# classify / suite
# ---------------------------------------------------------------------------

def test_classify_transform_consistent(capsys):
    code, report = run_json(
        capsys,
        [
            "classify",
            "--operator", "transform(prime_scale_by_position)",
            "--property", "st_bounded",
            "--horizon", "20000",
        ],
    )
    assert code == 0
    assert report["report"]["outcome"] == "consistent"


def test_classify_rejects_csv(capsys):
    code, _, err = run_text(
        capsys,
        [
            "classify",
            "--operator", "diag(identity)",
            "--property", "st_bounded",
            "--output", "csv",
        ],
    )
    assert code == 2
    assert "JSON" in err


def test_suite_passes_and_exits_zero(capsys):
    code, report = run_json(capsys, ["suite", "--horizon", "20000"])
    assert code == 0
    assert report["passed"] is True
    assert len(report["checks"]) == 14
    assert all(c["status"] == "pass" for c in report["checks"])


def test_suite_rejects_expect(capsys):
    # the suite has no single decision, so an expectation would go unchecked
    code, out, err = run_text(capsys, ["suite", "--horizon", "2000", "--expect", "refuted"])
    assert code == 2
    assert out == ""
    assert "--expect" in err


# ---------------------------------------------------------------------------
# expectations and exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["classify", "--operator", "diag(identity)", "--property", "st_bounded"],
    ["suite"],
], ids=["classify", "suite"])
def test_schedule_rejected_where_not_honoured(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run([*argv, "--horizon", "2000", "--schedule", "linear:500"])
    assert exc.value.code == 2
    assert "--schedule" in capsys.readouterr().err


@pytest.mark.parametrize("schedule,message", [
    ("linear:2.5", "a linear step must be a whole number, got 2.5"),
    ("geometric:2.5", "a geometric base must be a whole number, got 2.5"),
    ("geometric:x", "expected a number at position 0: 'x'"),
    ("linear:0", "linear schedule needs a positive step"),
], ids=["linear-fraction", "geometric-fraction", "geometric-name", "linear-zero"])
@pytest.mark.parametrize("argv", [
    ["density", "--set", "primes"],
    ["cauchy", "--sequence", "harmonic"],
], ids=["density", "cauchy"])
def test_malformed_schedule_exits_two_naming_it(capsys, argv, schedule, message):
    code, out, err = run_text(capsys, [*argv, "--horizon", "1000", "--schedule", schedule])
    assert (code, out) == (2, "")
    assert err == f"error: schedule {schedule!r}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["converge", "--sequence", "harmonic", "--eps", ","],
    ["bounded", "--sequence", "harmonic", "--probes", ","],
    ["cauchy", "--sequence", "harmonic", "--anchors", ","],
], ids=["eps", "probes", "anchors"])
def test_empty_list_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run([*argv, "--horizon", "1000"])
    assert exc.value.code == 2
    assert "list" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv,message", [
    (["converge", "--sequence", "index(dim=1)", "--eps"], "epsilon grid"),
    (["cauchy", "--sequence", "index(dim=1)", "--eps"], "epsilon grid"),
    (["bounded", "--sequence", "index(dim=1)", "--probes"], "probes must be finite"),
    (["converge", "--sequence", "index(dim=1)", "--tolerance"], "tolerance"),
    (["density", "--set", "primes", "--tolerance"], "tolerance"),
], ids=["converge-eps", "cauchy-eps", "probes", "converge-tolerance", "density-tolerance"])
def test_non_finite_flags_rejected(capsys, argv, message, value):
    code, out, err = run_text(capsys, [*argv, value, "--horizon", "100"])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["converge", "--sequence", "null(dense[1e400,1,1])"],
    ["converge", "--sequence", "harmonic", "--candidate", "sparse{1:1e400}"],
    ["converge", "--sequence", "combine(harmonic,harmonic,1e400,1)"],
    ["density", "--set", "multiples(1e400)"],
    ["converge", "--sequence", "random(dim=1e400)"],
    ["bounded", "--sequence", "index(dim=1)", "--operator", "matrix[[1e400]]"],
    ["converge", "--sequence", "spike(squares,1e400)"],
], ids=["element", "candidate", "combine", "index-set", "dimension", "matrix", "magnitude"])
def test_overflowing_number_literals_rejected(capsys, argv):
    code, out, err = run_text(capsys, [*argv, "--horizon", "100"])
    assert code == 2
    assert out == ""
    assert "finite" in err


# every subcommand; the horizon is resolved first, so its error wins over the
# refusals of CSV output and of --expect that come later
@pytest.mark.parametrize("argv", [
    ["classify", "--operator", "diag(inverse)", "--property", "st_bounded"],
    ["converge", "--sequence", "random(sparse)"],
    ["density", "--set", "primes"],
    ["bounded", "--sequence", "random(sparse)"],
    ["cauchy", "--sequence", "random(sparse)"],
    ["suite"],
    ["suite", "--output", "csv"],
    ["suite", "--expect", "refuted"],
    ["classify", "--operator", "diag(inverse)", "--property", "st_bounded", "--output", "csv"],
], ids=["classify", "converge", "density", "bounded", "cauchy", "suite",
        "suite-csv", "suite-expect", "classify-csv"])
@pytest.mark.parametrize("horizon", ["0", "1", "-5"])
def test_horizon_below_two_rejected(capsys, argv, horizon):
    code, out, err = run_text(capsys, [*argv, f"--horizon={horizon}"])
    assert code == 2
    assert out == ""
    assert err == "error: horizon must be at least 2\n"


def test_classify_refuses_a_horizon_below_the_schedule_for_every_operator(capsys):
    # no sparse member's tail confirms a hypothesis of diag(inverse) at 5, and
    # every dense one asks for checkpoints: both are refused before any walk
    results = [run_text(capsys, ["classify", "--operator", op, "--property", "n_st_continuous",
                                 "--horizon", "5"])
               for op in ("diag(inverse)", "matrix[[1,0],[0,1]]")]
    want = (2, "", "error: schedule geometric:10 yields fewer than 2 checkpoints at horizon 5\n")
    assert results == [want, want]


def test_expect_match_and_mismatch(capsys):
    ok, _, _ = run_text(
        capsys,
        [
            "converge",
            "--sequence", "harmonic",
            "--candidate", "sparse{}",
            "--horizon", "1000",
            "--expect", "refuted",
        ],
    )
    assert ok == 0
    bad, _, _ = run_text(
        capsys,
        [
            "converge",
            "--sequence", "harmonic",
            "--candidate", "sparse{}",
            "--horizon", "1000",
            "--expect", "confirmed",
        ],
    )
    assert bad == 1


_PARSE_ARGV = {
    "set": ["density", "--set"],
    "sequence": ["converge", "--sequence"],
    "candidate": ["converge", "--sequence", "harmonic", "--candidate"],
    "operator": ["converge", "--sequence", "harmonic", "--operator"],
}

# Each grammar production with a missing separator, a missing closer and an
# empty argument list, among others; the reports are pinned byte for byte.
_PARSE_ERRORS = [
    ("set", "multiples(x)", "expected a number at position 10"),
    ("set", "multiples 3", "expected '(' at position 10"),
    ("set", "multiples(3", "expected ')' at position 11"),
    ("set", "multiples()", "expected a number at position 10"),
    ("set", "multiples(3,4)", "expected ')' at position 11"),
    ("set", "finite(1 2)", "expected ')' at position 9"),
    ("set", "finite(1,2", "expected ')' at position 10"),
    ("set", "finite()", "expected a number at position 7"),
    ("set", "finite(1,)", "expected a number at position 9"),
    ("set", "complement(primes", "expected ')' at position 17"),
    ("set", "complement()", "expected a name at position 11"),
    ("set", "complement primes", "expected '(' at position 11"),
    ("set", "complement(primes,squares)", "expected ')' at position 17"),
    ("set", "union(primes squares)", "expected ',' at position 13"),
    ("set", "union(primes,squares", "expected ')' at position 20"),
    ("set", "union()", "expected a name at position 6"),
    ("set", "union(primes)", "expected ',' at position 12"),
    ("set", "intersection(primes,)", "expected a name at position 20"),
    ("set", "intersection(primes squares)", "expected ',' at position 20"),
    ("set", "primes)", "unexpected trailing text after index set at position 6"),
    ("set", "bogus", "unknown index set 'bogus' at position 5"),
    ("set", "", "expected a name at position 0"),
    ("candidate", "dense[1 2]", "expected ']' at position 8"),
    ("candidate", "dense[1,2", "expected ']' at position 9"),
    ("candidate", "dense[]", "expected a number at position 6"),
    ("candidate", "dense[1,]", "expected a number at position 8"),
    ("candidate", "dense 1", "expected '[' at position 6"),
    ("candidate", "sparse{1:1 2:2}", "expected '}' at position 11"),
    ("candidate", "sparse{1:1", "expected '}' at position 10"),
    ("candidate", "sparse{1}", "expected ':' at position 8"),
    ("candidate", "vector[1]", "expected an element literal, got 'vector' at position 6"),
    ("candidate", "dense[1]]", "unexpected trailing text after element at position 8"),
    ("operator", "rank1(coord 1, sparse{1:1})", "expected '(' at position 12"),
    ("operator", "rank1(coord(1, sparse{1:1})", "expected ')' at position 13"),
    ("operator", "rank1(coord(), sparse{1:1})", "expected a number at position 12"),
    ("operator", "rank1(weights[1 2], dense[1,0,0])", "expected ']' at position 16"),
    ("operator", "rank1(weights[1,2, dense[1])", "expected a number at position 19"),
    ("operator", "rank1(weights[], dense[1])", "expected a number at position 14"),
    ("operator", "rank1(weights 1, dense[1])", "expected '[' at position 14"),
    ("operator", "matrix[[1,0][0,1]]", "expected ']' at position 12"),
    ("operator", "matrix[[1,0],[0,1]", "expected ']' at position 18"),
    ("operator", "matrix[]", "expected '[' at position 7"),
    ("operator", "matrix[[]]", "expected a number at position 8"),
    ("operator", "matrix[[1,0],[0]]", "matrix rows must share a length at position 17"),
    ("operator", "matrix[[1 0]]", "expected ']' at position 10"),
    ("operator", "matrix[[1,0],]", "expected '[' at position 13"),
    ("operator", "matrix 1", "expected '[' at position 7"),
    ("operator", "rank1(coord(1) sparse{1:1})", "expected ',' at position 15"),
    ("operator", "rank1(coord(1), sparse{1:1}", "expected ')' at position 27"),
    ("operator", "rank1()", "expected a name at position 6"),
    ("operator", "rank1(coord(1))", "expected ',' at position 14"),
    ("operator", "finite_rank(coord(1), sparse{1:1} coord(2), sparse{2:1})", "expected ')' at position 34"),
    ("operator", "finite_rank(coord(1), sparse{1:1}", "expected ')' at position 33"),
    ("operator", "finite_rank()", "expected a name at position 12"),
    ("operator", "finite_rank(coord(1), sparse{1:1};)", "expected a name at position 34"),
    ("operator", "finite_rank(coord(1) sparse{1:1})", "expected ',' at position 21"),
    ("operator", "compose(diag(identity) diag(inverse))", "expected ',' at position 23"),
    ("operator", "compose(diag(identity), diag(inverse)", "expected ')' at position 37"),
    ("operator", "compose()", "expected a name at position 8"),
    ("operator", "compose(diag(identity))", "expected ',' at position 22"),
    ("operator", "combo(1 diag(identity), 1, diag(inverse))", "expected ',' at position 8"),
    ("operator", "combo(1, diag(identity), 1, diag(inverse)", "expected ')' at position 41"),
    ("operator", "combo()", "expected a number at position 6"),
    ("operator", "combo(1, diag(identity))", "expected ',' at position 23"),
    ("operator", "combo(x, diag(identity), 1, diag(inverse))", "expected a number at position 6"),
    ("operator", "transform(prime_scale_by_position", "expected ')' at position 33"),
    ("operator", "transform()", "expected a name at position 10"),
    ("operator", "transform(bogus)", "unknown transform 'bogus' at position 16"),
    ("operator", "transform prime_scale_by_position", "expected '(' at position 10"),
    ("operator", "transform(prime_scale_by_position, x)", "expected ')' at position 33"),
    ("operator", "diag(identity", "expected ')' at position 13"),
    ("operator", "diag()", "expected a name at position 5"),
    ("operator", "diag(inverse_trunc(3)", "expected ')' at position 21"),
    ("operator", "diag(identity) x", "unexpected trailing text after operator at position 15"),
    # names and cutoffs were checked after the parse had moved on: no position,
    # and a cutoff on any other diagonal was dropped
    ("operator", "diag(bogus)", "unknown diagonal 'bogus' at position 10"),
    ("operator", "diag(inverse_trunc)", "expected '(' at position 18"),
    ("operator", "diag(inverse(7))", "expected ')' at position 12"),
    ("operator", "diag(identity(2))", "expected ')' at position 13"),
    ("operator", "bogus(1)", "unknown operator 'bogus' at position 5"),
    ("sequence", "constant(dense[1,2]", "expected ')' at position 19"),
    ("sequence", "constant()", "expected a name at position 9"),
    ("sequence", "constant dense[1]", "expected '(' at position 9"),
    ("sequence", "constant(dense[1], dense[2])", "expected ')' at position 17"),
    ("sequence", "null(sparse{1:1}", "expected ')' at position 16"),
    ("sequence", "null()", "expected a name at position 5"),
    ("sequence", "null(sparse{1:1} sparse{2:1})", "expected ')' at position 17"),
    ("sequence", "index(dim=2", "expected ')' at position 11"),
    ("sequence", "index(sparse)", "index sequences are dense at position 13"),
    ("sequence", "index(dim=)", "expected a number at position 10"),
    ("sequence", "index(dim 2)", "expected '=' at position 10"),
    ("sequence", "index dim=2", "expected '(' at position 6"),
    ("sequence", "alternating(dim=2", "expected ')' at position 17"),
    ("sequence", "alternating(sparse)", "alternating sequences are dense at position 19"),
    ("sequence", "alternating(dim=2,3)", "expected ')' at position 17"),
    ("sequence", "alternating", "expected '(' at position 11"),
    ("sequence", "combine(harmonic unit_coords, 1, 1)", "expected ',' at position 17"),
    ("sequence", "combine(harmonic, unit_coords, 1, 1", "expected ')' at position 35"),
    ("sequence", "combine()", "expected a name at position 8"),
    ("sequence", "combine(harmonic, unit_coords, 1)", "expected ',' at position 32"),
    ("sequence", "combine(harmonic, unit_coords, 1 1)", "expected ',' at position 33"),
    ("sequence", "subseq(unit_coords primes)", "expected ',' at position 19"),
    ("sequence", "subseq(unit_coords, primes", "expected ')' at position 26"),
    ("sequence", "subseq()", "expected a name at position 7"),
    ("sequence", "subseq(unit_coords)", "expected ',' at position 18"),
    # accepted until repeated arguments were refused: the last one won
    ("sequence", "random(seed=3, seed=4)", "repeated seed argument at position 15"),
    ("sequence", "random(dim=3, sparse)", "repeated space argument at position 14"),
    ("sequence", "random(sparse, dim=2)", "repeated space argument at position 15"),
    ("sequence", "random(seed 3)", "expected '=' at position 12"),
    ("sequence", "random(seed=3", "expected ')' at position 13"),
    ("sequence", "random(seed=x)", "expected a number at position 12"),
    ("sequence", "random(seed=3 sparse)", "expected ')' at position 14"),
    ("sequence", "zero(sparse", "expected ')' at position 11"),
    ("sequence", "zero(dim=2,)", "expected ')' at position 10"),
    ("sequence", "spike(squares n)", "expected ',' at position 14"),
    ("sequence", "spike(squares, n", "expected ')' at position 16"),
    ("sequence", "spike()", "expected a name at position 6"),
    ("sequence", "spike(squares, n, sparse", "expected ')' at position 24"),
    # keywords are whole names, not prefixes of a longer one
    ("sequence", "spike(squares,n2)", "expected a number at position 14"),
    ("sequence", "spike(squares, nan)", "expected a number at position 15"),
    ("sequence", "random(seeds=3)", "expected ')' at position 7"),
    ("sequence", "index(dims=2)", "expected ')' at position 6"),
    ("sequence", "zero(sparsely)", "expected ')' at position 5"),
    # accepted until empty arguments were refused: an empty space argument
    # read as dense:3 (so zero() was dense while zero is sparse), and random
    # ignored a trailing comma
    ("sequence", "zero()", "expected an argument at position 5"),
    ("sequence", "spike(squares,n,)", "expected an argument at position 16"),
    ("sequence", "random(,)", "expected an argument at position 7"),
    ("sequence", "random(sparse,)", "expected an argument at position 14"),
    ("sequence", "random(seed=3,)", "expected an argument at position 14"),
    # accepted until integer literals were range-checked where they are read:
    # a cutoff below 1 gave the zero operator, and the rest failed later
    # without a position
    ("set", "multiples(0)", "expected an integer >= 1 at position 10"),
    ("set", "finite(0)", "expected an integer >= 1 at position 7"),
    ("set", "finite(3,-2)", "expected an integer >= 1 at position 9"),
    ("candidate", "sparse{0:1}", "expected an integer >= 1 at position 7"),
    ("operator", "diag(inverse_trunc(0))", "expected an integer >= 1 at position 19"),
    ("operator", "diag(inverse_trunc(-3))", "expected an integer >= 1 at position 19"),
    ("operator", "rank1(coord(0), sparse{1:1})", "expected an integer >= 1 at position 12"),
    ("sequence", "null(sparse{0:1})", "expected an integer >= 1 at position 12"),
    ("sequence", "index(dim=0)", "expected an integer >= 1 at position 10"),
    ("sequence", "random(dim=0)", "expected an integer >= 1 at position 11"),
    ("sequence", "random(seed=-1)", "expected an integer >= 0 at position 12"),
    ("set", "multiples(-1)", "expected an integer >= 1 at position 10"),
    ("set", "finite(-1)", "expected an integer >= 1 at position 7"),
    ("candidate", "sparse{1:1,0:2}", "expected an integer >= 1 at position 11"),
    ("operator", "rank1(coord(-2), sparse{1:1})", "expected an integer >= 1 at position 12"),
    ("sequence", "index(dim=-1)", "expected an integer >= 1 at position 10"),
    ("sequence", "random(dim=-4)", "expected an integer >= 1 at position 11"),
    ("sequence", "harmonic extra", "unexpected trailing text after sequence at position 9"),
    ("sequence", "bogus", "unknown sequence 'bogus' at position 5"),
]


@pytest.mark.parametrize("flag,text,message", _PARSE_ERRORS, ids=[f"{f}:{t}" for f, t, _ in _PARSE_ERRORS])
def test_parse_error_exits_two_with_position(capsys, flag, text, message):
    code, out, err = run_text(capsys, [*_PARSE_ARGV[flag], text, "--horizon", "100"])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}: {text!r}\n"


_NESTED = {
    "set": lambda depth: "complement(" * depth + "squares" + ")" * depth,
    "sequence": lambda depth: "subseq(" * depth + "harmonic" + ", multiples(1))" * depth,
    "operator": lambda depth: "compose(" * depth + "diag(inverse)" + ", diag(identity))" * depth,
}


@pytest.mark.parametrize("flag", list(_NESTED))
def test_a_deeply_nested_descriptor_is_a_parse_error(capsys, flag):
    # past the interpreter's recursion limit the parse stops with a position;
    # 300 levels of each grammar parse and run
    code, out, err = run_text(capsys, [*_PARSE_ARGV[flag], _NESTED[flag](5000), "--horizon", "100"])
    assert (code, out) == (2, "")
    assert err.startswith("error: descriptor nests too deeply at position ")
    code, out, err = run_text(capsys, [*_PARSE_ARGV[flag], _NESTED[flag](300), "--horizon", "100"])
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]


# the least value of each range-checked integer literal still parses
_SMALLEST_INTEGERS = [
    ("set", "multiples(1)"),
    ("set", "finite(1)"),
    ("set", "finite(3,1)"),
    ("candidate", "sparse{1:1}"),
    ("operator", "diag(inverse_trunc(1))"),
    ("operator", "rank1(coord(1), sparse{1:1})"),
    ("sequence", "null(sparse{1:1})"),
    ("sequence", "index(dim=1)"),
    ("sequence", "random(dim=1)"),
    ("sequence", "random(seed=0)"),
]


@pytest.mark.parametrize("flag,text", _SMALLEST_INTEGERS, ids=[f"{f}:{t}" for f, t in _SMALLEST_INTEGERS])
def test_smallest_integer_literal_is_accepted(capsys, flag, text):
    code, out, err = run_text(capsys, [*_PARSE_ARGV[flag], text, "--horizon", "100"])
    assert code == 0
    assert err == ""
    assert out


def test_integer_literals_are_read_exactly(capsys):
    # read through a float, each of these literals rounded past 2^53 to a neighbour
    odd, even = (sequences.parse_sequence(f"random(seed={seed})") for seed in (2**53 + 1, 2**53))
    assert odd.label == "random_ball_9007199254740993"
    assert spaces.format_element(odd.generator(1)) != spaces.format_element(even.generator(1))
    largest = "sparse{9223372036854775807:1}"
    assert spaces.format_element(spaces.parse_element(largest)) == largest
    code, out, err = run_text(capsys, ["converge", "--sequence",
                                       "subseq(unit_coords, multiples(99999999999999999999))",
                                       "--horizon", "100"])
    assert (code, out) == (2, "")
    assert err == "error: member 100 of multiples(99999999999999999999) is beyond the cap 100000000\n"


@pytest.mark.parametrize("along", ["squares", "multiples(2000)"])
def test_per_index_subsequence_past_the_cap_is_refused_like_a_structured_one(capsys, along):
    # a combination of two kinds runs per index; its last term is made
    # first, so the refusal names the same member as the structured spelling
    errors = []
    for parent in ("combine(unit_coords, damped_unit_coords, 1, 1)", "unit_coords"):
        code, out, err = run_text(capsys, ["converge", "--sequence", f"subseq({parent}, {along})"])
        assert (code, out) == (2, "")
        errors.append(err)
    assert errors[0] == errors[1] == f"error: member 100000 of {along} is beyond the cap 100000000\n"


def test_finite_member_past_int64_is_refused(capsys):
    code, out, err = run_text(capsys, ["density", "--set", "finite(9223372036854775808)",
                                       "--horizon", "100"])
    assert (code, out) == (2, "")
    assert err == "error: finite index sets stop at 9223372036854775807\n"
    code, report = run_json(capsys, ["density", "--set", "finite(9223372036854775807)",
                                     "--horizon", "100"])
    assert code == 0 and report["profile"]["counts"] == [0, 0]


@pytest.mark.parametrize("argv", [
    ["converge", "--sequence", "harmonic", "--operator",
     "compose(transform(prime_scale_by_position), diag(inverse))"],
    ["converge", "--sequence", "harmonic", "--operator",
     "compose(diag(inverse), transform(prime_scale_by_position))"],
    ["converge", "--sequence", "harmonic", "--operator",
     "combo(1, transform(prime_scale_by_position), 1, diag(identity))"],
    ["classify", "--property", "st_bounded", "--operator",
     "compose(transform(prime_scale_by_position), diag(inverse))"],
], ids=["compose-outer", "compose-inner", "combo", "classify"])
def test_nested_transform_exits_two(capsys, argv):
    code, out, err = run_text(capsys, [*argv, "--horizon", "100"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: sequence transforms act on whole sequences")


def test_env_horizon_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_HORIZON, "5000")
    code, report = run_json(capsys, ["density", "--set", "squares"])
    assert code == 0
    assert report["config"]["horizon"] == 5000
    # an explicit flag still wins over the environment
    code2, report2 = run_json(capsys, ["density", "--set", "squares", "--horizon", "100"])
    assert report2["config"]["horizon"] == 100


def test_invalid_env_horizon_rejected(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_HORIZON, "not-a-number")
    code, _, err = run_text(capsys, ["density", "--set", "squares"])
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# determinism and schema
# ---------------------------------------------------------------------------

def test_reports_are_byte_identical(capsys):
    argv = ["converge", "--sequence", "spike(squares, n)", "--horizon", "20000"]
    _, first, _ = run_text(capsys, argv)
    _, second, _ = run_text(capsys, argv)
    assert first == second


# a flag set in one call must not survive into the next through the parser
# that ``run`` keeps for the whole process
_CALL_SEQUENCE = [
    ["converge", "--sequence", "harmonic", "--candidate", "sparse{1:1}", "--horizon", "2000"],
    ["converge", "--sequence", "harmonic", "--horizon", "2000"],
    ["bounded", "--sequence", "random(dim=3, seed=7)", "--weak", "--horizon", "2000"],
    ["bounded", "--sequence", "random(dim=3, seed=7)", "--horizon", "2000"],
    ["bounded", "--sequence", "harmonic", "--no-such-flag"],
    ["density", "--set", "primes", "--horizon", "1000"],
]


def _run_calls(capsys, calls):
    results = []
    for argv in calls:
        try:
            code = cli.run(argv)
        except SystemExit as exc:    # argparse rejects the argv
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_one_parser_per_process_leaks_nothing_between_calls(capsys, monkeypatch):
    reused = _run_calls(capsys, _CALL_SEQUENCE)
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _run_calls(capsys, _CALL_SEQUENCE)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]
    assert json.loads(reused[1][1])["config"]["candidate"] is None
    assert json.loads(reused[3][1])["config"]["weak"] is False


def test_report_keys_are_sorted(capsys):
    _, out, _ = run_text(capsys, ["density", "--set", "primes", "--horizon", "1000"])
    report = json.loads(out)
    assert list(report) == sorted(report)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_golden_density_schema(capsys):
    _, report = run_json(capsys, ["density", "--set", "primes", "--horizon", "1000"])
    assert set(report) == {"analytic_density", "command", "config", "final_ratio", "profile", "verdict"}
    assert set(report["config"]) == {"horizon", "schedule", "set", "target", "tolerance"}
    assert set(report["profile"]) == {"checkpoints", "counts", "ratios"}


def test_golden_converge_schema(capsys):
    _, report = run_json(
        capsys,
        ["converge", "--sequence", "harmonic", "--candidate", "sparse{}", "--horizon", "1000"],
    )
    assert set(report) == {"command", "config", "verdict"}
    assert set(report["config"]) >= {"sequence", "horizon", "tolerance", "epsilon_grid"}
    assert set(report["verdict"]) >= {"kind", "decision", "horizon", "per_epsilon"}
