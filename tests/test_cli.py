"""Command-line front end: reports, exit codes, determinism."""

import csv
import io
import json

import pytest

from stconv import cli


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


def test_parse_error_exits_two_with_position(capsys):
    code, _, err = run_text(capsys, ["density", "--set", "multiples(x)"])
    assert code == 2
    assert "position" in err


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
