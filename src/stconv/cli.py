"""Command-line front end.

One subcommand per analysis: ``density``, ``converge``, ``bounded``,
``cauchy``, ``classify``, ``suite``.  Reports go to standard output as JSON
(default) or CSV; all defaults are resolved once and echoed into the report
so a run is reproducible from its own output.

Exit status: 0 on success, 1 when ``--expect`` is not met or the suite has
failures, 2 on descriptor or argument errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import density, operators, sequences, spaces, stanalysis
from .classify import (
    DEFAULT_CLASSIFY_HORIZON,
    DEFAULT_CLASSIFY_TOLERANCE,
    PROPERTIES,
    classify as run_classify,
    run_suite,
    suite_passed,
)
from .parsing import ParseError

ENV_HORIZON = "STCONV_HORIZON"


def _number_list(text, kind, name):
    try:
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated {name} list: {text!r}")
    return values


def _float_list(text):
    return _number_list(text, float, "float")


def _int_list(text):
    return _number_list(text, int, "integer")


def _add_common(sub, with_eps=True, with_schedule=True):
    sub.add_argument("--horizon", type=int, default=None,
                     help=f"analysis horizon (default per command; ${ENV_HORIZON} overrides)")
    sub.add_argument("--tolerance", type=float, default=None,
                     help="verdict tolerance (default per command)")
    if with_eps:
        sub.add_argument("--eps", type=_float_list, default=None, metavar="A,B,C",
                         help="epsilon grid, comma separated")
    if with_schedule:
        sub.add_argument("--schedule", default=None, metavar="KIND:VALUE",
                         help="checkpoint schedule, e.g. geometric:10 or linear:5000")
    sub.add_argument("--output", choices=("json", "csv"), default="json")
    sub.add_argument("--expect", default=None,
                     choices=("confirmed", "refuted", "inconclusive", "consistent"),
                     help="exit 1 unless the decision matches")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stconv",
        description="statistical-convergence analyses over index sets, sequences, and operators",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("density", help="density profile and verdict for an index set")
    p.add_argument("--set", required=True, dest="index_set",
                   help="index-set descriptor, e.g. primes or union(multiples(3),squares)")
    p.add_argument("--target", type=float, default=None,
                   help="density target (default: the analytic density when known)")
    _add_common(p, with_eps=False)

    p = subs.add_parser("converge", help="statistical convergence verdict for a sequence")
    p.add_argument("--sequence", required=True, help="sequence descriptor, e.g. harmonic")
    p.add_argument("--candidate", default=None,
                   help="limit candidate element (default: zero)")
    p.add_argument("--operator", default=None,
                   help="analyze the image under this operator descriptor")
    p.add_argument("--seed", type=int, default=7, help="default seed for random descriptors")
    _add_common(p)

    p = subs.add_parser("bounded", help="statistical boundedness verdict for a sequence")
    p.add_argument("--sequence", required=True)
    p.add_argument("--probes", type=_float_list, default=None, metavar="A,B,C",
                   help="norm probe ladder (default: doubling 1..1024)")
    p.add_argument("--operator", default=None)
    p.add_argument("--weak", action="store_true",
                   help="use linear-functional probes (dense sequences only)")
    p.add_argument("--seed", type=int, default=7)
    _add_common(p, with_eps=False)

    p = subs.add_parser("cauchy", help="statistical Cauchy verdict for a sequence")
    p.add_argument("--sequence", required=True)
    p.add_argument("--anchors", type=_int_list, default=None, metavar="A,B,C",
                   help="anchor indices (default: 10, 100, ... up to horizon/10)")
    p.add_argument("--operator", default=None)
    p.add_argument("--seed", type=int, default=7)
    _add_common(p)

    p = subs.add_parser("classify", help="classify an operator property against the corpus")
    p.add_argument("--operator", required=True)
    p.add_argument("--property", required=True, dest="prop",
                   choices=PROPERTIES)
    _add_common(p, with_eps=False, with_schedule=False)

    p = subs.add_parser("suite", help="run the full theorem-check suite")
    _add_common(p, with_eps=False, with_schedule=False)

    return parser


def _resolve_horizon(horizon, default):
    if horizon is None:
        env = os.environ.get(ENV_HORIZON)
        if not env:
            return default
        try:
            horizon = int(env)
        except ValueError:
            raise ParseError(env, 0, f"${ENV_HORIZON} is not an integer")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    return horizon


def _resolve_schedule(args):
    if args.schedule:
        return density.parse_schedule(args.schedule)
    return density.DEFAULT_SCHEDULE


def _emit_json(report):
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _emit_csv(rows):
    """Flatten ``(epsilon, profile)`` pairs to (epsilon, checkpoint, count, ratio) rows."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["epsilon", "checkpoint", "count", "ratio"])
    for eps, profile in rows:
        for cp, cnt, ratio in zip(profile.checkpoints, profile.counts, profile.ratios):
            writer.writerow([eps, cp, cnt, repr(ratio)])


def _sequence_under_analysis(args):
    if args.seed < 0:
        raise ValueError(f"a random seed must be non-negative, got {args.seed}")
    seq = sequences.parse_sequence(args.sequence, default_seed=args.seed)
    if args.operator:
        op = operators.parse_operator(args.operator)
        seq = operators.image_sequence(op, seq)
    return seq


def _check_expect(expect, decision):
    if expect is None:
        return 0
    if expect == "confirmed" and decision == "consistent":
        return 0
    return 0 if decision == expect else 1


def _run_density(args, horizon, tolerance):
    schedule = _resolve_schedule(args)
    index_set = density.parse_index_set(args.index_set)
    profile = density.density_profile(index_set, horizon, schedule)
    analytic = index_set.analytic_density
    target = args.target if args.target is not None else (
        float(analytic) if analytic is not None else None
    )
    verdict = None
    if target is not None:
        verdict = density.density_verdict(profile, target, tolerance)
    report = {
        "command": "density",
        "config": {
            "set": args.index_set,
            "horizon": horizon,
            "tolerance": tolerance,
            "target": target,
            "schedule": schedule.describe(),
        },
        "analytic_density": float(analytic) if analytic is not None else None,
        "final_ratio": profile.final_ratio,
        "profile": profile.to_json_dict(),
        "verdict": verdict.to_json_dict() if verdict is not None else None,
    }
    if args.output == "csv":
        _emit_csv([("", profile)])
    else:
        _emit_json(report)
    decision = verdict.decision if verdict is not None else "none"
    return _check_expect(args.expect, decision)


def _converge(args, seq, horizon, tolerance, schedule):
    candidate = spaces.parse_element(args.candidate) if args.candidate else None
    grid = args.eps or stanalysis.DEFAULT_EPS_GRID
    verdict = stanalysis.st_converges(seq, candidate, grid, horizon, tolerance, schedule)
    return verdict, {"candidate": args.candidate, "epsilon_grid": list(verdict.epsilon_grid)}


def _bounded(args, seq, horizon, tolerance, schedule):
    probes = args.probes or stanalysis.DEFAULT_PROBES
    if args.weak:
        verdict = stanalysis.weakly_st_bounded(
            seq, probes=probes, horizon=horizon, tolerance=tolerance, schedule=schedule
        )
    else:
        verdict = stanalysis.st_bounded(seq, probes, horizon, tolerance, schedule)
    return verdict, {"probes": list(probes), "weak": bool(args.weak)}


def _cauchy(args, seq, horizon, tolerance, schedule):
    grid = args.eps or stanalysis.DEFAULT_EPS_GRID
    verdict = stanalysis.st_cauchy(
        seq, grid, horizon, tolerance, anchors=args.anchors, schedule=schedule
    )
    anchors = args.anchors or stanalysis.default_anchors(horizon)
    return verdict, {"epsilon_grid": list(verdict.epsilon_grid), "anchors": list(anchors)}


def _run_verdict(analysis, args, horizon, tolerance):
    """A sequence verdict subcommand; ``analysis`` returns the verdict and the
    config keys the command echoes beyond the shared ones."""
    schedule = _resolve_schedule(args)
    seq = _sequence_under_analysis(args)
    verdict, extra = analysis(args, seq, horizon, tolerance, schedule)
    report = {
        "command": args.command,
        "config": {
            "sequence": args.sequence,
            "operator": args.operator,
            "horizon": horizon,
            "tolerance": tolerance,
            "seed": args.seed,
            "schedule": schedule.describe(),
            **extra,
        },
        "verdict": verdict.to_json_dict(),
    }
    if args.output == "csv":
        _emit_csv((r.epsilon, r.verdict.profile) for r in verdict.per_epsilon)
    else:
        _emit_json(report)
    return _check_expect(args.expect, verdict.decision)


def _run_classify(args, horizon, tolerance):
    if args.output == "csv":
        raise ParseError(args.operator, 0, "classify reports are JSON only")
    op = operators.parse_operator(args.operator)
    report = run_classify(
        op, args.prop, horizon=horizon, tolerance=tolerance
    )
    payload = {
        "command": "classify",
        "config": {
            "operator": args.operator,
            "property": args.prop,
            "horizon": horizon,
            "tolerance": tolerance,
        },
        "report": report.to_json_dict(),
    }
    _emit_json(payload)
    return _check_expect(args.expect, report.outcome)


def _run_suite(args, horizon, tolerance):
    if args.output == "csv":
        raise ParseError("suite", 0, "suite reports are JSON only")
    if args.expect is not None:
        raise ParseError("suite", 0, "the suite has no decision to --expect; its exit status says "
                                     "whether every check passed")
    results = run_suite(horizon, tolerance)
    payload = {
        "command": "suite",
        "config": {"horizon": horizon, "tolerance": tolerance},
        "checks": [r.to_json_dict() for r in results],
        "passed": suite_passed(results),
    }
    _emit_json(payload)
    return 0 if payload["passed"] else 1


# each command's default horizon, default tolerance, and runner of
# ``(args, horizon, tolerance)``
_COMMANDS = {
    "density": (density.DEFAULT_HORIZON, density.DEFAULT_TOLERANCE, _run_density),
    "converge": (stanalysis.DEFAULT_ANALYSIS_HORIZON, stanalysis.DEFAULT_ST_TOLERANCE,
                 functools.partial(_run_verdict, _converge)),
    "bounded": (stanalysis.DEFAULT_ANALYSIS_HORIZON, stanalysis.DEFAULT_ST_TOLERANCE,
                functools.partial(_run_verdict, _bounded)),
    "cauchy": (stanalysis.DEFAULT_ANALYSIS_HORIZON, stanalysis.DEFAULT_ST_TOLERANCE,
               functools.partial(_run_verdict, _cauchy)),
    "classify": (DEFAULT_CLASSIFY_HORIZON, DEFAULT_CLASSIFY_TOLERANCE, _run_classify),
    "suite": (DEFAULT_CLASSIFY_HORIZON, DEFAULT_CLASSIFY_TOLERANCE, _run_suite),
}


@functools.cache
def _parser():
    # built on the first call, not at import; parsing leaves it unchanged
    return build_parser()


def run(argv=None):
    args = _parser().parse_args(argv)
    default_horizon, default_tolerance, runner = _COMMANDS[args.command]
    try:
        horizon = _resolve_horizon(args.horizon, default_horizon)
        tolerance = default_tolerance if args.tolerance is None else float(args.tolerance)
        return runner(args, horizon, tolerance)
    except (ValueError, density.HorizonExhausted) as exc:
        # a ParseError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
