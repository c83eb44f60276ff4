"""Correctness checks on the reports a workload produced.

Every call is checked twice over:

* against the pinned reference in ``references.json`` when its argv is
  there (every call of the default seed, the suite for any seed, and the
  seed-independent calls of ``horizon-1e7``): exit code, stdout digest,
  decision and exact integer counts must all match;
* against exact invariants that hold for any seed: exit code 0 and a quiet
  stderr, counts within ``[0, checkpoint]`` and nondecreasing along the
  checkpoints, ratios equal to ``count / checkpoint`` exactly, counts
  monotone in epsilon (convergence) or in the probe (boundedness), a
  decision consistent with the per-threshold decisions, and an echoed
  ``config`` that matches the argv, schedule included.

A failing call is never dropped; it is reported with its cause.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"
DECISIONS = ("confirmed", "refuted", "inconclusive")
OUTCOMES = ("consistent", "refuted", "inconclusive")

DEFAULT_HORIZONS = {
    "density": 1_000_000,
    "converge": 100_000,
    "bounded": 100_000,
    "cauchy": 100_000,
    "classify": 100_000,
    "suite": 100_000,
}
DEFAULT_SCHEDULE = "geometric:10"


def call_key(argv):
    return json.dumps(argv)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_references():
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())


def _flags(argv):
    """``--name value`` pairs of an argv (``--weak`` maps to True)."""
    out = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if name == "weak":
            out[name] = True
            i += 1
        else:
            out[name] = argv[i + 1]
            i += 2
    return out


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _exact_count(ratio, checkpoint):
    count = round(ratio * checkpoint)
    _require(count / checkpoint == ratio,
             f"ratio {ratio!r} is not an exact count over {checkpoint}")
    _require(0 <= count <= checkpoint, f"count {count} outside [0, {checkpoint}]")
    return count


def _check_profile(checkpoints, counts, ratios, horizon, schedule):
    _require(checkpoints[-1] == horizon, f"last checkpoint {checkpoints[-1]} != horizon {horizon}")
    _require(all(b > a for a, b in zip(checkpoints, checkpoints[1:])),
             "checkpoints not strictly increasing")
    kind, _, value = schedule.partition(":")
    if kind == "linear":
        step = int(value)
        _require(all(c == step * (i + 1) for i, c in enumerate(checkpoints[:-1])),
                 f"checkpoints do not follow {schedule}")
    _require(all(0 <= c <= n for c, n in zip(counts, checkpoints)), "count outside [0, checkpoint]")
    _require(all(b >= a for a, b in zip(counts, counts[1:])), "counts decrease along checkpoints")
    _require(all(r == c / n for r, c, n in zip(ratios, counts, checkpoints)),
             "ratio differs from count / checkpoint")


def _monotone(rows, direction, what):
    """``rows`` are count rows in threshold order; ``direction`` +1 means
    later rows may only grow (smaller epsilon), -1 only shrink (larger probe)."""
    for earlier, later in zip(rows, rows[1:]):
        ok = all((b - a) * direction >= 0 for a, b in zip(earlier, later))
        _require(ok, f"counts not monotone in {what}")


def _aggregate(decisions):
    if all(d == "confirmed" for d in decisions):
        return "confirmed"
    return "refuted" if "refuted" in decisions else "inconclusive"


def _csv_rows(out):
    rows = list(csv.reader(io.StringIO(out)))
    _require(rows and rows[0] == ["epsilon", "checkpoint", "count", "ratio"], "bad CSV header")
    groups = {}
    order = []
    for eps, cp, cnt, ratio in rows[1:]:
        if eps not in groups:
            groups[eps] = ([], [], [])
            order.append(eps)
        groups[eps][0].append(int(cp))
        groups[eps][1].append(int(cnt))
        groups[eps][2].append(float(ratio))
    return [(eps, *groups[eps]) for eps in order]


def facts(argv, out):
    """Decision and exact integer counts of one report; raises CheckFailed
    when an invariant does not hold."""
    command = argv[0]
    flags = _flags(argv)
    horizon = int(flags.get("horizon", DEFAULT_HORIZONS[command]))
    schedule = flags.get("schedule", DEFAULT_SCHEDULE)
    if flags.get("output") == "csv":
        return _csv_facts(command, flags, out, horizon, schedule)
    report = json.loads(out)
    _require(report["command"] == command, "command not echoed")
    if command == "suite":
        return _suite_facts(report, horizon)
    if command == "classify":
        return _classify_facts(report, flags, horizon)
    config = report["config"]
    _require(config["horizon"] == horizon, "horizon not echoed")
    _require(config["schedule"] == schedule, f"schedule {config['schedule']} != {schedule}")
    if command == "density":
        _require(config["set"] == flags["set"], "set not echoed")
        prof = report["profile"]
        _check_profile(prof["checkpoints"], prof["counts"], prof["ratios"], horizon, schedule)
        _require(report["final_ratio"] == prof["ratios"][-1], "final_ratio differs from profile")
        verdict = report["verdict"]
        decision = verdict["decision"] if verdict else "none"
        _require(decision in DECISIONS + ("none",), f"unknown decision {decision}")
        return {"decision": decision, "counts": prof["counts"]}
    _require(config["sequence"] == flags["sequence"], "sequence not echoed")
    verdict = report["verdict"]
    decision = verdict["decision"]
    _require(decision in DECISIONS, f"unknown decision {decision}")
    _require(verdict["horizon"] == horizon, "verdict horizon differs")
    entries = verdict["per_epsilon"]
    per = [e["decision"] for e in entries]
    _require(all(d in DECISIONS for d in per), "unknown per-threshold decision")
    counts = [_exact_count(e["final_ratio"], horizon) for e in entries]
    thresholds = [e["epsilon"] for e in entries]
    if command == "bounded":
        _require(thresholds == sorted(thresholds), "probes out of order")
        _monotone([[c] for c in counts], -1, "the probe")
        if decision == "confirmed":
            _require(per[-1] == "confirmed" and verdict["bound"] == thresholds[-1],
                     "confirmed bound is not the first confirmed probe")
    else:
        _require(thresholds == sorted(thresholds, reverse=True), "epsilon grid out of order")
        if command == "converge":
            _monotone([[c] for c in counts], 1, "epsilon")
            _require(decision == _aggregate(per),
                     "decision inconsistent with per-epsilon decisions")
        elif decision == "confirmed":
            _require(all(d == "confirmed" and "anchor" in e for d, e in zip(per, entries)),
                     "confirmed Cauchy verdict without a confirmed anchor per epsilon")
    return {"decision": decision, "counts": counts}


def _csv_facts(command, flags, out, horizon, schedule):
    groups = _csv_rows(out)
    _require(groups, "empty CSV report")
    for _, cps, cnts, ratios in groups:
        _check_profile(cps, cnts, ratios, horizon, schedule)
    rows = [cnts for _, _, cnts, _ in groups]
    if command == "converge":
        _monotone(rows, 1, "epsilon")
    if command == "bounded":
        _monotone(rows, -1, "the probe")
    return {"decision": None, "counts": [c for row in rows for c in row]}


def _classify_facts(report, flags, horizon):
    config = report["config"]
    _require(config["operator"] == flags["operator"] and config["horizon"] == horizon,
             "config not echoed")
    body = report["report"]
    outcome = body["outcome"]
    _require(outcome in OUTCOMES, f"unknown outcome {outcome}")
    _require((outcome == "refuted") == bool(body["witnesses"]),
             "outcome inconsistent with witnesses")
    for w in body["witnesses"]:
        _require(w["verdict"]["decision"] == "refuted", "witness verdict is not refuted")
    return {"decision": outcome, "counts": [
        _exact_count(e["final_ratio"], horizon)
        for w in body["witnesses"] for e in w["verdict"]["per_epsilon"]
    ]}


def _check_digest(entry):
    return digest(json.dumps(entry, sort_keys=True))


def _suite_facts(report, horizon):
    _require(report["config"]["horizon"] == horizon, "horizon not echoed")
    statuses = {c["check"]: c["status"] for c in report["checks"]}
    failing = sorted(name for name, status in statuses.items() if status != "pass")
    _require(not failing, "suite checks failing: " + ", ".join(failing))
    _require(report["passed"] is True, "suite not passed")
    return {"decision": "passed",
            "checks": {c["check"]: _check_digest(c) for c in report["checks"]}}


def failed_suite_checks(out, reference):
    """Suite checks that fail or differ from their pinned entry; None when
    the report cannot be read."""
    try:
        entries = json.loads(out)["checks"]
    except (ValueError, KeyError, TypeError):
        return None
    pinned = (reference or {}).get("checks")
    return [c["check"] for c in entries
            if c["status"] != "pass" or (pinned and pinned.get(c["check"]) != _check_digest(c))]


def check_call(argv, rc, out, err, reference=None):
    """Causes of failure for one call (empty when it is correct)."""
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[:200]}"]
    causes = []
    if err:
        causes.append(f"stderr: {err.strip()[:200]}")
    try:
        got = facts(argv, out)
    except CheckFailed as exc:
        return causes + [f"invariant: {exc}"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return causes + [f"unreadable report: {exc!r}"]
    if reference is not None:
        causes += _compare(reference, rc, out, got)
    return causes


def _compare(reference, rc, out, got):
    if reference["rc"] != rc:
        return [f"exit code {rc} != pinned {reference['rc']}"]
    if reference["sha256"] == digest(out):
        return []
    causes = []
    if reference.get("decision") != got.get("decision"):
        causes.append(f"decision {got.get('decision')} != pinned {reference.get('decision')}")
    if reference.get("counts") != got.get("counts"):
        causes.append("exact counts differ from the pinned ones")
    if "checks" in reference:
        changed = sorted(k for k, v in reference["checks"].items() if got["checks"].get(k) != v)
        causes.append("suite checks differ from the pinned ones: " + ", ".join(changed))
    return causes or ["stdout digest differs from the pinned one"]


def pin(argv, rc, out):
    """Reference entry for a call, as stored in ``references.json``."""
    entry = {"rc": rc, "sha256": digest(out)}
    entry.update(facts(argv, out))
    return entry


def self_check(argv, rc, out, reference):
    """True when the checker flags a corrupted reference and a corrupted report.

    Run on a real call of the workload, so a checker that silently accepts
    everything cannot pass for a correct one.
    """
    bad_ref = dict(reference or pin(argv, rc, out))
    bad_ref["sha256"] = "0" * 64
    bad_ref["decision"] = "corrupted"
    if not check_call(argv, rc, out, "", bad_ref):
        return False
    return bool(check_call(argv, rc, _corrupt(out), "", None))


def _corrupt(out):
    """The report with one invariant broken."""
    if out.startswith("epsilon,checkpoint,count,ratio"):
        lines = out.splitlines(keepends=True)
        eps, cp, _, ratio = lines[1].rstrip("\n").split(",")
        lines[1] = f"{eps},{cp},{int(cp) + 1},{ratio}\n"
        return "".join(lines)
    report = json.loads(out)
    if report["command"] == "suite":
        report["checks"][0]["status"] = "fail"
    elif report["command"] == "density":
        report["profile"]["counts"][0] = report["profile"]["checkpoints"][0] + 1
    elif report["command"] == "classify":
        body = report["report"]
        body["outcome"] = "consistent" if body["witnesses"] else "refuted"
    else:
        entry = report["verdict"]["per_epsilon"][0]
        entry["final_ratio"] = 1.5
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
