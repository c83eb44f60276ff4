"""One fresh process of one workload; started by ``run.py``, never by hand.

Modes:

* ``setup``: start the interpreter, import ``stconv``, generate the inputs,
  report the time that took, and exit;
* ``timed``: the same set-up, then the workload's calls through
  ``stconv.cli.run`` with nothing patched, then the correctness checks;
* ``traced``: as ``timed``, with the tracer installed; writes the spans and
  reports the per-layer metrics;
* ``checks``: the 14 suite checks one by one through ``check_theorem``, in
  ``SUITE_CHECKS`` order, each timed (suite workload only).

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import importlib  # noqa: E402

import stconv  # noqa: E402
from stconv import cli  # noqa: E402

# ``stconv.classify`` is shadowed by the re-exported function of that name
classify = importlib.import_module("stconv.classify")

import checks  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _invoke(argv):
    """Run one CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except SystemExit as exc:        # argparse rejects the argv
        rc = exc.code
    except Exception:                # a crash is a failed call, never a dead run
        rc = "exception"
        err.write(traceback.format_exc(limit=3))
    return rc, out.getvalue(), err.getvalue()


def _check(workload, calls, results, repeat):
    """Attempted and failed operations, and each failure with its causes."""
    refs = checks.load_references()
    failures = []
    for i, (argv, result) in enumerate(zip(calls, results)):
        reference = refs.get(checks.call_key(argv))
        causes = checks.check_call(argv, *result, reference)
        if repeat is not None and i == repeat % len(calls) and _invoke(argv) != result:
            causes.append("repeat of the call is not byte-identical")
        if causes:
            failures.append({"call": i, "argv": argv, "causes": causes})
    argv, (rc, out, _) = calls[0], results[0]
    if rc == 0 and not checks.self_check(argv, rc, out, refs.get(checks.call_key(argv))):
        failures.append({"call": 0, "argv": argv,
                         "causes": ["self-check: a corrupted reference or report was accepted"]})
    if workload != "suite":
        return len(calls), len({f["call"] for f in failures}), failures
    # the suite's operations are its checks
    attempted = len(classify.SUITE_CHECKS)
    if not failures:
        return attempted, 0, failures
    names = checks.failed_suite_checks(out, refs.get(checks.call_key(argv)))
    return attempted, attempted if names is None else max(1, len(names)), failures


def _run_calls(calls):
    results, call_s = [], []
    cpu0 = time.process_time()
    first = time.perf_counter()
    last = first
    for argv in calls:
        start = time.perf_counter()
        results.append(_invoke(argv))
        last = time.perf_counter()
        call_s.append(last - start)
    return results, call_s, last - first, time.process_time() - cpu0


def _suite_check_times():
    times, failures = {}, []
    for name in classify.SUITE_CHECKS:
        start = time.perf_counter()
        result = classify.check_theorem(name, workloads.SUITE_HORIZON)
        times[name] = time.perf_counter() - start
        if result.status != "pass":
            failures.append({"call": name, "argv": ["check_theorem", name],
                             "causes": [f"status {result.status}"]})
    return times, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced", "checks"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--repeat", type=int, default=None,
                        help="repeat this call after the pass and require identical output")
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args()

    calls = workloads.calls(args.workload, args.seed)
    report = {"setup_s": time.monotonic() - args.spawned_at, "calls": len(calls)}

    if args.mode == "checks":
        times, failures = _suite_check_times()
        report.update(check_s=times, attempted=len(times), failed=len(failures),
                      failures=failures)
    elif args.mode in ("timed", "traced"):
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer
            tracer = Tracer(stconv)
            tracer.install()
        results, call_s, wall, cpu = _run_calls(calls)
        peak = _peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.metrics()
            if args.spans:
                tracer.write_spans(args.spans)
        attempted, failed, failures = _check(args.workload, calls, results, args.repeat)
        report.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak, call_s=call_s,
                      attempted=attempted, failed=failed, failures=failures)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
