"""stconv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {suite,cli-mix,horizon-1e7} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
Every pass of the workload runs in a fresh worker process (``worker.py``),
one at a time, with BLAS and OpenMP pools held to one thread.

``--trace 0`` measures the end-to-end metrics: it starts nine set-up-only
workers, then timed passes until ``--seconds`` is used up (at least one),
and reports medians over the passes.  ``--trace 1`` measures the per-layer
metrics: one untraced pass, one traced pass (spans go to
``.bench_out/``), and for ``suite`` the 14 checks timed one by one.

Outputs are checked in every pass (see ``checks.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero, with
no JSON line, when a worker cannot run or the run would overstay its
deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 9
DEADLINE_S = 170.0          # a run must end within 180 s
ENV_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("call_p50_ms", "ms"), ("call_p90_ms", "ms"),
)


class RunFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("STCONV_HORIZON", None)     # it would override the generated horizons
    env.update(ENV_PINNED)
    return env


def _worker(args, mode, started, extra=()):
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RunFailed(f"no time left for a {mode} worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--spawned-at", repr(time.monotonic()),
           *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} worker overstayed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q):
    """Nearest-rank percentile: at least (1 - q) of the samples lie at or above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def measure(args, started):
    setups = [_worker(args, "setup", started)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = []
    budget_start = time.monotonic()
    while True:
        extra = ["--repeat", str(args.seed)] if not passes and args.workload != "suite" else []
        t0 = time.monotonic()
        passes.append(_worker(args, "timed", started, extra))
        passes[-1]["pass_s"] = time.monotonic() - t0
        used = time.monotonic() - budget_start
        typical = statistics.median(p["pass_s"] for p in passes)
        if used + typical > args.seconds or time.monotonic() - started + 2 * typical > DEADLINE_S:
            break
    setups += [p["setup_s"] for p in passes]

    def median(key):
        return statistics.median(key(p) for p in passes)

    metrics = {
        "wall_s": median(lambda p: p["wall_s"]),
        "cpu_s": median(lambda p: p["cpu_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
        "call_p50_ms": median(lambda p: 1000.0 * _percentile(p["call_s"], 0.5)),
        "call_p90_ms": median(lambda p: 1000.0 * _percentile(p["call_s"], 0.9)),
    }
    calls = sum(len(p["call_s"]) for p in passes)
    samples = {"wall_s": len(passes), "cpu_s": len(passes), "setup_s": len(setups),
               "peak_rss_mb": len(passes), "call_p50_ms": calls, "call_p90_ms": calls}
    units = dict(END_TO_END)
    return passes, {k: (v, units[k], samples[k]) for k, v in metrics.items()}


def trace(args, started):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    plain = _worker(args, "timed", started)
    traced = _worker(args, "traced", started, ["--spans", str(spans)])
    passes = [plain, traced]
    checks_s = {}
    if args.workload == "suite":
        timed_checks = _worker(args, "checks", started)
        passes.append(timed_checks)
        checks_s = timed_checks["check_s"]
    units = per_layer_units()
    layers = dict(traced["layers"])
    prefix = "classify.check."
    for name in units:
        if name.startswith(prefix):
            layers[name] = checks_s.get(name[len(prefix):-len(".s")], 0.0)
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    _print_breakdown(traced, layers, spans)
    return passes, {k: (layers[k], units[k], 1) for k in units}


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_units():
    """Per-layer metric names and units; BENCHMARK.json is their one source."""
    return {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}


def _print_breakdown(traced, layers, spans):
    wall = traced["wall_s"]
    selfs = sorted(((v, k[:-len(".self_s")]) for k, v in layers.items()
                    if k.endswith(".self_s") and not k.startswith("sequences.sweep.")),
                   reverse=True)
    print(f"traced wall_s {wall:.3f} s; spans in {spans.relative_to(ROOT)}")
    covered = 0.0
    for value, name in selfs:
        covered += value
        if value > 0:
            print(f"  {name:42s} self {value:9.3f} s  {100 * value / wall:5.1f}% of wall")
    label = "(sum of self times)"
    print(f"  {label:42s}      {covered:9.3f} s  {100 * covered / wall:5.1f}% of wall")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "stconv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no stconv package under {ROOT / 'src'}\n")
        return 2
    try:
        passes, metrics = (trace if args.trace else measure)(args, started)
    except RunFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  calls per pass {passes[0]['calls']}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit:6s} (n={n})")
    print(f"  {'failed_ratio':44s} {failed / attempted:14.6f} {'1':6s} "
          f"({failed} of {attempted})")
    for f in failures:
        print(f"  FAILED call {f['call']}: {' '.join(f['argv'])}: {'; '.join(f['causes'])}")
    OUT.mkdir(exist_ok=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "seed": args.seed, "failures": failures}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
