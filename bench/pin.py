"""Regenerate ``references.json``: the pinned output of every default-seed call.

    python3 bench/pin.py

Each call runs alone in a fresh process, so a reference never depends on
the calls before it; a workload pass that disagrees with it has an
order-dependent answer, and the benchmark reports that call as failed.
Only rerun this when a change is meant to alter reports, and say so in
the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import worker_env  # noqa: E402


def _run_one(argv):
    sys.path.insert(0, str(ROOT / "src"))
    from stconv import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)
    print(json.dumps({"rc": rc, "out": out.getvalue()}))


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        _run_one(json.loads(sys.argv[2]))
        return
    refs = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.calls(workload, workloads.DEFAULT_SEED):
            proc = subprocess.run(
                [sys.executable, __file__, "--one", json.dumps(argv)],
                capture_output=True, text=True, check=True, cwd=ROOT, env=worker_env(),
            )
            got = json.loads(proc.stdout.splitlines()[-1])
            refs[checks.call_key(argv)] = checks.pin(argv, got["rc"], got["out"])
            print(workload, got["rc"], " ".join(argv), flush=True)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
