"""Replay the benchmark's frozen digests under other Python interpreters.

For each interpreter given, runs

    PYTHON bench/run.py --workload W --seed 0 --seconds 3 --trace 0

for the four workloads, one run at a time, from the root of this
checkout.  A run passes when its last stdout line reads correct: true
with failed: 0 and its "# run" line reports reference: match, that is,
every operation's output digest equals the one frozen in
bench/reference.json.  Prints one line per run and exits 1 if any run
fails.  Standard library only; it writes only the benchmark's own
git-ignored reports under bench/out/.

Usage: python tools/replay.py --python PATH [PATH ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("walks", "oracle", "construct", "cli")
RUN_PREFIX = "# run "


def replay(python: str, workload: str) -> tuple[bool, str]:
    argv = [python, "bench/run.py", "--workload", workload, "--seed", "0"]
    argv += ["--seconds", "3", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = next((json.loads(ln[len(RUN_PREFIX) :]) for ln in lines if ln.startswith(RUN_PREFIX)), {})
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = {}
    ok = (
        proc.returncode == 0
        and last.get("correct") is True
        and last.get("failed") == 0
        and run.get("reference") == "match"
    )
    detail = (
        f"exit {proc.returncode}, correct {last.get('correct')}, "
        f"failed {last.get('failed')}, reference {run.get('reference')}"
    )
    if not ok and proc.stderr:
        detail += "\n" + proc.stderr.rstrip()
    return ok, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--python", nargs="+", required=True, metavar="PATH")
    args = ap.parse_args(argv)
    failures = 0
    for python in args.python:
        for workload in WORKLOADS:
            start = time.perf_counter()
            ok, detail = replay(python, workload)
            failures += not ok
            took = time.perf_counter() - start
            print(f"{'ok' if ok else 'FAIL'} {python} {workload} {took:.1f}s: {detail}")
    print(f"{failures} of {len(args.python) * len(WORKLOADS)} runs failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
