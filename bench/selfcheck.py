"""Determinism checks for the benchmark itself.

    python3 bench/selfcheck.py --workload walks --seed 1 --other-seed 2

1. Runs the traced benchmark on --seed under two PYTHONHASHSEED values.
   The operation list, every per-kind output digest and every exact
   per-layer count (calls, sets, bytes, steps, moves, vertices) must be
   identical.
2. Runs --other-seed: its operation list must differ, and it must pass.

Exits 0 when every check holds and prints one line per check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run

EXACT_SUFFIXES = (".calls", ".failed", ".sets", ".bytes", ".steps", ".moves", ".vertices", "_max")


def traced_run(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"benchmark exited {done.returncode}: {done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((run.OUT / f"report-{workload}-s{seed}-t1.json").read_text())
    report["correct"] = last["correct"]
    return report


def exact(report: dict) -> dict:
    return {k: v for k, v in report["metrics"].items() if k.endswith(EXACT_SUFFIXES)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--other-seed", type=int, required=True)
    args = ap.parse_args()
    a = traced_run(args.workload, args.seed, "0")
    b = traced_run(args.workload, args.seed, "4242")
    c = traced_run(args.workload, args.other_seed, "0")
    checks = {
        "both hash seeds pass": a["correct"] and b["correct"],
        "same operation list": a["ops_digest"] == b["ops_digest"],
        "same output digests": a["kind_digests"] == b["kind_digests"],
        "same exact layer counts": exact(a) == exact(b),
        "other seed gives another operation list": c["ops_digest"] != a["ops_digest"],
        "other seed passes": c["correct"],
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {args.workload}: {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
