"""Record the frozen output digests that bench/run.py compares against.

    python3 bench/record_reference.py --seeds 0-63

For each workload and seed this builds the operation list once, runs
every operation once, checks it with the benchmark's certificates, and
stores the digest of the operation list and one digest per operation
kind in bench/reference.json.  It refuses to record if any operation
fails.  Record only at a commit whose outputs are meant to be frozen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def record(name: str, seed: int) -> dict:
    workdir = run.OUT / f"cli-{os.getpid()}"
    try:
        wl, _ = run.setup(name, seed, workdir)
        checker = run.Checker()
        for idx, op in enumerate(wl.ops):
            out = err = None
            try:
                out = op.run(run.plain_call)
            except Exception as e:  # reported through the checker
                err = e
            checker.verify(idx, op, out, err)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if checker.reasons:
        raise SystemExit(f"{name} seed {seed} failed, nothing recorded: {dict(checker.reasons)}")
    return {"ops": run.ops_digest(wl.ops), "kinds": checker.kind_digests(wl.ops)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="inclusive range such as 0-63")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.OUT.mkdir(exist_ok=True)
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for name in workloads.NAMES:
        for seed in range(lo, hi + 1):
            ref.setdefault(name, {})[str(seed)] = record(name, seed)
            print(name, seed, file=sys.stderr)
    ordered = {name: dict(sorted(ref[name].items(), key=lambda kv: int(kv[0]))) for name in sorted(ref)}
    run.REFERENCE.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
