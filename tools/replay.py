"""Replay the benchmark's frozen digests and the CLI's outputs under other Pythons.

For each interpreter given, runs

    PYTHON bench/run.py --workload W --seed 0 --seconds 3 --trace 0

for the four workloads, one run at a time, from the root of this
checkout.  A run passes when its last stdout line reads correct: true
with failed: 0 and its "# run" line reports reference: match, that is,
every operation's output digest equals the one frozen in
bench/reference.json.

It then runs the six fixed commands of acceptance criterion 10, and
one `order cyclic` at rank above n/2, as

    PYTHON -m sparsepaving.cli ARGS

with PYTHONPATH=src, on P44, the best GS(8, 4) class and the dual of
the best GS(10, 4) class (rank 6 on 10 elements, whose order is read
through complement windows) written to a temporary directory.  A
command passes when it exits 0 with stdout byte-equal to the same
command under the interpreter running this script.

Prints one line per run and exits 1 if any run fails.  Standard library
only; besides the temporary directory it writes only the benchmark's
own git-ignored reports under bench/out/.

Usage: python tools/replay.py --python PATH [PATH ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("walks", "oracle", "construct", "cli")
RUN_PREFIX = "# run "
# criterion 10's fixed commands; {p44} and {gs} name the files write_inputs makes
CLI_COMMANDS = (
    ("gen", "gs", "--n", "10", "--r", "4"),
    ("gen", "random", "--n", "10", "--r", "4", "--target", "12", "--seed", "7"),
    ("order", "cyclic", "{p44}"),
    ("conj", "farber", "{p44}"),
    ("flats", "{gs}"),
    ("census", "--n", "12"),
)
# rank 6 on 10 elements, so the order is read through complement windows;
# it prints 4 2 9 0 6 7 8 1 5 3
HIGH_RANK_COMMAND = ("order", "cyclic", "{gs_dual}")


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


def write_inputs(tmp: Path) -> dict[str, str]:
    """P44 and the best GS(8, 4) class, as criterion 10 writes them, and
    the dual of the best GS(10, 4) class."""
    sys.path.insert(0, str(ROOT / "src"))
    from sparsepaving import (
        SparsePavingMatroid, dual, graham_sloane, gs_best_class, serialize_matroid,
    )

    matroids = {
        "p44": SparsePavingMatroid(4, 2, [{0, 3}, {1, 2}]),
        "gs": graham_sloane(8, 4, gs_best_class(8, 4)[0]),
        "gs_dual": dual(graham_sloane(10, 4, gs_best_class(10, 4)[0])),
    }
    paths = {}
    for name, m in matroids.items():
        paths[name] = str(tmp / f"{name}.txt")
        Path(paths[name]).write_text(serialize_matroid(m))
    return paths


def run_cli(python: str, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [python, "-m", "sparsepaving.cli", *args]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)


def replay_cli(python: str, args: list[str], want: subprocess.CompletedProcess) -> tuple[bool, str]:
    proc = run_cli(python, args)
    same = proc.stdout == want.stdout
    ok = proc.returncode == want.returncode == 0 and same
    detail = (
        f"exit {proc.returncode} (reference {want.returncode}), "
        f"stdout {'equal' if same else 'differs'}"
    )
    if not ok and proc.stderr:
        detail += "\n" + proc.stderr.decode(errors="replace").rstrip()
    return ok, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--python", nargs="+", required=True, metavar="PATH")
    args = ap.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        commands = [
            (" ".join(c), [a.format(**paths) for a in c])
            for c in (*CLI_COMMANDS, HIGH_RANK_COMMAND)
        ]
        wants = [run_cli(sys.executable, cmd) for _, cmd in commands]
        for python in args.python:
            jobs = [(w, replay, (python, w)) for w in WORKLOADS]
            jobs += [
                (f"cli {name}", replay_cli, (python, cmd, want))
                for (name, cmd), want in zip(commands, wants)
            ]
            for what, job, job_args in jobs:
                start = time.perf_counter()
                ok, detail = job(*job_args)
                took = time.perf_counter() - start
                results.append(ok)
                print(f"{'ok' if ok else 'FAIL'} {python} {what} {took:.1f}s: {detail}")
    failures = results.count(False)
    print(f"{failures} of {len(results)} runs failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
