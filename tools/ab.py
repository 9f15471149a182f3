"""Time one benchmark workload under two checkouts in one process.

Loads src/sparsepaving of each checkout under its own module name
(sp_base, sp_head), builds the same seeded operation list for each
through this checkout's bench/workloads.py, and runs every operation
once per side to warm up.  Each round then times every operation on
both sides back to back, alternating which side goes first, and keeps
each operation's fastest time per side.  Prints, per operation kind and
in total, the sums of those minima and the ratio head / base; a ratio
below 1 means the head checkout is faster.  Then it lists the ten
operations with the largest base minimum, each with its index in the
operation list, its kind, its spec (cut to 40 characters), both minima
and their ratio: a kind total can hide that a change moves its large
operations and leaves the ones that set a workload's latency tail.

Both sides of a pair run seconds apart in the same process, so a slow
stretch of a shared host hits both, where whole bench/run.py runs of
one workload can move by a fifth from run to run.  The ratios still
move: five A/A runs of one commit against a second copy of itself read
0.938-1.028 per kind (walks workload, nine rounds each, 2-CPU shared
x86-64 host).  Nor does an A/A pair centre on 1: an interleaved timer
over four copies of one package read one copy 1.8-2.4% slower than
another in every run.  So compare two `git archive` copies, never a
working tree, which read 3-5% high against a copy of the same files;
run each A/A pair both ways, the parent copy once as base and once as
head, alternating with the A/B runs; and read the A/B ratios against
the spread of all those A/A runs.  A per-kind move inside that spread
is unresolved, neither a gain nor a loss.  The figures are minima
over in-process calls, not the benchmark's end-to-end metrics.
The outputs of the two sides are compared by their rendered form
(Op.render) on the warm-up call; any mismatch is printed, and the exit
code is then 1.

Standard library only; besides the temporary directory that the cli
workload writes its input files to, it writes nothing.  An oracle run at
the default seven rounds takes a few seconds on a 2-CPU host.

Usage: python tools/ab.py BASE HEAD [--workload oracle] [--seed 0] [--rounds 7]
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_package(checkout: Path, name: str):
    """checkout/src/sparsepaving imported as the top-level package name."""
    pkg = checkout / "src" / "sparsepaving"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"no package at {pkg}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def plain_call(name, fn, *args, **kw):
    return fn(*args, **kw)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout to compare against")
    ap.add_argument("head", type=Path, help="checkout under test")
    ap.add_argument("--workload", default="oracle")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    sides = [("base", args.base.resolve()), ("head", args.head.resolve())]
    with tempfile.TemporaryDirectory() as tmp:
        ops = {}
        for side, checkout in sides:
            sp = load_package(checkout, f"sp_{side}")
            wl = workloads.build(args.workload, sp, args.seed, checkout, Path(tmp) / side)
            ops[side] = wl.ops
        base_ops, head_ops = ops["base"], ops["head"]
        if [(o.kind, o.spec) for o in base_ops] != [(o.kind, o.spec) for o in head_ops]:
            raise SystemExit("the two checkouts built different operation lists")
        mismatched = 0
        for a, b in zip(base_ops, head_ops):
            if a.render(a.run(plain_call)) != b.render(b.run(plain_call)):
                mismatched += 1
                print(f"output differs: {a.kind} {a.spec}")
        best = {side: [float("inf")] * len(base_ops) for side, _ in sides}
        for rnd in range(args.rounds):
            order = sides if rnd % 2 == 0 else sides[::-1]
            gc.collect()
            for i in range(len(base_ops)):
                for side, _ in order:
                    op = ops[side][i]
                    t0 = time.perf_counter()
                    op.run(plain_call)
                    took = time.perf_counter() - t0
                    if took < best[side][i]:
                        best[side][i] = took

    per_kind = defaultdict(lambda: [0, 0.0, 0.0])
    for i, op in enumerate(base_ops):
        row = per_kind[op.kind]
        row[0] += 1
        row[1] += best["base"][i]
        row[2] += best["head"][i]
    print(f"# {args.workload} seed {args.seed}, {args.rounds} rounds, min per op, ms summed per kind")
    print(f"{'kind':<32} {'ops':>4} {'base':>10} {'head':>10} {'head/base':>9}")
    total = [0, 0.0, 0.0]
    for kind in sorted(per_kind):
        n, b, h = per_kind[kind]
        total = [total[0] + n, total[1] + b, total[2] + h]
        print(f"{kind:<32} {n:>4} {b * 1e3:>10.2f} {h * 1e3:>10.2f} {h / b:>9.3f}")
    n, b, h = total
    print(f"{'total':<32} {n:>4} {b * 1e3:>10.2f} {h * 1e3:>10.2f} {h / b:>9.3f}")

    slowest = sorted(range(len(base_ops)), key=lambda i: best["base"][i], reverse=True)[:10]
    print(f"# the {len(slowest)} slowest operations by base minimum, ms")
    print(f"{'op':>4} {'kind':<24} {'spec':<40} {'base':>8} {'head':>8} {'head/base':>9}")
    for i in slowest:
        op, b, h = base_ops[i], best["base"][i], best["head"][i]
        spec = op.spec if len(op.spec) <= 40 else op.spec[:37] + "..."
        print(f"{i:>4} {op.kind:<24} {spec:<40} {b * 1e3:>8.2f} {h * 1e3:>8.2f} {h / b:>9.3f}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
