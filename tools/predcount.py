"""Count basis-predicate builds and calls per operation kind of one workload pass.

Loads src/sparsepaving of a checkout under its own module name, builds
the seeded operation list of one workload through this checkout's
bench/workloads.py, then replaces basis_predicate wherever a module of
the package holds it with a wrapper that counts each build and each call
of the predicate it returns.  Every operation runs once, and the counts
go to the kind of the operation that was running, nested public calls
included.  Prints, per kind, the operations, the builds and the calls,
with the builds and calls per operation.

The counts are exact and do not depend on the host or on
PYTHONHASHSEED: they are the work figures to compare across commits
where timings cannot be.  Standard library only; besides the temporary
directory that the cli workload writes its input files to, it writes
nothing, and it changes nothing under bench/.

Usage: python tools/predcount.py [--workload walks] [--seed 0] [--checkout .]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

from ab import ROOT, load_package, plain_call


def count_pass(sp, ops) -> tuple[Counter, Counter, Counter]:
    """(ops, builds, calls) per kind over one run of every operation."""
    runs, builds, calls = Counter(), Counter(), Counter()
    kind = None
    original = sp.core.basis_predicate

    def counting(m):
        pred, n, r = original(m)
        builds[kind] += 1
        owner = kind

        def counted(s):
            calls[owner] += 1
            return pred(s)

        return counted, n, r

    holders = [
        mod
        for name, mod in sys.modules.items()
        if name.partition(".")[0] == sp.__name__
        and getattr(mod, "basis_predicate", None) is original
    ]
    for mod in holders:
        mod.basis_predicate = counting
    try:
        for op in ops:
            kind = op.kind
            runs[kind] += 1
            op.run(plain_call)
    finally:
        for mod in holders:
            mod.basis_predicate = original
    return runs, builds, calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="walks")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checkout", type=Path, default=ROOT, help="checkout whose src/ is counted")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    checkout = args.checkout.resolve()
    sp = load_package(checkout, "sp_count")
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build(args.workload, sp, args.seed, checkout, Path(tmp))
        runs, builds, calls = count_pass(sp, wl.ops)

    print(f"# {args.workload} seed {args.seed}, one pass")
    print(f"{'kind':<32} {'ops':>4} {'builds':>7} {'per op':>7} {'calls':>8} {'per op':>8}")
    for kind in sorted(runs):
        n, b, c = runs[kind], builds[kind], calls[kind]
        print(f"{kind:<32} {n:>4} {b:>7} {b / n:>7.2f} {c:>8} {c / n:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
