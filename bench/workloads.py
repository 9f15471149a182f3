"""Seeded operation lists for the four benchmark workloads.

A workload is a fixed composition of operations: which public function,
on which kind of instance, at which size.  The seed chooses everything
else (residue classes, random-matroid seeds, bases, collections, CLI
arguments) and the order of the list, so two seeds exercise the same
code paths at the same sizes with different inputs.  Every random choice
comes from a `random.Random` seeded with `stable_seed`, a crc32 of
labels, so the lists do not depend on PYTHONHASHSEED.

An Op's `run(call)` makes its calls into sparsepaving through
`call(span_name, fn, *args)`, which the runner either passes straight
through or records as a span.  `check`, `render` and `counts` run
outside the timed interval: `check` is the benchmark's own certificate
(see certify.py), `render` the canonical text whose digest is frozen in
reference.json, `counts` the exact per-layer work counts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import subprocess
import sys
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import certify as cf
from certify import Spm, mask, members

NAMES = ("walks", "oracle", "construct", "cli")


def stable_seed(*parts) -> int:
    return zlib.crc32("/".join(str(p) for p in parts).encode())


def _no_counts(out) -> dict:
    return {}


@dataclass
class Op:
    kind: str
    spec: str
    run: Callable
    check: Callable
    render: Callable
    counts: Callable = _no_counts


@dataclass
class Workload:
    name: str
    ops: list[Op]
    tail_pct: float
    passes: int  # the timings come from this many passes, whatever the run's length
    warmup: list[Op]
    baselines: list = field(default_factory=list)


# -- input generation on the benchmark's own copy of the matroid ----------------


def rand_basis(M: Spm, rng: random.Random) -> int:
    for _ in range(10_000):
        s = mask(rng.sample(range(M.n), M.r))
        if M.is_basis(s):
            return s
    raise RuntimeError("no basis found by sampling")


def disjoint_pair(M: Spm, rng: random.Random) -> tuple[int, int]:
    for _ in range(10_000):
        b1 = rand_basis(M, rng)
        b2 = mask(rng.sample(members(M.ground & ~b1), M.r))
        if M.is_basis(b2):
            return b1, b2
    raise RuntimeError("no disjoint basis pair found by sampling")


def scramble(M: Spm, rng: random.Random, col: list[int], steps: int) -> list[int]:
    """Random legal symmetric exchanges: a target with the same multiset union."""
    col = list(col)
    for _ in range(steps):
        i, j = rng.randrange(len(col)), rng.randrange(len(col))
        if i == j:
            continue
        xs, ys = members(col[i] & ~col[j]), members(col[j] & ~col[i])
        rng.shuffle(xs)
        rng.shuffle(ys)
        for x in xs:
            hit = next(
                (
                    y
                    for y in ys
                    if M.is_basis((col[i] ^ (1 << x)) | (1 << y))
                    and M.is_basis((col[j] ^ (1 << y)) | (1 << x))
                ),
                None,
            )
            if hit is not None:
                col[i] = (col[i] ^ (1 << x)) | (1 << hit)
                col[j] = (col[j] ^ (1 << hit)) | (1 << x)
                break
    return col


def _hexes(xs) -> str:
    return ",".join(f"{x:x}" for x in xs)


def _render_seq(out) -> str:
    return "none" if out is None else " ".join(map(str, out))


def _render_moves(out) -> str:
    return ";".join(f"{i} {j} {x} {y}" for i, j, x, y in out)


def _render_matroid(m) -> str:
    return f"{m.n} {m.r} {_hexes(m.chset)}"


def _gs(sp, rng: random.Random, n: int, r: int):
    c = rng.randrange(n)
    m = sp.graham_sloane(n, r, c)
    return f"gs{n}_{r}c{c}", m, Spm.of(m)


def _rnd(sp, rng: random.Random, n: int, r: int, target):
    s = rng.randrange(1 << 30)
    m = sp.random_sparse_paving(n, r, seed=s, max_sets=target)
    return f"rnd{n}_{r}s{s}", m, Spm.of(m)


def _tight(sp, rng: random.Random, n: int, rank_one: bool):
    """Nonempty family too dense for any cyclic order: rank 1 or rank n - 1."""
    r = 1 if rank_one else n - 1
    h = mask(rng.sample(range(n), r))
    m = sp.SparsePavingMatroid(n, r, [h])
    return f"tight{n}_{r}h{h:x}", m, Spm.of(m)


# -- walks: constructive algorithms, no enumeration ---------------------------------


def _walk_ops(sp, rng, pool, heavy):
    ops = []

    def cyclic(inst, s):
        name, m, M = inst
        return Op(
            "find_cyclic_order",
            f"{name} seed={s}",
            lambda call: call("cyclic.find_cyclic_order", sp.find_cyclic_order, m, seed=s),
            lambda out: cf.check_cyclic_order(M, out),
            _render_seq,
        )

    def gabow(inst):
        name, m, M = inst
        b1, b2 = disjoint_pair(M, rng)
        return Op(
            "gabow_cycle_any",
            f"{name} {b1:x} {b2:x}",
            lambda call: call("cyclic.gabow_cycle_any", sp.gabow_cycle_any, m, b1, b2),
            lambda out: cf.check_block_cycle(M, b1, b2, out),
            _render_seq,
        )

    def bpg(inst):
        name, m, M = inst
        ends = []
        for _ in range(2):
            a1, a2 = disjoint_pair(M, rng)
            ends.append((a1, a2, M.ground & ~(a1 | a2)))
        u, v = (sp.bpg_vertex(m, *e) for e in ends)
        return Op(
            "bpg_path",
            f"{name} {_hexes(ends[0])} {_hexes(ends[1])}",
            lambda call: call("exchange.bpg_path", sp.bpg_path, m, u, v),
            lambda out: cf.check_bpg_walk(M, ends[0], ends[1], [(w.a1, w.a2, w.a3) for w in out]),
            lambda out: ";".join(f"{w.a1:x},{w.a2:x},{w.a3:x}" for w in out),
            lambda out: {"exchange.bpg_path.steps": len(out) - 1},
        )

    def walk(inst, k, ordered):
        name, m, M = inst
        src = [rand_basis(M, rng) for _ in range(k)]
        dst = scramble(M, rng, src, 4 * k)
        fn, key = (sp.white2_path, "white2_path") if ordered else (sp.white_moves, "white_moves")

        def count(out):
            if ordered:
                return {"exchange.white2_path.moves": len(out)}
            return {
                "exchange.white_moves.moves": len(out),
                "exchange.white_moves.bound_ratio_max": len(out) / (4 * k * M.r),
            }

        return Op(
            key,
            f"{name} k={k} {_hexes(src)} {_hexes(dst)}",
            lambda call: call(f"exchange.{key}", fn, m, src, dst),
            lambda out: cf.check_moves(M, src, dst, out, ordered),
            _render_moves,
            count,
        )

    walk_pool = [p for p in pool if not p[0].startswith("tight")]
    for i in range(96):
        ops.append(cyclic(pool[i % len(pool)], rng.randrange(1000)))
    for i in range(48):
        ops.append(gabow(walk_pool[i % len(walk_pool)]))
        ops.append(bpg(walk_pool[(i + 5) % len(walk_pool)]))
    for i, k in enumerate([2] * 16 + [4] * 14 + [8] * 10 + [16] * 8):
        ops.append(walk(walk_pool[(i + 3) % len(walk_pool)], k, True))
    for i, k in enumerate([2] * 24 + [4] * 18 + [8] * 12 + [16] * 8 + [32] * 6):
        ops.append(walk(walk_pool[(i + 7) % len(walk_pool)], k, False))
    for k, inst in heavy:
        ops.append(walk(inst, k, False))
    return ops


def build_walks(sp, seed: int) -> Workload:
    rng = random.Random(stable_seed("walks", seed))
    grid = ((10, 4), (12, 5), (14, 7), (16, 8), (18, 9), (20, 6), (22, 8), (24, 5))
    gs = {nr: _gs(sp, rng, *nr) for nr in grid}
    pool = list(gs.values())
    pool += [_rnd(sp, rng, n, r, t) for n, r, t in ((12, 6, 40), (15, 7, 60), (18, 6, 200))]
    pool += [_tight(sp, rng, n, n % 2 == 0) for n in (5, 8, 9, 12)]
    # k >= 64 sets the tail: on gs22_8 a k = 64 walk takes tens of ms, k = 128
    # about a fifth of a second, k = 256 on gs12_5 about 0.4 s
    heavy = [(64, gs[22, 8])] * 4 + [(128, gs[22, 8]), (256, gs[12, 5])]
    ops = _walk_ops(sp, rng, pool, heavy)
    return _finish("walks", rng, ops, tail_pct=99.0, passes=12)


# -- oracle: exhaustive enumeration and BFS ------------------------------------------


def build_oracle(sp, seed: int) -> Workload:
    rng = random.Random(stable_seed("oracle", seed))
    ops = []

    def connected(inst):
        name, m, M = inst
        return Op(
            "graph_connected.bpg",
            name,
            lambda call: call("exchange.graph_connected.bpg", sp.graph_connected, m, "bpg"),
            lambda out: None
            if out == (True, cf.count_pair_vertices(M))
            else "pair graph reported disconnected or miscounted",
            lambda out: f"{out[0]} {out[1]}",
            lambda out: {"exchange.graph_connected.bpg.vertices": out[1]},
        )

    def collections(inst, k, distinct):
        # the graph size swings by orders of magnitude with how many
        # distinct elements the union has, so that number is fixed
        name, m, M = inst
        for _ in range(10_000):
            col = [rand_basis(M, rng) for _ in range(k)]
            union = Counter(e for b in col for e in members(b))
            if len(union) == distinct:
                break
        else:
            raise RuntimeError(f"no {k} bases of {name} cover {distinct} elements")
        s = sp.Multiset(sorted(union.items()))
        out_ops = []
        for kind in ("white_multiset", "white_tuple"):
            span = f"exchange.graph_connected.{kind}"
            ordered = kind == "white_tuple"
            out_ops.append(
                Op(
                    f"graph_connected.{kind}",
                    f"{name} {_hexes(col)}",
                    lambda call, span=span, kind=kind: call(span, sp.graph_connected, m, kind, s=s),
                    lambda out, ordered=ordered: None
                    if out == (True, cf.count_collections(M, dict(union), ordered))
                    else "collection graph reported disconnected or miscounted",
                    lambda out: f"{out[0]} {out[1]}",
                    lambda out, span=span: {f"{span}.vertices": out[1]},
                )
            )
        return out_ops

    def brute(inst):
        name, m, M = inst
        return Op(
            "brute_force_order",
            name,
            lambda call: call("cyclic.brute_force_order", sp.brute_force_order, m),
            lambda out: cf.check_cyclic_order(M, out),
            _render_seq,
        )

    def flats(name, m, M):
        return Op(
            "cyclic_flats_of",
            name,
            lambda call: call("flats.cyclic_flats_of", sp.cyclic_flats_of, m),
            lambda out: None if sorted(out) == cf.cyclic_flats(M) else "cyclic flats differ from the definition",
            _hexes,
        )

    # cheapest first inside each kind, so warm-up can take the first of each.
    # Sorted by cost a pass runs three pair graphs of 10k-14k vertices (a
    # third of a second each), then ten of 2.3k-2.6k vertices (tens of ms)
    # where the p90 tail falls; every other operation stays below that
    # group.  gs14_6 (72k vertices) is left out: it alone took half of a
    # pass, and the passes must fit the run.
    for n, r in ((10, 4), (11, 5)) * 5 + ((12, 5), (13, 6)):
        ops.append(connected(_gs(sp, rng, n, r)))
    ops.append(connected(_rnd(sp, rng, 13, 6, 24)))
    shapes = [(8, 3, 2, 5), (8, 4, 2, 6), (9, 4, 2, 6), (10, 4, 2, 7)] * 4
    shapes += [(8, 3, 3, 6)] * 4 + [(9, 4, 3, 7)] * 4
    for n, r, k, distinct in shapes:
        ops += collections(_gs(sp, rng, n, r), k, distinct)
    for n, r in [(6, 2), (7, 3), (8, 3), (8, 4), (9, 3), (9, 4)] * 3:
        ops.append(brute(_gs(sp, rng, n, r) if rng.random() < 0.5 else _rnd(sp, rng, n, r, None)))
    for n in (7, 7, 7, 8, 8, 8):  # no witness: all (n-1)! cycles are scanned
        ops.append(brute(_tight(sp, rng, n, rng.random() < 0.5)))
    for n, r in ((7, 3), (7, 3), (8, 4), (8, 4), (8, 3), (9, 4), (9, 4), (9, 3)):
        name, m, M = _gs(sp, rng, n, r)
        ops.append(flats("explicit-" + name, sp.to_explicit(m), M))
    for n in (12, 12, 13, 13, 14, 14, 12, 12):
        name, m, M = _tight(sp, rng, n, n % 2 == 0)
        ops.append(flats(name, m, M))
    return _finish("oracle", rng, ops, tail_pct=90.0, passes=6)


# -- construct: building, validating, converting and storing matroids ------------------


def build_construct(sp, seed: int) -> Workload:
    rng = random.Random(stable_seed("construct", seed))
    ops = []

    def gs_op(n, r):
        c = rng.randrange(n)

        def run(call):
            m = call("construct.graham_sloane", sp.graham_sloane, n, r, c)
            call("core.validate", sp.validate, m)
            return m

        return Op(
            "graham_sloane",
            f"{n} {r} {c}",
            run,
            lambda out: cf.check_residue_class(Spm.of(out), c),
            _render_matroid,
            lambda out: {
                "construct.graham_sloane.sets": len(out.chset),
                "core.validate.sets": len(out.chset),
            },
        )

    def rnd_op(n, r):
        s = rng.randrange(1 << 30)
        return Op(
            "random_sparse_paving",
            f"{n} {r} {s}",
            lambda call: call("construct.random_sparse_paving", sp.random_sparse_paving, n, r, s),
            lambda out: cf.family_problem(Spm.of(out)) if (out.n, out.r) == (n, r) else "wrong size",
            _render_matroid,
        )

    def roundtrip(inst):
        name, m, M = inst

        def run(call):
            text = call("fileio.serialize_matroid", sp.serialize_matroid, m)
            return text, call("fileio.parse_matroid", sp.parse_matroid, text)

        def check(out):
            text, back = out
            if text != cf.serialize(M):
                return "serialized text is not the canonical form"
            same = (back.n, back.r, frozenset(back.chset)) == (M.n, M.r, M.chset)
            return None if same else "parse did not invert serialize"

        def count(out):
            size = len(out[0].encode())
            return {"fileio.serialize_matroid.bytes": size, "fileio.parse_matroid.bytes": size}

        return Op("roundtrip", name, run, check, lambda out: out[0], count)

    def dual_op(inst):
        name, m, M = inst
        want = (M.n, M.n - M.r, frozenset(M.ground ^ h for h in M.chset))
        return Op(
            "dual",
            name,
            lambda call: call("core.dual", sp.dual, m),
            lambda out: None if (out.n, out.r, frozenset(out.chset)) == want else "dual differs",
            _render_matroid,
        )

    def minor_op(inst, kind):
        name, m, M = inst
        e = rng.randrange(M.n)
        rest = [x for x in range(M.n) if x != e]
        samples = [mask(rng.sample(rest, rng.randint(max(M.r - 2, 0), min(M.r + 1, M.n - 1)))) for _ in range(48)]
        return Op(
            "minor",
            f"{name} {kind} {e}",
            lambda call: call("core.minor", sp.minor, m, kind, e),
            lambda out: cf.check_minor(M, kind, e, Spm.of(out[0]), samples),
            lambda out: _render_matroid(out[0]) + " " + _render_seq(out[1]),
        )

    def relax_op(inst):
        name, m, M = inst
        h = sorted(M.chset)[rng.randrange(len(M.chset))]
        want = M.chset - {h}
        return Op(
            "relax",
            f"{name} {h:x}",
            lambda call: call("core.relax", sp.relax, m, h),
            lambda out: None if frozenset(out.chset) == want and out.r == M.r else "relax differs",
            _render_matroid,
        )

    def census_op(n):
        return Op(
            "zn_census",
            str(n),
            lambda call: call("flats.zn_census", sp.zn_census, n),
            lambda out: cf.check_census(n, out),
            lambda out: f"{out.lower_bound} {out.best_rank} {out.best_class} {out.entries}",
        )

    def bounds_op(n, r):
        return Op(
            "bounds",
            f"{n} {r}",
            lambda call: call("flats.bounds", sp.bounds, n, r),
            lambda out: cf.check_bounds(n, r, out),
            lambda out: f"{out.zn_upper} {out.zn_lower_int} {out.zn_lower_decimal} {out.ch_upper}",
        )

    pool = [_gs(sp, rng, n, r) for n, r in ((16, 8), (18, 9), (20, 6), (21, 7))]
    pool += [_rnd(sp, rng, n, r, None) for n, r in ((14, 7), (16, 8))]
    for n in range(4, 25):
        ops.append(bounds_op(n, rng.choice([None, rng.randint(0, n)])))
    for n in range(4, 25):
        ops.append(census_op(n))
    for i in range(4):
        ops.append(dual_op(pool[i % len(pool)]))
        ops.append(relax_op(pool[(i + 1) % len(pool)]))
        ops.append(minor_op(pool[(i + 2) % len(pool)], "delete" if i % 2 else "contract"))
        ops.append(minor_op(pool[(i + 3) % len(pool)], "contract" if i % 2 else "delete"))
    for n, r in ((14, 7), (15, 7), (16, 6), (18, 5)):
        ops.append(rnd_op(n, r))
    for inst in pool[-2:] + pool[:4]:
        ops.append(roundtrip(inst))
    for n, r in ((18, 5), (14, 7), (15, 7), (16, 8), (17, 8), (20, 6), (18, 9)):
        ops.append(gs_op(n, r))
    # eight n = 22 residue classes of equal cost (170k subsets each) are the
    # slowest operations; every other one stays below them, so the p95 tail
    # falls inside this group
    for _ in range(8):
        ops.append(gs_op(22, 7))
    return _finish("construct", rng, ops, tail_pct=95.0, passes=14)


# -- cli: spm commands through the CLI's entry point ---------------------------------------


CLI_SUBCOMMANDS = (
    "bounds", "census", "validate", "gen_gs", "order_cyclic",
    "order_pair", "conj_farber", "conj_white", "flats",
)


def _format_set(s: int) -> str:
    return ",".join(map(str, members(s))) if s else "-"


def python_process(root: Path, argv: list[str]) -> None:
    """A whole interpreter run with the checkout's src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, timeout=120, check=True)


def run_cli(cli, args: list[str]) -> tuple[int, str]:
    """`spm args` in this process: the exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue()


def build_cli(sp, seed: int, root: Path, workdir: Path) -> Workload:
    rng = random.Random(stable_seed("cli", seed))
    cli = importlib.import_module(sp.__name__ + ".cli")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []

    def write(label: str, text: str) -> str:
        path = workdir / f"{label}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def cli_op(sub, args, code, expect, certify=lambda: None):
        """expect() is the stdout built from the package's functions for the same input."""

        def check(out):
            got_code, got = out
            if got_code != code:
                return f"exit code {got_code}, expected {code}"
            if got != expect():
                return "stdout differs from the package's result"
            return certify()

        return Op(
            f"cli.{sub}",
            " ".join(args).replace(str(workdir), "$WORKDIR"),
            lambda call: call(f"cli.{sub}", run_cli, cli, args),
            check,
            lambda out: f"{out[0]}\n{out[1]}",
        )

    def lines(*rows) -> str:
        return "".join(" ".join(map(str, row)) + "\n" for row in rows)

    def bounds_text(n, r):
        b = sp.bounds(n, r)
        rows = [("zn_upper", b.zn_upper), ("zn_lower_int", b.zn_lower_int)]
        rows.append(("zn_lower", b.zn_lower_radical, "=", b.zn_lower_decimal))
        if b.ch_upper is not None:
            rows.append(("ch_upper", b.ch_upper))
        return lines(*rows)

    def census_text(n):
        rep = sp.zn_census(n)
        rows = [("lower_bound", rep.lower_bound), ("best_rank", rep.best_rank)]
        rows += [("best_class", rep.best_class), ("zn_upper", rep.limits.zn_upper)]
        rows += [("zn_lower_int", rep.limits.zn_lower_int), ("gap", rep.gap_to_upper)]
        rows += [("rank", r, "class", c, "flats", k) for r, c, k in rep.entries]
        return lines(*rows)

    files = []
    for label, (name, m, M) in (
        ("gs", _gs(sp, rng, 14, 6)),
        ("rnd", _rnd(sp, rng, 12, 5, None)),
    ):
        path = write(label, sp.serialize_matroid(m))
        files.append((path, m, M))

    for n in (rng.randint(10, 40), rng.randint(10, 40)):
        r = rng.choice([None, rng.randint(2, n - 2)])
        args = ["bounds", "--n", str(n)] + ([] if r is None else ["--r", str(r)])
        ops.append(
            cli_op(
                "bounds",
                args,
                0,
                lambda n=n, r=r: bounds_text(n, r),
                lambda n=n, r=r: cf.check_bounds(n, r, sp.bounds(n, r)),
            )
        )
    for n in (rng.randint(12, 24), rng.randint(12, 24)):
        ops.append(
            cli_op(
                "census",
                ["census", "--n", str(n)],
                0,
                lambda n=n: census_text(n),
                lambda n=n: cf.check_census(n, sp.zn_census(n)),
            )
        )
    # four of the same size, the slowest commands after the WITNESS case:
    # they put the p90 tail inside one group of equal-cost commands
    for n, r in ((18, 8),) * 4:
        c = rng.randrange(n)

        def gen_text(n=n, r=r, c=c):
            return sp.serialize_matroid(sp.graham_sloane(n, r, c))

        def gen_cert(n=n, r=r, c=c):
            return cf.check_residue_class(Spm.of(sp.graham_sloane(n, r, c)), c)

        args = ["gen", "gs", "--n", str(n), "--r", str(r), "--class", str(c)]
        ops.append(cli_op("gen_gs", args, 0, gen_text, gen_cert))

    for path, m, M in files:
        ops.append(
            cli_op(
                "validate",
                ["validate", path],
                0,
                lambda m=m: f"ok spm n={m.n} r={m.r} dependent={len(m.chset)} bases={m.basis_count}\n",
                lambda M=M: cf.family_problem(M),
            )
        )
        ops.append(
            cli_op(
                "order_cyclic",
                ["order", "cyclic", path],
                0,
                lambda m=m: _render_seq(sp.find_cyclic_order(m)) + "\n",
                lambda m=m, M=M: cf.check_cyclic_order(M, sp.find_cyclic_order(m)),
            )
        )
        b1, b2 = disjoint_pair(M, rng)
        ops.append(
            cli_op(
                "order_pair",
                ["order", "pair", path, "--b1", _format_set(b1), "--b2", _format_set(b2)],
                0,
                lambda m=m, b1=b1, b2=b2: _render_seq(sp.gabow_cycle_any(m, b1, b2)) + "\n",
                lambda m=m, M=M, b1=b1, b2=b2: cf.check_block_cycle(M, b1, b2, sp.gabow_cycle_any(m, b1, b2)),
            )
        )
        ends = [disjoint_pair(M, rng) for _ in range(2)]
        verts = [(a1, a2, M.ground & ~(a1 | a2)) for a1, a2 in ends]

        def farber_path(m=m, verts=verts):
            return sp.bpg_path(m, *(sp.bpg_vertex(m, *v) for v in verts))

        def farber_text(path_fn=farber_path):
            path = path_fn()
            rows = [("path", len(path) - 1, "steps")]
            rows += [("v", "|".join(_format_set(x) for x in (w.a1, w.a2, w.a3))) for w in path]
            return lines(*rows)

        args = ["conj", "farber", path]
        args += ["--from", ";".join(_format_set(x) for x in ends[0])]
        args += ["--to", ";".join(_format_set(x) for x in ends[1])]
        ops.append(
            cli_op(
                "conj_farber",
                args,
                0,
                farber_text,
                lambda M=M, verts=verts, path_fn=farber_path: cf.check_bpg_walk(
                    M, verts[0], verts[1], [(w.a1, w.a2, w.a3) for w in path_fn()]
                ),
            )
        )
        k = rng.randint(4, 8)
        src = [rand_basis(M, rng) for _ in range(k)]
        dst = scramble(M, rng, src, 4 * k)

        def white_text(m=m, src=src, dst=dst):
            moves = sp.white_moves(m, src, dst)
            return lines(("moves", len(moves)), *(("move", *mv) for mv in moves))

        args = ["conj", "white", path, "--k", str(k)]
        args += ["--from", "|".join(map(_format_set, src)), "--to", "|".join(map(_format_set, dst))]
        ops.append(
            cli_op(
                "conj_white",
                args,
                0,
                white_text,
                lambda m=m, M=M, src=src, dst=dst: cf.check_moves(
                    M, src, dst, sp.white_moves(m, src, dst), ordered=False
                ),
            )
        )

        def flats_text(m=m):
            flats = sp.cyclic_flats_of(m)
            rows = [("count", len(flats))] + [("flat", *members(f)) for f in flats]
            rows += [("hist", size, a) for size, a in sp.flat_histogram(flats).items()]
            return lines(*rows)

        ops.append(
            cli_op(
                "flats",
                ["flats", path],
                0,
                flats_text,
                lambda m=m, M=M: None
                if sorted(sp.cyclic_flats_of(m)) == cf.cyclic_flats(M)
                else "cyclic flats differ from the definition",
            )
        )

    # the correct outcome of these three is a nonzero exit; at n = 9 the
    # CLI confirms the refusal by scanning all 8! cycles, the slowest command.
    # Always rank 8: the scan takes half again as long as at rank 1, and a
    # seed that drew the rank moved the whole pass by 7%.
    name, m, M = _tight(sp, rng, 9, False)
    path = write("tight", sp.serialize_matroid(m))
    wit = min(M.chset)
    ops.append(
        cli_op(
            "order_cyclic",
            ["order", "cyclic", path],
            1,
            lambda wit=wit: lines(("not orderable",), ("WITNESS", *members(wit))),
            lambda M=M: None if cf.density_fails(M) else "tight instance passes the density test",
        )
    )
    n = rng.randint(6, 10)
    r = n // 2
    h = rng.sample(range(n), r + 1)
    close = sorted(h[:r]), sorted(h[1:])  # symmetric difference 2
    text = f"spm 1\nn {n}\nr {r}\n" + "".join("ch " + " ".join(map(str, s)) + "\n" for s in sorted(close))
    path = write("close", text)
    ops.append(cli_op("validate", ["validate", path], 2, lambda: ""))
    elems = sorted(rng.sample(range(n), r - 1)) + [n + rng.randint(0, 5)]
    path = write("range", f"spm 1\nn {n}\nr {r}\nch {' '.join(map(str, elems))}\n")
    ops.append(cli_op("validate", ["validate", path], 2, lambda: ""))

    wl = _finish("cli", rng, ops, tail_pct=90.0, passes=20)
    wl.baselines = [
        ("cli.python_bare_ms", lambda: python_process(root, ["-c", "pass"])),
        ("cli.import_with_bare_ms", lambda: python_process(root, ["-c", "import sparsepaving.cli"])),
    ]
    return wl


def _finish(name: str, rng: random.Random, ops: list[Op], tail_pct: float, passes: int) -> Workload:
    seen, warmup = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            warmup.append(op)
    rng.shuffle(ops)
    return Workload(name, ops, tail_pct, passes, warmup)


def build(name: str, sp, seed: int, root: Path, workdir: Path) -> Workload:
    if name == "walks":
        return build_walks(sp, seed)
    if name == "oracle":
        return build_oracle(sp, seed)
    if name == "construct":
        return build_construct(sp, seed)
    if name == "cli":
        return build_cli(sp, seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}")
