"""Command line front end (installed as `spm`).

Every subcommand is deterministic for a fixed argv, input files, and
seed.  A result is re-verified before it is printed, by the checker next
to the algorithm that built it (window bases, block order, density
witness, walk steps, move replay, flat definition, bound ceiling), and
every matroid written is re-read and validated; a failed check exits 3.
Not certified: the `connected` and `oracle connected` lines, printed as
graph_connected returns them; the `census` rows; the completeness of
`flats`, which only a second cyclic_flats_of run confirms; and `avg`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from functools import cache

from .bitset import elements, format_set
from .construct import graham_sloane, random_sparse_paving
from .core import (
    MAX_EXPLICIT_WORK,
    MAX_GROUND,
    MAX_VERTICES,
    ExplicitMatroid,
    SparsePavingMatroid,
    dual,
    explicit_minor,
    minor,
    relax,
)
from .cyclic import (
    average_ch_intervals,
    check_block_cycle,
    check_cyclic_order,
    check_density,
    check_density_witness,
    find_cyclic_order,
    gabow_cycle_any,
)
from .errors import (
    InternalCheckError,
    MatroidError,
    ParseError,
    PreconditionViolated,
    TooLarge,
    ValidationError,
)
from .exchange import (
    Multiset,
    bpg_path,
    bpg_vertex,
    check_bpg_walk,
    check_moves,
    graph_connected,
    white2_path,
    white_moves,
)
from .fileio import _int_token, parse_matroid, serialize_matroid
from .flats import (
    bounds,
    check_bounds,
    check_cyclic_flats,
    cyclic_flats_of,
    flat_histogram,
    zn_census,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_set(spec: str) -> int:
    """Comma-separated elements to a mask; '-' or '' is the empty set."""
    spec = spec.strip()
    if spec in ("", "-"):
        return 0
    mask = 0
    for tok in spec.split(","):
        try:  # the file format's integer rule
            e = _int_token(0, tok.strip())
        except ParseError:
            raise PreconditionViolated(f"bad element {tok!r} in set spec {spec!r}") from None
        if not 0 <= e < MAX_GROUND:  # before 1 << e builds a huge int
            raise PreconditionViolated(
                f"element {e} in set spec {spec!r} is outside 0..{MAX_GROUND - 1}"
            )
        if (mask >> e) & 1:
            raise PreconditionViolated(f"repeated element {e} in set spec {spec!r}")
        mask |= 1 << e
    return mask


def _non_negative(text: str) -> int:
    """argparse type for the caps and --target; a ValueError is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _parse_members(spec: str) -> list[int]:
    return [_parse_set(part) for part in spec.split("|")]


def _load(args, explicit_work_cap: float):
    with open(args.file, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"byte {e.start}: not UTF-8 text") from None
    return parse_matroid(text, explicit_work_cap=explicit_work_cap)


def _load_spm(args) -> SparsePavingMatroid:
    # cap 0: the parser's only TooLarge, raised before validating a nonempty 'bases 1' file
    try:
        return _load(args, 0)
    except TooLarge:
        raise PreconditionViolated("this command needs an 'spm 1' file") from None


def _emit(m, args, extra_stdout: str | None = None) -> int:
    text = serialize_matroid(m)
    try:  # no cap: a minor has no more bases than its input, loaded under one
        if parse_matroid(text, explicit_work_cap=float("inf")) != m:
            raise InternalCheckError("serialization did not round-trip")
    except ValidationError as e:
        raise InternalCheckError(f"output does not re-read: {e}") from e
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if extra_stdout:
            print(extra_stdout)
    else:
        if extra_stdout:
            print(f"# {extra_stdout}")
        sys.stdout.write(text)
    return EXIT_OK


# -- subcommand bodies --------------------------------------------------------


def _cmd_gen_gs(args) -> int:
    return _emit(graham_sloane(args.n, args.r, args.residue, cap=args.cap_explicit), args)


def _cmd_gen_random(args) -> int:
    m = random_sparse_paving(
        args.n, args.r, seed=args.seed, max_sets=args.target, cap=args.cap_explicit
    )
    return _emit(m, args)


def _cmd_validate(args) -> int:
    m = _load(args, args.cap_explicit)
    if isinstance(m, SparsePavingMatroid):
        print(f"ok spm n={m.n} r={m.r} dependent={len(m.chset)} bases={m.basis_count}")
    else:
        print(f"ok bases n={m.n} r={m.r} bases={len(m.bases)}")
    return EXIT_OK


def _cmd_dual(args) -> int:
    return _emit(dual(_load_spm(args)), args)


def _cmd_minor(args) -> int:
    m = _load(args, args.cap_explicit)
    if args.delete is not None:
        kind, e = "delete", args.delete
    else:
        kind, e = "contract", args.contract
    if isinstance(m, SparsePavingMatroid):
        out, label_map = minor(m, kind, e)
    else:
        out, label_map = explicit_minor(m, kind, e)
    return _emit(out, args, extra_stdout="labels " + " ".join(str(x) for x in label_map))


def _cmd_relax(args) -> int:
    return _emit(relax(_load_spm(args), _parse_set(args.ch)), args)


def _check_pair_graph_vertex(m, spec: str):
    parts = spec.split(";")
    if len(parts) != 2:
        raise PreconditionViolated(f"vertex spec {spec!r} needs 'A1;A2'")
    a1, a2 = _parse_set(parts[0]), _parse_set(parts[1])
    return bpg_vertex(m, a1, a2, m.ground & ~(a1 | a2))


def _print_oracle(m, kind: str, s: Multiset | None, cap: int, label: str) -> int:
    """Run the exhaustive connectivity oracle and print its verdict line."""
    connected, count = graph_connected(m, kind, s=s, cap=cap)
    if not connected:
        print("WITNESS disconnected", count)
        return EXIT_FAILS
    print(f"{label} {count} vertices")
    return EXIT_OK


def _cmd_conj_farber(args) -> int:
    m = _load_spm(args)
    if (args.src is None) != (args.dst is None):
        raise PreconditionViolated("--from and --to go together")
    if args.src is not None:
        u = _check_pair_graph_vertex(m, args.src)
        v = _check_pair_graph_vertex(m, args.dst)
        path = bpg_path(m, u, v)
        check_bpg_walk(m, path, u, v)
        print(f"path {len(path) - 1} steps")
        for vert in path:
            print(f"v {format_set(vert.a1)}|{format_set(vert.a2)}|{format_set(vert.a3)}")
    if args.oracle or args.src is None:
        return _print_oracle(m, "bpg", None, args.cap_vertices, "connected")
    return EXIT_OK


def _run_collection_walk(args) -> int:
    m = _load_spm(args)
    src = _parse_members(args.src)
    dst = _parse_members(args.dst)
    if len(src) != args.k or len(dst) != args.k:
        raise PreconditionViolated(f"--k {args.k} does not match the member lists")
    moves = (white2_path if args.ordered else white_moves)(m, src, dst)
    check_moves(m, src, dst, moves, args.ordered)
    print(f"moves {len(moves)}")
    for mv in moves:
        print(f"move {mv.i} {mv.j} {mv.x} {mv.y}")
    if args.oracle:
        s = Multiset.from_elements(e for b in src for e in elements(b))
        kind = "white_tuple" if args.ordered else "white_multiset"
        return _print_oracle(m, kind, s, args.cap_vertices, "oracle connected")
    return EXIT_OK


def _cmd_order_cyclic(args) -> int:
    m = _load_spm(args)
    ok, wit = check_density(m)
    if not ok:
        check_density_witness(m, wit)
        print("not orderable")
        print("WITNESS", *elements(wit))
        return EXIT_FAILS
    order = find_cyclic_order(m)
    check_cyclic_order(m, order)
    print(*order)
    return EXIT_OK


def _cmd_order_pair(args) -> int:
    m = _load_spm(args)
    b1, b2 = _parse_set(args.b1), _parse_set(args.b2)
    cyc = gabow_cycle_any(m, b1, b2)
    check_block_cycle(m, cyc, b1, b2)
    print(*cyc)
    return EXIT_OK


def _cmd_flats(args) -> int:
    m = _load(args, args.cap_explicit)
    if isinstance(m, ExplicitMatroid) and len(m.bases) << m.n > args.cap_explicit:
        raise TooLarge(
            f"scanning 2^{m.n} subsets against {len(m.bases)} bases exceeds the work cap"
        )
    flats = cyclic_flats_of(m)
    check_cyclic_flats(m, flats)
    print(f"count {len(flats)}")
    for f in flats:
        print("flat", *elements(f))
    for size, a in flat_histogram(flats).items():
        print("hist", size, a)
    return EXIT_OK


def _cmd_avg(args) -> int:
    print(average_ch_intervals(_load_spm(args)))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    b = bounds(args.n, args.r)
    check_bounds(b)
    print("zn_upper", b.zn_upper)
    if b.zn_lower_int is not None:
        print("zn_lower_int", b.zn_lower_int)
        print("zn_lower", b.zn_lower_radical, "=", b.zn_lower_decimal)
    if b.ch_upper is not None:
        print("ch_upper", b.ch_upper)
    return EXIT_OK


def _cmd_census(args) -> int:
    rep = zn_census(args.n)
    print("lower_bound", rep.lower_bound)
    print("best_rank", rep.best_rank)
    print("best_class", rep.best_class)
    print("zn_upper", rep.limits.zn_upper)
    print("zn_lower_int", rep.limits.zn_lower_int)
    print("gap", rep.gap_to_upper)
    for r, c, k in rep.entries:
        print("rank", r, "class", c, "flats", k)
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


@cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    def parent(*names: str, **kw) -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*names, **kw)
        return p

    def cap(name: str, default: int, what: str) -> argparse.ArgumentParser:
        return parent(name, type=_non_negative, default=default, help=what)

    # each subcommand takes only the caps it reads
    explicit = cap("--cap-explicit", MAX_EXPLICIT_WORK, "explicit-work cap")
    vertices = cap("--cap-vertices", MAX_VERTICES, "graph enumeration cap")
    infile = parent("file")
    output = parent("-o", "--output")
    size = parent("--n", type=int, required=True)
    rank = parent("--r", type=int, required=True)

    top = argparse.ArgumentParser(prog="spm", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    def leaf(group, name: str, fn, parents=(infile,), **kw):
        p = group.add_parser(name, parents=list(parents), **kw)
        p.set_defaults(fn=fn)
        return p

    gen = sub.add_parser("gen").add_subparsers(dest="kind", required=True)
    made = (explicit, output, size, rank)
    g = leaf(gen, "gs", _cmd_gen_gs, made, help="residue-class construction")
    g.add_argument("--class", dest="residue", type=int, default=None)
    g = leaf(gen, "random", _cmd_gen_random, made, help="seeded greedy construction")
    g.add_argument("--target", type=_non_negative, required=True)
    g.add_argument("--seed", type=int, required=True)

    leaf(sub, "validate", _cmd_validate, (explicit, infile))
    leaf(sub, "dual", _cmd_dual, (infile, output))
    p = leaf(sub, "minor", _cmd_minor, (explicit, infile, output))
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--delete", type=int)
    grp.add_argument("--contract", type=int)
    p = leaf(sub, "relax", _cmd_relax, (infile, output))
    p.add_argument("--ch", required=True, help="dependent set to relax, e.g. '0,3'")

    conj = sub.add_parser("conj").add_subparsers(dest="which", required=True)
    walk = (vertices, infile)
    p = leaf(conj, "farber", _cmd_conj_farber, walk, help="basis pair graph connectivity")
    p.add_argument("--from", dest="src", help="vertex 'A1;A2'")
    p.add_argument("--to", dest="dst", help="vertex 'B1;B2'")
    p.add_argument("--oracle", action="store_true")
    for name, ordered in (("white", False), ("white2", True)):
        p = leaf(conj, name, _run_collection_walk, walk, help="basis collection walk")
        p.set_defaults(ordered=ordered)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--from", dest="src", required=True, help="'B1|B2|...'")
        p.add_argument("--to", dest="dst", required=True)
        p.add_argument("--oracle", action="store_true")

    order = sub.add_parser("order").add_subparsers(dest="what", required=True)
    leaf(order, "cyclic", _cmd_order_cyclic, help="witness cyclic order")
    p = leaf(order, "pair", _cmd_order_pair, help="two-block cycle for disjoint bases")
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)

    leaf(sub, "flats", _cmd_flats, (explicit, infile))
    leaf(sub, "avg", _cmd_avg, help="mean dependent-window count, exact")

    p = leaf(sub, "bounds", _cmd_bounds, (size,))
    p.add_argument("--r", type=int, default=None)
    leaf(sub, "census", _cmd_census, (size,))

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    # stdout is held until the command returns, so exit 2 and 3 print nothing there
    held = io.StringIO()
    try:
        with contextlib.redirect_stdout(held):
            code = args.fn(args)
    except (ValidationError, PreconditionViolated, TooLarge, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MatroidError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(held.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
