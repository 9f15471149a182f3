"""File format and command line behavior.

Commands run in-process through cli.main with captured stdout, which
keeps the suite fast; byte determinism across repeated runs is part of
the contract.  A result that fails its certificate exits with code 3
and prints nothing.
"""

import argparse
import ast
import io
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import sparsepaving
import sparsepaving.cli as cli
from corpusdef import CORPUS, P44, U24
from sparsepaving import (
    BasisPairVertex,
    ExplicitMatroid,
    Move,
    ParseError,
    SparsePavingMatroid,
    TooLarge,
    parse_matroid,
    serialize_matroid,
    to_explicit,
    uniform,
)
from sparsepaving.cli import main

P44_TEXT = "spm 1\nn 4\nr 2\nch 1 2\nch 0 3\n"
P44_BASES_TEXT = "bases 1\nn 4\nr 2\nb 0 1\nb 0 2\nb 1 3\nb 2 3\n"


def run_cli(*argv):
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = main(list(argv))
        out = sys.stdout.getvalue()
    finally:
        sys.stdout = old
    return code, out


# -- parsing and serialization ---------------------------------------------------


def test_serialize_frozen():
    assert serialize_matroid(P44) == P44_TEXT
    assert serialize_matroid(U24) == "spm 1\nn 4\nr 2\n"
    assert (
        serialize_matroid(ExplicitMatroid(3, 2, [{1, 2}, {0, 1}]))
        == "bases 1\nn 3\nr 2\nb 0 1\nb 1 2\n"
    )


def test_parse_frozen():
    assert parse_matroid(P44_TEXT) == P44
    em = parse_matroid("bases 1\nn 3\nr 2\nb 0 1\nb 1 2\n")
    assert isinstance(em, ExplicitMatroid)
    assert em.bases == {0b011, 0b110}


def test_parse_skips_blanks_and_comments():
    text = "# header comment\n\nspm 1\n n 4\nr 2\n\n# body\nch 0 3\n"
    assert parse_matroid(text) == SparsePavingMatroid(4, 2, [{0, 3}])


@pytest.mark.parametrize(
    "bad",
    [
        "spm 2\nn 4\nr 2\n",
        "matroid 1\nn 4\nr 2\n",
        "spm 1\nr 2\nn 4\n",
        "spm 1\nn 4\nr 2\nch 0\n",
        "spm 1\nn 4\nr 2\nch 3 0\n",
        "spm 1\nn 4\nr 2\nch 0 0\n",
        "spm 1\nn 4\nr 2\nch 0 4\n",
        "spm 1\nn 4\nr 2\nb 0 3\n",
        "spm 1\nn x\nr 2\n",
        "",
        "spm 1\nn +4\nr 2\n",
        "spm 1\nn 4\nr -0\n",
        "spm 1\nn 1_0\nr 2\n",
        "spm 1\nn 4\nr 2\nch 0 \u0663\n",
        "spm 1\nn 10000000\nr 2\n",
        "spm 1\nn 4\nr 2\nch 0 1" + "0" * 5000 + "\n",
    ],
    ids=[
        "version",
        "tag",
        "order",
        "arity",
        "decreasing",
        "repeat",
        "range",
        "wrong-body",
        "non-int",
        "empty",
        "plus-sign",
        "minus-zero",
        "underscore",
        "non-ascii-digit",
        "huge-ground",
        "digit-limit",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_matroid(bad)


def test_parse_validates_semantics():
    from sparsepaving import DistanceViolation, ExchangeViolation

    with pytest.raises(DistanceViolation):
        parse_matroid("spm 1\nn 4\nr 2\nch 0 1\nch 0 2\n")
    with pytest.raises(ExchangeViolation):
        parse_matroid("bases 1\nn 4\nr 2\nb 0 1\nb 2 3\n")


def test_parse_explicit_work_cap():
    body = "".join(f"b {i} {i + 1}\n" for i in range(0, 8, 2))
    with pytest.raises(TooLarge):
        parse_matroid("bases 1\nn 9\nr 2\n" + body, explicit_work_cap=3)


@pytest.mark.parametrize("name,m", CORPUS, ids=[n for n, _ in CORPUS])
def test_round_trip_identity(name, m):
    assert parse_matroid(serialize_matroid(m)) == m
    if m.n <= 9:
        em = to_explicit(m)
        got = parse_matroid(serialize_matroid(em))
        assert got == em


# -- generation commands ------------------------------------------------------------


def test_cli_gen_gs_frozen():
    code, out = run_cli("gen", "gs", "--n", "4", "--r", "2", "--class", "3")
    assert code == 0
    assert out == P44_TEXT


def test_cli_gen_gs_defaults_to_best_class():
    code, out = run_cli("gen", "gs", "--n", "4", "--r", "2")
    assert code == 0
    assert out == "spm 1\nn 4\nr 2\nch 0 1\nch 2 3\n"  # class 1


def test_cli_gen_random_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "random", "--n", "9", "--r", "4", "--target", "9", "--seed", "3"]
    assert run_cli(*args, "-o", str(f1))[0] == 0
    assert run_cli(*args, "-o", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()
    m = parse_matroid(f1.read_text())
    assert (m.n, m.r) == (9, 4) and len(m.chset) <= 9


def test_cli_validate_output(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text(P44_TEXT)
    code, out = run_cli("validate", str(f))
    assert code == 0
    assert out == "ok spm n=4 r=2 dependent=2 bases=4\n"

    f.write_text(serialize_matroid(to_explicit(P44)))
    code, out = run_cli("validate", str(f))
    assert code == 0
    assert out == "ok bases n=4 r=2 bases=4\n"


# -- structural commands -------------------------------------------------------------


@pytest.fixture
def p44_file(tmp_path):
    f = tmp_path / "p44.txt"
    f.write_text(P44_TEXT)
    return str(f)


def test_cli_dual_relax_minor(p44_file, tmp_path):
    code, out = run_cli("dual", p44_file)
    assert (code, out) == (0, P44_TEXT)

    code, out = run_cli("relax", p44_file, "--ch", "1,2")
    assert code == 0
    assert out == "spm 1\nn 4\nr 2\nch 0 3\n"

    code, out = run_cli("minor", p44_file, "--delete", "3")
    assert code == 0
    assert out == "# labels 0 1 2\nspm 1\nn 3\nr 2\nch 1 2\n"
    # stdout form reparses to the same minor
    assert parse_matroid(out) == SparsePavingMatroid(3, 2, [{1, 2}])

    outfile = tmp_path / "m.txt"
    code, out = run_cli("minor", p44_file, "--contract", "0", "-o", str(outfile))
    assert code == 0
    assert out == "labels 1 2 3\n"
    assert outfile.read_text() == "spm 1\nn 3\nr 1\nch 2\n"

    # explicit minors go through the same round trip
    assert serialize_matroid(to_explicit(P44)) == P44_BASES_TEXT
    f = tmp_path / "p44b.txt"
    f.write_text(P44_BASES_TEXT)
    code, out = run_cli("minor", str(f), "--delete", "3")
    assert (code, out) == (0, "# labels 0 1 2\nbases 1\nn 3\nr 2\nb 0 1\nb 0 2\n")
    code, out = run_cli("minor", str(f), "--contract", "0")
    assert (code, out) == (0, "# labels 1 2 3\nbases 1\nn 3\nr 1\nb 0\nb 1\n")


def test_cli_order_cyclic(p44_file, tmp_path):
    code, out = run_cli("order", "cyclic", p44_file)
    assert (code, out) == (0, "0 1 3 2\n")

    bad = tmp_path / "bad.txt"
    bad.write_text("spm 1\nn 3\nr 2\nch 0 1\n")
    code, out = run_cli("order", "cyclic", str(bad))
    assert code == 1
    assert out == "not orderable\nWITNESS 0 1\n"


def test_cli_order_pair(p44_file):
    code, out = run_cli("order", "pair", p44_file, "--b1", "0,1", "--b2", "2,3")
    assert (code, out) == (0, "0 1 3 2\n")
    code, _ = run_cli("order", "pair", p44_file, "--b1", "0,3", "--b2", "1,2")
    assert code == 2  # dependent sets are not bases


def test_cli_conj_commands(p44_file):
    code, out = run_cli("conj", "farber", p44_file)
    assert (code, out) == (0, "connected 4 vertices\n")

    code, out = run_cli(
        "conj", "farber", p44_file, "--from", "0,1;2,3", "--to", "0,2;1,3"
    )
    assert code == 0
    assert out.splitlines()[0] == "path 1 steps"
    assert out.splitlines()[1] == "v 0,1|2,3|-"

    code, out = run_cli(
        "conj", "white", p44_file,
        "--k", "2", "--from", "0,1|2,3", "--to", "0,2|1,3", "--oracle",
    )
    assert code == 0
    assert out == "moves 1\nmove 0 1 1 2\noracle connected 2 vertices\n"

    code, out = run_cli(
        "conj", "white2", p44_file,
        "--k", "2", "--from", "0,1|2,3", "--to", "2,3|0,1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("moves ") and int(lines[0].split()[1]) > 0

    code, _ = run_cli(
        "conj", "white", p44_file, "--k", "3", "--from", "0,1|2,3", "--to", "0,2|1,3"
    )
    assert code == 2


def test_cli_disconnected_oracle_exits_1(monkeypatch, p44_file):
    monkeypatch.setattr(cli, "graph_connected", lambda *args, **kw: (False, 7))
    assert run_cli("conj", "farber", p44_file) == (1, "WITNESS disconnected 7\n")
    code, out = run_cli(
        "conj", "white", p44_file,
        "--k", "2", "--from", "0,1|2,3", "--to", "0,2|1,3", "--oracle",
    )
    assert (code, out) == (1, "moves 1\nmove 0 1 1 2\nWITNESS disconnected 7\n")


def test_cli_conj_farber_path_frozen(tmp_path):
    f = str(tmp_path / "gs10_4.txt")
    assert run_cli("gen", "gs", "--n", "10", "--r", "4", "-o", f)[0] == 0
    code, out = run_cli(
        "conj", "farber", f, "--from", "0,1,2,3;4,5,6,7", "--to", "5,7,8,9;0,1,2,4"
    )
    assert code == 0
    assert out == (
        "path 5 steps\n"
        "v 0,1,2,3|4,5,6,7|8,9\n"
        "v 0,1,2,8|4,5,6,7|3,9\n"
        "v 0,1,2,8|4,5,7,9|3,6\n"
        "v 1,2,7,8|0,4,5,9|3,6\n"
        "v 2,5,7,8|0,1,4,9|3,6\n"
        "v 5,7,8,9|0,1,2,4|3,6\n"
    )


def test_cli_flats_avg_bounds(p44_file):
    code, out = run_cli("flats", p44_file)
    assert code == 0
    assert out == (
        "count 4\nflat\nflat 1 2\nflat 0 3\nflat 0 1 2 3\n"
        "hist 0 1\nhist 2 2\nhist 4 1\n"
    )

    code, out = run_cli("avg", p44_file)
    assert (code, out) == (0, "4/3\n")

    code, out = run_cli("bounds", "--n", "4", "--r", "2")
    assert code == 0
    assert out == (
        "zn_upper 16/3\nzn_lower_int 3\nzn_lower 2^3/4^(3/2) + 2 = 3\nch_upper 2\n"
    )


def test_cli_census_jobs_invariant():
    code1, out1 = run_cli("census", "--n", "8")
    code2, out2 = run_cli("census", "--n", "8")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "lower_bound 12"


def test_cli_exit_codes(tmp_path):
    assert run_cli("validate", str(tmp_path / "missing.txt"))[0] == 2
    junk = tmp_path / "junk.txt"
    junk.write_text("bogus 9\n")
    assert run_cli("validate", str(junk))[0] == 2
    assert main(["gen", "gs", "--n", "4"]) == 2  # argparse usage error
    assert main(["nope"]) == 2
    f = tmp_path / "p.txt"
    f.write_text(P44_TEXT)
    assert run_cli("relax", str(f), "--ch", "0,1")[0] == 2
    assert run_cli("conj", "farber", str(f), "--from", "0,1;2,3") == (2, "")  # no --to
    # explicit file where a sparse-paving command is required
    e = tmp_path / "e.txt"
    e.write_text(serialize_matroid(to_explicit(P44)))
    assert run_cli("order", "cyclic", str(e))[0] == 2


@pytest.mark.parametrize("cap", ["--cap-vertices", "--cap-explicit"])
def test_cli_caps_are_non_negative(p44_file, capsys, cap):
    assert main(["conj", "farber", p44_file, cap, "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "non-negative" in err
    run_cli("conj", "farber", p44_file, cap, "0")
    assert "usage:" not in capsys.readouterr().err


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def test_cli_each_subcommand_takes_only_the_caps_it_reads(p44_file):
    explicit, walk = {"--cap-explicit"}, {"--cap-explicit", "--cap-vertices"}
    want = {
        "gen gs": explicit,
        "gen random": explicit,
        "validate": explicit,
        "dual": explicit,
        "minor": explicit,
        "relax": explicit,
        "conj farber": walk,
        "conj white": walk,
        "conj white2": walk,
        "order cyclic": explicit,
        "order pair": explicit,
        "flats": explicit,
        "avg": explicit,
        "bounds": set(),
        "census": set(),
    }
    got = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--cap-")}
        for name, p in _leaf_parsers(cli._build_parser())
    }
    assert got == want
    assert sum(map(len, got.values())) == 16
    assert main(["order", "cyclic", p44_file, "--cap-order", "9"]) == 2
    assert main(["bounds", "--n", "8", "--cap-vertices", "1"]) == 2


def test_cli_gen_gs_refuses_before_picking_the_class():
    # the class-size table alone is O(n^2 r), about 3.4e10 steps at this size
    start = time.perf_counter()
    assert run_cli("gen", "gs", "--n", "4096", "--r", "2048") == (2, "")
    assert time.perf_counter() - start < 1.0


def test_cli_flats_caps_the_explicit_definition_scan(tmp_path, p44_file):
    # 2^20 subsets, each checked against 190 bases, twice
    f = tmp_path / "u2_20.txt"
    f.write_text(serialize_matroid(to_explicit(uniform(20, 2))))
    start = time.perf_counter()
    assert run_cli("flats", str(f)) == (2, "")
    assert time.perf_counter() - start < 1.0
    f.write_text(serialize_matroid(to_explicit(uniform(9, 1))))
    code, out = run_cli("flats", str(f))
    assert code == 0
    assert out == "count 2\nflat\nflat 0 1 2 3 4 5 6 7 8\nhist 0 1\nhist 9 1\n"
    f.write_text(serialize_matroid(to_explicit(P44)))
    assert run_cli("flats", str(f)) == run_cli("flats", p44_file)


def test_cli_validate_refuses_huge_ground_fast(tmp_path):
    # C(10^7, 5 * 10^6) alone would take minutes to compute
    f = tmp_path / "huge.txt"
    f.write_text("spm 1\nn 10000000\nr 5000000\n")
    start = time.perf_counter()
    assert run_cli("validate", str(f)) == (2, "")
    assert time.perf_counter() - start < 1.0


def test_cli_bounds_refuses_huge_ground_fast():
    # 2^(n+1) / (n+2) alone has millions of digits at n = 10^7, and at
    # n = 20000 it is past the interpreter's int-to-str digit limit
    for n in ("10000000", "20000"):
        start = time.perf_counter()
        assert run_cli("bounds", "--n", n) == (2, "")
        assert time.perf_counter() - start < 1.0
    code, out = run_cli("bounds", "--n", "4096")
    assert code == 0 and out.startswith("zn_upper ")


def test_cli_set_labels_are_capped_before_building_a_mask(p44_file):
    # 1 << 10^9 would allocate about 130 MB per copy before any range check
    start = time.perf_counter()
    assert run_cli("relax", p44_file, "--ch", "0,1000000000") == (2, "")
    assert time.perf_counter() - start < 1.0
    assert run_cli("relax", p44_file, "--ch", "0,-1") == (2, "")


def _corrupt(monkeypatch, name, fn):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: fn(real(*args)))


TIGHT_TEXT = "spm 1\nn 3\nr 2\nch 0 1\n"


@pytest.mark.parametrize(
    "name,fn,argv,text",
    [
        # swapping the last two entries of 0 1 3 2 makes windows {1,2} and {3,0}
        ("find_cyclic_order", lambda o: o[:2] + o[:1:-1], ["order", "cyclic"], P44_TEXT),
        (
            "gabow_cycle_any",
            lambda c: c[:2] + c[:1:-1],
            ["order", "pair", "--b1", "0,1", "--b2", "2,3"],
            P44_TEXT,
        ),
        (
            "gabow_cycle_any",
            lambda c: c[2:] + c[:2],  # blocks in the wrong order
            ["order", "pair", "--b1", "0,1", "--b2", "2,3"],
            P44_TEXT,
        ),
        (
            "bpg_path",
            lambda p: p[:1] + [BasisPairVertex(0b1001, 0b0110, 0)] + p[1:],
            ["conj", "farber", "--from", "0,1;2,3", "--to", "0,2;1,3"],
            P44_TEXT,
        ),
        (
            "white_moves",
            lambda mv: mv[:-1],
            ["conj", "white", "--k", "2", "--from", "0,1|2,3", "--to", "0,2|1,3"],
            P44_TEXT,
        ),
        (
            "white_moves",
            lambda mv: [Move(0, 1, 0, 2)],  # lands member 0 on {1, 2}
            ["conj", "white", "--k", "2", "--from", "0,1|2,3", "--to", "0,2|1,3"],
            P44_TEXT,
        ),
        (
            "white2_path",
            lambda mv: mv[:-1],
            ["conj", "white2", "--k", "2", "--from", "0,1|2,3", "--to", "2,3|0,1"],
            P44_TEXT,
        ),
        ("cyclic_flats_of", lambda fl: fl + [0b0011], ["flats"], P44_TEXT),
        ("cyclic_flats_of", lambda fl: fl[:-1], ["flats"], P44_TEXT),
        # {0} meets the density bound: 2 * 1 <= rank 1 * 3
        ("check_density", lambda res: (False, 0b001), ["order", "cyclic"], TIGHT_TEXT),
        # bounds reads no file
        (
            "bounds",
            lambda b: replace(b, zn_lower_int=b.zn_lower_int + 1),
            ["bounds", "--n", "8"],
            None,
        ),
        (
            "bounds",
            lambda b: replace(b, ch_upper=b.ch_upper + 1),
            ["bounds", "--n", "8", "--r", "4"],
            None,
        ),
        # {0, 1} and {0, 2} differ in two elements: not a sparse paving family
        ("dual", lambda m: SparsePavingMatroid(m.n, m.r, [0b011, 0b101]), ["dual"], P44_TEXT),
        (
            "explicit_minor",
            lambda res: (ExplicitMatroid(res[0].n, res[0].r, [0b1]), res[1]),  # |{0}| < r
            ["minor", "--delete=3"],
            P44_BASES_TEXT,
        ),
    ],
    ids=[
        "order-cyclic",
        "order-pair-window",
        "order-pair-blocks",
        "farber-non-vertex",
        "white-dropped-move",
        "white-illegal-move",
        "white2-dropped-move",
        "flats-non-cyclic",
        "flats-missing-flat",
        "order-cyclic-refusal",
        "bounds-ceiling",
        "bounds-ch-upper",
        "dual-close-pair",
        "minor-explicit-non-matroid",
    ],
)
def test_cli_failed_certificate_exits_3(monkeypatch, tmp_path, name, fn, argv, text):
    if text is not None:
        f = tmp_path / "m.txt"
        f.write_text(text)
        argv = [*argv[:2], str(f), *argv[2:]]
    _corrupt(monkeypatch, name, fn)
    assert run_cli(*argv) == (3, "")


def test_cli_farber_non_adjacent_step_exits_3(monkeypatch, tmp_path):
    f = str(tmp_path / "gs10_4.txt")
    assert run_cli("gen", "gs", "--n", "10", "--r", "4", "-o", f)[0] == 0
    # the frozen 5-step path without its second vertex: two swaps in one step
    _corrupt(monkeypatch, "bpg_path", lambda p: p[:1] + p[2:])
    argv = ["conj", "farber", f, "--from", "0,1,2,3;4,5,6,7", "--to", "5,7,8,9;0,1,2,4"]
    assert run_cli(*argv) == (3, "")


def test_cli_import_loads_no_process_pool():
    src = str(Path(sparsepaving.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # site's .pth hooks may preload third-party modules, so only what the
    # import itself adds is held to the zero-dependency rule
    code = (
        "import sys; before = set(sys.modules); import sparsepaving.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules)); "
        "allowed = sys.stdlib_module_names | {'sparsepaving'}; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.partition('.')[0] not in allowed))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "[]\n[]\n"


def test_sources_parse_at_the_python_floor():
    root = Path(sparsepaving.__file__).resolve().parents[2]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor, "requires-python must read '>=X.Y'"
    version = (int(floor[1]), int(floor[2]))
    assert version == (3, 10)
    sources = sorted(Path(sparsepaving.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_cli_byte_determinism_across_commands(p44_file):
    for argv in (
        ["order", "cyclic", p44_file],
        ["flats", p44_file],
        ["census", "--n", "10"],
        ["conj", "farber", p44_file],
    ):
        a = run_cli(*argv)
        b = run_cli(*argv)
        assert a == b
