"""File format and command line behavior.

Commands run in-process through cli.main with captured stdout, which
keeps the suite fast; byte determinism across repeated runs is part of
the contract.  A result that fails its certificate exits with code 3
and prints nothing.
"""

import argparse
import ast
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import sparsepaving
import sparsepaving.cli as cli
import sparsepaving.construct as construct
from corpusdef import CORPUS, P44, U24, call_outcome
from sparsepaving import (
    BasisPairVertex,
    ExplicitMatroid,
    Move,
    ParseError,
    SparsePavingMatroid,
    TooLarge,
    graham_sloane,
    parse_matroid,
    serialize_matroid,
    to_explicit,
    uniform,
)
from sparsepaving.bitset import elements, subset_masks
from sparsepaving.cli import main
from sparsepaving.core import (
    MAX_EXPLICIT_WORK,
    MAX_GROUND,
    explicit_validate,
    validate,
)
from sparsepaving.fileio import _int_token, _named_int

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


def format_per_element(m):
    """The serializer as it first stood, kept as the reference: str() per element."""
    if isinstance(m, SparsePavingMatroid):
        head, tag, body = "spm 1", "ch", m.chset
    else:
        head, tag, body = "bases 1", "b", tuple(sorted(m.bases))
    lines = [head, f"n {m.n}", f"r {m.r}"]
    for s in body:
        lines.append(" ".join([tag, *[str(e) for e in elements(s)]]))
    return "\n".join(lines) + "\n"


def test_serialize_matches_the_per_element_formatter():
    cases = [m for _, m in CORPUS]
    cases += [to_explicit(m) for m in cases if m.n <= 9]
    cases += [graham_sloane(4096, 2, c) for c in (0, 5, 4095)]
    cases += [
        SparsePavingMatroid(4096, 1, [1 << 4095]),
        ExplicitMatroid(4096, 1, [1 << 4095]),
        SparsePavingMatroid(0, 0, []),
        SparsePavingMatroid(12, 5, []),
        ExplicitMatroid(12, 5, []),
        SparsePavingMatroid(5, 0, [0]),
        ExplicitMatroid(5, 0, [0]),
        SparsePavingMatroid(6, 6, [0b111111]),
        ExplicitMatroid(6, 6, [0b111111]),
    ]
    # residue classes whose lines hold more labels than their masks have
    # bytes, and fewer (as at n = 200, r = 3), in both formats
    families = [graham_sloane(200, 3, 7)]
    for n in range(8, 25):
        ranks = {2, n // 4, n // 4 + 1} | ({n // 3, n // 2} if n <= 16 else set())
        families += [graham_sloane(n, r, n % 5) for r in sorted(ranks)]
    cases += families + [ExplicitMatroid(m.n, m.r, m.chset) for m in families]
    for m in cases:
        assert serialize_matroid(m) == format_per_element(m), m
    assert serialize_matroid(SparsePavingMatroid(4096, 1, [1 << 4095])).endswith(
        "\nch 4095\n"
    )


def test_parse_frozen():
    assert parse_matroid(P44_TEXT) == P44
    em = parse_matroid("bases 1\nn 3\nr 2\nb 0 1\nb 1 2\n")
    assert isinstance(em, ExplicitMatroid)
    assert em.bases == {0b011, 0b110}


def test_parse_skips_blanks_and_comments():
    text = "# header comment\n\nspm 1\n n 4\nr 2\n\n# body\nch 0 3\n"
    assert parse_matroid(text) == SparsePavingMatroid(4, 2, [{0, 3}])


# five well-formed lines first: with the bad line the body reads 12 labels
# for a ground of 4, more than twice as many, so the parser builds its label
# table and the bad line falls through it to the per-token checks
TABLE_BODY = "ch 0 3\n" * 5


@pytest.mark.parametrize(
    "bad,message",
    [
        ("spm 2\nn 4\nr 2\n", "line 1: unknown format 'spm 2'"),
        ("matroid 1\nn 4\nr 2\n", "line 1: unknown format 'matroid 1'"),
        ("spm 1\nr 2\nn 4\n", "line 2: expected 'n <integer>'"),
        ("spm 1\nn 4\nr 2\nch 0\n", "line 4: expected 2 elements, got 1"),
        ("spm 1\nn 4\nr 2\nch 3 0\n", "line 4: elements must be strictly increasing"),
        ("spm 1\nn 4\nr 2\nch 0 0\n", "line 4: elements must be strictly increasing"),
        ("spm 1\nn 4\nr 2\nch 0 4\n", "line 4: element 4 is outside 0..3"),
        ("spm 1\nn 4\nr 2\nb 0 3\n", "line 4: expected a 'ch' line, got 'b'"),
        ("spm 1\nn x\nr 2\n", "line 2: expected an integer, got 'x'"),
        ("", "line 1: empty input"),
        ("spm 1\nn +4\nr 2\n", "line 2: expected an integer, got '+4'"),
        ("spm 1\nn 4\nr -0\n", "line 3: expected an integer, got '-0'"),
        ("spm 1\nn 1_0\nr 2\n", "line 2: expected an integer, got '1_0'"),
        ("spm 1\nn 4\nr 2\nch 0 \u0663\n", "line 4: expected an integer, got '\u0663'"),
        ("spm 1\nn 10000000\nr 2\n", "line 2: ground size 10000000 exceeds the cap 4096"),
        ("spm 1\nn 4\nr 2\nch 0 1" + "0" * 5000 + "\n", "line 4: integer of 5001 digits"),
        (
            "spm 1\nn 4\nr 2\n" + TABLE_BODY + "ch 1 1\n",
            "line 9: elements must be strictly increasing",
        ),
        (
            "spm 1\nn 6\nr 3\n" + "ch 0 1 5\n" * 5 + "ch 0 9 5\n",
            "line 9: element 9 is outside 0..5",
        ),
        ("spm 1\nn 4\nr 2\n" + TABLE_BODY + "b 0 3\n", "line 9: expected a 'ch' line, got 'b'"),
        ("spm 1\nn 4\nr 2\n" + TABLE_BODY + "ch 0 1 2\n", "line 9: expected 2 elements, got 3"),
        ("spm 1\nn 4\nr 2\n" + TABLE_BODY + "ch 0\n", "line 9: expected 2 elements, got 1"),
        ("spm 1\nn 4\nr 2\n" + TABLE_BODY + "0 1 3\n", "line 9: expected a 'ch' line, got '0'"),
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
        "table-repeat",
        "table-range-mid-line",
        "table-wrong-tag",
        "table-one-too-many",
        "table-short-last-row",
        "table-label-for-tag",
    ],
)
def test_parse_rejects_malformed(bad, message):
    with pytest.raises(ParseError) as info:
        parse_matroid(bad)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("spm 1\nn 8\nr 2\nch 00 07\n", "spm 1\nn 8\nr 2\nch 0 7\n"),
        ("spm 1\nn 8\nr 2\nch\t0  \t7\n", "spm 1\nn 8\nr 2\nch 0 7\n"),
        ("spm 1 \nn 8\t\nr 2  \nch 0 7 \t\n", "spm 1\nn 8\nr 2\nch 0 7\n"),
        ("spm 1\nn 3\nr 0\n", "spm 1\nn 3\nr 0\n"),
        ("bases 1\nn 3\nr 0\n b\t\n", "bases 1\nn 3\nr 0\nb\n"),
        # the empty set is then the only r-subset, and designating it
        # leaves no basis: both spellings fail the same way
        ("spm 1\nn 3\nr 0\n ch \n", "spm 1\nn 3\nr 0\nch\n"),
    ],
    ids=["zero-padded", "tabs", "trailing-space", "rank-0", "rank-0-bases", "rank-0-bare-ch"],
)
def test_parse_accepts_non_canonical_spellings(text, canonical):
    assert call_outcome(parse_matroid, text) == call_outcome(parse_matroid, canonical)


# corpus members whose body reads each label more than twice, so that
# parse_matroid builds its label table for them
TABLED = [(name, m) for name, m in CORPUS if len(m.chset) * m.r > 2 * m.n]


@pytest.mark.parametrize("name,m", TABLED, ids=[name for name, _ in TABLED])
def test_parse_accepts_non_canonical_spellings_past_the_table(name, m):
    lines = serialize_matroid(m).splitlines()
    head, body = lines[:3], lines[3:]
    padded = [" ".join(["ch", *(f"0{t}" for t in line.split()[1:])]) for line in body]
    spaced = ["\t".join(line.split()) + "  " for line in body]
    mixed = [p if i % 2 else b for i, (p, b) in enumerate(zip(padded, body))]
    # only the first label padded: every other token of the row is in the table
    first = [line.replace(" ", " 0", 1) for line in body]
    for spelled in (padded, spaced, mixed, first):
        assert parse_matroid("\n".join([*head, *spelled]) + "\n") == m


def parse_per_token(text, explicit_work_cap=MAX_EXPLICIT_WORK):
    """parse_matroid as it stood before its label table, kept as the reference."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.strip()
        if not body or body.startswith("#"):
            continue
        rows.append((lineno, body.split()))
    if not rows:
        raise ParseError("line 1: empty input")
    head_line, head = rows[0]
    if head == ["spm", "1"]:
        tag = "ch"
    elif head == ["bases", "1"]:
        tag = "b"
    else:
        raise ParseError(f"line {head_line}: unknown format {' '.join(head)!r}")
    if len(rows) < 3:
        raise ParseError(f"line {rows[-1][0]}: missing 'n' and 'r' lines")
    n = _named_int(rows[1], "n")
    if n > MAX_GROUND:
        # before any n-bit mask is built
        raise ParseError(
            f"line {rows[1][0]}: ground size {n} exceeds the cap {MAX_GROUND}"
        )
    r = _named_int(rows[2], "r")
    masks = []
    for lineno, toks in rows[3:]:
        if toks[0] != tag:
            raise ParseError(f"line {lineno}: expected a {tag!r} line, got {toks[0]!r}")
        if len(toks) != r + 1:
            raise ParseError(f"line {lineno}: expected {r} elements, got {len(toks) - 1}")
        prev = -1
        mask = 0
        for t in toks[1:]:
            e = _int_token(lineno, t)
            if e <= prev:
                raise ParseError(f"line {lineno}: elements must be strictly increasing")
            if not 0 <= e < n:
                raise ParseError(f"line {lineno}: element {e} is outside 0..{n - 1}")
            prev = e
            mask |= 1 << e
        masks.append(mask)
    if tag == "ch":
        spm = SparsePavingMatroid(n, r, masks)
        validate(spm)
        return spm
    if len(masks) * len(masks) > explicit_work_cap:
        raise TooLarge(f"validating {len(masks)} explicit bases exceeds the work cap")
    em = ExplicitMatroid(n, r, masks)
    explicit_validate(em)
    return em


MUTANT_TOKENS = ("0", "07", "00", "-1", "+2", "x", "1_0", "\u0663", "ch", "b", "9" * 30)


def _mutate(rng, text):
    """One seeded edit of a matroid file: a token or a line, or a byte."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    toks = lines[i].split()
    kind = rng.randrange(6)
    if kind == 0 and toks:  # replace a token
        j = rng.randrange(len(toks))
        toks[j] = rng.choice([*MUTANT_TOKENS, str(rng.randrange(40)), rng.choice(toks)])
    elif kind == 1 and toks:  # duplicate a token
        j = rng.randrange(len(toks))
        toks.insert(j, toks[j])
    elif kind == 2 and len(toks) > 1:  # swap two tokens
        j, k = rng.sample(range(len(toks)), 2)
        toks[j], toks[k] = toks[k], toks[j]
    elif kind == 3:
        del lines[i]
        return "\n".join(lines) + "\n"
    elif kind == 4:
        lines.insert(i, lines[i])
        return "\n".join(lines) + "\n"
    else:  # flip one byte
        k = rng.randrange(len(text))
        return text[:k] + rng.choice("0123456789 \t\n#-xbch") + text[k + 1 :]
    lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def test_parse_matches_the_per_token_reader():
    texts = [serialize_matroid(m) for _, m in CORPUS]
    texts += [serialize_matroid(to_explicit(m)) for _, m in CORPUS if m.n <= 9]
    for text in texts:
        assert call_outcome(parse_matroid, text) == call_outcome(parse_per_token, text)
    # the mutants come from files small enough to keep the test fast, with
    # and without a label table; one or two seeded edits each
    rng = random.Random(0)
    small = [t for t in texts if len(t) < 2000]
    accepted = 0
    for _ in range(250):
        text = rng.choice(small)
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text)
        want = call_outcome(parse_per_token, text)
        assert call_outcome(parse_matroid, text) == want, text
        accepted += not isinstance(want, tuple)
    assert len(small) > 20 and 20 < accepted < 230


def _edit_line(rng, lines, kind):
    """One named edit of a seeded body line of a matroid file's lines."""
    i = rng.randrange(3, len(lines))
    tag, *labels = lines[i].split()
    n = int(lines[1].split()[1])
    j = rng.randrange(len(labels))
    if kind == "padded":
        labels[j] = "0" + labels[j]
    elif kind == "descending":
        j = min(j, len(labels) - 2)
        labels[j], labels[j + 1] = labels[j + 1], labels[j]
    elif kind == "tag-in-label":
        labels[j] = tag
    elif kind == "other-tag":
        tag = "b" if tag == "ch" else "ch"
    elif kind == "label-for-tag":  # below the first label where there is one
        tag = str(rng.randrange(max(int(labels[0]), 1)))
    elif kind == "short":
        del labels[j]
    elif kind == "long":
        labels.insert(j, str(rng.randrange(n)))
    elif kind == "out-of-range":
        labels[j] = str(n + rng.randrange(3))
    elif kind == "comment":
        lines.insert(i, "# a comment inside the body")
        return
    elif kind == "blank":
        lines.insert(i, rng.choice(["", "  ", "\t"]))
        return
    elif kind == "leading-space":
        lines[i] = rng.choice([" ", "  ", "\t"]) + lines[i]
        return
    elif kind == "duplicate":
        lines.insert(i, lines[i])
        return
    elif kind == "swapped-lines":
        k = rng.randrange(3, len(lines))
        lines[i], lines[k] = lines[k], lines[i]
        return
    lines[i] = " ".join([tag, *labels])


LINE_EDITS = (
    "padded",
    "descending",
    "tag-in-label",
    "other-tag",
    "label-for-tag",
    "short",
    "long",
    "out-of-range",
    "comment",
    "blank",
    "leading-space",
    "duplicate",
    "swapped-lines",
)


def _outcome_record(parse, text):
    """The masks parse built with the class it built them in, or what it raised."""
    got = call_outcome(parse, text)
    if isinstance(got, tuple):
        return got[0].__name__, got[1]
    masks = got.chset if isinstance(got, SparsePavingMatroid) else tuple(sorted(got.bases))
    return type(got).__name__, masks


def test_parse_outcomes_on_tabled_files_are_frozen():
    # files large enough for the label table, in both formats; the last is
    # a residue class under the 'bases 1' head, which reads as far as the
    # exchange axiom and fails there
    gs14 = graham_sloane(14, 7, 2)
    sources = [
        serialize_matroid(graham_sloane(12, 5, 0)),
        serialize_matroid(gs14),
        serialize_matroid(to_explicit(graham_sloane(10, 4, 0))),
        serialize_matroid(ExplicitMatroid(14, 7, gs14.chset)),
    ]
    rng = random.Random(24)
    records = []
    for text in sources:
        lines = text.splitlines()
        assert (len(lines) - 3) * int(lines[2].split()[1]) > 2 * int(lines[1].split()[1])
        variants = [text, text.replace("\n", "\r\n"), "".join(f" {x}\n" for x in lines)]
        for kind in LINE_EDITS:
            for _ in range(6):
                edited = list(lines)
                _edit_line(rng, edited, kind)
                variants.append("\n".join(edited) + rng.choice(["\n", "\r\n", ""]))
        for _ in range(30):  # two or three edits of any kind
            edited = list(lines)
            for kind in rng.sample(LINE_EDITS, rng.randint(2, 3)):
                _edit_line(rng, edited, kind)
            variants.append(rng.choice(["\n", "\r\n"]).join(edited) + "\n")
        for variant in variants:
            record = _outcome_record(parse_matroid, variant)
            assert record == _outcome_record(parse_per_token, variant), variant
            records.append(record)
    kinds = Counter(name for name, _ in records)
    assert dict(kinds) == {
        "ExchangeAxiomViolation": 43,
        "ExplicitMatroid": 45,
        "ParseError": 271,
        "SparsePavingMatroid": 85,
    }
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == "3c53bf4c86ce6267"


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


def test_cli_explicit_minor_element_outside_exits_2(tmp_path, capsys):
    f = tmp_path / "p44b.txt"
    f.write_text(P44_BASES_TEXT)
    assert run_cli("minor", str(f), "--delete", "4") == (2, "")
    assert capsys.readouterr().err == "error: element 4 is not inside 0..3\n"


NON_MATROID_TEXT = "bases 1\nn 5\nr 2\nb 0 1\nb 1 2\nb 0 3\nb 1 3\nb 0 4\nb 2 4\nb 3 4\n"


@pytest.mark.parametrize(
    "cmd", [["validate"], ["flats"], ["minor", "--delete", "0"]], ids=lambda c: c[0]
)
def test_cli_exchange_axiom_violation_exits_2(tmp_path, capsys, cmd):
    # {1, 2} drops 1 toward {0, 3}, and neither {0, 2} nor {2, 3} is listed
    f = tmp_path / "nonmatroid.txt"
    f.write_text(NON_MATROID_TEXT)
    assert run_cli(cmd[0], str(f), *cmd[1:]) == (2, "")
    assert capsys.readouterr().err == "error: no exchange for 1 out of 1,2 toward 0,3\n"


def test_cli_gen_random_refuses_a_negative_target(capsys):
    argv = ["gen", "random", "--n", "5", "--r", "2", "--target", "-5", "--seed", "0"]
    assert run_cli(*argv) == (2, "")
    assert "--target: expected a non-negative integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("which", ["white", "white2"])
def test_cli_collection_oracle_takes_any_k(tmp_path, capsys, which):
    # the collection enumeration goes one member deeper per level, so it
    # must not lean on the interpreter's recursion limit (about 1,000)
    f = tmp_path / "u24.txt"
    f.write_text(serialize_matroid(U24))
    col = "|".join(["0,1"] * 1200)
    argv = ["conj", which, str(f), "--k", "1200", "--from", col, "--to", col, "--oracle"]
    assert run_cli(*argv) == (0, "moves 0\noracle connected 1 vertices\n")
    # one cover of k members with multiplicity k costs about k * k: refused
    # past 5,000,000 as too large, exit 2, instead of running for seconds
    col = "|".join(["0,1"] * 4000)
    argv = ["conj", which, str(f), "--k", "4000", "--from", col, "--to", col, "--oracle"]
    assert run_cli(*argv) == (2, "")
    err = "error: a union of 4000 members with multiplicity 4000 is too large to cover\n"
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["conj", "farber", "--from", "0,1;2,3", "--to", "0,2;1,3", "--cap-vertices", "1"],
            "pair graph exceeds 1 vertices",
        ),
        (
            [
                "conj", "white", "--k", "2", "--from", "0,1|2,3", "--to", "0,2|1,3",
                "--cap-vertices", "0",
            ],
            "collection graph exceeds 0 vertices",
        ),
    ],
    ids=["farber", "white"],
)
def test_cli_oracle_refused_after_a_walk_prints_nothing(p44_file, capsys, argv, err):
    # the walk succeeds before the oracle is refused: exit 2 still leaves stdout empty
    assert run_cli(*argv[:2], p44_file, *argv[2:], "--oracle") == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


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
    # below n = 4 no sparse paving matroid has 2 <= r <= n - 2: no lower bound
    assert run_cli("bounds", "--n", "2") == (0, "zn_upper 2\n")
    assert run_cli("bounds", "--n", "3", "--r", "1") == (0, "zn_upper 16/5\nch_upper 1\n")


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


@pytest.mark.parametrize(
    "argv,text,err",
    [
        (["relax", "{f}", "--ch", "-"], P44_TEXT, "- is not a designated set of m"),
        (["relax", "{f}", "--ch", "0,x"], P44_TEXT, "bad element 'x' in set spec '0,x'"),
        (["relax", "{f}", "--ch", "1,1"], P44_TEXT, "repeated element 1 in set spec '1,1'"),
        # set specs follow the file format's integer rule: ASCII digits only
        (["relax", "{f}", "--ch", "+0,3"], P44_TEXT, "bad element '+0' in set spec '+0,3'"),
        (["relax", "{f}", "--ch", "1_0"], P44_TEXT, "bad element '1_0' in set spec '1_0'"),
        (
            ["relax", "{f}", "--ch", "\u0663,0"],
            P44_TEXT,
            "bad element '\u0663' in set spec '\u0663,0'",
        ),
        (["relax", "{f}", "--ch=-0,3"], P44_TEXT, "bad element '-0' in set spec '-0,3'"),
        (
            ["relax", "{f}", "--ch", "0," + "1" * 4301],
            P44_TEXT,
            f"bad element {'1' * 4301!r} in set spec {'0,' + '1' * 4301!r}",
        ),
        (
            ["conj", "farber", "{f}", "--from", "0,1", "--to", "2,3"],
            P44_TEXT,
            "vertex spec '0,1' needs 'A1;A2'",
        ),
        (["validate", "{f}"], "spm 1\nn 4\n", "line 2: missing 'n' and 'r' lines"),
        (["validate", "{f}"], "bases 1\nn 3\nr 5\n", "rank 5 not in 0..3"),
        # bytes that are not UTF-8, in a body line and as a whole file
        (["validate", "{f}"], b"spm 1\nn 4\nr 2\nch 0 \xff3\n", "byte 19: not UTF-8 text"),
        (["order", "cyclic", "{f}"], b"\xff\xfe", "byte 0: not UTF-8 text"),
        (["conj", "farber", "{f}", "--to", "0,1;2,3"], P44_TEXT, "--from and --to go together"),
        (
            ["conj", "white", "{f}", "--k", "2", "--from", "0,1", "--to", "0,1"],
            P44_TEXT,
            "--k 2 does not match the member lists",
        ),
        (
            ["conj", "white2", "{f}", "--k", "1", "--from", "0,2", "--to", "0,2|1,3"],
            P44_TEXT,
            "--k 1 does not match the member lists",
        ),
        # element 4 passes the set-spec cap; the library's gate words the fault
        (
            ["conj", "white", "{f}", "--k", "2", "--from", "0,1|2,4", "--to", "0,1|2,3"],
            P44_TEXT,
            "src member 2,4 is not inside 0..3",
        ),
        (
            ["conj", "farber", "{f}", "--from", "0,1;2,4", "--to", "0,2;1,3"],
            P44_TEXT,
            "block 2,4 is not inside 0..3",
        ),
        (
            ["order", "pair", "{f}", "--b1", "0,1", "--b2", "2,4"],
            P44_TEXT,
            "block 2,4 is not inside 0..3",
        ),
        # ground sizes, ranks and elements are checked in core, one wording each
        (["bounds", "--n", "0"], P44_TEXT, "ground size 0 must be at least 1"),
        (["avg", "{f}"], "spm 1\nn 0\nr 0\n", "ground size 0 must be at least 1"),
        (["minor", "{f}", "--delete", "9"], P44_TEXT, "element 9 is not inside 0..3"),
    ],
    ids=[
        "empty-set-dash",
        "bad-token",
        "repeated-element",
        "plus-sign",
        "underscore",
        "non-ascii-digit",
        "minus-zero",
        "past-the-digit-limit",
        "vertex-without-semicolon",
        "missing-n-r",
        "explicit-rank-range",
        "non-utf8-line",
        "non-utf8-file",
        "from-without-to",
        "white-k-mismatch",
        "white2-k-mismatch",
        "white-member-outside",
        "farber-block-outside",
        "order-pair-block-outside",
        "bounds-empty-ground",
        "avg-empty-ground",
        "minor-element-outside",
    ],
)
def test_cli_input_errors_exit_2(tmp_path, capsys, argv, text, err):
    f = tmp_path / "in.txt"
    f.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run_cli(*(a.format(f=f) for a in argv)) == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "cap,cmd",
    [("--cap-vertices", ["conj", "farber"]), ("--cap-explicit", ["validate"])],
    ids=["--cap-vertices", "--cap-explicit"],
)
def test_cli_caps_are_non_negative(p44_file, capsys, cap, cmd):
    assert main([*cmd, p44_file, cap, "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "non-negative" in err
    run_cli(*cmd, p44_file, cap, "0")
    assert "usage:" not in capsys.readouterr().err


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    """A later main call in the same process reuses the parser, usage errors included."""
    assert main(["bounds", "--n", "4"]) == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kw):
        built.append(kw.get("prog"))
        real(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    capsys.readouterr()
    assert main(["bounds", "--n", "4"]) == 0
    assert capsys.readouterr().out.startswith("zn_upper 16/3\n")
    errs = []
    for _ in range(2):
        assert main(["bounds", "--n"]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].startswith("usage: spm bounds")
    assert built == []
    assert cli._build_parser() is cli._build_parser()


def test_cli_each_subcommand_takes_only_the_caps_it_reads(p44_file):
    explicit, walk = {"--cap-explicit"}, {"--cap-vertices"}
    want = {
        "gen gs": explicit,
        "gen random": explicit,
        "validate": explicit,
        "dual": set(),
        "minor": explicit,
        "relax": set(),
        "conj farber": walk,
        "conj white": walk,
        "conj white2": walk,
        "order cyclic": set(),
        "order pair": set(),
        "flats": explicit,
        "avg": set(),
        "bounds": set(),
        "census": set(),
    }
    got = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--cap-")}
        for name, p in _leaf_parsers(cli._build_parser())
    }
    assert got == want
    assert sum(map(len, got.values())) == 8
    assert main(["order", "cyclic", p44_file, "--cap-order", "9"]) == 2
    assert main(["bounds", "--n", "8", "--cap-vertices", "1"]) == 2


# the commands that read only 'spm 1' files, with the options each requires
_B = "0,1,2,3,4"
_WALK = ["--k", "1", "--from", _B, "--to", _B]
SPM_ONLY = {
    "dual": [],
    "relax": ["--ch", _B],
    "order cyclic": [],
    "order pair": ["--b1", _B, "--b2", "5,6,7,8,9"],
    "avg": [],
    "conj farber": [],
    "conj white": _WALK,
    "conj white2": _WALK,
}


@pytest.fixture(scope="module")
def gs12_5_bases_file(tmp_path_factory):
    f = tmp_path_factory.mktemp("bases") / "gs12_5.txt"
    m = to_explicit(graham_sloane(12, 5))
    assert len(m.bases) == 726
    f.write_text(serialize_matroid(m))
    return str(f)


@pytest.mark.parametrize("name", list(SPM_ONLY))
def test_cli_spm_only_commands_refuse_bases_files_unvalidated(
    name, gs12_5_bases_file, capsys
):
    argv = [*name.split(), gs12_5_bases_file, *SPM_ONLY[name]]
    assert main([*argv, "--cap-explicit", "5"]) == 2
    assert capsys.readouterr().err.startswith("usage:")
    # validating the exchange axiom on 726 bases takes seconds
    start = time.perf_counter()
    assert run_cli(*argv) == (2, "")
    assert time.perf_counter() - start < 1.0
    assert "needs an 'spm 1' file" in capsys.readouterr().err


def test_cli_spm_only_command_keeps_empty_bases_refusal(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("bases 1\nn 3\nr 1\n")
    assert run_cli("dual", str(f)) == (2, "")
    assert "at least one basis" in capsys.readouterr().err


def test_cli_gen_gs_refuses_before_picking_the_class():
    # the cap refuses the C(4096, 2048) r-subsets before a class is picked or listed
    start = time.perf_counter()
    assert run_cli("gen", "gs", "--n", "4096", "--r", "2048") == (2, "")
    assert time.perf_counter() - start < 1.0


def test_cli_gen_random_refuses_a_wide_pool_fast(capsys):
    # C(4096, 2) r-sets of 64 words each: listing them took 70 s and 3.3 GB
    start = time.perf_counter()
    argv = ["gen", "random", "--n", "4096", "--r", "2", "--target", "9", "--seed", "1"]
    assert run_cli(*argv) == (2, "")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == "error: C(4096, 2) 64-word r-subsets exceed the cap 10000000\n"


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


def test_cli_flats_on_a_726_basis_file_is_fast(tmp_path):
    # reading the file checks the exchange axiom over 726^2 basis pairs, and
    # the definition scan and its certificate run over 2^12 subsets
    f = tmp_path / "gs12_5.txt"
    f.write_text(serialize_matroid(to_explicit(graham_sloane(12, 5))))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        code, out = run_cli("flats", str(f))
        best = min(best, time.perf_counter() - start)
    assert code == 0
    assert out.startswith("count 68\nflat\nflat 0 1 2 4 5\n")
    assert out.endswith("hist 0 1\nhist 5 66\nhist 12 1\n")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "8ed509935558c0716dea0133f1c940cf4112269a7833551600f3977f1a931262"
    assert best < 0.5


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
    """Pass what cli.name, or sparsepaving.module.name if dotted, returns through fn."""
    module, _, name = name.rpartition(".")
    owner = getattr(sparsepaving, module) if module else cli
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: fn(real(*args)))


TIGHT_TEXT = "spm 1\nn 3\nr 2\nch 0 1\n"
# the pairs of 0..5 except {0, 1}, {0, 2} and {2, 3}: 0 is parallel to
# 1 and to 2, yet {1, 2} is a basis, so they are not the bases of a matroid
PAIRS_12 = [b for b in subset_masks(6, 2) if b not in (0b0011, 0b0101, 0b1100)]


def _drop_last_line(text):
    return text[: text.rindex("\n", 0, -1) + 1]


def _first_set_to_another_class(out):
    # _class_masks recurses through the patched name, so only the call
    # that returns the whole class of (9, 4), 14 sets, is changed: its
    # first set 0,4,6,8 becomes 0,4,6,7, of residue 8
    return [out[0] ^ 0b110000000, *out[1:]] if len(out) == 14 else out


def _last_element_out_of_range(text):
    head, _, last = text[:-1].rpartition(" ")
    n = int(text.split("\n")[1].split()[1])
    assert int(last) < n
    return f"{head} {n}\n"


@pytest.mark.parametrize(
    "name,fn,argv,text,err",
    [
        # swapping the last two entries of 0 1 3 2 makes windows {1,2} and {3,0}
        (
            "find_cyclic_order",
            lambda o: o[:2] + o[:1:-1],
            ["order", "cyclic"],
            P44_TEXT,
            "order (0, 1, 2, 3) has a dependent window",
        ),
        # density holds on P44, so a missing order fails the order certificate
        (
            "find_cyclic_order",
            lambda o: None,
            ["order", "cyclic"],
            P44_TEXT,
            "None is not an order of the ground set",
        ),
        (
            "gabow_cycle_any",
            lambda c: c[:2] + c[:1:-1],
            ["order", "pair", "--b1", "0,1", "--b2", "2,3"],
            P44_TEXT,
            "cycle (0, 1, 2, 3) has a dependent window",
        ),
        (
            "gabow_cycle_any",
            lambda c: c[2:] + c[:2],  # blocks in the wrong order
            ["order", "pair", "--b1", "0,1", "--b2", "2,3"],
            P44_TEXT,
            "cycle (3, 2, 0, 1) does not list the blocks in order",
        ),
        (
            "bpg_path",
            lambda p: p[:1] + [BasisPairVertex(0b1001, 0b0110, 0)] + p[1:],
            ["conj", "farber", "--from", "0,1;2,3", "--to", "0,2;1,3"],
            P44_TEXT,
            "walk leaves the pair graph: first block 0,3 is not a basis",
        ),
        # sixteen more steps back and forth along a valid walk: only 4n = 16 fails
        (
            "bpg_path",
            lambda p: p + p[-2:] * 8,
            ["conj", "farber", "--from", "0,1;2,3", "--to", "0,2;1,3"],
            P44_TEXT,
            "walk of 17 steps exceeds 4n = 16",
        ),
        (
            "white_moves",
            lambda mv: mv[:-1],
            ["conj", "white", "--k", "2", "--from", "0,1|2,3", "--to", "0,2|1,3"],
            P44_TEXT,
            "replayed moves do not reach the target",
        ),
        (
            "white_moves",
            lambda mv: [Move(0, 1, 0, 2)],  # lands member 0 on {1, 2}
            ["conj", "white", "--k", "2", "--from", "0,1|2,3", "--to", "0,2|1,3"],
            P44_TEXT,
            "move 0:1:0:2 does not map bases to bases",
        ),
        # a legal move and its inverse, eight times, then the real walk:
        # only 4kr = 16 fails
        (
            "white_moves",
            lambda mv: [Move(0, 1, 1, 2), Move(0, 1, 2, 1)] * 8 + mv,
            ["conj", "white", "--k", "2", "--from", "0,1|2,3", "--to", "0,2|1,3"],
            P44_TEXT,
            "17 moves exceed 4kr = 16",
        ),
        (
            "white2_path",
            lambda mv: mv[:-1],
            ["conj", "white2", "--k", "2", "--from", "0,1|2,3", "--to", "2,3|0,1"],
            P44_TEXT,
            "replayed moves do not reach the target",
        ),
        (
            "cyclic_flats_of",
            lambda fl: fl + [0b0011],
            ["flats"],
            P44_TEXT,
            "0,1 is not a cyclic flat",
        ),
        (
            "cyclic_flats_of",
            lambda fl: fl[:-1],
            ["flats"],
            P44_TEXT,
            "the list is not every cyclic flat once, ascending",
        ),
        # {0} meets the density bound: 2 * 1 <= rank 1 * 3
        (
            "check_density",
            lambda res: (False, 0b001),
            ["order", "cyclic"],
            TIGHT_TEXT,
            "0 is not a density witness",
        ),
        # bounds reads no file
        (
            "bounds",
            lambda b: replace(b, zn_lower_int=b.zn_lower_int + 1),
            ["bounds", "--n", "8"],
            None,
            "zn_lower_int 9 is not the ceiling plus 2",
        ),
        (
            "bounds",
            lambda b: replace(b, ch_upper=b.ch_upper + 1),
            ["bounds", "--n", "8", "--r", "4"],
            None,
            "ch_upper 15 should be 14",
        ),
        # {0, 1} and {0, 2} differ in two elements: not a sparse paving family
        (
            "dual",
            lambda m: SparsePavingMatroid(m.n, m.r, [0b011, 0b101]),
            ["dual"],
            P44_TEXT,
            "output does not re-read: designated sets 0,1 and 0,2 are at symmetric "
            "difference 2",
        ),
        (
            "explicit_minor",
            lambda res: (ExplicitMatroid(res[0].n, res[0].r, [0b1]), res[1]),  # |{0}| < r
            ["minor", "--delete=3"],
            P44_BASES_TEXT,
            "output does not re-read: line 4: expected 2 elements, got 1",
        ),
        # 12^2 > 100: more bases than the cap the 10-basis input was loaded under
        (
            "explicit_minor",
            lambda res: (ExplicitMatroid(6, 2, PAIRS_12), res[1]),
            ["minor", "--delete=3", "--cap-explicit", "100"],
            serialize_matroid(to_explicit(uniform(5, 2))),
            "output does not re-read: no exchange for 1 out of 1,2 toward 0,3",
        ),
        # _emit re-reads what it is about to print, so a serializer that
        # loses a set or writes a bad label is caught before any output
        (
            "serialize_matroid",
            _drop_last_line,
            ["gen", "gs", "--n", "9", "--r", "4"],
            None,
            "serialization did not round-trip",
        ),
        (
            "serialize_matroid",
            _last_element_out_of_range,
            ["gen", "gs", "--n", "9", "--r", "4"],
            None,
            "output does not re-read: line 17: element 9 is outside 0..8",
        ),
        # a byte label table that drops label 0 (the tables are cached, so
        # fn builds a new one)
        (
            "fileio._byte_labels",
            lambda table: [labels.removeprefix(" 0") for labels in table],
            ["gen", "gs", "--n", "9", "--r", "4"],
            None,
            "output does not re-read: line 4: expected 4 elements, got 3",
        ),
        # a residue class enumerated with one set of another residue
        (
            "construct._class_masks",
            _first_set_to_another_class,
            ["gen", "gs", "--n", "9", "--r", "4"],
            None,
            "class 0 set 0,4,6,7 sums to 8 mod 9",
        ),
    ],
    ids=[
        "order-cyclic",
        "order-cyclic-none",
        "order-pair-window",
        "order-pair-blocks",
        "farber-non-vertex",
        "farber-over-4n",
        "white-dropped-move",
        "white-illegal-move",
        "white-over-4kr",
        "white2-dropped-move",
        "flats-non-cyclic",
        "flats-missing-flat",
        "order-cyclic-refusal",
        "bounds-ceiling",
        "bounds-ch-upper",
        "dual-close-pair",
        "minor-explicit-non-matroid",
        "minor-explicit-oversize",
        "emit-dropped-line",
        "emit-out-of-range",
        "emit-label-table",
        "gen-gs-wrong-residue",
    ],
)
def test_cli_failed_certificate_exits_3(
    monkeypatch, tmp_path, capsys, name, fn, argv, text, err
):
    if text is not None:
        f = tmp_path / "m.txt"
        f.write_text(text)
        argv = [*argv[:2], str(f), *argv[2:]]
    _corrupt(monkeypatch, name, fn)
    assert run_cli(*argv) == (3, "")
    assert capsys.readouterr().err == f"internal error: {err}\n"


@pytest.mark.parametrize(
    "argv", [["census", "--n", "8"], ["gen", "gs", "--n", "9", "--r", "4"]]
)
def test_cli_class_table_self_check_exits_3(monkeypatch, argv):
    # with a zero binomial every class size is 0: gen gs builds a class
    # larger than its size and census rows fall below the lower bound
    monkeypatch.setattr(construct, "comb", lambda n, k: 0)
    assert run_cli(*argv) == (3, "")


def test_cli_order_cyclic_without_repair_patterns_exits_3(monkeypatch, tmp_path, capsys):
    # gs9_4's seed-0 near-witness cycle has one dependent window, so the
    # repair runs, and with no pattern to try it must fail loudly
    f = str(tmp_path / "gs9_4.txt")
    assert run_cli("gen", "gs", "--n", "9", "--r", "4", "-o", f)[0] == 0
    capsys.readouterr()
    monkeypatch.setattr(sparsepaving.cyclic, "_REPAIR_PATTERNS", ())
    assert run_cli("order", "cyclic", f) == (3, "")
    err = capsys.readouterr().err
    assert err == "internal error: all repair patterns left a dependent window\n"


def test_cli_gen_gs_class_one_short_exits_3(monkeypatch):
    class_masks = construct._class_masks

    def one_short(lo, hi, r, c, n):
        out = class_masks(lo, hi, r, c, n)
        return out[1:] if (lo, hi) == (0, n) else out

    monkeypatch.setattr(construct, "_class_masks", one_short)
    assert run_cli("gen", "gs", "--n", "9", "--r", "4") == (3, "")


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
        "print('logging' in set(sys.modules) - before); "
        "allowed = sys.stdlib_module_names | {'sparsepaving'}; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.partition('.')[0] not in allowed))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "[]\nFalse\n[]\n"


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


def test_sources_hold_no_assert_statement():
    # python -O strips asserts; a self-check raises InternalCheckError instead
    sources = sorted(Path(sparsepaving.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_sources_import_nothing_unused():
    # a name bound by an import must be read somewhere in its module;
    # __init__.py only re-exports, so it is skipped
    sources = sorted(Path(sparsepaving.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


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
