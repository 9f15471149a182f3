"""Seeded input fuzz: a mutated file never makes `spm` report an internal error.

Mutants of corpus files in both formats (dropped, duplicated and swapped
lines, replaced and appended tokens, flipped bits and bytes that are
never UTF-8) go through every subcommand that reads a file, in process
through cli.main.  Exit 3 means the program is at fault, so every call
must exit 0, 1 or 2 and raise nothing; an exit 2 prints nothing on
stdout and one `error:` line on stderr.  The exit-code Counter is
frozen, so a change in how inputs are judged shows up here.
"""

import io
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from corpusdef import CORPUS
from sparsepaving import serialize_matroid, to_explicit
from sparsepaving.bitset import format_set, subset_masks
from sparsepaving.cli import main
from sparsepaving.core import basis_predicate

MUTANTS = 1500
SECONDS_PER_CALL = 2.0
TOKENS = [b"0", b"1", b"7", b"99", b"-1", b"07", b"x", b"ch", b"b", b"n", b"r", b"#"]
TOKENS += ["٣".encode(), b"1_0"]  # an Arabic-Indic digit, an underscore
NEVER_UTF8 = [b"\xff", b"\xfe", b"\xc0", b"\x80"]

FROZEN = {0: 100, 1: 3, 2: 1397}


def _sources():
    """(file bytes, a disjoint basis pair, a designated set or None) per source."""
    named = dict(CORPUS)
    spm = [named[k] for k in ("p44", "gs7_3", "rnd8_4", "tight5_1")]
    rows = []
    for m in spm + [to_explicit(named["p44"]), to_explicit(named["gs6_3"])]:
        pred, n, r = basis_predicate(m)
        bases = [b for b in subset_masks(n, r) if pred(b)]
        pair = next(((a, b) for a in bases for b in bases if not a & b), (bases[0], 0))
        ch = getattr(m, "chset", ())
        rows.append((serialize_matroid(m).encode(), pair, ch[0] if ch else None))
    return rows


def _commands(path, pair, ch):
    """One argv per subcommand that reads a file, with arguments fit for the source."""
    a, b = map(format_set, pair)
    vertex, back = f"{a};{b}", f"{b};{a}"
    walk = ["--k", "2", "--from", f"{a}|{b}", "--to", f"{b}|{a}", "--cap-vertices", "20000"]
    return [
        ["validate", path],
        ["dual", path],
        ["minor", path, "--delete", "0"],
        ["minor", path, "--contract", "1"],
        ["relax", path, "--ch", format_set(ch) if ch else "0,1"],
        ["conj", "farber", path, "--cap-vertices", "20000"],
        ["conj", "farber", path, "--from", vertex, "--to", back],
        ["conj", "white", path, *walk, "--oracle"],
        ["conj", "white2", path, *walk],
        ["order", "cyclic", path],
        ["order", "pair", path, "--b1", a, "--b2", b],
        ["flats", path],
        ["avg", path],
    ]


def _mutate(rng, data: bytes) -> bytes:
    for _ in range(rng.randint(1, 3)):
        lines = data.split(b"\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.randrange(7)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(j, lines[i])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif op in (3, 4):
            toks = lines[i].split(b" ")
            k = rng.randrange(len(toks))
            if op == 3:
                toks[k] = rng.choice(TOKENS)
            else:
                toks.insert(k + 1, rng.choice(TOKENS))
            lines[i] = b" ".join(toks)
        data = b"\n".join(lines)
        if op == 5 and data:
            k = rng.randrange(len(data))
            data = data[:k] + bytes([data[k] ^ (1 << rng.randrange(8))]) + data[k + 1 :]
        elif op == 6:
            k = rng.randrange(len(data) + 1)
            data = data[:k] + rng.choice(NEVER_UTF8) + data[k:]
    return data


def fuzz(tmp_path, mutants=MUTANTS, seed=0):
    """Exit-code Counter over seeded mutants, the slowest call, and the bad calls."""
    rng = random.Random(seed)
    sources = _sources()
    codes: Counter = Counter()
    slowest = 0.0
    bad = []
    path = str(tmp_path / "mutant.txt")
    for i in range(mutants):
        data, pair, ch = sources[i % len(sources)]
        with open(path, "wb") as fh:
            fh.write(_mutate(rng, data))
        commands = _commands(path, pair, ch)
        argv = commands[i % len(commands)]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        slowest = max(slowest, time.perf_counter() - start)
        codes[code] += 1
        lines = err.getvalue().splitlines()
        if code not in (0, 1, 2) or (
            code == 2
            and (out.getvalue() or len(lines) != 1 or not lines[0].startswith("error: "))
        ):
            bad.append((i, argv[:2], code, err.getvalue()))
    return codes, slowest, bad


def test_input_fuzz_exits_0_1_or_2(tmp_path):
    codes, slowest, bad = fuzz(tmp_path)
    assert bad == []
    assert slowest < SECONDS_PER_CALL
    assert dict(codes) == FROZEN
