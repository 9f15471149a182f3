"""Line-oriented matroid files.

Two formats, both with 0-based element labels:

    spm 1           bases 1
    n 4             n 4
    r 2             r 2
    ch 0 3          b 0 1
    ch 1 2          b 0 2

A body line lists one r-set with strictly increasing elements.  Every
integer is a run of ASCII digits with no sign or separator.  Blank
lines and '#' comments are skipped on input.  Serialization is
canonical (sets ordered as masks, single spaces, LF, trailing
newline), so parse(serialize(m)) == m and serialize(parse(t)) is a
normal form for t.  Parsed content is validated before it is returned.

When the body reads more labels than twice the ground size, it is
first read in one batch through a table from each label str(e) to its
bit 1 << e, built for the call: every row must have r + 1 tokens, every
token must be in the table, the tag must start every row, and the labels
must ascend within each row.  Each check is one pass of C-level
iteration over the whole body.  If any check fails (one row spelled
otherwise is enough, say '07'), the per-token loop reads every row
instead; it words every error and accepts non-canonical spellings.  On
a short file, and on a wide one whose bits are big ints, building the
table costs more than it saves, so the per-token loop reads those.

Serialization looks up each byte of a mask in a 256-entry table of the
labels it stands for, one table per byte position, built once per
process.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import lt

from .core import (
    MAX_EXPLICIT_WORK,
    MAX_GROUND,
    ExplicitMatroid,
    SparsePavingMatroid,
    explicit_validate,
    validate,
)
from .errors import ParseError, TooLarge


def _int_token(lineno: int, tok: str) -> int:
    # int() would also take signs, underscores and non-ASCII digits
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"line {lineno}: expected an integer, got {tok!r}")
    try:
        return int(tok)
    except ValueError:  # past the interpreter's limit on digits per int
        raise ParseError(f"line {lineno}: integer of {len(tok)} digits") from None


def _named_int(row: tuple[int, list[str]], name: str) -> int:
    lineno, toks = row
    if len(toks) != 2 or toks[0] != name:
        raise ParseError(f"line {lineno}: expected '{name} <integer>'")
    return _int_token(lineno, toks[1])


def _read_canonical(body: list[list[str]], n: int, r: int, tag: str) -> list[int] | None:
    """The masks of a body whose every row is canonical, or None.

    A canonical row is the tag and then r labels str(e), 0 <= e < n, in
    ascending order.  Each check runs over the whole body at once.
    """
    width = r + 1
    if set(map(len, body)) != {width}:
        return None
    bit_of = {str(e): 1 << e for e in range(n)}
    bit_of[tag] = 0  # sorts first and adds nothing to the mask
    try:
        vals = list(map(bit_of.__getitem__, chain.from_iterable(body)))
    except KeyError:  # out of range, or not spelled as str(e)
        return None
    # only the tag reads 0, so a row that strictly ascends from a 0 is the
    # tag and then r distinct labels, whose bits sum to their union
    if any(vals[::width]):
        return None
    for j in range(r):
        if not all(map(lt, vals[j::width], vals[j + 1 :: width])):
            return None
    return list(map(sum, zip(*[iter(vals)] * width)))


def _read_rows(body: list[tuple[int, list[str]]], n: int, r: int, tag: str) -> list[int]:
    """The masks of a body, read token by token; raises on the first bad row."""
    masks = []
    for lineno, toks in body:
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
    return masks


def parse_matroid(text: str, explicit_work_cap: float = MAX_EXPLICIT_WORK):
    """Read either format; returns the validated matroid object.

    explicit_work_cap bounds the quadratic exchange-axiom check run on
    'bases 1' files (measured as basis count squared).
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, toks in enumerate(map(str.split, text.splitlines()), start=1):
        if toks and toks[0][0] != "#":
            rows.append((lineno, toks))
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
    body = rows[3:]
    masks = None
    # an entry costs about one token read to build and saves about one per
    # use, so the table pays only when each label is read twice on average
    if len(body) * r > 2 * n:
        masks = _read_canonical([toks for _, toks in body], n, r, tag)
    if masks is None:
        masks = _read_rows(body, n, r, tag)
    if tag == "ch":
        spm = SparsePavingMatroid(n, r, masks)
        validate(spm)
        return spm
    if len(masks) * len(masks) > explicit_work_cap:
        raise TooLarge(f"validating {len(masks)} explicit bases exceeds the work cap")
    em = ExplicitMatroid(n, r, masks)
    explicit_validate(em)
    return em


def serialize_matroid(m) -> str:
    if isinstance(m, SparsePavingMatroid):
        head, tag, body = "spm 1", "ch", m.chset
    elif isinstance(m, ExplicitMatroid):
        head, tag, body = "bases 1", "b", tuple(sorted(m.bases))
    else:
        raise TypeError(f"expected a matroid, got {type(m).__name__}")
    lines = [head, f"n {m.n}", f"r {m.r}"]
    # each mask's bytes, lowest first, through one label table per byte
    # position; the masks ascend, so the last one is the widest
    size = -(-body[-1].bit_length() // 8) if body else 0
    tables = list(map(_byte_labels, range(size)))
    get = list.__getitem__
    lines += [tag + "".join(map(get, tables, s.to_bytes(size, "little"))) for s in body]
    return "\n".join(lines) + "\n"


@cache
def _byte_labels(i: int) -> list[str]:
    """For each byte value, ' e' for each bit e it sets at byte position i.

    Cached, so every caller shares the one list: it is only read.
    """
    table = [""]
    for e in range(8 * i, 8 * i + 8):
        table += [t + f" {e}" for t in table]
    return table
