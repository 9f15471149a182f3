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

Body lines are read through a table from each label str(e) to its
bit 1 << e, built for the call.  A line whose labels are all in the
table, with ascending bits and a mask of popcount r, is accepted in
one step.  Any other line runs the per-token checks, which word every
error and accept non-canonical spellings such as '07'.  The table is
built only when the body reads more labels than twice the ground
size: on a short file, and on a wide one whose bits are big ints,
building it costs more than it saves.
"""

from __future__ import annotations

from .bitset import iter_elements
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
    width = r + 1
    # an entry costs about one token read to build and saves about one per
    # use, so the table pays only when each label is read twice on average
    tabled = (len(rows) - 3) * r > 2 * n
    if tabled:
        bit_of = {str(e): 1 << e for e in range(n)}
        bit_of[tag] = 0  # sorts first and adds nothing to the mask
        bit = bit_of.__getitem__
    masks = []
    for lineno, toks in rows[3:]:
        if toks[0] != tag:
            raise ParseError(f"line {lineno}: expected a {tag!r} line, got {toks[0]!r}")
        if len(toks) != width:
            raise ParseError(f"line {lineno}: expected {r} elements, got {len(toks) - 1}")
        # the last label first: a line spelled otherwise (say zero-padded)
        # usually misses there, and a KeyError costs more than a lookup
        if tabled and toks[-1] in bit_of:
            try:
                bits = list(map(bit, toks))
            except KeyError:  # out of range, or not spelled as str(e)
                pass
            else:
                mask = sum(bits)
                # popcount r: the r bits are distinct, so the sum is their union
                if mask.bit_count() == r and bits == sorted(bits):
                    masks.append(mask)
                    continue
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


def serialize_matroid(m) -> str:
    if isinstance(m, SparsePavingMatroid):
        head, tag, body = "spm 1", "ch", m.chset
    elif isinstance(m, ExplicitMatroid):
        head, tag, body = "bases 1", "b", tuple(sorted(m.bases))
    else:
        raise TypeError(f"expected a matroid, got {type(m).__name__}")
    # one label per element, looked up instead of formatted on every line;
    # the masks ascend, so the last one holds the highest element
    names = [str(e) for e in range(body[-1].bit_length())] if body else []
    label = names.__getitem__
    lines = [head, f"n {m.n}", f"r {m.r}"]
    lines += [" ".join([tag, *map(label, iter_elements(s))]) for s in body]
    return "\n".join(lines) + "\n"
