"""Cyclic flats and the extremal counts they admit.

A flat is cyclic when its restriction has no coloops, i.e. removing
any single element does not drop its rank.  For a sparse paving
matroid with rank and corank at least two these are exactly the empty
set, the full ground set, and the designated dependent r-sets, which
makes the count easy to certify: constructions with many designated
sets give lower bounds on the maximum number of cyclic flats any
matroid on n elements can have, and a packing argument gives the
2^{n+1}/(n+2) upper bound recorded here alongside the constructive
2^{n-1}/n^{3/2} + 2 lower bound.

Outside that characterization (rank or corank below two, or an
ExplicitMatroid) the cyclic flats come from a definition scan over
whole families: each family of subsets is one 2^n-bit int, the rank
levels come from the bases alone (core._rank_levels), and the closure
and coloop tests are O(r * n) shifts and masks on those ints, with
about n + r families of 2^n bits alive at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, isqrt
from typing import Callable

from .bitset import ElementSet, bits, format_set, positions
from .core import (
    ExplicitMatroid,
    SparsePavingMatroid,
    _rank_attaining,
    _rank_levels,
    check_rank,
    closure_of,
    rank_of,
)
from .errors import InternalCheckError, RangeError
from .construct import gs_best_class


def cyclic_flats_of(m) -> list[ElementSet]:
    """All flats whose restriction is coloop-free, as sorted masks.

    Sparse paving fast path needs rank and corank at least 2: smaller
    flats always contain a coloop, spanning proper flats cannot be
    closed, and both degenerate directions break those facts, so they
    fall back to the definition scan.

    The scan works on whole families (one 2^n-bit int each) built from
    the bases alone by core._rank_levels.  With E_k = R_k - R_{k+1} the
    sets of rank k, a set A in E_k is a cyclic flat unless A + e is in
    E_k for some e outside A (A is not closed) or A - e is outside R_k
    for some e in A (e is a coloop of A).  That is O(r * n) shifts and
    masks on 2^n-bit ints, with about n + r families of 2^n bits alive,
    for either representation; n > MAX_SCAN_GROUND (20) is refused.
    """
    if isinstance(m, SparsePavingMatroid) and m.r >= 2 and m.n - m.r >= 2:
        return [0, *m.chset, m.ground]
    return _definition_scan(m)


def _definition_scan(m) -> list[ElementSet]:
    """Every cyclic flat by the definition, whatever the rank; see cyclic_flats_of."""
    has, levels = _rank_levels(m, "definition scan")
    every = levels[0]
    out = 0
    for k in range(len(levels) - 1):
        at_k = levels[k] & ~levels[k + 1]
        below = every ^ levels[k]
        bad = 0
        for e, h in enumerate(has):
            w = 1 << e
            bad |= ((at_k & h) >> w) | ((below << w) & h)
        out |= at_k & ~bad
    return positions(out)


def _cyclic_flat_test(m) -> Callable[[int], bool]:
    """The definition: f is closed and dropping any element keeps its rank.

    For an ExplicitMatroid that is two passes over the bases per flat
    (core._rank_attaining): one for rank(f), and one over the bases B
    with |f & B| = rank(f).
    f is closed exactly when those B together hold every element outside
    f (their OR), and e in f is a coloop of f exactly when every such B
    holds e (their AND): r(f - e) = r(f) needs one of them without e.
    """
    if isinstance(m, SparsePavingMatroid):

        def is_cyclic_flat(f: int) -> bool:
            if closure_of(m, f) != f:
                return False
            rf = rank_of(m, f)
            return all(rank_of(m, f ^ b) == rf for b in bits(f))

        return is_cyclic_flat
    if not isinstance(m, ExplicitMatroid):
        raise TypeError(f"expected a matroid, got {type(m).__name__}")
    ground = m.ground

    def is_explicit_cyclic_flat(f: int) -> bool:
        _, reach, common = _rank_attaining(m, f)
        return not ground & ~f & ~reach and not f & common

    return is_explicit_cyclic_flat


def check_cyclic_flats(m, flats: list[ElementSet]) -> None:
    """Raise InternalCheckError unless flats lists every cyclic flat of m once, ascending.

    Each set is re-checked against the definition; completeness comes from
    the characterization above in the fast path, else from the scan.
    """
    is_cyclic_flat = _cyclic_flat_test(m)
    for f in flats:
        if f >> m.n or not is_cyclic_flat(f):
            raise InternalCheckError(f"{format_set(f)} is not a cyclic flat")
    if flats != cyclic_flats_of(m):
        raise InternalCheckError("the list is not every cyclic flat once, ascending")


def flat_histogram(flats) -> dict[int, int]:
    """Size histogram a_i: how many of the given sets have i elements."""
    c = Counter(f.bit_count() for f in flats)
    return dict(sorted(c.items()))


@dataclass(frozen=True)
class BoundsReport:
    """Exact evaluations of the counting bounds at a given size.

    zn_upper bounds the number of cyclic flats of any matroid on n
    elements; zn_lower_int is the integer threshold some sparse paving
    matroid is guaranteed to reach (ceil of the radical expression,
    plus 2 for the trivial flats).  The matroids behind it have
    2 <= r <= n - 2, so the three zn_lower fields are None for n < 4.
    ch_upper bounds the number of designated dependent r-sets.
    """

    n: int
    r: int | None
    zn_upper: Fraction
    zn_lower_int: int | None
    zn_lower_decimal: str | None
    zn_lower_radical: str | None
    ch_upper: Fraction | None


def bounds(n: int, r: int | None = None) -> BoundsReport:
    check_rank(n, r, 1)
    lower = None, None, None
    if n >= 4:
        # ceil(2^{n-1} / n^{3/2}) without floats: the smallest q with
        # q^2 >= ceil(2^{2(n-1)} / n^3)
        q = isqrt(-(-(1 << (2 * (n - 1))) // n**3) - 1) + 1
        with localcontext() as ctx:
            ctx.prec = 36
            dec = Decimal(1 << (n - 1)) / Decimal(n) ** Decimal("1.5") + 2
        lower = q + 2, f"{dec:.12g}", f"2^{n - 1}/{n}^(3/2) + 2"
    report = BoundsReport(
        n,
        r,
        Fraction(1 << (n + 1), n + 2),
        *lower,
        ch_upper=Fraction(comb(n, r), n - r + 1) if r is not None else None,
    )
    check_bounds(report)
    return report


def check_bounds(report: BoundsReport) -> None:
    """Raise InternalCheckError unless report holds the exact bounds for its n and r.

    q = zn_lower_int - 2 is the ceiling of 2^{n-1}/n^{3/2} exactly when
    (q-1)^2 n^3 < 2^{2(n-1)} <= q^2 n^3, which also forces q >= 1; below
    n = 4 the zn_lower fields must be None.  zn_upper and ch_upper are
    re-derived as fractions.
    """
    n, r = report.n, report.r
    t, n3 = 1 << (2 * (n - 1)), n**3
    low = report.zn_lower_int
    if n < 4:
        if (low, report.zn_lower_decimal, report.zn_lower_radical) != (None, None, None):
            raise InternalCheckError("zn_lower is set below n = 4")
    elif low is None or not (low - 3) ** 2 * n3 < t <= (low - 2) ** 2 * n3:
        raise InternalCheckError(f"zn_lower_int {low} is not the ceiling plus 2")
    zn_upper = Fraction(1 << (n + 1), n + 2)
    if report.zn_upper != zn_upper:
        raise InternalCheckError(f"zn_upper {report.zn_upper} should be {zn_upper}")
    ch_upper = Fraction(comb(n, r), n - r + 1) if r is not None else None
    if report.ch_upper != ch_upper:
        raise InternalCheckError(f"ch_upper {report.ch_upper} should be {ch_upper}")


@dataclass(frozen=True)
class CensusReport:
    n: int
    lower_bound: int
    best_rank: int
    best_class: int
    entries: tuple[tuple[int, int, int], ...]  # (rank, residue class, flat count)
    limits: BoundsReport
    gap_to_upper: Fraction


def zn_census(n: int) -> CensusReport:
    """Certified lower bound on the max cyclic-flat count at size n.

    Scans the residue-class construction over every rank in 2..n-2 and
    keeps the best; the result is guaranteed to land between the two
    closed-form bounds, and falling outside is a build defect.
    """
    if not 4 <= n <= 24:
        raise RangeError(f"census supported for 4 <= n <= 24, got {n}")
    rows = []
    for r in range(2, n - 1):
        c, size = gs_best_class(n, r)
        rows.append((r, c, size + 2))  # plus the empty and full flats
    best = max(rows, key=lambda row: row[2])  # ties keep the smallest rank
    limits = bounds(n)
    lower = best[2]
    if not limits.zn_lower_int <= lower <= limits.zn_upper:
        raise InternalCheckError(
            f"census bound {lower} escapes [{limits.zn_lower_int}, {limits.zn_upper}]"
        )
    return CensusReport(
        n=n,
        lower_bound=lower,
        best_rank=best[0],
        best_class=best[1],
        entries=tuple(rows),
        limits=limits,
        gap_to_upper=limits.zn_upper - lower,
    )
