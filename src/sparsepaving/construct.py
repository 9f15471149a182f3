"""Families of sparse paving matroids.

The residue-class construction takes all r-subsets whose element sum
falls in a fixed class mod n.  Two r-sets at symmetric difference 2
differ in exactly one element, so their sums land in different classes;
every class is therefore a valid designated-set family, and the largest
class has at least binomial(n, r) / n members.

A class is built without visiting the other n - 1: the ground set is
split in half, and the j-subsets of the low half, bucketed by sum mod
n, are joined with the (r - j)-subsets of the high half whose sums
complete the residue.  An r-set of more than half its range is read
off its complement, so every split asks for at most half its range.  By
Vandermonde's identity each bucketed side then holds at most about
binomial(n, r) / (n/2) masks, a small multiple of the class size; the
time is about r times the class size plus the splits.

The random generator greedily grows a designated family in a shuffled
order, which is enough to produce awkward test instances.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from operator import add

from .bitset import bits, iter_elements, subset_masks
from .core import SparsePavingMatroid, _comb_exceeds, check_ground, validate
from .errors import RangeError, RankOutOfRange, ResidueOutOfRange, TooLarge


def _check_nr(n: int, r: int, cap: int | None = None) -> None:
    """Range checks, and the cap on enumerating all C(n, r) subsets."""
    if n < 1:
        raise RangeError(f"ground size {n} must be at least 1")
    check_ground(n)
    if not 0 <= r <= n:
        raise RankOutOfRange(f"rank {r} not in 0..{n}")
    if cap is not None and _comb_exceeds(n, r, cap):
        raise TooLarge(f"C({n}, {r}) r-subsets exceed the cap {cap}")


def graham_sloane(
    n: int, r: int, c: int | None = None, cap: int = 10_000_000
) -> SparsePavingMatroid:
    """Designate the r-subsets with element sum congruent to c mod n.

    c defaults to a largest class (gs_best_class), picked only after the
    cap check.  Only class c is enumerated, by splitting the ground set
    in half (see _class_masks), so memory stays O(class size) and the
    work stays within the C(n, r) that the cap bounds.  The result is
    validated before returning; the only way a class can fail is by
    designating every r-set, which needs binomial(n, r) = 1.
    """
    _check_nr(n, r, cap)
    if c is None:
        c = gs_best_class(n, r)[0]
    if not 0 <= c < n:
        raise ResidueOutOfRange(f"residue {c} not in 0..{n - 1}")
    m = SparsePavingMatroid(n, r, _class_masks(0, n, r, c, n))
    validate(m)
    return m


def _class_masks(lo: int, hi: int, r: int, c: int, n: int) -> list[int]:
    """The r-subsets of lo..hi-1 with element sum congruent to c mod n.

    Past half the range, take the complements of the (hi - lo - r)-sets
    of the complementary residue.  Otherwise split at mid: an r-set has
    j elements below mid and r - j above.  j = 0 and j = r recurse into
    one half with the same residue; for 0 < j < r the j-subsets of the
    low half, bucketed by sum mod n, are joined with the (r - j)-subsets
    of the high half in the matching bucket.  Every element is below n,
    so a 1-subset is in class c only as {c}.

    Invariant: r <= hi - lo.  It holds for r <= n, for the complement's
    hi - lo - r, and for both halves, as a split needs hi - lo >= 2r.
    """
    if r == 0:
        return [0] if c == 0 else []
    if r == 1:
        return [1 << c] if lo <= c < hi else []
    if 2 * r > hi - lo:
        full, total = (1 << hi) - (1 << lo), sum(range(lo, hi))
        rest = _class_masks(lo, hi, hi - lo - r, (total - c) % n, n)
        return [full ^ m for m in rest]
    mid = (lo + hi) // 2
    out = _class_masks(lo, mid, r, c, n) + _class_masks(mid, hi, r, c, n)
    for j in range(max(1, r - (hi - mid)), min(r - 1, mid - lo) + 1):
        low = _sum_buckets(lo, mid, j, n)
        high = _sum_buckets(mid, hi, r - j, n)
        for s, lows in low.items():
            highs = high.get((c - s) % n)
            if highs:
                out += [a | b for a in lows for b in highs]
    return out


def _sum_buckets(lo: int, hi: int, k: int, n: int) -> dict[int, list[int]]:
    """The k-subsets of lo..hi-1 as masks, keyed by element sum mod n.

    Both combination streams run in the same lexicographic order, so
    the element sums and the masks pair up one to one.
    """
    out: dict[int, list[int]] = {}
    sums = map(sum, combinations(range(lo, hi), k))
    masks = map(sum, combinations(bits((1 << hi) - (1 << lo)), k))
    for s, mask in zip(sums, masks):
        out.setdefault(s % n, []).append(mask)
    return out


def gs_class_sizes(n: int, r: int) -> list[int]:
    """Size of every residue class, by counting instead of enumerating."""
    _check_nr(n, r)
    return _class_table(n, r)[r]


def _class_table(n: int, rmax: int) -> list[list[int]]:
    """table[k][s] counts the k-subsets of 0..n-1 with sum s mod n, k <= rmax.

    Adding element e adds row k - 1, rotated by e, to row k: n * rmax
    rotations of length n, so O(n^2 * rmax) additions for all rows.
    """
    table = [[0] * n for _ in range(rmax + 1)]
    table[0][0] = 1
    for e in range(n):
        cut = -e % n
        for k in range(min(e + 1, rmax), 0, -1):
            prev = table[k - 1]
            table[k] = list(map(add, table[k], prev[cut:] + prev[:cut]))
    assert all(sum(row) == comb(n, k) for k, row in enumerate(table))
    return table


def gs_best_class(n: int, r: int) -> tuple[int, int]:
    """Residue of a largest class and its size; ties go to the smallest residue."""
    return _largest_class(gs_class_sizes(n, r))


def _largest_class(sizes: list[int]) -> tuple[int, int]:
    """The largest entry and its residue; ties go to the smallest residue."""
    size = max(sizes)
    return sizes.index(size), size


def random_sparse_paving(
    n: int,
    r: int,
    seed: int,
    max_sets: int | None = None,
    cap: int = 10_000_000,
) -> SparsePavingMatroid:
    """Greedy random designated family, deterministic for a fixed seed.

    Candidates are visited in a shuffled order and kept when they stay
    at symmetric difference >= 4 from everything kept so far and leave
    at least one basis.  The proximity test hashes (r-1)-subsets, the
    same trick validate() uses.
    """
    _check_nr(n, r, cap)
    rng = random.Random(seed)
    pool = list(subset_masks(n, r))
    rng.shuffle(pool)
    total = len(pool)
    taken: list[int] = []
    seen: dict[int, int] = {}
    for s in pool:
        if max_sets is not None and len(taken) >= max_sets:
            break
        if len(taken) + 1 == total:
            break  # keep one basis
        keys = [s ^ (1 << e) for e in iter_elements(s)]
        if any(k in seen for k in keys):
            continue
        for k in keys:
            seen[k] = s
        taken.append(s)
    m = SparsePavingMatroid(n, r, taken)
    validate(m)
    return m
