"""Families of sparse paving matroids.

The residue-class construction takes all r-subsets whose element sum
falls in a fixed class mod n.  Two r-sets at symmetric difference 2
differ in exactly one element, so their sums land in different classes;
every class is therefore a valid designated-set family, and the largest
class has at least binomial(n, r) / n members.

The random generator greedily grows a designated family in a shuffled
order, which is enough to produce awkward test instances.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from .bitset import as_mask, iter_elements, subset_masks
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
    cap check.  The result is validated before returning; the only way a
    class can fail is by designating every r-set, which needs
    binomial(n, r) = 1.
    """
    _check_nr(n, r, cap)
    if c is None:
        c = gs_best_class(n, r)[0]
    if not 0 <= c < n:
        raise ResidueOutOfRange(f"residue {c} not in 0..{n - 1}")
    chs = []
    for combo in combinations(range(n), r):
        if sum(combo) % n == c:
            chs.append(as_mask(combo))
    m = SparsePavingMatroid(n, r, chs)
    validate(m)
    return m


def gs_class_sizes(n: int, r: int) -> list[int]:
    """Size of every residue class, by counting instead of enumerating.

    ways[s] after processing elements 0..e-1 counts the r'-subsets with
    sum s mod n, for each partial size r'.  O(n^2 * r) time.
    """
    _check_nr(n, r)
    # table[k][s] = number of k-subsets of processed elements with sum = s mod n
    table = [[0] * n for _ in range(r + 1)]
    table[0][0] = 1
    for e in range(n):
        for k in range(min(e + 1, r), 0, -1):
            row, prev = table[k], table[k - 1]
            for s in range(n):
                row[s] += prev[(s - e) % n]
    sizes = table[r]
    assert sum(sizes) == comb(n, r)
    return list(sizes)


def gs_best_class(n: int, r: int) -> tuple[int, int]:
    """Residue of a largest class and its size; ties go to the smallest residue."""
    sizes = gs_class_sizes(n, r)
    best = max(range(n), key=lambda c: (sizes[c], -c))
    return best, sizes[best]


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
