"""Cyclic orderings whose length-r windows are all bases.

A cyclic order of the ground set is a witness when every window of r
cyclically consecutive elements is a basis.  Existence is decided by a
density test: a witness forces r * |A| <= rank(A) * n for every
nonempty subset A, and in a sparse paving matroid only the designated
dependent r-sets can violate that bound, so the test collapses to a
closed form on (n, r).

The constructive route reads windows of length w = min(r, n - r), as
brute_force_order does: for 2r > n the r-window starting at p is the
complement of the (n-r)-window starting at p + r, so testing the
complements of the w-windows tests every r-window, and no dual is
built.  It samples cycles until one has at most one dependent w-window.
By Markov's inequality and the (w-1)-subset packing bound a uniform
draw has at most one dependent window with probability at least
2 / (n+2), so all 64n draws miss with probability at most
e^(-128n / (n+2)), which is e^(-96) or less once w >= 3.  A lone
bad window is then repaired by trying six fixed rearrangements of four
consecutive entries, the last of which ends at the window's first
slot.  The case analysis behind the six candidates uses only the fact
that two dependent w-windows never differ in exactly two elements (nor
do their complements), so a failure of all six is reported as an
internal error.

For disjoint bases B1 and B2, gabow_cycle_any orders X = B1 | B2 so
that both stay contiguous and every r cyclically consecutive elements
form a basis: a greedy pass orders the second block so that every window
starting in the first block is a basis, then local repairs strictly
reduce the number of bad windows starting in the second block.  X
contains B1, so M|X has rank r and an r-subset of X is a basis of M|X
exactly when it is one of M: windows are tested in m's own labels.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

from .bitset import ElementSet, as_mask, bits, elements, format_set, lowest_element
from .core import (
    SparsePavingMatroid,
    _as_subset,
    _check_bases,
    _rank_levels,
    _size_families,
    basis_predicate,
    check_ground,
    explicit_rank,
    rank_of,
)
from .errors import (
    GroundSetMismatch,
    InternalCheckError,
    NotDisjoint,
    TooLarge,
    guaranteed,
)

# Rearrangements of four consecutive positions, tried in order when a
# single dependent window sits at positions 3 .. r+2.  Entry k of a
# pattern names which old position supplies the new entry at offset k.
_REPAIR_PATTERNS = (
    (0, 1, 3, 2),
    (0, 2, 3, 1),
    (0, 3, 2, 1),
    (2, 3, 0, 1),
    (3, 2, 0, 1),
    (1, 2, 3, 0),
)


def _checked_order(n: int, order) -> tuple[int, ...]:
    # operator.index raises TypeError on an entry that is not an int, before any window rolls
    out = tuple(order)
    if sorted(map(operator.index, out)) != list(range(n)):
        raise GroundSetMismatch(f"order {out} does not cover 0..{n - 1} exactly once")
    return out


def _dependent_windows(pred, n: int, r: int, order) -> list[int]:
    """Start positions of the cyclically consecutive r-windows that fail pred."""
    if r == 0 or r == n:
        # exactly one r-subset exists and a valid matroid makes it a basis
        return []
    w = 0
    for e in order[:r]:
        w |= 1 << e
    out = []
    for p in range(n):
        if not pred(w):
            out.append(p)
        w = (w & ~(1 << order[p])) | (1 << order[(p + r) % n])
    return out


def ch_interval_count(m, order) -> int:
    """How many length-r windows of the cyclic order are dependent.

    The order is a witness iff this returns 0.
    """
    pred, n, r = basis_predicate(m)
    return len(_dependent_windows(pred, n, r, _checked_order(n, order)))


def average_ch_intervals(m: SparsePavingMatroid) -> Fraction:
    """Exact mean of ch_interval_count over all (n-1)! rooted cycles.

    Each dependent r-set is a window of r! (n-r)! rooted cycles, which
    gives the closed form directly.  The value is below 2 whenever
    2r <= n, which is what guarantees a near-witness cycle exists.
    """
    check_ground(m.n, 1)
    num = len(m.chset) * math.factorial(m.r) * math.factorial(m.n - m.r)
    return Fraction(num, math.factorial(m.n - 1))


def check_density(m) -> tuple[bool, ElementSet | None]:
    """Test r * |A| <= rank(A) * n for every nonempty subset A.

    Sparse paving closed form: subsets that are not designated
    dependent r-sets satisfy the bound automatically (their rank is
    min(|A|, r)), and a designated set violates it iff r*r > (r-1)*n.
    An ExplicitMatroid is scanned as whole families: the rank levels
    R_j of core._rank_levels against the k-subsets, the smallest
    violating mask being the witness; n > MAX_SCAN_GROUND (20) is
    refused.  Returns (True, None) or (False, witness_mask).
    """
    if isinstance(m, SparsePavingMatroid):
        if not m.chset or m.n * (m.r - 1) >= m.r * m.r:
            return True, None
        return False, m.chset[0]
    _, levels = _rank_levels(m, "explicit density scan")  # refuses a non-matroid
    n, r = m.n, m.r
    sizes = _size_families(n, n)
    # a k-set breaks the bound iff its rank is below k*r/n, that is,
    # iff it lies outside R_j for the least j with j*n >= k*r
    bad = 0
    for k in range(1, n + 1):
        bad |= sizes[k] & ~levels[-(-k * r // n)]
    if not bad:
        return True, None
    return False, lowest_element(bad)


def check_density_witness(m, w: ElementSet) -> None:
    """Raise InternalCheckError unless w proves that m has no witness order.

    A witness order needs r * |w| <= rank(w) * n: each element of w sits
    in r of the n windows, and each window, being a basis, meets w in at
    most rank(w) elements.  A nonempty w that breaks the bound is
    therefore a certificate that no witness order exists.
    """
    rank = rank_of if isinstance(m, SparsePavingMatroid) else explicit_rank
    if w >> m.n or m.r * w.bit_count() <= rank(m, w) * m.n:
        raise InternalCheckError(f"{format_set(w)} is not a density witness")


def _rank_two_order(ground: int, pairs) -> tuple[int, ...]:
    # the dependent 2-sets on the window side, at least one; density gave n >= 4.
    # Dependent pairs are disjoint (two sharing an element would be at
    # symmetric difference 2), so sorting them orders their first members.
    # Separate each dependent pair cyclically: first members, then the
    # untouched elements, then second members.  A window is bad only if
    # it equals some dependent pair, and no two such pair members end
    # up adjacent (with one pair, interleave a free element instead).
    firsts, seconds = zip(*sorted(map(elements, pairs)))
    free = elements(ground & ~as_mask(firsts + seconds))
    if len(firsts) == 1:
        return (firsts[0], free[0], seconds[0], *free[1:])
    return (*firsts, *free, *seconds)


def _near_witness_cycle(pred, n: int, r: int, seed: int) -> tuple[int, ...]:
    """A cycle with at most one dependent window, by seeded sampling.

    Needs 2r <= n and r >= 3.  Each window of a uniform cycle is a
    uniform r-set, so the dependent-window count X has mean
    E[X] = |ch| * n / C(n, r) <= n / (n-r+1) <= 2n / (n+2), by the
    (r-1)-subset packing bound |ch| <= C(n, r) / (n-r+1).  Markov's
    inequality P(X >= 2) <= E[X] / 2 then makes each draw hit with
    probability at least 2 / (n+2), so all 64n draws miss with
    probability at most e^(-128n / (n+2)) <= e^(-96), as n >= 6.
    Running out means the sampler is broken.
    """
    rng = random.Random(seed)
    work = list(range(n))
    for _ in range(64 * n):
        rng.shuffle(work)
        if len(_dependent_windows(pred, n, r, work)) <= 1:
            return tuple(work)
    raise InternalCheckError("sampling cap hit while looking for a near-witness cycle")


def _repair_single_window(pred, n: int, r: int, cand: tuple[int, ...]) -> tuple[int, ...]:
    bad = _dependent_windows(pred, n, r, cand)
    if not bad:
        return cand
    # rotate the lone bad window to start at position 3
    p = bad[0]
    rot = tuple(cand[(p - 3 + i) % n] for i in range(n))
    trials = (tuple(rot[i] for i in pat) + rot[4:] for pat in _REPAIR_PATTERNS)
    fixed = (t for t in trials if not _dependent_windows(pred, n, r, t))
    return guaranteed(next(fixed, None), "all repair patterns left a dependent window")


def find_cyclic_order(m: SparsePavingMatroid, seed: int = 0):
    """A witness cyclic order, or None when the density test fails.

    The density test is exact for sparse paving matroids, so None means
    no witness exists at all, not a search failure.
    """
    if not isinstance(m, SparsePavingMatroid):
        raise TypeError(f"expected a SparsePavingMatroid, got {type(m).__name__}")
    ok, _ = check_density(m)
    if not ok:
        return None
    pred, n, r = basis_predicate(m)
    if not m.chset:
        return tuple(range(n))
    # density with a dependent set present forces r(n - r) >= n, so w >= 2;
    # for 2r > n each w-window is tested by its complement, as in brute_force_order
    w, ground = min(r, n - r), m.ground
    if w == 2:
        out = _rank_two_order(ground, m.chset if r == 2 else [ground ^ h for h in m.chset])
    else:
        test = pred if w == r else lambda c: pred(ground ^ c)
        out = _repair_single_window(test, n, w, _near_witness_cycle(test, n, w, seed))
    check_cyclic_order(m, out)
    return out


def check_cyclic_order(m, order) -> None:
    """Raise InternalCheckError unless order is a witness cyclic order of m."""
    pred, n, r = basis_predicate(m)
    try:
        checked = _checked_order(n, order)
    except (GroundSetMismatch, TypeError) as e:
        raise InternalCheckError(f"{order!r} is not an order of the ground set") from e
    if _dependent_windows(pred, n, r, checked):
        raise InternalCheckError(f"order {checked} has a dependent window")


# -- two contiguous blocks from a disjoint basis pair -------------------------


def _problem_positions(pred, r: int, b: list, c: list) -> list[int] | None:
    # None if a window starting in the first block fails, else the failing
    # windows starting in the second block.  None of them is the block
    # itself, at r: it is the basis _disjoint_bases checked, in some order
    bad = _dependent_windows(pred, 2 * r, r, b + c)
    return None if bad and bad[0] < r else [p - r for p in bad]


def _swapped(seq: list, i: int, j: int) -> list:
    t = list(seq)
    t[i], t[j] = t[j], t[i]
    return t


def _disjoint_bases(pred, n: int, b1, b2) -> tuple[int, int]:
    b1m, b2m = _check_bases(pred, n, (b1, b2), "block")
    if b1m & b2m:
        raise NotDisjoint(f"{format_set(b1m)} and {format_set(b2m)} share elements")
    return b1m, b2m


def check_block_cycle(m, cyc, b1: int, b2: int) -> None:
    """Raise InternalCheckError unless cyc is a witness cycle with blocks b1, b2.

    cyc must list the elements of b1, then those of b2, and every
    window of r cyclically consecutive entries must be a basis of m.
    The blocks need not cover the ground set, as with gabow_cycle_any.
    b1 and b2 go through the argument gate, and an entry of cyc past the
    ground set fails the certificate before any mask is built from it,
    as does a negative or non-int entry.
    """
    pred, n, r = basis_predicate(m)
    b1, b2 = _as_subset(n, b1, "block"), _as_subset(n, b2, "block")
    try:  # a non-int or negative entry raises TypeError in max or ValueError in as_mask
        wide = cyc and max(cyc) >= n
        if len(cyc) != 2 * r or wide or as_mask(cyc[:r]) != b1 or as_mask(cyc[r:]) != b2:
            raise ValueError
    except (TypeError, ValueError) as e:
        raise InternalCheckError(f"cycle {cyc} does not list the blocks in order") from e
    if _dependent_windows(pred, 2 * r, r, cyc):
        raise InternalCheckError(f"cycle {cyc} has a dependent window")


def gabow_cycle(m: SparsePavingMatroid, b1, b2) -> tuple[int, ...]:
    """Witness cycle (first block, second block) for disjoint bases.

    Requires the two bases to partition the ground set, so n = 2r;
    gabow_cycle_any drops that requirement.
    """
    pred, n, r = basis_predicate(m)
    b1m, b2m = _disjoint_bases(pred, n, b1, b2)
    if b1m | b2m != m.ground:
        raise GroundSetMismatch("bases do not cover the ground set; use gabow_cycle_any")
    return _block_cycle(m, pred, r, b1m, b2m)


def gabow_cycle_any(m: SparsePavingMatroid, b1, b2) -> tuple[int, ...]:
    """Witness cycle of the restriction to b1 | b2, in m's own labels.

    b1 | b2 contains the basis b1, so the restriction's bases are the
    bases of m inside it, and no minor is built.
    """
    pred, n, r = basis_predicate(m)
    return _block_cycle(m, pred, r, *_disjoint_bases(pred, n, b1, b2))


def _block_cycle(m, pred, r: int, b1m: int, b2m: int) -> tuple[int, ...]:
    """b1m's elements, then b2m's, ordered so every r-window passes m's predicate pred.

    Each repair after the greedy pass permutes at most three entries and
    strictly reduces the number of bad windows, so at most r - 1 run.
    """
    b = list(elements(b1m))
    c: list[int] = []
    unused = list(elements(b2m))
    suffix = b1m
    for i in range(r):
        suffix ^= 1 << b[i]  # b[i + 1 :] plus the picks so far
        # none would contradict independent-set augmentation against the second basis
        pick = next((y for y in unused if pred(suffix | (1 << y))), None)
        c.append(guaranteed(pick, "greedy block ordering stalled"))
        unused.remove(pick)
        suffix |= 1 << pick

    probs = _problem_positions(pred, r, b, c)
    while probs:
        i = probs[0]  # 1 <= i <= r - 1
        trials = [(b, _swapped(c, i - 1, i)), (_swapped(b, i - 1, i), c)]
        if i <= r - 2:
            trials.append((b, c[: i - 1] + [c[i + 1], c[i - 1], c[i]] + c[i + 2 :]))
        elif i >= 2:
            trials.append((b, c[: i - 2] + [c[i - 1], c[i], c[i - 2]]))
        fewer = (
            (nb, nc, np_)
            for nb, nc in trials
            if (np_ := _problem_positions(pred, r, nb, nc)) is not None and len(np_) < len(probs)
        )
        b, c, probs = guaranteed(next(fewer, None), "no repair reduced the bad window count")

    out = tuple(b) + tuple(c)
    check_block_cycle(m, out, b1m, b2m)
    return out


def brute_force_order(m):
    """The lexicographically first witness starting at 0, or None; oracle use only.

    Fixing element 0 in front enumerates each cyclic order exactly once.
    The search is depth first over these rooted cycles: 0, then the
    unplaced elements in ascending order, so prefixes come in the
    lexicographic order of itertools.permutations(range(1, n)).  A
    window is tested as soon as its last element is placed (the w - 1
    windows that wrap round once the cycle closes), and a prefix is
    abandoned at its first dependent window.  Only subtrees holding no
    witness are skipped, so the first full order reached is the one a
    scan of all (n-1)! cycles would return.

    Windows have length w = min(r, n - r).  When 2r > n, the r-window
    starting at position p is the complement of the (n-r)-window
    starting at p + r, and p -> p + r permutes the start positions, so
    pred(ground ^ C) over the (n-r)-windows C tests every r-window
    itself: no duality theorem is assumed, and high ranks prune as
    early as low ones.

    Every window inside a prefix has passed.  Each untested window
    meets the unplaced elements, and its placed part lies among the
    first w - 1 or the last w - 1 entries of the prefix.  So whether a
    prefix extends to a witness depends only on (unplaced set, first
    w - 1 entries, last w - 1 entries), and a prefix that fails stores
    that key for later prefixes to skip.  Each abandoned prefix adds at
    most one key, so the set never outgrows the search, which visits
    fewer than e * (n-1)! < 110,000 prefixes at n = 9.  Refuses n > 9.
    """
    pred, n, r = basis_predicate(m)
    if n > 9:
        raise TooLarge(f"n = {n} is past the oracle guard of 9")
    w = min(r, n - r)
    if w == 0:
        # every window is the one r-subset, a basis of any valid matroid
        return tuple(range(n))
    ground = (1 << n) - 1
    test = pred if w == r else lambda c: pred(ground ^ c)
    k = w - 1
    placed: list[int] = []  # the prefix, as one-element masks
    failed = set()

    def extend(left: int) -> bool:
        d = len(placed)
        if not left:
            return all(test(sum(placed[n - j :]) | sum(placed[: w - j])) for j in range(1, w))
        tail = tuple(placed[max(d - k, 0) :])
        key = (left, tuple(placed[:k]), tail)
        if key in failed:
            return False
        last = sum(tail)
        for b in bits(left) if placed else (1,):  # 0 goes first
            if d >= k and not test(last | b):
                continue
            placed.append(b)
            if extend(left ^ b):
                return True
            placed.pop()
        failed.add(key)
        return False

    return tuple(b.bit_length() - 1 for b in placed) if extend(ground) else None
