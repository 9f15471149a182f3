"""Cyclic orderings whose length-r windows are all bases.

A cyclic order of the ground set is a witness when every window of r
cyclically consecutive elements is a basis.  Existence is decided by a
density test: a witness forces r * |A| <= rank(A) * n for every
nonempty subset A, and in a sparse paving matroid only the designated
dependent r-sets can violate that bound, so the test collapses to a
closed form on (n, r).

The constructive route works on the side with 2r <= n (a cyclic order
witnesses a matroid iff it witnesses the dual, by complementing
windows).  It samples cycles until one has at most one dependent
window.  By Markov's inequality and the (r-1)-subset packing bound a
uniform draw has at most one dependent window with probability at
least 2 / (n+2), so all 64n draws miss with probability at most
e^(-128n / (n+2)), which is e^(-96) or less once r >= 3.  A lone
bad window is then repaired by trying six fixed rearrangements of four
consecutive entries, the last of which ends at the window's first
slot.  The case analysis behind the six candidates uses only the fact
that two dependent r-sets never differ in exactly two elements, so a
failure of all six is reported as an internal error.

For disjoint bases B1 and B2, gabow_cycle_any orders X = B1 | B2 so
that both stay contiguous and every r cyclically consecutive elements
form a basis: a greedy pass orders the second block so that every window
starting in the first block is a basis, then local repairs strictly
reduce the number of bad windows starting in the second block.  X
contains B1, so M|X has rank r and an r-subset of X is a basis of M|X
exactly when it is one of M: windows are tested in m's own labels.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from fractions import Fraction

from .bitset import ElementSet, as_mask, elements, format_set
from .core import (
    ExplicitMatroid,
    SparsePavingMatroid,
    basis_predicate,
    dual,
    explicit_rank,
    is_basis,
    rank_of,
)
from .errors import (
    GroundSetMismatch,
    InternalCheckError,
    NotBases,
    NotDisjoint,
    PreconditionViolated,
    TooLarge,
)

log = logging.getLogger(__name__)

CyclicOrder = tuple

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
    out = tuple(order)
    if len(out) != n:
        raise GroundSetMismatch(f"order has {len(out)} entries, ground set has {n}")
    seen = 0
    for e in out:
        if not isinstance(e, int) or not 0 <= e < n or (seen >> e) & 1:
            raise GroundSetMismatch(f"order {out} does not cover 0..{n - 1} exactly once")
        seen |= 1 << e
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
    if m.n < 1:
        raise PreconditionViolated("need at least one element")
    num = len(m.chset) * math.factorial(m.r) * math.factorial(m.n - m.r)
    return Fraction(num, math.factorial(m.n - 1))


def check_density(m) -> tuple[bool, ElementSet | None]:
    """Test r * |A| <= rank(A) * n for every nonempty subset A.

    Sparse paving closed form: subsets that are not designated
    dependent r-sets satisfy the bound automatically (their rank is
    min(|A|, r)), and a designated set violates it iff r*r > (r-1)*n.
    Returns (True, None) or (False, witness_mask).
    """
    if isinstance(m, SparsePavingMatroid):
        if not m.chset or m.n * (m.r - 1) >= m.r * m.r:
            return True, None
        return False, m.chset[0]
    if isinstance(m, ExplicitMatroid):
        if m.n > 20:
            raise TooLarge(f"explicit density scan over 2^{m.n} subsets refused")
        for a in range(1, 1 << m.n):
            if m.r * a.bit_count() > explicit_rank(m, a) * m.n:
                return False, a
        return True, None
    raise TypeError(f"expected a matroid, got {type(m).__name__}")


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


def _rank_two_order(m: SparsePavingMatroid) -> tuple[int, ...]:
    # r = 2 and at least one dependent pair; density gave n >= 4.
    # Separate each dependent pair cyclically: first members, then the
    # untouched elements, then second members.  A window is bad only if
    # it equals some dependent pair, and no two such pair members end
    # up adjacent (with one pair, interleave a free element instead).
    pairs = sorted(m.chset, key=lambda h: elements(h)[0])
    firsts = [elements(h)[0] for h in pairs]
    seconds = [elements(h)[1] for h in pairs]
    used = 0
    for h in pairs:
        used |= h
    free = [e for e in range(m.n) if not (used >> e) & 1]
    if len(pairs) == 1:
        return (firsts[0], free[0], seconds[0], *free[1:])
    return (*firsts, *free, *seconds)


def _near_witness_cycle(m: SparsePavingMatroid, seed: int) -> tuple[int, ...]:
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
    pred, n, r = basis_predicate(m)
    rng = random.Random(seed)
    work = list(range(n))
    for _ in range(64 * n):
        rng.shuffle(work)
        if len(_dependent_windows(pred, n, r, work)) <= 1:
            return tuple(work)
    raise InternalCheckError("sampling cap hit while looking for a near-witness cycle")


def _repair_single_window(m: SparsePavingMatroid, cand: tuple[int, ...]) -> tuple[int, ...]:
    pred, n, r = basis_predicate(m)
    bad = _dependent_windows(pred, n, r, cand)
    if not bad:
        return cand
    # rotate the lone bad window to start at position 3
    p = bad[0]
    rot = tuple(cand[(p - 3 + i) % n] for i in range(n))
    for k, pat in enumerate(_REPAIR_PATTERNS):
        trial = tuple(rot[pat[i]] if i < 4 else rot[i] for i in range(n))
        if not _dependent_windows(pred, n, r, trial):
            log.debug("window repair used pattern %d of %d", k + 1, len(_REPAIR_PATTERNS))
            return trial
    raise InternalCheckError("all repair patterns left a dependent window")


def find_cyclic_order(m: SparsePavingMatroid, seed: int = 0):
    """A witness cyclic order, or None when the density test fails.

    The density test is exact for sparse paving matroids, so None means
    no witness exists at all, not a search failure.
    """
    ok, _ = check_density(m)
    if not ok:
        return None
    n, r = m.n, m.r
    if not m.chset:
        return tuple(range(n))
    if 2 * r > n:
        out = find_cyclic_order(dual(m), seed=seed)
        # complementary windows: a witness for the dual is one for m
    elif r == 2:
        out = _rank_two_order(m)
    else:
        # density with a dependent set present forces r >= 3 here, and
        # 2r <= n then forces n - r >= 3
        out = _repair_single_window(m, _near_witness_cycle(m, seed))
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


def _starts_properly(m, b: list, c: list) -> bool:
    # windows beginning inside the first block
    pred, _, r = basis_predicate(m)
    return all(p >= r for p in _dependent_windows(pred, 2 * r, r, b + c))


def _problem_positions(m, b: list, c: list) -> list[int]:
    # windows beginning inside the second block; position 0 is the
    # block itself and cannot fail
    pred, _, r = basis_predicate(m)
    return [p - r for p in _dependent_windows(pred, 2 * r, r, b + c) if p > r]


def _swapped(seq: list, i: int, j: int) -> list:
    t = list(seq)
    t[i], t[j] = t[j], t[i]
    return t


def _disjoint_bases(m, b1, b2) -> tuple[int, int]:
    b1m, b2m = as_mask(b1), as_mask(b2)
    if not is_basis(m, b1m) or not is_basis(m, b2m):
        raise NotBases(f"{format_set(b1m)} / {format_set(b2m)} are not both bases")
    if b1m & b2m:
        raise NotDisjoint(f"{format_set(b1m)} and {format_set(b2m)} share elements")
    return b1m, b2m


def check_block_cycle(m, cyc, b1: int, b2: int) -> None:
    """Raise InternalCheckError unless cyc is a witness cycle with blocks b1, b2.

    cyc must list the elements of b1, then those of b2, and every
    window of r cyclically consecutive entries must be a basis of m.
    The blocks need not cover the ground set, as with gabow_cycle_any.
    """
    pred, _, r = basis_predicate(m)
    if len(cyc) != 2 * r or as_mask(cyc[:r]) != b1 or as_mask(cyc[r:]) != b2:
        raise InternalCheckError(f"cycle {cyc} does not list the blocks in order")
    if _dependent_windows(pred, 2 * r, r, cyc):
        raise InternalCheckError(f"cycle {cyc} has a dependent window")


def gabow_cycle(m: SparsePavingMatroid, b1, b2) -> tuple[int, ...]:
    """Witness cycle (first block, second block) for disjoint bases.

    Requires the two bases to partition the ground set, so n = 2r;
    gabow_cycle_any drops that requirement.
    """
    b1m, b2m = _disjoint_bases(m, b1, b2)
    if b1m | b2m != m.ground:
        raise GroundSetMismatch("bases do not cover the ground set; use gabow_cycle_any")
    return _block_cycle(m, b1m, b2m)


def gabow_cycle_any(m: SparsePavingMatroid, b1, b2) -> tuple[int, ...]:
    """Witness cycle of the restriction to b1 | b2, in m's own labels.

    b1 | b2 contains the basis b1, so the restriction's bases are the
    bases of m inside it, and no minor is built.
    """
    return _block_cycle(m, *_disjoint_bases(m, b1, b2))


def _block_cycle(m, b1m: int, b2m: int) -> tuple[int, ...]:
    """b1m's elements, then b2m's, ordered so every r-window is a basis.

    Each repair after the greedy pass permutes at most three entries and
    strictly reduces the number of bad windows, so at most r - 1 run.
    """
    pred, _, r = basis_predicate(m)
    b = list(elements(b1m))
    c: list[int] = []
    unused = list(elements(b2m))
    suffix = b1m
    for i in range(r):
        suffix ^= 1 << b[i]  # b[i + 1 :] plus the picks so far
        pick = next((y for y in unused if pred(suffix | (1 << y))), None)
        if pick is None:
            # contradicts independent-set augmentation against the second basis
            raise InternalCheckError("greedy block ordering stalled")
        c.append(pick)
        unused.remove(pick)
        suffix |= 1 << pick

    probs = _problem_positions(m, b, c)
    rounds = 0
    while probs:
        rounds += 1
        if rounds > max(r - 1, 1):
            raise InternalCheckError("window repairs exceeded the r - 1 bound")
        i = probs[0]
        if i <= r - 2:
            third = list(c)
            third[i - 1 : i + 2] = [c[i + 1], c[i - 1], c[i]]
            trials = [(b, _swapped(c, i - 1, i)), (_swapped(b, i - 1, i), c), (b, third)]
        else:
            trials = [(b, _swapped(c, r - 2, r - 1)), (_swapped(b, r - 2, r - 1), c)]
            if r >= 3:
                third = list(c)
                third[r - 3 :] = [c[r - 2], c[r - 1], c[r - 3]]
                trials.append((b, third))
        for nb, nc in trials:
            np_ = _problem_positions(m, nb, nc)
            if len(np_) < len(probs) and _starts_properly(m, nb, nc):
                b, c, probs = nb, nc, np_
                break
        else:
            raise InternalCheckError("no repair reduced the bad window count")

    out = tuple(b) + tuple(c)
    check_block_cycle(m, out, b1m, b2m)
    return out


def brute_force_order(m, cap: int = 9):
    """Exhaustive witness search over all rooted cycles; oracle use only.

    Fixing element 0 in front enumerates each cyclic order exactly once.
    Returns the lexicographically first witness, or None.
    """
    pred, n, r = basis_predicate(m)
    if n > cap:
        raise TooLarge(f"{math.factorial(max(n - 1, 0))} cycles is past the oracle guard")
    if n == 0:
        return ()
    for tail in itertools.permutations(range(1, n)):
        cand = (0, *tail)
        if not _dependent_windows(pred, n, r, cand):
            return cand
    return None
