"""Families of sparse paving matroids.

The residue-class construction takes all r-subsets whose element sum
falls in a fixed class mod n.  Two r-sets at symmetric difference 2
differ in exactly one element, so their sums land in different classes;
every class is therefore a valid designated-set family, and the largest
class has at least binomial(n, r) / n members.

So a built class is certified by its residues, not by validate
(check_class): each set has r elements inside 0..n-1 and sum c mod n,
and there are as many as Graham and Sloane's divisor sum gives class c.
Those sets are then exactly class c, separated by the theorem above,
and a basis is left unless the class has all binomial(n, r) r-sets.

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
import sys
from itertools import combinations, filterfalse
from math import comb, gcd

from .bitset import bits, format_set, iter_elements, subset_masks, subsets
from .core import MAX_EXPLICIT_WORK, SparsePavingMatroid, check_rank, validate
from .errors import InternalCheckError, NoBasis, ResidueOutOfRange, TooLarge


def graham_sloane(
    n: int, r: int, c: int | None = None, cap: int = MAX_EXPLICIT_WORK
) -> SparsePavingMatroid:
    """Designate the r-subsets with element sum congruent to c mod n.

    c defaults to a largest class (gs_best_class), picked only after the
    cap check.  Only class c is enumerated, by splitting the ground set
    in half (see _class_masks), so memory stays O(class size) and the
    work stays within the C(n, r) that the cap bounds.  The result is
    certified by check_class, not by validate: a family that is exactly
    class c is separated by Graham and Sloane's theorem, so the only
    way it can fail to be sparse paving is by designating every r-set,
    which needs binomial(n, r) = 1 and raises NoBasis.
    """
    check_rank(n, r, 1)
    if comb(n, r) > cap:
        raise TooLarge(f"C({n}, {r}) r-subsets exceed the cap {cap}")
    if c is None:
        c = gs_best_class(n, r)[0]
    if not 0 <= c < n:
        raise ResidueOutOfRange(f"residue {c} not in 0..{n - 1}")
    m = SparsePavingMatroid(n, r, _class_masks(0, n, r, c, n))
    check_class(m, c)
    return m


def check_class(m: SparsePavingMatroid, c: int) -> None:
    """Certify that m designates exactly residue class c of its (n, r).

    Every set must have r elements, all inside 0..n-1, and element sum
    c mod n, and the sets must number gs_class_sizes(n, r)[c]: then they
    are all of class c, so separated, and InternalCheckError names the
    first fault otherwise.  The count is taken after the constructor's
    dedup, so a repeated set is caught too.  A class of all C(n, r)
    r-sets leaves no basis: NoBasis.  The sums come from _residues,
    which reads the labels alone, not _class_masks' buckets.
    """
    n, r, chset = m.n, m.r, m.chset
    # chset ascends, so its last mask is the largest
    if chset and chset[-1] >> n or set(map(int.bit_count, chset)) - {r}:
        h = next(h for h in chset if h >> n or h.bit_count() != r)
        raise InternalCheckError(
            f"class {c} set {format_set(h)} is not {r} elements of 0..{n - 1}"
        )
    sums = _residues(n, r, chset)
    if set(sums) - {c}:
        s, h = next((s, h) for s, h in zip(sums, chset) if s != c)
        raise InternalCheckError(f"class {c} set {format_set(h)} sums to {s} mod {n}")
    size = gs_class_sizes(n, r)[c]
    if len(chset) != size:
        raise InternalCheckError(f"class {c} has {len(chset)} r-sets, not {size}")
    if size >= comb(n, r):
        raise NoBasis(f"all {size} r-subsets are designated dependent")


def _residues(n: int, r: int, sets: tuple[int, ...]) -> list[int]:
    """Each set's element sum mod n, for r-subsets of 0..n-1.

    Look the low and high halves of each mask up in two tables of
    subset sums when the larger table has at most twice as many entries
    as the sets hold elements: filling an entry costs about a sixth of
    summing an element, and the tables stay within a small multiple of
    the family's size.  Otherwise sum the elements, or for 2r > n the
    fewer elements of the complement.  Measured near the crossover,
    tables against element sums: (30, 5) 1.5 against 2.9 ms, (34, 5)
    6.1 against 6.5 ms, (30, 4) 1.2 against 0.5 ms.
    """
    k = n // 2
    if 1 << (n - k) <= 2 * len(sets) * min(r, n - r):
        low, high, lows = _sum_table(0, k), _sum_table(k, n), (1 << k) - 1
        return [(low[h & lows] + high[h >> k]) % n for h in sets]
    if 2 * r > n:
        ground, total = (1 << n) - 1, n * (n - 1) // 2
        return [(total - sum(iter_elements(ground ^ h))) % n for h in sets]
    return [sum(iter_elements(h)) % n for h in sets]


def _sum_table(lo: int, hi: int) -> list[int]:
    """table[b]: the element sum of the subset of lo..hi-1 whose mask is b << lo.

    Filled one element at a time: the subsets holding e are those
    without it, shifted up by e's bit, with e added to their sums.
    """
    table = [0]
    for e in range(lo, hi):
        table += [s + e for s in table]
    return table


def _class_masks(lo: int, hi: int, r: int, c: int, n: int) -> list[int]:
    """The r-subsets of lo..hi-1 with element sum congruent to c mod n.

    Past half the range, take the complements of the (hi - lo - r)-sets
    of the complementary residue.  Otherwise split at mid: an r-set has
    j elements below mid and r - j above.  j = 0 and j = r recurse into
    one half with the same residue; for 0 < j < r the j-subsets of the
    low half, bucketed by sum mod n, are joined with the (r - j)-subsets
    of the high half in the matching bucket.

    Invariant: r <= hi - lo.  It holds for r <= n, for the complement's
    hi - lo - r, and for both halves, as a split needs hi - lo >= 2r.
    """
    if r == 0:
        return [0] if c == 0 else []
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
    for s, mask in zip(sums, subsets((1 << hi) - (1 << lo), k)):
        out.setdefault(s % n, []).append(mask)
    return out


def gs_class_sizes(n: int, r: int) -> list[int]:
    """Size of every residue class, from Graham and Sloane's divisor sum.

    Class s has (1/n) * sum of t_d * c_d(s) over d | g = gcd(n, r), with
    t_d = (-1)^(r + r/d) * C(n/d, r/d) and c_d Ramanujan's sum.  Expanding
    c_d by Moebius, that is (1/n) * sum of d * u_d over the d | g that
    divide s, where u_d is t_d less the u_e of the proper multiples e of
    d that divide g; u is found from the largest divisor down, in integers.
    """
    check_rank(n, r, 1)
    g = gcd(n, r)
    u: dict[int, int] = {}
    for d in range(g, 0, -1):
        if g % d == 0:
            t = (-1) ** (r + r // d) * comb(n // d, r // d)
            u[d] = t - sum(v for e, v in u.items() if e % d == 0)
    out = [0] * n
    for d, v in u.items():
        out[::d] = [x + d * v for x in out[::d]]
    return [x // n for x in out]


def gs_best_class(n: int, r: int) -> tuple[int, int]:
    """Residue of a largest class and its size; ties go to the smallest residue."""
    sizes = gs_class_sizes(n, r)
    size = max(sizes)
    return sizes.index(size), size


def random_sparse_paving(
    n: int, r: int, seed: int, max_sets: int | None = None, cap: int = MAX_EXPLICIT_WORK
) -> SparsePavingMatroid:
    """Greedy random designated family, deterministic for a fixed seed.

    Candidates are visited in a shuffled order and kept when they stay
    at symmetric difference >= 4 from everything kept so far and leave
    at least one basis.  Up to n = 61 (on 64-bit builds) the test is one
    lookup in a set of blocked r-sets (_greedy_blocked); wider masks
    share hash values, so there each candidate looks its (r-1)-subsets
    up instead (_greedy_by_shadows).

    Memory: the shuffled pool holds C(n, r) masks of ceil(n / 64)
    machine words each, and the blocked set at most as many.  cap
    (MAX_EXPLICIT_WORK by default) bounds C(n, r) * ceil(n / 64), checked
    before the pool is listed.
    """
    check_rank(n, r, 1)
    words = -(-n // 64)
    if comb(n, r) > cap // words:
        raise TooLarge(f"C({n}, {r}) {words}-word r-subsets exceed the cap {cap}")
    rng = random.Random(seed)
    pool = list(subset_masks(n, r))
    rng.shuffle(pool)
    limit = len(pool) - 1  # keep one basis
    if max_sets is not None:
        limit = min(limit, max_sets)
    if n <= _HASHED_EXACTLY:
        taken = _greedy_blocked(pool, n, limit)
    else:
        taken = _greedy_by_shadows(pool, limit)
    m = SparsePavingMatroid(n, r, taken)
    validate(m)
    return m


# Python hashes an int by its value mod 2^61 - 1 (on 64-bit builds), so
# distinct r-subsets of a ground set this small never share a hash value
# (the one collision at n = 61, the empty set and the full set, is
# between sets of different sizes); the r-subsets of a 200-set share
# about 38,000 values among 1.3 million 3-sets, and every set operation
# on them walks long collision chains.
_HASHED_EXACTLY = sys.hash_info.modulus.bit_length()


def _greedy_blocked(pool: list[int], n: int, limit: int) -> list[int]:
    """The greedy pass, one set lookup per candidate.

    Two distinct r-sets are at symmetric difference 2 exactly when one
    is s - x + y for the other, s, with x in s and y outside it.  So
    keeping s puts every such r-set into a blocked set, and a later
    candidate is skipped exactly when it is blocked.  The blocked set
    holds at most C(n, r) masks.
    """
    singles = [1 << e for e in range(n)]
    taken: list[int] = []
    blocked: set[int] = set()
    for s in filterfalse(blocked.__contains__, pool):
        if len(taken) >= limit:
            break
        taken.append(s)
        drops = [s ^ x for x in singles if x & s]
        adds = [y for y in singles if not y & s]
        blocked.update([d | y for d in drops for y in adds])
    return taken


def _greedy_by_shadows(pool: list[int], limit: int) -> list[int]:
    """The greedy pass for wide masks: r lookups per candidate.

    A candidate is kept when none of its (r-1)-subsets is one of a set
    kept earlier; the set of those subsets holds r per kept set.
    """
    taken: list[int] = []
    seen: set[int] = set()
    for s in pool:
        if len(taken) >= limit:
            break
        keys = [s ^ b for b in bits(s)]
        if any(k in seen for k in keys):
            continue
        seen.update(keys)
        taken.append(s)
    return taken
