"""Core matroid objects.

A sparse paving matroid of rank r on ground set {0, .., n-1} is stored
by its list of designated dependent r-sets: every r-subset of the
ground set is a basis unless it appears in `chset`.  Validity requires
the designated sets to have pairwise symmetric difference at least 4
and to leave at least one basis.

An ExplicitMatroid lists its bases outright and is only used for
cross-checking and for small conversions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Collection, Iterable, Iterator

from .bitset import ElementSet, as_mask, bits, format_set, iter_elements, subset_masks, swap
from .errors import (
    DistanceViolation,
    ElementOutOfRange,
    EmptyBases,
    ExchangeAxiomViolation,
    NoBasis,
    NotACircuitHyperplane,
    NotBases,
    PreconditionViolated,
    RangeError,
    RankOutOfRange,
    SizeMismatch,
    TooLarge,
)


@dataclass(frozen=True)
class SparsePavingMatroid:
    n: int
    r: int
    chset: tuple[int, ...]
    _index: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, n: int, r: int, chset: Iterable[ElementSet] = ()) -> None:
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "r", int(r))
        canon = tuple(sorted(_member_masks(self.n, chset, "designated set")))
        object.__setattr__(self, "chset", canon)
        object.__setattr__(self, "_index", frozenset(canon))

    @property
    def ground(self) -> int:
        return (1 << self.n) - 1

    @property
    def basis_count(self) -> int:
        return comb(self.n, self.r) - len(self.chset)

    def __repr__(self) -> str:
        body = "; ".join(format_set(h) for h in self.chset)
        return f"SparsePavingMatroid(n={self.n}, r={self.r}, chset=[{body}])"


@dataclass(frozen=True)
class ExplicitMatroid:
    n: int
    r: int
    bases: frozenset

    def __init__(self, n: int, r: int, bases: Iterable[ElementSet]) -> None:
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "bases", frozenset(_member_masks(self.n, bases, "basis")))

    @property
    def ground(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:
        return f"ExplicitMatroid(n={self.n}, r={self.r}, {len(self.bases)} bases)"


# Largest ground set that validate, the constructors and parse_matroid
# accept.  C(n, r) then has at most 1,233 digits and takes under a
# millisecond, and the basis count still prints under Python's default
# 4,300-digit limit on int-to-str conversion.
MAX_GROUND = 4096
MAX_EXPLICIT_WORK = 10_000_000  # default cap: bases squared to validate, bases to list
MAX_SCAN_GROUND = 20  # largest n whose 2^n subsets a definition scan visits
MAX_VERTICES = 1_000_000  # default cap on the vertices graph_connected enumerates


# The argument gate: entry points check the ground sizes, ranks, sets,
# elements and bases their callers pass with these, so each fault has one
# wording.


def check_ground(n: int, least: int = 0) -> None:
    """RangeError unless least <= n <= MAX_GROUND."""
    if n < least:
        raise RangeError(f"ground size {n} must be at least {least}")
    if n > MAX_GROUND:
        raise RangeError(f"ground size {n} exceeds the cap {MAX_GROUND}")


def check_rank(n: int, r: int | None, least: int = 0) -> None:
    """check_ground(n, least), then RankOutOfRange unless r is None or 0 <= r <= n."""
    check_ground(n, least)
    if r is not None and not 0 <= r <= n:
        raise RankOutOfRange(f"rank {r} not in 0..{n}")


def _check_subset(m_n: int, s: int, what: str = "set") -> None:
    if s >> m_n:
        raise _outside(m_n, iter_elements(s), what)


def _outside(n: int, elements: Iterable[int], what: str) -> ElementOutOfRange:
    return ElementOutOfRange(f"{what} {','.join(map(str, elements))} is not inside 0..{n - 1}")


def _as_subset(n: int, s: ElementSet | Iterable[int], what: str = "set", limit: int = 0) -> int:
    """s as a mask, refused unless it lies inside {0, .., n-1}.

    An iterable's elements are compared with 0 and n before any is
    shifted, so a huge element is refused without building a mask as
    wide as it, and a negative one with the same error.  A limit above n
    refuses an iterable only once an element reaches it; a negative
    element is refused whatever the limit.
    """
    if isinstance(s, int):
        if s < 0 or s >> n:
            _check_subset(n, as_mask(s), what)  # as_mask refuses a negative mask
        return s
    s = tuple(s)
    # no comprehension here reads a local, so an int call makes no closure cell
    ints = [e for e in s if isinstance(e, int)]
    if ints and (min(ints) < 0 or max(ints) >= max(n, limit)):
        as_mask(e if not isinstance(e, int) else 0 for e in s)  # names a bad type first
        raise _outside(n, sorted({int(e) for e in s}), what)
    return as_mask(s)


def _member_masks(n: int, sets: Iterable, what: str) -> set[int]:
    """A constructor's members as masks.

    An int mask is taken as as_mask takes it.  An iterable is refused
    before any shift only if an element is negative or reaches
    max(n, MAX_GROUND); a smaller range fault is left to validate, which
    orders its checks.
    """
    return {
        s if isinstance(s, int) and s >= 0 else _as_subset(n, s, what, MAX_GROUND)
        for s in sets
    }


def _check_bases(pred, n: int, sets: Iterable, what: str = "set") -> tuple[int, ...]:
    """Each of sets as a mask, refused unless it lies in 0..n-1 and is a basis by pred."""
    masks = []
    for s in sets:
        s = _as_subset(n, s, what)  # a range fault is named first
        if not pred(s):
            raise NotBases(f"{what} {format_set(s)} is not a basis")
        masks.append(s)
    return tuple(masks)


def _check_element(n: int, e: int) -> None:
    if not 0 <= e < n:
        raise ElementOutOfRange(f"element {e} is not inside 0..{n - 1}")


def _check_family(n: int, r: int, sets: Collection[int], what: str) -> None:
    """The validators' prelude: the rank, then each set inside 0..n-1 and of size r.

    One pass in C finds whether any set is at fault; only then does a
    loop name the first one, in the order the sets are iterated.
    """
    check_rank(n, r)
    if max(sets, default=0) >> n or set(map(int.bit_count, sets)) - {r}:
        for s in sets:
            _check_subset(n, s, what)
            if s.bit_count() != r:
                raise SizeMismatch(
                    f"{what} {format_set(s)} has size {s.bit_count()}, expected {r}"
                )


def _split_by(n: int, kind: str, e: int, sets: Iterable[int]) -> tuple:
    """The minors' prelude: check kind and e, then (having e, avoiding e, labels)."""
    if kind not in ("delete", "contract"):
        raise PreconditionViolated(f"kind must be 'delete' or 'contract', got {kind!r}")
    _check_element(n, e)
    bit = 1 << e
    having = [s for s in sets if s & bit]
    avoiding = [s for s in sets if not s & bit]
    return having, avoiding, tuple(x for x in range(n) if x != e)


def validate(m: SparsePavingMatroid) -> None:
    """Raise a ValidationError subclass if m is not well formed.

    After the rank and every set's range and size, separation is proved
    in one of two ways.  When every designated set has the same element
    sum mod n, as in a Graham-Sloane residue class, its subfamilies and
    its dual, the family is separated outright: two r-sets at symmetric
    difference 2 are s and s - x + y, whose sums differ by y - x, and
    0 < |y - x| < n.  Otherwise the pairwise check is exact but avoids
    the quadratic pair scan: two distinct r-sets are at symmetric
    difference 2 exactly when they share an (r-1)-subset.  Every
    (r-1)-subset of every designated set goes into one set, and the
    family is separated exactly when that set ends with r * len(chset)
    members, in O(len(chset) * r).  For 2r > n the complements, which
    keep every symmetric difference, are counted instead, n - r shadows
    each.  Only when the count falls short is the pair located, by a
    second pass that names the first set in chset order with an
    (r-1)-subset already seen and the first set that had it.
    """
    _check_family(m.n, m.r, m.chset, "designated set")
    if not _one_residue(m.n, m.r, m.chset):
        flip = m.ground if 2 * m.r > m.n else 0
        shadows: set[int] = set()
        add = shadows.add
        for h in m.chset:
            h ^= flip
            rest = h
            while rest:
                low = rest & -rest
                add(h ^ low)
                rest ^= low
        if len(shadows) != min(m.r, m.n - m.r) * len(m.chset):
            _raise_close_pair(m.chset)
    # chset holds distinct r-sets, so no basis is left iff it has all C(n, r)
    if len(m.chset) >= comb(m.n, m.r):
        raise NoBasis(f"all {len(m.chset)} r-subsets are designated dependent")


def _one_residue(n: int, r: int, sets: tuple[int, ...]) -> bool:
    """Whether two or more r-subsets of 0..n-1 all have one element sum mod n.

    The first few sets are summed alone, so that a family of mixed sums,
    such as a random one, mostly stops there; otherwise the sums stop at
    the first one that differs.
    """
    if len(sets) < 2:
        return False
    head = set(_residues(n, r, sets[:4]))
    return len(head) == 1 and all(map(head.__contains__, _residues(n, r, sets)))


def _residues(n: int, r: int, sets: tuple[int, ...]) -> Iterator[int]:
    """Each set's element sum mod n, for r-subsets of 0..n-1, taken lazily.

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
        return ((low[h & lows] + high[h >> k]) % n for h in sets)
    if 2 * r > n:
        ground, total = (1 << n) - 1, n * (n - 1) // 2
        return ((total - sum(iter_elements(ground ^ h))) % n for h in sets)
    return (sum(iter_elements(h)) % n for h in sets)


def _sum_table(lo: int, hi: int) -> list[int]:
    """table[b]: the element sum of the subset of lo..hi-1 whose mask is b << lo.

    Filled one element at a time: the subsets holding e are those
    without it, shifted up by e's bit, with e added to their sums.
    """
    table = [0]
    for e in range(lo, hi):
        table += [s + e for s in table]
    return table


def _raise_close_pair(chset: tuple[int, ...]) -> None:
    """Name the first close pair of chset, in the order validate reports it."""
    first: dict[int, int] = {}
    for h in chset:
        for low in bits(h):
            other = first.setdefault(h ^ low, h)
            if other != h:
                raise DistanceViolation(
                    f"designated sets {format_set(other)} and {format_set(h)} "
                    "are at symmetric difference 2"
                )


def is_basis(m: SparsePavingMatroid, s: ElementSet) -> bool:
    s = _as_subset(m.n, s)
    return s.bit_count() == m.r and s not in m._index


def basis_predicate(m) -> tuple[Callable[[int], bool], int, int]:
    """Basis membership test plus (n, r), for either representation.

    The returned predicate takes a mask and does no range checking;
    callers that accept untrusted masks must validate them first.
    """
    if isinstance(m, SparsePavingMatroid):
        idx = m._index
        r = m.r
        return (lambda s: s.bit_count() == r and s not in idx), m.n, m.r
    if isinstance(m, ExplicitMatroid):
        bases = m.bases
        return (lambda s: s in bases), m.n, m.r
    raise TypeError(f"expected a matroid, got {type(m).__name__}")


def rank_of(m: SparsePavingMatroid, s: ElementSet) -> int:
    s = _as_subset(m.n, s)
    k = s.bit_count()
    if k < m.r:
        return k
    if k == m.r and s in m._index:
        return m.r - 1
    return m.r


def closure_of(m: SparsePavingMatroid, s: ElementSet) -> int:
    """Largest superset of s with the same rank.

    Sets of size below r-1 are closed; an (r-1)-set picks up at most
    one completion (two completions would sit at symmetric difference
    2); designated dependent r-sets are closed; anything of full rank
    closes to the ground set.
    """
    s = _as_subset(m.n, s)
    k = s.bit_count()
    if k <= m.r - 2:
        return s
    if k == m.r - 1:
        for y in bits(m.ground ^ s):
            if s | y in m._index:
                return s | y
        return s
    if k == m.r and s in m._index:
        return s
    return m.ground


def dual(m: SparsePavingMatroid) -> SparsePavingMatroid:
    """Complement every designated set; separation is preserved."""
    g = m.ground
    return SparsePavingMatroid(m.n, m.n - m.r, tuple(g ^ h for h in m.chset))


def uniform(n: int, r: int) -> SparsePavingMatroid:
    check_rank(n, r)
    return SparsePavingMatroid(n, r, ())


def relax(m: SparsePavingMatroid, h: ElementSet) -> SparsePavingMatroid:
    """Turn one designated dependent set back into a basis."""
    h = _as_subset(m.n, h)
    if h not in m._index:
        raise NotACircuitHyperplane(f"{format_set(h)} is not a designated set of m")
    return SparsePavingMatroid(m.n, m.r, tuple(k for k in m.chset if k != h))


def _drop_element(mask: int, e: int) -> int:
    """Remove bit e and shift higher bits down one position."""
    low = mask & ((1 << e) - 1)
    return low | ((mask >> (e + 1)) << e)


def minor(
    m: SparsePavingMatroid, kind: str, e: int
) -> tuple[SparsePavingMatroid, tuple[int, ...]]:
    """Single-element deletion or contraction.

    Returns the minor together with a label map: entry i is the old
    label of new element i.  The class is closed under both operations;
    the rank only moves in the degenerate directions (deleting an
    element present in every basis, contracting one present in none).
    """
    having, avoiding, label_map = _split_by(m.n, kind, e, m.chset)
    if kind == "delete" and len(avoiding) == comb(m.n - 1, m.r):
        # e sits in every basis: the deletion is uniform of rank r-1
        return SparsePavingMatroid(m.n - 1, m.r - 1, ()), label_map
    # contracting an e that sits in no basis is deleting it
    if kind == "delete" or m.r == 0 or len(having) == comb(m.n - 1, m.r - 1):
        rank, sets = m.r, avoiding
    else:
        rank, sets = m.r - 1, having
    out = SparsePavingMatroid(m.n - 1, rank, (_drop_element(h, e) for h in sets))
    return out, label_map


def swap_witnesses(
    m: SparsePavingMatroid,
    b1: ElementSet,
    b2: ElementSet,
    x: int,
    candidates: ElementSet,
) -> int:
    """Elements y of `candidates` completing a two-sided exchange.

    Both b1 - x + y and b2 - y + x must be bases.  x must come from
    b1 - b2 and candidates must sit inside b2 - b1.
    """
    if not isinstance(m, SparsePavingMatroid):
        raise TypeError(f"expected a SparsePavingMatroid, got {type(m).__name__}")
    pred, n, _ = basis_predicate(m)
    b1, b2 = _check_bases(pred, n, (b1, b2))
    cand = _as_subset(n, candidates, "candidates")
    _check_element(n, x)
    xb = 1 << x
    if not (b1 & xb) or (b2 & xb):
        raise PreconditionViolated(f"element {x} is not in b1 - b2")
    if cand & ~(b2 & ~b1):
        raise PreconditionViolated("candidates must be a subset of b2 - b1")
    out = 0
    for y in iter_elements(cand):
        if pred(swap(b1, x, y)) and pred(swap(b2, y, x)):
            out |= 1 << y
    return out


def to_explicit(m: SparsePavingMatroid) -> ExplicitMatroid:
    """The bases listed; refuses C(n, r) > MAX_EXPLICIT_WORK (10,000,000)."""
    total = comb(m.n, m.r)
    if total > MAX_EXPLICIT_WORK:
        raise TooLarge(f"{total} bases exceed the explicit cap {MAX_EXPLICIT_WORK}")
    idx = m._index
    return ExplicitMatroid(
        m.n, m.r, (s for s in subset_masks(m.n, m.r) if s not in idx)
    )


# -- explicit-form operations -------------------------------------------------


def explicit_validate(em: ExplicitMatroid) -> None:
    """Check the basis family directly, including the exchange axiom."""
    _check_family(em.n, em.r, em.bases, "basis")
    if not em.bases:
        raise EmptyBases("a matroid needs at least one basis")
    # For a basis a and x in a, reach is every y with a - x + y a basis;
    # the axiom asks each basis b without x to meet it.  Grouped by x,
    # that is one and-test per (a, x, b), not an exchange search each.
    # Only elements of some basis can be x or y.
    bases = em.bases
    span = 0
    for b in bases:
        span |= b
    for x in iter_elements(span):
        bit = 1 << x
        avoid = [b for b in bases if not b & bit]
        for a in bases:
            if not a & bit:
                continue
            xa = a ^ bit
            reach = 0
            for y in iter_elements(span & ~a):
                if xa | (1 << y) in bases:
                    reach |= 1 << y
            for b in avoid:
                if not b & reach:
                    raise ExchangeAxiomViolation(
                        f"no exchange for {x} out of {format_set(a)} "
                        f"toward {format_set(b)}"
                    )


def explicit_rank(em: ExplicitMatroid, s: ElementSet) -> int:
    s = _as_subset(em.n, s)
    return max((s & b).bit_count() for b in em.bases)


def _rank_attaining(em: ExplicitMatroid, s: int) -> tuple[int, int, int]:
    """rank(s), and the OR and the AND of the bases B with |B & s| = rank(s).

    Two passes over the bases.
    """
    bases = em.bases
    rk = max((s & b).bit_count() for b in bases)
    reach, common = 0, em.ground
    for b in bases:
        if (s & b).bit_count() == rk:
            reach |= b
            common &= b
    return rk, reach, common


# -- whole-family tables ---------------------------------------------------------
#
# A family of subsets of {0, .., n-1} is one int of 2^n bits: bit A is set
# iff the subset with mask A is in the family.  Shifting a family by 2^e
# adds or removes element e from every member at once.


def _element_families(n: int) -> list[int]:
    """has[e]: the subsets that contain e, built by doubling, not by division."""
    has = []
    for e in range(n):
        w = 1 << e
        p = ((1 << w) - 1) << w  # the subsets of {0, .., e} that hold e
        w <<= 1
        while w >> n == 0:
            p |= p << w
            w <<= 1
        has.append(p)
    return has


def _size_families(n: int, top: int) -> list[int]:
    """sizes[k]: the k-subsets, for k = 0..top, one element at a time by doubling."""
    sizes = [1] + [0] * top  # over the empty ground set
    for e in range(n):
        for k in range(min(top, e + 1), 0, -1):
            sizes[k] |= sizes[k - 1] << (1 << e)
    return sizes


def _rank_levels(m, what: str) -> tuple[list[int], list[int]]:
    """has[e] and the rank levels R_k = {A : r(A) >= k}, k = 0..r+1, from the bases.

    The independent sets are the downward closure of the bases, and R_k
    is the upward closure of the independent k-sets: the rank axioms
    read off the basis family alone.  O((r + 1) * n) shifts and masks
    on 2^n-bit ints, about n + r of them alive at once; refuses
    n > MAX_SCAN_GROUND (20) with TooLarge("<what> over 2^n subsets
    refused"), after the TypeError for a non-matroid.
    """
    pred, n, r = basis_predicate(m)
    if n > MAX_SCAN_GROUND:
        raise TooLarge(f"{what} over 2^{n} subsets refused")
    if isinstance(m, ExplicitMatroid):
        bases = m.bases
        _check_subset(n, max(bases, default=0), "basis")
    else:
        bases = filter(pred, subset_masks(n, r))
    # the basis family, one bit per subset: |= on an int would copy all
    # 2^n bits once per basis
    buf = bytearray(((1 << n) >> 3) + 1)
    for b in bases:
        buf[b >> 3] |= 1 << (b & 7)
    ind = int.from_bytes(buf, "little")
    has, sizes = _element_families(n), _size_families(n, r)
    for e, h in enumerate(has):
        ind |= (ind & h) >> (1 << e)
    levels = []
    for k in range(r + 1):
        up = ind & sizes[k]
        sizes[k] = 0  # so that about n + r families stay alive
        for e, h in enumerate(has):
            up |= (up << (1 << e)) & h
        levels.append(up)
    levels.append(0)
    return has, levels


def explicit_minor(
    em: ExplicitMatroid, kind: str, e: int
) -> tuple[ExplicitMatroid, tuple[int, ...]]:
    having, avoiding, label_map = _split_by(em.n, kind, e, em.bases)
    # deleting an e in every basis is contracting it, and contracting an
    # e in no basis is deleting it
    if avoiding if kind == "delete" else not having:
        rank, sets = em.r, avoiding
    else:
        rank, sets = em.r - 1, having
    out = ExplicitMatroid(em.n - 1, rank, (_drop_element(b, e) for b in sets))
    return out, label_map
