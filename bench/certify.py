"""Certificates for benchmark results, written against `chset` directly.

Nothing here imports sparsepaving.  A sparse paving matroid is read off
its public fields (n, r, chset) into `Spm`, and every predicate below is
the textbook definition evaluated on that list of circuit-hyperplanes:
an r-set is a basis iff it is not designated, and rank(S) is |S| below
r, r - 1 on a designated set, and r otherwise.  Each check returns None
when the result is certified and a short reason when it is not.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb, isqrt


class Spm:
    """Plain copy of a matroid's defining data."""

    __slots__ = ("n", "r", "chset", "ground")

    def __init__(self, n: int, r: int, chset) -> None:
        self.n = n
        self.r = r
        self.chset = frozenset(chset)
        self.ground = (1 << n) - 1

    @classmethod
    def of(cls, m) -> "Spm":
        return cls(m.n, m.r, m.chset)

    def is_basis(self, s: int) -> bool:
        return s >= 0 and not s >> self.n and s.bit_count() == self.r and s not in self.chset

    def rank(self, s: int) -> int:
        k = s.bit_count()
        if k < self.r:
            return k
        if k == self.r and s in self.chset:
            return self.r - 1
        return self.r


def mask(elems) -> int:
    out = 0
    for e in elems:
        out |= 1 << e
    return out


def members(m: int) -> list[int]:
    return [e for e in range(m.bit_length()) if m >> e & 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- orders and cycles --------------------------------------------------------


def windows_ok(M: Spm, order, length: int) -> str | None:
    """Every cyclic window of r consecutive entries of `order` is a basis."""
    if len(order) != length:
        return f"order has {len(order)} entries, expected {length}"
    for p in range(length):
        w = mask(order[(p + i) % length] for i in range(M.r))
        if not M.is_basis(w):
            return f"window at {p} is not a basis"
    return None


def density_fails(M: Spm) -> bool:
    """Some nonempty A has r|A| > rank(A) n; for these matroids only a designated set can."""
    return any(M.r * h.bit_count() > M.rank(h) * M.n for h in M.chset)


def check_cyclic_order(M: Spm, order) -> str | None:
    if order is None:
        return None if density_fails(M) else "no order returned but density holds"
    if sorted(order) != list(range(M.n)):
        return "order is not a permutation of the ground set"
    return windows_ok(M, tuple(order), M.n)


def check_block_cycle(M: Spm, b1: int, b2: int, cyc) -> str | None:
    r = M.r
    if mask(cyc[:r]) != b1 or mask(cyc[r:]) != b2 or len(set(cyc)) != 2 * r:
        return "cycle blocks do not match the two bases"
    return windows_ok(M, tuple(cyc), 2 * r)


# -- pair-graph walks ---------------------------------------------------------


def _is_vertex(M: Spm, v) -> bool:
    a1, a2, a3 = v
    return (
        not (a1 & a2 or a1 & a3 or a2 & a3)
        and a1 | a2 | a3 == M.ground
        and M.is_basis(a1)
        and M.is_basis(a2)
    )


def check_bpg_walk(M: Spm, u, v, path) -> str | None:
    if not path or path[0] != u or path[-1] != v:
        return "walk endpoints are off"
    if len(path) - 1 > 4 * M.n:
        return f"walk of {len(path) - 1} steps exceeds 4n = {4 * M.n}"
    for a, b in zip(path, path[1:]):
        if not _is_vertex(M, b):
            return "walk visits a non-vertex"
        moved = sum((x & ~y).bit_count() for x, y in zip(a, b))
        if moved != 2:
            return "walk step is not a single exchange"
    return None


# -- collection walks ---------------------------------------------------------


def _replay(M: Spm, state: list[int], move, resort: bool) -> str | None:
    i, j, x, y = move
    if not 0 <= i < j < len(state):
        return "move indices out of range"
    bi, bj = state[i], state[j]
    xb, yb = 1 << x, 1 << y
    if not bi & xb or bj & xb or not bj & yb or bi & yb:
        return "move elements are not exchangeable"
    nbi, nbj = (bi ^ xb) | yb, (bj ^ yb) | xb
    if not M.is_basis(nbi) or not M.is_basis(nbj):
        return "move leaves the basis family"
    state[i], state[j] = nbi, nbj
    if resort:
        state.sort()
    return None


def check_moves(M: Spm, src, dst, moves, ordered: bool) -> str | None:
    """Replay every move; the walk must land on dst within 4kr moves."""
    k = len(src)
    if len(moves) > 4 * k * M.r:
        return f"{len(moves)} moves exceed 4kr = {4 * k * M.r}"
    state = list(src) if ordered else sorted(src)
    for mv in moves:
        why = _replay(M, state, tuple(mv), resort=not ordered)
        if why:
            return why
    target = list(dst) if ordered else sorted(dst)
    return None if state == target else "replay does not reach the target"


# -- exhaustive oracles -------------------------------------------------------


def bases_of_size(M: Spm) -> list[int]:
    """Bases in increasing mask order, by Gosper's hack over r-sets."""
    n, r = M.n, M.r
    if r == 0:
        return [0]
    out = []
    s = (1 << r) - 1
    while not s >> n:
        if s not in M.chset:
            out.append(s)
        low = s & -s
        ripple = s + low
        s = (((ripple ^ s) >> 2) // low) | ripple
    return out


def count_pair_vertices(M: Spm) -> int:
    """Ordered pairs of disjoint bases; the third block is forced."""
    bases = bases_of_size(M)
    index = set(bases)
    total = 0
    for b1 in bases:
        rest = members(M.ground & ~b1)
        total += _count_subsets_in(index, rest, M.r)
    return total


def _count_subsets_in(index: set, elems: list[int], r: int) -> int:
    count = 0

    def rec(start: int, need: int, acc: int) -> None:
        nonlocal count
        if need == 0:
            count += acc in index
            return
        for t in range(start, len(elems) - need + 1):
            rec(t + 1, need - 1, acc | (1 << elems[t]))

    rec(0, r, 0)
    return count


def count_collections(M: Spm, union: dict[int, int], ordered: bool) -> int:
    """Multisets (or tuples) of bases whose element multiset is `union`."""
    total = sum(union.values())
    if M.r == 0:
        return 1
    k = total // M.r
    bases = [b for b in bases_of_size(M) if all(union.get(e, 0) >= 1 for e in members(b))]
    count = 0

    def rec(lo: int, left: dict, depth: int) -> None:
        nonlocal count
        if depth == k:
            count += 1
            return
        for t in range(0 if ordered else lo, len(bases)):
            b = bases[t]
            es = members(b)
            if all(left[e] >= 1 for e in es):
                for e in es:
                    left[e] -= 1
                rec(t, left, depth + 1)
                for e in es:
                    left[e] += 1

    rec(0, dict(union), 0)
    return count


def cyclic_flats(M: Spm) -> list[int]:
    """Definition scan: closed sets whose every element is in a circuit."""
    out = []
    for f in range(1 << M.n):
        rf = M.rank(f)
        rest = M.ground & ~f
        if any(M.rank(f | (1 << e)) == rf for e in members(rest)):
            continue
        if all(M.rank(f & ~(1 << e)) == rf for e in members(f)):
            out.append(f)
    return out


# -- constructions ------------------------------------------------------------


def family_problem(M: Spm) -> str | None:
    """Validity of the designated family: sizes, separation, a basis left."""
    seen: dict[int, int] = {}
    for h in M.chset:
        if h >> M.n or h.bit_count() != M.r:
            return "designated set has the wrong size or leaves the ground set"
        for e in members(h):
            key = h ^ (1 << e)
            if key in seen:
                return "two designated sets are at symmetric difference 2"
            seen[key] = h
    if len(M.chset) >= comb(M.n, M.r):
        return "no basis is left"
    return None


def residue_class_sizes(n: int, r: int) -> list[int]:
    """How many r-subsets of 0..n-1 have each element sum mod n (dynamic program)."""
    ways = [[0] * n for _ in range(r + 1)]
    ways[0][0] = 1
    for e in range(n):
        for k in range(r, 0, -1):
            prev, row = ways[k - 1], ways[k]
            for s in range(n):
                if prev[s]:
                    row[(s + e) % n] += prev[s]
    return ways[r]


def check_residue_class(M: Spm, c: int) -> str | None:
    for h in M.chset:
        if sum(members(h)) % M.n != c:
            return "designated set outside the residue class"
    if len(M.chset) != residue_class_sizes(M.n, M.r)[c]:
        return "residue class is incomplete"
    return family_problem(M)


def serialize(M: Spm) -> str:
    lines = ["spm 1", f"n {M.n}", f"r {M.r}"]
    lines += ["ch " + " ".join(map(str, members(h))) for h in sorted(M.chset)]
    return "\n".join(lines) + "\n"


def _drop(s: int, e: int) -> int:
    return (s & ((1 << e) - 1)) | ((s >> (e + 1)) << e)


def check_minor(M: Spm, kind: str, e: int, out: Spm, samples: list[int]) -> str | None:
    """Rank of the minor agrees with the definition on the sampled subsets.

    Deletion keeps rank_M(S); contraction gives rank_M(S + e) - rank_M(e).
    The samples are subsets of the ground set minus e, in old labels.
    """
    if out.n != M.n - 1:
        return "minor has the wrong ground size"
    bit = 1 << e
    for s in samples:
        want = M.rank(s) if kind == "delete" else M.rank(s | bit) - M.rank(bit)
        if out.rank(_drop(s, e)) != want:
            return f"minor rank differs on {members(s)}"
    return family_problem(out)


def check_census(n: int, out) -> str | None:
    """Best (flat count, rank, class) over ranks 2..n-2, ties to the smallest rank and class."""
    want = None
    for r in range(2, n - 1):
        for c, size in enumerate(residue_class_sizes(n, r)):
            if want is None or size + 2 > want[0]:
                want = (size + 2, r, c)
    got = (out.lower_bound, out.best_rank, out.best_class)
    return None if got == want else f"census {got} differs from {want}"


def check_bounds(n: int, r, out) -> str | None:
    """2^(n+1)/(n+2), ceil(2^(n-1)/n^(3/2)) + 2 and C(n,r)/(n-r+1), in exact arithmetic."""
    t = 1 << (2 * (n - 1))
    q = isqrt(t // n**3)
    while q * q * n**3 < t:
        q += 1
    ch = Fraction(comb(n, r), n - r + 1) if r is not None else None
    want = (Fraction(1 << (n + 1), n + 2), q + 2, ch)
    got = (out.zn_upper, out.zn_lower_int, out.ch_upper)
    return None if got == want else "bounds differ from the closed forms"
