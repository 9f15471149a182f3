"""Exchange walks between bases and between collections of bases.

Three graphs live here.  The pair graph has vertices (a1, a2, a3): an
ordered partition of the ground set whose first two blocks are disjoint
bases; two vertices are adjacent when one element swap between two
blocks turns one into the other.  The collection graphs have vertices
that are multisets (or tuples) of k bases with a prescribed multiset
union; adjacency is a symmetric exchange between two members.

All constructive routines lean on two facts about sparse paving
matroids: two dependent r-sets never differ in exactly two elements, so
at most one completion of an (r-1)-set is dependent, and the pruned
symmetric exchange bound (for bases B, B' with a fixed on one side and
X a set of candidates on the other, at most two members of X fail the
two-sided exchange).  Every step is re-verified with the basis
predicate before it is emitted; a failure raises InternalCheckError
because it would contradict those guarantees.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .bitset import (
    ElementSet,
    as_mask,
    bits,
    elements,
    format_set,
    iter_elements,
    lowest_element,
    subsets,
    swap,
)
from .core import (
    MAX_VERTICES,
    SparsePavingMatroid,
    _as_subset,
    _check_bases,
    basis_predicate,
)
from .errors import (
    ElementOutOfRange,
    ExchangeViolation,
    InternalCheckError,
    NotAVertex,
    NotDisjoint,
    PreconditionViolated,
    TooLarge,
    UnionMismatch,
    ValidationError,
    guaranteed,
)

WORK_FLOOR = 5_000_000  # least work graph_connected's guards admit, whatever the cap


class Move(NamedTuple):
    """Symmetric exchange between members i < j of a collection.

    Member i loses x and gains y; member j loses y and gains x.
    """

    i: int
    j: int
    x: int
    y: int


@dataclass(frozen=True)
class BasisPairVertex:
    a1: int
    a2: int
    a3: int

    def __repr__(self) -> str:
        return (
            f"({format_set(self.a1)} | {format_set(self.a2)} | {format_set(self.a3)})"
        )


@dataclass(frozen=True)
class Multiset:
    """Multiset of ground-set elements, stored as sorted (element, count) pairs."""

    counts: tuple[tuple[int, int], ...]

    def __init__(self, counts: Iterable[tuple[int, int]]) -> None:
        agg: dict[int, int] = {}
        for e, c in counts:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ElementOutOfRange(f"bad multiset element {e!r}")
            if not isinstance(c, int) or isinstance(c, bool):
                raise PreconditionViolated(f"multiplicity {c!r} is not an int")
            if c < 0:
                raise PreconditionViolated("negative multiplicity")
            agg[e] = agg.get(e, 0) + c
        canon = tuple(sorted((e, c) for e, c in agg.items() if c > 0))
        object.__setattr__(self, "counts", canon)

    @classmethod
    def from_elements(cls, it: Iterable[int]) -> "Multiset":
        return cls(Counter(it).items())

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def counter(self) -> Counter:
        return Counter(dict(self.counts))


# -- basis pair graph ---------------------------------------------------------


def bpg_vertex(m, a1: ElementSet, a2: ElementSet, a3: ElementSet) -> BasisPairVertex:
    """Validated vertex constructor for the pair graph of m."""
    pred, n, _ = basis_predicate(m)
    return _vertex(pred, n, a1, a2, a3)


def _vertex(pred, n: int, a1: ElementSet, a2: ElementSet, a3: ElementSet) -> BasisPairVertex:
    a1 = _as_subset(n, a1, "block")
    a2 = _as_subset(n, a2, "block")
    a3 = _as_subset(n, a3, "block")
    ground = (1 << n) - 1
    if a1 & a2 or a1 & a3 or a2 & a3:
        raise NotDisjoint("vertex blocks must be pairwise disjoint")
    if a1 | a2 | a3 != ground:
        raise UnionMismatch("vertex blocks must cover the ground set")
    if not pred(a1):
        raise NotAVertex(f"first block {format_set(a1)} is not a basis")
    if not pred(a2):
        raise NotAVertex(f"second block {format_set(a2)} is not a basis")
    return BasisPairVertex(a1, a2, a3)


def _one_swap_apart(u: BasisPairVertex, v: BasisPairVertex) -> bool:
    """Adjacency of two vertices already known to be valid."""
    moved = (
        (u.a1 & ~v.a1).bit_count()
        + (u.a2 & ~v.a2).bit_count()
        + (u.a3 & ~v.a3).bit_count()
    )
    return moved == 2


def check_bpg_walk(m, path: Sequence[BasisPairVertex], u, v) -> None:
    """Raise InternalCheckError unless path walks from u to v in the pair graph
    in at most 4n steps."""
    if not path or path[0] != u or path[-1] != v:
        raise InternalCheckError("walk endpoints are off")
    pred, n, _ = basis_predicate(m)
    if len(path) - 1 > 4 * n:
        raise InternalCheckError(f"walk of {len(path) - 1} steps exceeds 4n = {4 * n}")
    try:
        for w in path:
            _vertex(pred, n, w.a1, w.a2, w.a3)
    except ValidationError as e:
        raise InternalCheckError(f"walk leaves the pair graph: {e}") from e
    for a, b in zip(path, path[1:]):
        if not _one_swap_apart(a, b):
            raise InternalCheckError(f"walk step {a} -> {b} is not one swap")


def _exchange(
    pred: Callable[[int], bool], b1: int, b2: int, pairs: Iterable[tuple[int, int]]
) -> tuple[int, int] | None:
    """The first (x, y) in pairs with b1 - x + y and b2 - y + x both bases."""
    for x, y in pairs:
        if pred(swap(b1, x, y)) and pred(swap(b2, y, x)):
            return x, y
    return None


def _anchor_of(
    pred: Callable[[int], bool], b1: int, pairs: Iterable[tuple[int, int]]
) -> tuple[int, int]:
    """The first (x, y) in pairs with b1 - x + y dependent: a blocked square's anchor."""
    corners = (o for o in pairs if not pred(swap(b1, *o)))
    return guaranteed(next(corners, None), "blocked square lost its anchor")


def _pair_path(
    pred: Callable[[int], bool], cur1: int, cur2: int, tgt1: int
) -> list[tuple[int, int]]:
    """Walk the basis cur1 onto tgt1 by symmetric exchanges with cur2.

    Every step swaps one element between the two blocks and keeps both
    blocks bases; returns the swaps (x, y), x leaving cur1 and y joining
    it.  With one element out of place the swap is direct.  Otherwise
    one exchange search tries pairs (b, a), b out of place in cur1 and a
    wanted from cur2, by _advance's rule: the lowest b against every a
    while at least three elements are out of place, where the pruned
    exchange bound guarantees a hit, else the two-by-two square of both
    b and both a.  A blocked square pins four dependent sets, and a
    two-step detour through an element of cur1 and tgt1 outside cur2 works.

    cur1 and cur2 may share elements S.  S never moves; every predicate
    call reads the full blocks, which is the basis predicate of the
    contraction by S; and that contraction is again sparse paving, so the
    pruned-exchange and blocked-square arguments still hold in it.
    """
    out: list[tuple[int, int]] = []

    def step(x: int, y: int) -> None:
        nonlocal cur1, cur2
        cur1, cur2 = swap(cur1, x, y), swap(cur2, y, x)
        out.append((x, y))

    while cur1 != tgt1:
        gap = cur1 & ~tgt1
        need = tgt1 & ~cur1  # sits inside cur2
        if gap.bit_count() == 1:
            # adjacent: both blocks keep the target's union, so this swap lands on it
            step(lowest_element(gap), lowest_element(need))
            continue
        square = gap.bit_count() == 2
        # pairs come lazily, since at most two of them fail off the square
        xs = elements(gap) if square else (lowest_element(gap),)
        hit = _exchange(pred, cur1, cur2, ((x, y) for x in xs for y in iter_elements(need)))
        if hit is not None:
            step(*hit)
            continue
        if not square:
            raise InternalCheckError("no pruned-exchange witness in pair walk")
        # Blocked square.  One of the two sets (cur1 - xs[0]) + a must be
        # dependent; anchoring on it forces the other three corners, and
        # an element in place outside cur2 exists because the pattern is
        # impossible in rank two.
        _, a = _anchor_of(pred, cur1, ((xs[0], y) for y in iter_elements(need)))
        common = cur1 & tgt1 & ~cur2
        if not common:
            raise InternalCheckError("blocked exchange square in rank two")
        x = lowest_element(common)
        for b, a in ((x, a), (xs[1], lowest_element(need ^ (1 << a)))):
            hit = _exchange(pred, cur1, cur2, [(b, a)])
            step(*guaranteed(hit, "detour step left the basis family"))
    return out


def bpg_path(m, u: BasisPairVertex, v: BasisPairVertex) -> list[BasisPairVertex]:
    """Constructive path from u to v in the pair graph, endpoints included.

    First the third blocks are aligned one swap at a time (with a
    two-step dodge when the final swap is blocked), then the two
    disjoint bases are walked onto the target pair.
    """
    pred, n, _ = basis_predicate(m)
    u = _vertex(pred, n, u.a1, u.a2, u.a3)
    v = _vertex(pred, n, v.a1, v.a2, v.a3)
    path = [u]
    pair, cur3 = [u.a1, u.a2], u.a3

    while cur3 != v.a3:
        leave = cur3 & ~v.a3
        enter = v.a3 & ~cur3
        t = 0 if enter & pair[0] else 1  # the block that gives up b
        b = lowest_element(enter & pair[t])
        if leave.bit_count() >= 2:
            # at most one landing spot is a dependent completion
            land = (e for e in iter_elements(leave) if pred(swap(pair[t], b, e)))
            a3c = guaranteed(next(land, None), "third-block alignment found no landing")
        else:
            a3c = lowest_element(leave)
            if not pred(swap(pair[t], b, a3c)):
                # dodge: trade an element with the other basis block
                # first, stepping clear of the dependent completion
                block, other = pair[t], pair[1 - t]
                pairs = itertools.product(elements(block & ~(1 << b)), elements(other))
                hit = _exchange(pred, block, other, pairs)
                a1c, a2c = guaranteed(hit, "third-block dodge found no swap")
                pair[t], pair[1 - t] = swap(block, a1c, a2c), swap(other, a2c, a1c)
                path.append(BasisPairVertex(*pair, cur3))
                if not pred(swap(pair[t], b, a3c)):
                    raise InternalCheckError("third-block dodge did not unblock")
        pair[t] = swap(pair[t], b, a3c)
        cur3 = swap(cur3, a3c, b)
        path.append(BasisPairVertex(*pair, cur3))

    a1, a2 = pair
    for x, y in _pair_path(pred, a1, a2, v.a1):
        a1, a2 = swap(a1, x, y), swap(a2, y, x)
        path.append(BasisPairVertex(a1, a2, cur3))
    check_bpg_walk(m, path, u, v)
    return path


# -- collection moves ---------------------------------------------------------


def _replay(pred, members: Sequence[int], moves: Iterable[Move], ordered: bool) -> list[int]:
    """members after each move in turn, each checked to map bases to bases by pred.

    ordered takes positions literally; otherwise they index the sorted
    multiset, so members come sorted and are sorted again after each move.
    """
    cur = list(members)
    for i, j, x, y in moves:
        if not (0 <= i < j < len(cur)):
            raise ExchangeViolation(f"move indices ({i}, {j}) out of range")
        bi, bj = cur[i], cur[j]
        # a right shift tests a huge element without building a mask as wide as it
        if x < 0 or not ((bi & ~bj) >> x) & 1:
            raise ExchangeViolation(f"element {x} is not in member {i} only")
        if y < 0 or not ((bj & ~bi) >> y) & 1:
            raise ExchangeViolation(f"element {y} is not in member {j} only")
        cur[i], cur[j] = swap(bi, x, y), swap(bj, y, x)
        if not pred(cur[i]) or not pred(cur[j]):
            raise ExchangeViolation(f"move {i}:{j}:{x}:{y} does not map bases to bases")
        if not ordered:
            cur.sort()
    return cur


def apply_white_move(m, state: Sequence[ElementSet], move: Move) -> tuple[int, ...]:
    """Apply one move to a multiset state of bases of m, in canonical (sorted) order."""
    pred, n, _ = basis_predicate(m)
    return tuple(_replay(pred, sorted(_check_bases(pred, n, state, "member")), [move], False))


def apply_tuple_move(m, state: Sequence[ElementSet], move: Move) -> tuple[int, ...]:
    """Apply one move to an ordered state of bases of m; positions are literal."""
    pred, n, _ = basis_predicate(m)
    return tuple(_replay(pred, _check_bases(pred, n, state, "member"), [move], True))


def check_moves(m, src, dst, moves: Sequence[Move], ordered: bool) -> None:
    """Replay moves from src; raise InternalCheckError unless they reach dst
    in at most 4kr moves, k = len(src).

    src and dst go through the argument gate as collections of bases of
    m.  ordered replays on literal positions, as apply_tuple_move does;
    otherwise positions index the sorted multiset, as in
    apply_white_move.  A move that breaks a basis raises
    ExchangeViolation.
    """
    pred, n, r = basis_predicate(m)
    cur = _check_bases(pred, n, src, "src member")
    want = _check_bases(pred, n, dst, "dst member")
    bound = 4 * len(cur) * r
    if len(moves) > bound:
        raise InternalCheckError(f"{len(moves)} moves exceed 4kr = {bound}")
    arrange = list if ordered else sorted
    if _replay(pred, arrange(cur), moves, ordered) != arrange(want):
        raise InternalCheckError("replayed moves do not reach the target")


def _mk_move(state: Sequence[int], vi: int, vj: int, x: int, y: int) -> Move:
    """Move record between the members of state holding values vi and vj."""
    i = state.index(vi)
    j = state.index(vj)
    if i > j:
        i, j, x, y = j, i, y, x
    return Move(i, j, x, y)


class _Side:
    """One endpoint's evolving multiset, with its move log.

    undo[t] reverses moves[t] on the state that move left.  act counts
    the members not yet matched with the other side.  changed collects
    the values whose act count rose from 0 or fell to 0 since the caller
    last cleared it; whether such a value is now present or gone is read
    from act.  pred is the basis predicate of the walk's matroid, which
    push checks every move with.
    """

    def __init__(self, members: tuple[int, ...], pred: Callable[[int], bool]):
        self.state = members
        self.act = Counter(members)
        self.changed: set[int] = set()
        self.moves: list[Move] = []
        self.undo: list[Move] = []
        self.pred = pred

    def _count(self, v: int, delta: int) -> None:
        # get and pop skip Counter's __missing__ and __delitem__
        act = self.act
        c = act.get(v, 0) + delta
        if c == delta or not c:  # rose from 0 or fell to 0
            self.changed.add(v)
        if c:
            act[v] = c
        else:
            act.pop(v)

    def match(self, v: int) -> None:
        self._count(v, -1)

    def push(self, vi: int, vj: int, x: int, y: int) -> tuple[int, int]:
        """Exchange x of member vi for y of member vj; returns their new values."""
        nvi, nvj = swap(vi, x, y), swap(vj, y, x)
        mv = _mk_move(self.state, vi, vj, x, y)
        self.state = tuple(_replay(self.pred, self.state, [mv], False))
        self._count(vi, -1)
        self._count(vj, -1)
        self._count(nvi, 1)
        self._count(nvj, 1)
        self.moves.append(mv)
        self.undo.append(_mk_move(self.state, nvi, nvj, y, x))
        return nvi, nvj


def _pick_helper(act: Counter, amb: int, bma: int) -> int:
    # white_moves advances a side whose unmatched members hold at least as
    # much of amb as of bma, counted with multiplicity, and symmetric
    # exchanges keep those totals.  The member being advanced holds none
    # of amb and all of bma, so the others hold strictly more of amb than
    # of bma, and one of them is richer: min never sees an empty search.
    return min(v for v in act if (v & amb).bit_count() > (v & bma).bit_count())


def _advance(a1_mask: int, b1: int, side: _Side) -> None:
    """One improvement round: bring the member b1 of `side` nearer a1_mask.

    The helper member b2 holds more of a1 - b1 than of b1 - a1: p
    elements of the one and q of the other.  Each pass runs one exchange
    search over pairs (b, a), b from b1 - a1 and a from the helper: the
    helper's lowest a against every b when q = 0, the lowest b outside
    the helper against every a when p >= 3 or half = 2, else (half >= 3,
    p = 2, q = 1) the two-by-two square of the two lowest such b and both
    a.  At half = 1 that is the direct swap (b, a), q being 0.  At half
    >= 3 only the square can miss: the others try three or more pairs,
    and the pruned exchange bound fails at most two.  A miss at half >= 2
    anchors on the first tried pair with b1 - b + a dependent and takes a
    double step: b leaves for a helper element outside a1 and b1, then
    the other b gives way to a; or, when half = 2 and q = 1, a shared
    element of a1 and b1 first gives way to a, then b to the other a.  A
    miss at half = 1 repairs one other member bh, the first in sorted
    order of the best kind: one lacking b and part of b2 - a (a pre-swap),
    else one holding b without a (an interferer), else one holding both
    that differs from b2 in four or more elements.  One exchange search
    between bh and b2 serves all three; an interferer's fix starts the
    next pass, and the other two end with the direct swap against the
    new helper.
    """
    pred = side.pred
    amb = a1_mask & ~b1
    bma = b1 & ~a1_mask
    half = amb.bit_count()

    while True:  # only an interferer fix starts another pass (see there)
        b2 = _pick_helper(side.act, amb, bma)
        mine = b2 & amb
        p, q = mine.bit_count(), (b2 & bma).bit_count()
        square = half >= 3 and p == 2 and q == 1
        if q == 0:
            xs, ys = elements(bma), (lowest_element(mine),)
        else:
            xs, ys = elements(bma & ~b2)[: 1 + square], elements(mine)
        hit = _exchange(pred, b1, b2, itertools.product(xs, ys))
        if hit is not None:
            side.push(b1, b2, *hit)
            return
        if half == 1:
            b, a = xs[0], ys[0]
            rest = b2 & ~(1 << a)
            bh, kind = None, 3
            for v in sorted(side.act):
                if side.act[v] <= (v == b1) + (v == b2):
                    continue  # the only copy of b1 or of b2
                if not (v >> b) & 1:
                    k = 0 if rest & ~v else 3
                else:
                    k = 1 if not (v >> a) & 1 else 2 if (b2 ^ v).bit_count() >= 4 else 3
                if k < kind:
                    bh, kind = v, k
                    if k == 0:
                        break
            bh = guaranteed(bh, "single-swap chain exhausted every repair")
            if kind == 2:
                x = lowest_element(bh & ~(1 << b) & ~b2)
                tries = ((x, y) for y in iter_elements(b2 & ~bh))
            else:
                y = a if kind else lowest_element(rest & ~bh)
                tries = ((z, y) for z in iter_elements(bh & ~b2))
            z, y = guaranteed(_exchange(pred, bh, b2, tries), "symmetric exchange witness missing")
            nb2, _ = side.push(b2, bh, y, z)
            if kind == 1:
                # The interferer bh took a for some z; z is not b, as
                # b2 - a + b failed above, so bh stops interfering and b2
                # does not start.  b1 never moves, so the interferers drop
                # by exactly one per pass.
                continue
            side.push(b1, nb2, b, a)
            return
        if half >= 3 and not square:
            raise InternalCheckError("pruned exchange failed")
        b, a = _anchor_of(pred, b1, itertools.product(xs, ys))
        if half == 2 and q:
            esc = (x for x in iter_elements(a1_mask & b1 & ~b2) if pred(swap(b2, a, x)))
            x = guaranteed(next(esc, None), "no shared element escapes the anchor")
            first, then = (x, a), (b, lowest_element(mine ^ (1 << a)))
        else:
            outside = b2 & ~(a1_mask | b1)
            esc = (z for z in iter_elements(outside) if pred(swap(b2, z, b)))
            z = guaranteed(next(esc, None), "no escape element beside the anchor")
            first, then = (b, z), (lowest_element(bma & ~b2 & ~(1 << b)), a)
        nb1, nb2 = side.push(b1, b2, *first)
        side.push(nb1, nb2, *then)
        return


def white_moves(m, src: Sequence[ElementSet], dst: Sequence[ElementSet]) -> list[Move]:
    """Moves turning the multiset src into the multiset dst.

    Indices in each move refer to the canonical (sorted) ordering of
    the multiset at the time the move is applied.  Both endpoints are
    walked toward a common middle; the moves recorded on the dst side
    are inverted and reversed onto the tail of the result.

    Each round takes the nearest pair of unmatched members, one per
    side: smallest symmetric difference, then smallest src member, then
    smallest dst member.  Equal members are matched and leave the
    search; otherwise one of the two is advanced toward the other.
    The bound table best holds one (distance, src, dst) tuple per
    unmatched src value, whose order is that tie-break.  best[a] is a
    lower bound on the nearest pair of the src value a.  It starts as
    (0, a, a) when a is an unmatched dst value, and else as (2, a, -1):
    distinct r-sets differ in at least two elements, and no dst value
    is below -1.  A nearest scan over the unmatched dst values makes it
    exact, and each dst value that arrives later lowers it where nearer;
    one that only gains a copy, or leaves, changes nothing.  Each side's
    changed set names the values that arrived or left in the round,
    judged by their state at its end: a dst value present lowers bounds,
    a src value gone drops its bound, and a src value present with none
    gets its starting bound.  A bound whose dst member is unmatched
    names a pair, so it is exact.  Each round takes the least bound; one
    whose dst member is not unmatched (it left, or is the -1 of a
    starting bound) is rescanned and the round retries.  So the bound
    taken is exact and at most every other bound, hence at most every
    other pair: the global minimum.  A value is scanned only when its
    bound is the least.

    The least bound comes from a min-heap that gets each bound as it is
    set or lowered.  A top that no longer equals its table entry is
    outdated and discarded, which is not a round.  The heap is rebuilt
    from the table once it holds more than twice as many entries, so
    memory stays O(k) for k members.
    """
    pred, n, r = basis_predicate(m)
    s_members = tuple(sorted(_check_bases(pred, n, src, "src member")))
    d_members = tuple(sorted(_check_bases(pred, n, dst, "dst member")))
    if len(s_members) != len(d_members):
        raise UnionMismatch("collections have different member counts")
    union = Counter(itertools.chain.from_iterable(map(iter_elements, s_members)))
    if union != Counter(itertools.chain.from_iterable(map(iter_elements, d_members))):
        raise UnionMismatch("collections have different multiset unions")

    side_s = _Side(s_members, pred)
    side_d = _Side(d_members, pred)
    targets = side_d.act

    def nearest(a: int) -> tuple[int, int, int]:
        return min(((a ^ b).bit_count(), a, b) for b in targets)

    def start(a: int) -> tuple[int, int, int]:
        return (0, a, a) if a in targets else (2, a, -1)

    best = {a: start(a) for a in side_s.act}
    heap = list(best.values())
    heapq.heapify(heap)
    # a round matches (k times), advances (each makes some of the at most
    # 4kr moves) or rescans a stale bound, a starting bound included: at
    # most k in a row, since a rescan is exact until one of the other two
    # moves its dst member
    k = len(s_members)
    rounds = (k + 4 * k * r) * (k + 1)
    while best:
        if len(heap) > 2 * len(best):
            heap = list(best.values())
            heapq.heapify(heap)
        top = heap[0]
        dist, a_val, b_val = top
        if best.get(a_val) != top:  # outdated: lowered or dropped since
            heapq.heappop(heap)
            continue
        rounds -= 1
        if rounds < 0:
            raise InternalCheckError("collection walk overran its round bound")
        if b_val not in targets:  # stale: its dst member has left, or is -1
            best[a_val] = bound = nearest(a_val)
            heapq.heapreplace(heap, bound)  # the top is this entry, now outdated
            continue
        if dist == 0:
            side_s.match(a_val)
            side_d.match(a_val)
            # union stays that of the unmatched members, equal on both
            # sides, since a symmetric exchange never changes it
            for e in iter_elements(a_val):
                union[e] -= 1
        else:
            ma = sum(union[e] for e in iter_elements(a_val & ~b_val))
            mb = sum(union[e] for e in iter_elements(b_val & ~a_val))
            if ma >= mb:
                _advance(a_val, b_val, side_d)
            else:
                _advance(b_val, a_val, side_s)
        for a in side_s.changed:
            if a not in side_s.act:
                best.pop(a, None)  # None: it arrived and left this round
            elif a not in best:
                best[a] = bound = start(a)
                heapq.heappush(heap, bound)
        for b in side_d.changed:
            if b in targets:
                for a, bound in best.items():
                    d = (a ^ b).bit_count()
                    # most bounds are nearer: the tuple is built only on a tie or a win
                    if d <= bound[0] and (d, a, b) < bound:
                        best[a] = cand = (d, a, b)
                        heapq.heappush(heap, cand)
        side_s.changed.clear()
        side_d.changed.clear()

    result = side_s.moves + side_d.undo[::-1]
    check_moves(m, s_members, d_members, result, ordered=False)
    return result


def white2_path(m, src: Sequence[ElementSet], dst: Sequence[ElementSet]) -> list[Move]:
    """Moves on ordered positions turning the tuple src into dst exactly.

    The multiset is matched first by carrying white_moves over to the
    ordered state (the sorted state is always sorted(cur)); the leftover
    permutation is resolved one transposition at a time, each realized
    as a pair walk (_pair_path) of the one member onto the other, in
    which their shared elements never move, so no minor is built.  The
    final replay certifies every move.
    """
    pred, n, _ = basis_predicate(m)
    src_t = _check_bases(pred, n, src, "src member")
    dst_t = _check_bases(pred, n, dst, "dst member")

    k = len(src_t)
    out: list[Move] = []
    cur = list(src_t)

    def emit(p: int, q: int, x: int, y: int) -> None:
        # p < q: _mk_move orders the carried moves, transpositions look right
        cur[p], cur[q] = swap(cur[p], x, y), swap(cur[q], y, x)
        out.append(Move(p, q, x, y))

    for mv in white_moves(m, src_t, dst_t):
        srt = sorted(cur)
        emit(*_mk_move(cur, srt[mv.i], srt[mv.j], mv.x, mv.y))

    for p in range(k):
        if cur[p] == dst_t[p]:
            continue
        q = next(qq for qq in range(p + 1, k) if cur[qq] == dst_t[p])
        # the walk returns only once cur[p] is the old cur[q] = dst_t[p];
        # the replay below certifies every step
        for x, y in _pair_path(pred, cur[p], cur[q], cur[q]):
            emit(p, q, x, y)
    check_moves(m, src_t, dst_t, out, ordered=True)
    return out


# -- exhaustive connectivity oracles ------------------------------------------


def _take(levels: tuple[int, ...], b: int) -> tuple[int, ...]:
    """Remove one copy of each element of b from a multiset.

    levels[i] is the mask of elements with multiplicity above i, so b
    fits when it lies inside levels[0].
    """
    return tuple((lv & ~b) | (up & b) for lv, up in zip(levels, levels[1:] + (0,)))


def _pair_graph(m, pred, n: int, r: int, cap: int) -> tuple[set[int], Callable, Callable]:
    """The pair graph of m as (vertices, neighbours, candidates) for
    _connected, with the vertex (a1, a2, a3) as the int (a1 << n) | a2.

    The pair graph of a SparsePavingMatroid with designated family H
    is every ordered pair of disjoint r-sets less those with a block in
    H: at most 2|H| C(n-r, r) of the C(n, r) C(n-r, r) pairs, so
    (C(n, r) - 2|H|) C(n-r, r) is a lower bound on the vertex count, and
    TooLarge is raised before listing when it exceeds cap.  A separated
    family has |H| <= C(n, r) / (n-r+1), and with that, once n - r >= 2,
    the C(n, r) C(n-r, r) pairs listed before H's are removed are at most
    three times cap.  A family that breaks that inequality (it cannot be
    separated) and an ExplicitMatroid, whose bases may be few, list the
    pairs per first block, comparing the count with cap after each row.

    The separated listing: with g = 2^n - 1 and the union u = a1 | a2 the
    int is u + a1 * g.  The unions are grouped by the element j that
    starts their upper half: u = lo + hi with lo the r elements of u below
    j and hi = u - lo holding j.  The first block takes i elements x of lo
    and r - i elements y of hi, so the int is (lo + x * g) + (hi + y * g):
    for each j and i, every sum of one term from the lo side and one from
    the hi side, which costs one addition per pair and no basis-predicate
    call.  The pairs with a designated block h are then removed in one
    pass: (h, c) and (c, h) for every r-set c of h's complement.

    A pop lists the exact swaps of v.  A sweep tries v ^ d for each
    two-element delta d instead: (p << n) | p, p << n and p for every pair
    p = {x, y}; a candidate that lands in the vertex set is an edge.  Its
    blocks a1 ^ (d >> n) and a2 ^ (d & g) keep popcount r, so each
    nonempty half of d has one element inside its block and one outside.
    (p << n) | p therefore trades x and y between a1 and a2; p << n trades
    an element of a1 for one outside it, which is not in a2 as the blocks
    stay disjoint, so it comes from the leftover block; p does the same
    for a2.  Every swap is one of these, so a sweep tries every swap too.
    """
    g = (1 << n) - 1
    units = bits(g)
    limit = max(cap, 0)  # a negative cap still admits an empty graph
    designated = None
    if isinstance(m, SparsePavingMatroid):
        designated = [h for h in m.chset if h.bit_count() == r and not h >> n]
    verts: set[int] = set()
    # a separated family passes, and keeps the listing within three times cap
    separated = designated is not None and len(designated) * (n - r + 1) <= math.comb(n, r)
    if separated and 0 < 2 * r <= n:
        if (math.comb(n, r) - 2 * len(designated)) * math.comb(n - r, r) > limit:
            raise TooLarge(f"pair graph exceeds {cap} vertices")
        for j, top in enumerate(units[r : n - r + 1], r):
            los = [(t, sum(t)) for t in itertools.combinations(units[:j], r)]
            his = [((top, *t), top + sum(t)) for t in itertools.combinations(units[j + 1 :], r - 1)]
            for i in range(r + 1):
                xs = [s + x * g for t, s in los for x in map(sum, itertools.combinations(t, i))]
                ys = [s + y * g for t, s in his for y in map(sum, itertools.combinations(t, r - i))]
                verts.update(itertools.starmap(operator.add, itertools.product(xs, ys)))
        for h in designated:
            for c in subsets(g & ~h, r):
                verts.discard((h << n) | c)
                verts.discard((c << n) | h)
        # copied without the removed pairs' dummy slots: with them, the search's
        # set differences rebuild the table early, at up to twice the size
        verts = set(verts) if designated else verts
    elif 2 * r <= n:  # else no r-set fits in the complement of another
        for b1 in filter(pred, subsets(g, r)):
            # b1's row: the bases among the r-subsets of its complement
            row = filter(pred, subsets(g & ~b1, r))
            verts.update(map((b1 << n).__or__, row))
            if len(verts) > limit:
                break  # no later row can bring the count back under cap
    if len(verts) > limit:
        raise TooLarge(f"pair graph exceeds {cap} vertices")

    def neighbours(v: int) -> list[int]:
        a1, a2 = v >> n, v & g
        bits1, bits2, bits3 = bits(a1), bits(a2), bits(g & ~(a1 | a2))
        out = [v ^ ((x | y) << n) ^ x ^ y for x in bits1 for y in bits2]
        out += [v ^ ((x | y) << n) for x in bits1 for y in bits3]
        out += [v ^ x ^ y for x in bits2 for y in bits3]
        return out

    # two-element deltas for the first and second, first and
    # leftover, second and leftover blocks (see the docstring)
    pairs = [x | y for x, y in itertools.combinations(units, 2)]
    deltas = [(p << n) | p for p in pairs] + [p << n for p in pairs] + pairs
    return verts, neighbours, lambda v: map(v.__xor__, deltas)


def _orderings(col: list[int]) -> Iterable[tuple[int, ...]]:
    """The distinct orderings of the sorted list col, in lexicographic order,
    by next-permutation: one tuple per ordering, however many repeats."""
    while True:
        yield tuple(col)
        i = len(col) - 2
        while i >= 0 and col[i] >= col[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(col) - 1
        while col[j] <= col[i]:
            j -= 1
        col[i], col[j] = col[j], col[i]
        col[i + 1 :] = col[:i:-1]


def _connected(
    unseen: set,
    neighbours: Callable[[object], Iterable],
    candidates: Callable[[object], Iterable],
) -> tuple[bool, int]:
    """Search the graph on the vertex set unseen, emptying it as it goes;
    returns (connected, vertex count).

    neighbours(v) and candidates(v) may yield candidates that are not
    vertices: an edge is a candidate that lies in the vertex set.

    While the stack is shorter than the unseen set, the search pops a
    vertex and takes its unseen neighbours.  Once it is not, it sweeps
    the unseen set instead: the frontier live starts as the stack, each
    unseen vertex with a candidate in live is reached and joins live at
    once, and the stack restarts from the vertices the sweep reached.
    Near the end of a search most neighbours of a popped vertex are
    reached already, while the sweep stops at the first live candidate
    of each unseen vertex: the direction switch of Beamer, Asanovic &
    Patterson, "Direction-optimizing breadth-first search" (SC 2012).
    Testing against the frontier only is enough: a reached vertex off
    the stack was either popped, taking every unseen neighbour it had,
    or dropped with the stack of an earlier sweep, which left it none.
    So no reached vertex outside live is adjacent to an unseen one, the
    stack a sweep starts from has no unseen neighbour after it and is
    dropped, and a sweep that reaches nothing ends the search.  The
    search also stops once no vertex is left unseen, since no further
    edge can change the answer.
    """
    count = len(unseen)
    stack = [unseen.pop()] if unseen else []
    while stack and unseen:
        if len(stack) < len(unseen):
            hit = unseen.intersection(neighbours(stack.pop()))
            unseen -= hit
            stack.extend(hit)
        else:
            live = set(stack)
            stack = []
            for u in unseen:
                if not live.isdisjoint(candidates(u)):
                    live.add(u)
                    stack.append(u)
            unseen.difference_update(stack)
    return not unseen, count


def _collection_graph(pred, r: int, s, kind: str, cap: int) -> tuple[set, Callable, Callable]:
    """The collection graph of kind on the union s as (vertices,
    neighbours, candidates) for _connected, each vertex a tuple of
    k = |s| / r bases, sorted for the kind "white_multiset".

    The collections are listed by exact cover from what is left of the
    union: the next member is the least element still to cover plus r - 1
    other elements left, kept if it is a basis, and members with the same
    least element come in ascending mask order, so each multiset comes
    out once; the tuple kind adds its distinct orderings.  A branch is
    dropped once an element has more copies left than members are left,
    as a member holds it once.  Each step copies one mask per
    multiplicity level, so a union of k members whose largest
    multiplicity is t is refused when k t exceeds max(cap, WORK_FLOOR).
    """
    k = s.total // r
    # at least one level, so that the empty union reads as covered
    top = max((c for _, c in s.counts), default=1)
    if k * top > max(cap, WORK_FLOOR):
        raise TooLarge(f"a union of {k} members with multiplicity {top} is too large to cover")
    multiset = kind == "white_multiset"
    limit = max(cap, 0)
    cols: set[tuple[int, ...]] = set()
    # depth first with an explicit stack, so any k fits: (what is left, members so far)
    levels = tuple(as_mask(e for e, c in s.counts if c > i) for i in range(top))
    stack = [(levels, ())]
    while stack:
        levels, chosen = stack.pop()
        left, rest = levels[0], k - len(chosen)
        if rest < top and levels[rest]:
            continue  # an element has more copies left than members: no cover
        if not left:
            col = sorted(chosen)
            found = (tuple(col),) if multiset else _orderings(col)
            # stop one past the cap, so no multiset's orderings run far beyond it
            cols.update(itertools.islice(found, limit + 1 - len(cols)))
            if len(cols) > limit:
                raise TooLarge(f"collection graph exceeds {cap} vertices")
            continue
        low = left & -left
        least = chosen[-1] if chosen and chosen[-1] & -chosen[-1] == low else 0
        for b in subsets(left ^ low, r - 1):
            b |= low
            if b >= least and pred(b):
                stack.append((_take(levels, b), (*chosen, b)))

    def neighbours(col: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        for i, j in itertools.combinations(range(k), 2):
            bi, bj = col[i], col[j]
            for x in bits(bi & ~bj):
                for y in bits(bj & ~bi):
                    nxt = list(col)
                    nxt[i], nxt[j] = bi ^ x ^ y, bj ^ x ^ y
                    yield tuple(sorted(nxt)) if multiset else tuple(nxt)

    return cols, neighbours, neighbours


def graph_connected(
    m,
    kind: str,
    s: Multiset | None = None,
    cap: int = MAX_VERTICES,
) -> tuple[bool, int]:
    """Exhaustive connectivity check; returns (connected, vertex count).

    kind is "bpg", "white_multiset", or "white_tuple"; the white kinds
    need the multiset union s.  Once the arguments are checked, TooLarge
    is raised past max(cap, WORK_FLOOR) candidate bases, the r-sets of the
    ground set for the pair graph and of the union's support for the
    others, and past cap vertices, a cap that bounds the enumeration too.
    An empty or single-vertex graph counts as connected.

    Every vertex is enumerated before the search (see _pair_graph and
    _collection_graph), so adjacency is decided by membership in the
    vertex set: a single swap keeps a pair disjoint and a collection's
    union fixed, so the swapped pair or collection is a neighbour
    exactly when it is a vertex, that is, when both changed blocks or
    members are bases.  No theorem is assumed: the search (see
    _connected) tries every swap out of each vertex it pops or sweeps,
    and stops when every vertex has been reached or none is left to reach.
    """
    pred, n, r = basis_predicate(m)
    if kind == "bpg":
        if s is not None:
            raise PreconditionViolated("the pair graph takes no multiset")
    elif kind not in ("white_multiset", "white_tuple"):
        raise PreconditionViolated(f"unknown graph kind {kind!r}")
    elif not isinstance(s, Multiset):
        raise PreconditionViolated("collection graphs need the multiset union")
    else:
        _as_subset(n, (e for e, _ in s.counts), "multiset union")
        if r == 0:
            if s.total:
                raise PreconditionViolated("rank zero admits only the empty union")
            return True, 1
        if s.total % r:
            raise PreconditionViolated("union size is not a multiple of the rank")
    if math.comb(n if kind == "bpg" else len(s.counts), r) > max(cap, WORK_FLOOR):
        raise TooLarge("too many candidate bases to enumerate")
    if kind == "bpg":
        return _connected(*_pair_graph(m, pred, n, r, cap))
    return _connected(*_collection_graph(pred, r, s, kind, cap))
