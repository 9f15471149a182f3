"""Pair-graph and collection walks, plus the single-round improvement engine."""

import hashlib
import itertools
import math
import random
import time
import tracemalloc
import zlib
from collections import Counter

import pytest

from corpusdef import (
    CORPUS,
    P44,
    U24,
    bases_of,
    call_outcome,
    certify,
    gs_best,
    mask,
    replay_lands,
    scramble,
    small_sparse_paving,
    with_max_n,
)
from sparsepaving import (
    BasisPairVertex,
    ElementOutOfRange,
    ExchangeViolation,
    ExplicitMatroid,
    InternalCheckError,
    Move,
    Multiset,
    NotAVertex,
    NotBases,
    NotDisjoint,
    PreconditionViolated,
    SparsePavingMatroid,
    TooLarge,
    UnionMismatch,
    apply_tuple_move,
    apply_white_move,
    as_mask,
    bpg_path,
    bpg_vertex,
    find_cyclic_order,
    gabow_cycle_any,
    graham_sloane,
    graph_connected,
    is_basis,
    random_sparse_paving,
    subset_masks,
    to_explicit,
    uniform,
    white2_path,
    white_moves,
)
from sparsepaving.bitset import elements, iter_elements, lowest_element, swap
from sparsepaving.core import MAX_VERTICES, basis_predicate
from sparsepaving.errors import guaranteed
from sparsepaving.exchange import _exchange, check_bpg_walk
import sparsepaving.core as core
import sparsepaving.cyclic as cyclic
import sparsepaving.exchange as exchange
from test_guards import _family


# -- multiset and move plumbing --------------------------------------------------


def test_multiset_canonicalization():
    s = Multiset.from_elements([3, 0, 3, 1])
    assert s.counts == ((0, 1), (1, 1), (3, 2))
    assert s.total == 4
    assert s.counter() == Counter({0: 1, 1: 1, 3: 2})
    assert Multiset([(2, 0), (1, 2)]) == Multiset.from_elements([1, 1])


def test_multiset_input_checks():
    with pytest.raises(ElementOutOfRange, match="^bad multiset element -1$"):
        Multiset([(-1, 1)])
    with pytest.raises(ElementOutOfRange, match="^bad multiset element '2'$"):
        Multiset.from_elements([0, "2"])
    with pytest.raises(PreconditionViolated, match="^negative multiplicity$"):
        Multiset([(0, 1), (1, -1)])
    # a multiplicity must be an int, not a float, a string or a bool
    with pytest.raises(PreconditionViolated, match="^multiplicity 2.0 is not an int$"):
        Multiset([(0, 2.0), (1, 2.0)])
    with pytest.raises(PreconditionViolated, match="^multiplicity '1' is not an int$"):
        Multiset([(0, "1")])
    with pytest.raises(PreconditionViolated, match="^multiplicity True is not an int$"):
        Multiset([(0, True)])
    # nor is an element a bool, which the oracles would read as 1
    with pytest.raises(ElementOutOfRange, match="^bad multiset element True$"):
        Multiset([(True, 2), (0, 2)])


def test_apply_white_move_validates():
    state = (mask(0, 1), mask(2, 3))
    out = apply_white_move(P44, state, Move(0, 1, 1, 2))
    assert out == (mask(0, 2), mask(1, 3))
    with pytest.raises(ExchangeViolation):
        # landing on the dependent pair {1,2}
        apply_white_move(P44, state, Move(0, 1, 0, 2))
    with pytest.raises(ExchangeViolation):
        apply_white_move(P44, state, Move(0, 1, 2, 3))  # x not in member 0
    with pytest.raises(ExchangeViolation):
        apply_white_move(P44, state, Move(0, 2, 1, 2))  # index range


# state (0,1 | 0,2) of U(4, 2), already sorted, so every entry point sees
# the same positions; each move breaks one condition of a symmetric exchange
BAD_MOVES = [
    (Move(0, 1, 3, 2), "element 3 is not in member 0 only"),
    (Move(0, 1, 0, 2), "element 0 is not in member 0 only"),
    (Move(0, 1, 1, 3), "element 3 is not in member 1 only"),
    (Move(0, 1, 1, 0), "element 0 is not in member 1 only"),
    (Move(0, 2, 1, 2), r"move indices \(0, 2\) out of range"),
    (Move(-1, 1, 1, 2), r"move indices \(-1, 1\) out of range"),
    (Move(1, 0, 2, 1), r"move indices \(1, 0\) out of range"),
    (Move(1, 1, 2, 1), r"move indices \(1, 1\) out of range"),
    (Move(0, 1, -1, 2), "element -1 is not in member 0 only"),
    (Move(0, 1, 1, -1), "element -1 is not in member 1 only"),
]


@pytest.mark.parametrize(
    "move,msg",
    BAD_MOVES,
    ids=[
        "x-in-neither",
        "x-in-both",
        "y-in-neither",
        "y-in-both",
        "index-past-end",
        "index-negative",
        "i>j",
        "i=j",
        "x-negative",
        "y-negative",
    ],
)
@pytest.mark.parametrize(
    "apply",
    [
        apply_white_move,
        apply_tuple_move,
        lambda m, st, mv: exchange.check_moves(m, st, st, [mv], ordered=False),
        lambda m, st, mv: exchange.check_moves(m, st, st, [mv], ordered=True),
    ],
    ids=["apply_white_move", "apply_tuple_move", "check_moves", "check_moves-ordered"],
)
def test_bad_moves_are_refused(apply, move, msg):
    with pytest.raises(ExchangeViolation, match=f"^{msg}$"):
        apply(U24, (mask(0, 1), mask(0, 2)), move)


# every member of the state, moved or not, must be a basis of m inside its ground set
BAD_STATES = [
    (
        uniform(4, 2),
        [{0, 1}, {2, 9}],
        Move(0, 1, 1, 9),
        ElementOutOfRange,
        "member 2,9 is not inside 0..3",
    ),
    (
        SparsePavingMatroid(4, 2, [{0, 1}, {2, 3}]),
        [{0, 1}, {2, 3}],
        Move(0, 1, 1, 2),
        NotBases,
        "member 0,1 is not a basis",
    ),
    (P44, [{0, 1}, {0, 3}, {2, 3}], Move(0, 2, 1, 2), NotBases, "member 0,3 is not a basis"),
]


@pytest.mark.parametrize(
    "m,state,move,fault,msg", BAD_STATES, ids=["outside", "non-basis", "unmoved-non-basis"]
)
@pytest.mark.parametrize(
    "apply,side",
    [
        (apply_white_move, ""),
        (apply_tuple_move, ""),
        # the certificate gates the bad state as src, and as dst after an empty src
        (lambda m, st, mv: exchange.check_moves(m, st, [], [mv], ordered=False), "src "),
        (lambda m, st, mv: exchange.check_moves(m, st, [], [mv], ordered=True), "src "),
        (lambda m, st, mv: exchange.check_moves(m, [], st, [mv], ordered=False), "dst "),
        (lambda m, st, mv: exchange.check_moves(m, [], st, [mv], ordered=True), "dst "),
    ],
    ids=["white", "tuple", "check-src", "check-src-ordered", "check-dst", "check-dst-ordered"],
)
def test_apply_move_refuses_a_state_that_is_not_bases(apply, side, m, state, move, fault, msg):
    with pytest.raises(fault, match=f"^{side}{msg}$"):
        apply(m, state, move)


def test_apply_tuple_move_keeps_positions():
    state = (mask(2, 3), mask(0, 1))
    out = apply_tuple_move(U24, state, Move(0, 1, 2, 0))
    assert out == (mask(0, 3), mask(1, 2))


# -- pair graph -------------------------------------------------------------------


def test_bpg_vertex_validation():
    v = bpg_vertex(P44, {0, 1}, {2, 3}, set())
    assert (v.a1, v.a2, v.a3) == (mask(0, 1), mask(2, 3), 0)
    with pytest.raises(NotDisjoint):
        bpg_vertex(P44, {0, 1}, {1, 2}, {3})
    with pytest.raises(UnionMismatch):
        bpg_vertex(uniform(5, 2), {0, 1}, {2, 3}, set())
    with pytest.raises(NotAVertex, match="^first block 0,3 is not a basis$"):
        bpg_vertex(P44, {0, 3}, {1, 2}, set())
    with pytest.raises(NotAVertex, match="^second block 2,3 is not a basis$"):
        bpg_vertex(SparsePavingMatroid(5, 2, [{2, 3}]), {0, 1}, {2, 3}, {4})
    # every block is range-checked before disjointness and cover
    with pytest.raises(ElementOutOfRange, match="^block 1,5 is not inside 0..3$"):
        bpg_vertex(P44, {0, 1}, {2, 3}, {1, 5})


def test_bpg_vertex_repr():
    assert repr(bpg_vertex(P44, {0, 1}, {2, 3}, set())) == "(0,1 | 2,3 | -)"
    assert repr(bpg_vertex(uniform(5, 2), {0, 1}, {2, 3}, {4})) == "(0,1 | 2,3 | 4)"


def test_bpg_adjacency_frozen():
    u = bpg_vertex(P44, {0, 1}, {2, 3}, set())
    v = bpg_vertex(P44, {0, 2}, {1, 3}, set())
    assert exchange._one_swap_apart(u, v)
    assert not exchange._one_swap_apart(u, u)
    w = bpg_vertex(P44, {1, 3}, {0, 2}, set())
    assert exchange._one_swap_apart(u, w)  # the single transposition 0 <-> 3
    assert not exchange._one_swap_apart(u, bpg_vertex(P44, {2, 3}, {0, 1}, set()))


def _random_vertex(m, rng):
    bl = bases_of(m)
    while True:
        b1 = rng.choice(bl)
        rest = [b for b in bl if b & b1 == 0]
        if rest:
            b2 = rng.choice(rest)
            return bpg_vertex(m, b1, b2, m.ground & ~(b1 | b2))


@pytest.mark.parametrize(
    "name,m", with_max_n(10, min_rank=1), ids=[n for n, _ in with_max_n(10, min_rank=1)]
)
def test_bpg_path_is_a_verified_walk(name, m):
    if not any(b1 & b2 == 0 for b1 in bases_of(m) for b2 in bases_of(m)):
        return
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(25):
        u = _random_vertex(m, rng)
        v = _random_vertex(m, rng)
        path = bpg_path(m, u, v)
        assert path[0] == u and path[-1] == v
        exchange.check_bpg_walk(m, path, u, v)  # also holds the walk to 4n steps
        w = path[len(path) // 2]
        corrupt = [[u, BasisPairVertex(w.a1, w.a1, w.a3), *path[1:]]]  # non-vertex
        if u != v:
            corrupt.append([v, *path[1:]])  # wrong start
        if len(path) >= 3 and not exchange._one_swap_apart(path[0], path[2]):
            corrupt.append([path[0], *path[2:]])  # two swaps in one step
        for bad in corrupt:
            with pytest.raises(InternalCheckError):
                exchange.check_bpg_walk(m, bad, u, v)


def test_check_bpg_walk_rejects_a_dependent_block():
    u = bpg_vertex(P44, {0, 1}, {2, 3}, set())
    v = bpg_vertex(P44, {0, 2}, {1, 3}, set())
    exchange.check_bpg_walk(P44, [u, v], u, v)
    for ends in ([], [v, u], [u]):
        with pytest.raises(InternalCheckError, match="^walk endpoints are off$"):
            exchange.check_bpg_walk(P44, ends, u, v)
    # {0, 3} and {1, 2} are the dependent pairs; each step is one swap
    with pytest.raises(InternalCheckError):
        exchange.check_bpg_walk(P44, [u, BasisPairVertex(0b1001, 0b0110, 0), v], u, v)


def test_bpg_path_exhaustive_small():
    """Every ordered vertex pair of the named fixtures is walkable."""
    for m in (U24, P44, uniform(5, 2), gs_best(6, 3)):
        verts = [
            bpg_vertex(m, b1, b2, m.ground & ~(b1 | b2))
            for b1 in bases_of(m)
            for b2 in bases_of(m)
            if b1 & b2 == 0
        ]
        for u in verts:
            for v in verts:
                exchange.check_bpg_walk(m, bpg_path(m, u, v), u, v)


def _sample_vertex(m, rng):
    """A random pair-graph vertex by rejection sampling, without listing bases."""
    while True:
        b1 = as_mask(rng.sample(range(m.n), m.r))
        b2 = as_mask(rng.sample([e for e in range(m.n) if not (b1 >> e) & 1], m.r))
        if is_basis(m, b1) and is_basis(m, b2):
            return bpg_vertex(m, b1, b2, m.ground & ~(b1 | b2))


def _paths_digest(pool, label, count):
    h = hashlib.sha256()
    steps = 0
    for i in range(count):
        m = pool[i % len(pool)]
        rng = random.Random(zlib.crc32(f"{label} {i}".encode()))
        u, v = _sample_vertex(m, rng), _sample_vertex(m, rng)
        path = bpg_path(m, u, v)
        steps += len(path) - 1
        h.update(";".join(f"{w.a1} {w.a2} {w.a3}" for w in path).encode() + b"\n")
    return steps, h.hexdigest()


def test_bpg_path_frozen():
    """Pins the pair-graph paths, so the order of exchange candidates cannot drift."""
    pool = [m for _, m in CORPUS if m.r >= 1 and 2 * m.r <= m.n]
    assert _paths_digest(pool, "corpus", 100) == (
        276,
        "d91819332a582644676b883676374da22741d8e980287243dc58f478f1faf187",
    )
    gs = [gs_best(n, r) for n, r in ((16, 7), (18, 9), (20, 8), (22, 10))]
    assert _paths_digest(gs, "gs", 40) == (
        235,
        "ddba45705806a6491c329d1e96a34b08ff3f3958323dbf9533ff7d2d8b5b5865",
    )


def test_graph_connected_bpg_frozen():
    assert graph_connected(P44, "bpg") == (True, 4)
    assert graph_connected(U24, "bpg") == (True, 6)
    with pytest.raises(TooLarge):
        graph_connected(uniform(40, 20), "bpg")
    with pytest.raises(TooLarge):
        graph_connected(uniform(8, 2), "bpg", cap=10)
    with pytest.raises(PreconditionViolated):
        graph_connected(P44, "bpg", s=Multiset.from_elements([0]))
    with pytest.raises(PreconditionViolated):
        graph_connected(P44, "nope")
    # the arguments are checked before the C(40, 20) candidate bases are counted
    with pytest.raises(PreconditionViolated, match="^unknown graph kind 'nope'$"):
        graph_connected(uniform(40, 20), "nope")
    with pytest.raises(PreconditionViolated, match="^the pair graph takes no multiset$"):
        graph_connected(uniform(40, 20), "bpg", s=Multiset.from_elements([0]))


def test_graph_connected_bpg_cap_bounds_the_first_pass():
    """The vertex cap bounds the listing of the vertices too: a lower
    bound on the count is compared with it before any is listed.

    graham_sloane(22, 11, 0) has 705,432 candidate bases; listing them
    all before the first comparison took about 0.4 s.
    """
    m = graham_sloane(22, 11, 0)
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        graph_connected(m, "bpg", cap=0)
    assert time.perf_counter() - start < 0.1
    # a negative cap still admits an empty graph, and nothing more
    assert graph_connected(uniform(5, 3), "bpg", cap=-1) == (True, 0)
    with pytest.raises(TooLarge):
        graph_connected(U24, "bpg", cap=-1)


@pytest.mark.parametrize(
    "n,r",
    [(5, 3), (6, 3), (7, 3), (14, 2), (5, 0), (7, 1)],
    ids=["n<2r", "n=2r", "n=2r+1", "n>>2r", "r=0", "r=1"],
)
def test_graph_connected_bpg_uniform_closed_form(n, r):
    """Every r-set of U(r, n) is a basis: C(n, r) * C(n - r, r) vertices, connected."""
    want = (True, math.comb(n, r) * math.comb(n - r, r))
    assert graph_connected(uniform(n, r), "bpg") == want


def test_graph_connected_bpg_counts_no_vertex_past_half_rank():
    """With 2r > n no first block has a row, so no candidate is visited."""
    start = time.perf_counter()
    assert graph_connected(uniform(24, 13), "bpg") == (True, 0)
    assert time.perf_counter() - start < 0.1


def _check_count_and_cap(m, kind, want, s=None):
    """graph_connected reports (True, want), passes at cap = want and
    raises at cap = want - 1."""
    assert graph_connected(m, kind, s=s) == (True, want)
    assert graph_connected(m, kind, s=s, cap=want) == (True, want)
    with pytest.raises(TooLarge):
        graph_connected(m, kind, s=s, cap=want - 1)


@pytest.mark.parametrize(
    "n,r,classes",
    [(10, 4, range(10)), (11, 5, range(11)), (12, 5, range(12)), (13, 6, range(13)),
     (11, 4, "random"), (12, 3, "random"), (13, 6, "random")],
    ids=["gs10_4", "gs11_5", "gs12_5", "gs13_6", "rnd11_4", "rnd12_3", "rnd13_6"],
)
def test_graph_connected_bpg_count_closed_form(n, r, classes):
    """A sparse paving matroid with designated family H has
    C(n, r) C(n-r, r) - 2|H| C(n-r, r) + D pair-graph vertices, D the
    ordered disjoint pairs inside H; every residue class at the
    benchmark's sizes, and seeded random families."""
    if classes == "random":
        family = [random_sparse_paving(n, r, seed=s, max_sets=t) for s, t in ((1, 8), (2, 24), (3, None))]
    else:
        family = [graham_sloane(n, r, c) for c in classes]
    for m in family:
        h = m.chset
        d = sum(1 for a in h for b in h if not a & b)
        q = math.comb(n - r, r)
        _check_count_and_cap(m, "bpg", math.comb(n, r) * q - 2 * len(h) * q + d)


def test_graph_connected_bpg_unseparated_families():
    """Unvalidated families give the counts of their explicit forms.  One
    with more than C(n, r) / (n-r+1) sets cannot be separated and is
    listed per first block, so every 5-set of 30 elements returns at
    once instead of listing all C(30, 5) C(25, 5) pairs of 5-sets.

    Near-uniform families, each r-set drawn with probability
    1 / (2 (n-r+1)), need not be separated, yet are small enough for the
    removal pass; each also holds an (r+1)-set and an r-set past the
    ground set, which designate no r-set of the ground and change no count."""
    pairs = [mask(0, 1), mask(0, 2)]  # at symmetric difference 2
    crowded = [b for b in subset_masks(8, 2) if b < 1 << 5]  # 10 > 28 / 7
    families = [(8, 2, pairs), (8, 2, crowded)]
    rng = random.Random(30)
    for n, r in ((8, 3), (9, 3), (9, 4), (10, 3), (10, 4), (11, 4), (11, 5)):
        for _ in range(3):
            near = [b for b in subset_masks(n, r) if rng.random() < 0.5 / (n - r + 1)]
            assert len(near) * (n - r + 1) <= math.comb(n, r)  # so the removal pass runs
            stray = [(1 << (r + 1)) - 1, (1 << (r - 1)) - 1 | 1 << n]
            families.append((n, r, near + stray))
    for n, r, h in families:
        m = SparsePavingMatroid(n, r, h)
        explicit = ExplicitMatroid(n, r, [b for b in subset_masks(n, r) if b not in h])
        assert graph_connected(m, "bpg") == graph_connected(explicit, "bpg")
    m = SparsePavingMatroid(30, 5, subset_masks(30, 5))
    start = time.perf_counter()
    assert graph_connected(m, "bpg") == (True, 0)
    assert time.perf_counter() - start < 1


def test_graph_connected_bpg_memory():
    """The search holds the unseen and the reached set, which between
    them hold each of the 13,964 vertices once: about 1.75 MiB at peak
    (1.5 MiB before the search kept a reached set)."""
    m = graham_sloane(12, 5, 3)
    graph_connected(m, "bpg")  # warm caches, so only the search is traced
    tracemalloc.start()
    try:
        graph_connected(m, "bpg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


# -- collection walks -------------------------------------------------------------


def test_white_moves_frozen_pair():
    moves = white_moves(P44, [{0, 1}, {2, 3}], [{0, 2}, {1, 3}])
    assert moves == [Move(0, 1, 1, 2)]
    assert white_moves(P44, [{0, 1}, {2, 3}], [{2, 3}, {0, 1}]) == []


def test_white_moves_validation():
    with pytest.raises(NotBases):
        white_moves(P44, [{0, 3}, {1, 2}], [{0, 1}, {2, 3}])
    with pytest.raises(UnionMismatch):
        white_moves(P44, [{0, 1}, {2, 3}], [{0, 1}, {1, 3}])
    with pytest.raises(UnionMismatch):
        white_moves(P44, [{0, 1}], [{0, 1}, {2, 3}])
    # every 2-set is a basis of U(4, 2), so only the ground check refuses this
    with pytest.raises(ElementOutOfRange, match="src member 0,4 is not inside 0..3"):
        white_moves(U24, [{0, 4}, {1, 2}], [{0, 1}, {2, 4}])


def test_check_moves_frozen():
    src, dst = [mask(0, 1), mask(2, 3)], [mask(0, 2), mask(1, 3)]
    exchange.check_moves(P44, src, dst, [Move(0, 1, 1, 2)], ordered=False)
    exchange.check_moves(P44, src, dst[::-1], [Move(0, 1, 1, 2)], ordered=False)
    with pytest.raises(InternalCheckError):
        exchange.check_moves(P44, src, dst, [], ordered=False)  # dropped move
    with pytest.raises(InternalCheckError):
        exchange.check_moves(P44, src, dst[::-1], [Move(0, 1, 1, 2)], ordered=True)
    with pytest.raises(ExchangeViolation):
        exchange.check_moves(P44, src, dst, [Move(0, 1, 0, 2)], ordered=False)


def test_white2_path_reorders_equal_multisets():
    # same multiset, swapped positions: the ordered walk has real work
    moves = white2_path(U24, [{0, 1}, {2, 3}], [{2, 3}, {0, 1}])
    src, dst = [mask(0, 1), mask(2, 3)], [mask(2, 3), mask(0, 1)]
    assert replay_lands(U24, src, dst, moves, ordered=True)
    assert 0 < len(moves) <= 4 * 2 * U24.r


def _random_collection(m, rng, k):
    bl = bases_of(m)
    return [rng.choice(bl) for _ in range(k)]


@pytest.mark.parametrize("k", [2, 3])
def test_collection_walks_land_on_scrambled_targets(k):
    rng = random.Random(90 + k)
    rejected = 0
    pool = [m for _, m in with_max_n(9, min_rank=1)]
    for m in pool:
        for _ in range(6):
            src = _random_collection(m, rng, k)
            dst = scramble(m, rng, src, 3 * k)
            moves = white_moves(m, src, dst)
            assert replay_lands(m, src, dst, moves, ordered=False)
            moves2 = white2_path(m, src, dst)
            assert replay_lands(m, src, dst, moves2, ordered=True)

            for ordered, mvs in ((False, moves), (True, moves2)):
                exchange.check_moves(m, src, dst, mvs, ordered)  # also holds them to 4kr
                # drop one move; the public replay decides the verdict
                for t in {0, len(mvs) // 2, len(mvs) - 1} if mvs else ():
                    bad = mvs[:t] + mvs[t + 1 :]
                    if replay_lands(m, src, dst, bad, ordered):
                        exchange.check_moves(m, src, dst, bad, ordered)
                    else:
                        rejected += 1
                        with pytest.raises((InternalCheckError, ExchangeViolation)):
                            exchange.check_moves(m, src, dst, bad, ordered)
    assert rejected > 100


def test_graph_connected_collections_frozen():
    s = Multiset.from_elements([0, 1, 2, 3])
    assert graph_connected(P44, "white_multiset", s=s) == (True, 2)
    assert graph_connected(P44, "white_tuple", s=s) == (True, 4)
    assert graph_connected(U24, "white_multiset", s=s) == (True, 3)
    doubled = Multiset.from_elements([0, 0, 1, 1])
    assert graph_connected(U24, "white_multiset", s=doubled) == (True, 1)
    # 0 with 8 copies and 1..13 once: 7 members, each holding 0 at most
    # once, so no cover; the search drops such branches at once (2.1 s
    # when it explored them)
    start = time.perf_counter()
    s = Multiset([(0, 8)] + [(e, 1) for e in range(1, 14)])
    assert graph_connected(uniform(14, 3), "white_multiset", s=s) == (True, 0)
    assert time.perf_counter() - start < 0.1
    # 0 in each of 5 members, which pair up 1..10 in 9!! = 945 ways
    s = Multiset([(0, 5)] + [(e, 1) for e in range(1, 11)])
    assert graph_connected(uniform(11, 3), "white_multiset", s=s) == (True, 945)
    # each cover step copies one mask per multiplicity level, so one
    # collection of k members costs about k times the top multiplicity,
    # refused past max(cap, 5,000,000) before any is listed
    s = Multiset([(0, 1000), (1, 1000)])
    assert graph_connected(uniform(2, 2), "white_multiset", s=s) == (True, 1)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="^a union of 4000 members with multiplicity 4000 is"):
        graph_connected(uniform(2, 2), "white_multiset", s=Multiset([(0, 4000), (1, 4000)]))
    assert time.perf_counter() - start < 0.1
    with pytest.raises(PreconditionViolated):
        graph_connected(P44, "white_multiset")
    with pytest.raises(PreconditionViolated):
        graph_connected(P44, "white_multiset", s=Multiset.from_elements([0]))


@pytest.mark.parametrize(
    "m,counts",
    [(uniform(16, 8), (6435, 12870)), (graham_sloane(16, 8, 0), (5626, 11252))],
    ids=["u16_8", "gs16_8"],
)
def test_graph_connected_lists_members_from_what_is_left(m, counts):
    """k = 2 on the union of the complementary bases 0..7 and 8..15.

    Each member is the least element left plus r - 1 elements left, so
    listing costs one basis test per member tried.  Listing from a row of
    bases per least element instead read 15.5 million row entries on
    uniform(16, 8) and took 1.0-1.9 s per call.
    """
    s = Multiset.from_elements(range(16))
    for kind, want in zip(("white_multiset", "white_tuple"), counts):
        start = time.perf_counter()
        assert graph_connected(m, kind, s=s) == (True, want)
        assert time.perf_counter() - start < 0.5
        _check_count_and_cap(m, kind, want, s=s)


def test_graph_connected_sizes_collections_by_their_support():
    """A collection graph only takes members from the union's support, so
    its candidate bases are counted there, not over the ground set:
    C(30, 8) = 5,852,925 is past the floor, C(16, 8) = 12,870 is not."""
    s = Multiset.from_elements(range(16))
    m = uniform(30, 8)
    assert graph_connected(m, "white_multiset", s=s) == (True, 6435)
    assert graph_connected(m, "white_tuple", s=s) == (True, 12870)
    # C(40, 20) candidates in the support are still refused, before any is listed
    start = time.perf_counter()
    for kind in ("white_multiset", "white_tuple"):
        with pytest.raises(TooLarge, match="^too many candidate bases to enumerate$"):
            graph_connected(uniform(40, 20), kind, s=Multiset.from_elements(range(40)))
    assert time.perf_counter() - start < 0.1
    with pytest.raises(TooLarge, match="^too many candidate bases to enumerate$"):
        graph_connected(m, "bpg")


@pytest.mark.parametrize(
    "k,family",
    [
        (4, (P44, uniform(5, 2), gs_best(6, 3), gs_best(7, 3))),
        (5, (P44, uniform(5, 2), gs_best(6, 3))),
        (6, (P44, uniform(5, 2), gs_best(5, 2))),
    ],
    ids=["k4", "k5", "k6"],
)
def test_graph_connected_collections_count_against_certify(k, family):
    """Both collection kinds against certify's brute-force count, for
    unions of k members with a repeat, so that equal members and members
    sharing their least element both occur.  The families stay small
    because certify counts the tuples one by one."""
    rng = random.Random(k)
    for m in family:
        bl = bases_of(m)
        for _ in range(3):
            head = [rng.choice(bl) for _ in range(k - 2)]
            col = head + [head[0], rng.choice(bl)]
            union = Counter(e for b in col for e in elements(b))
            s = Multiset(union.items())
            for kind, ordered in (("white_multiset", False), ("white_tuple", True)):
                want = certify.count_collections(certify.Spm.of(m), dict(union), ordered)
                _check_count_and_cap(m, kind, want, s)


def test_graph_connected_collection_input_checks():
    outside = "^multiset union {} is not inside 0..{}$"
    with pytest.raises(ElementOutOfRange, match=outside.format("0,4", 3)):
        graph_connected(P44, "white_multiset", s=Multiset.from_elements([0, 4]))
    # the element check comes before the rank-zero check
    with pytest.raises(ElementOutOfRange, match=outside.format(3, 2)):
        graph_connected(uniform(3, 0), "white_tuple", s=Multiset.from_elements([3]))
    with pytest.raises(PreconditionViolated, match="^rank zero admits only the empty union$"):
        graph_connected(uniform(3, 0), "white_tuple", s=Multiset.from_elements([1]))
    empty = Multiset.from_elements([])
    assert graph_connected(uniform(3, 0), "white_multiset", s=empty) == (True, 1)
    # the arguments are checked before the C(40, 20) candidate bases are counted
    big = uniform(40, 20)
    with pytest.raises(PreconditionViolated, match="^collection graphs need the multiset union$"):
        graph_connected(big, "white_multiset")
    with pytest.raises(ElementOutOfRange, match=outside.format("0,40", 39)):
        graph_connected(big, "white_tuple", s=Multiset.from_elements([0, 40]))
    with pytest.raises(PreconditionViolated, match="^union size is not a multiple of the rank$"):
        graph_connected(big, "white_multiset", s=Multiset.from_elements([0]))
    # a Counter is not taken for the multiset union, however it counts
    for kind in ("white_multiset", "white_tuple"):
        with pytest.raises(PreconditionViolated, match="^collection graphs need the multiset union$"):
            graph_connected(P44, kind, s=Counter({0: 1, 1: 1}))


def test_graph_connected_matches_walks():
    """Connectivity oracle and constructive walks must agree per component."""
    rng = random.Random(7)
    for m in (P44, uniform(5, 2), gs_best(7, 3)):
        for k in (2, 3):
            for _ in range(5):
                src = _random_collection(m, rng, k)
                s = Multiset.from_elements(
                    e for b in src for e in range(m.n) if (b >> e) & 1
                )
                ok, count = graph_connected(m, "white_multiset", s=s)
                assert ok and count >= 1
                ok2, count2 = graph_connected(m, "white_tuple", s=s)
                assert ok2 and count2 >= count


# -- connectivity oracles against the definition -----------------------------------


def _components(verts, edges):
    """Number of connected components, by union-find."""
    parent = list(range(len(verts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(len(verts))})


def _definition_pair_graph(mm, bl):
    ground = (1 << mm.n) - 1
    verts = [
        bpg_vertex(mm, b1, b2, ground & ~(b1 | b2))
        for b1 in bl
        for b2 in bl
        if b1 & b2 == 0
    ]
    # one swap leaves the third block where it was, so only vertices that
    # share some block are offered to _one_swap_apart
    groups = {}
    for i, v in enumerate(verts):
        for key in ((1, v.a1), (2, v.a2), (3, v.a3)):
            groups.setdefault(key, []).append(i)
    edges = [
        (i, j)
        for members in groups.values()
        for i in members
        for j in members
        if i < j and exchange._one_swap_apart(verts[i], verts[j])
    ]
    return verts, edges


def _collections(bl, union, k):
    """Sorted k-tuples of bases whose multiset union is union."""
    inside = [b for b in bl if not b & ~mask(*union)]
    found = set()
    # the first k - 1 members fix the last one as what is left of the union
    for head in itertools.combinations_with_replacement(inside, k - 1):
        left = union.copy()
        left.subtract(e for b in head for e in elements(b))
        last = mask(*(e for e, c in left.items() if c))
        if set(left.values()) <= {0, 1} and last in inside:
            found.add(tuple(sorted((*head, last))))
    return found


def _definition_collection_graph(mm, cols, ordered):
    if ordered:
        cols = {p for v in cols for p in itertools.permutations(v)}
    verts = sorted(cols)
    index = {v: i for i, v in enumerate(verts)}
    apply = apply_tuple_move if ordered else apply_white_move
    edges = []
    for i, v in enumerate(verts):
        for a, b in itertools.combinations(range(len(v)), 2):
            for x in elements(v[a]):
                for y in elements(v[b]):
                    try:
                        w = apply(mm, v, Move(a, b, x, y))
                    except ExchangeViolation:
                        continue
                    edges.append((i, index[w]))
    return verts, edges


def _check_oracle(mm, kind, verts, edges, s=None):
    count = len(verts)
    want = (_components(verts, edges) <= 1, count)
    assert graph_connected(mm, kind, s=s) == want
    assert graph_connected(mm, kind, s=s, cap=count) == want
    if count:
        with pytest.raises(TooLarge):
            graph_connected(mm, kind, s=s, cap=count - 1)


def _check_all_kinds(name, forms, bl):
    rng = random.Random(zlib.crc32(name.encode()))
    unions = []
    if forms[0].r:  # at rank 0 the empty union does not fix the collection size
        for k in (2, 2, 3, 3):
            col = [rng.choice(bl) for _ in range(k)]
            union = Counter(e for b in col for e in elements(b))
            unions.append((Multiset(union.items()), _collections(bl, union, k)))
    for mm in forms:
        _check_oracle(mm, "bpg", *_definition_pair_graph(mm, bl))
        for s, cols in unions:
            for kind, ordered in (("white_multiset", False), ("white_tuple", True)):
                _check_oracle(mm, kind, *_definition_collection_graph(mm, cols, ordered), s)


@pytest.mark.parametrize("name,m", with_max_n(9), ids=[n for n, _ in with_max_n(9)])
def test_graph_connected_matches_definition(name, m):
    """All three kinds against graphs built from bases_of and the move checkers."""
    _check_all_kinds(name, (m, to_explicit(m)), bases_of(m))


# (name, n, r, density); at density 0.5 every family with r >= 3 and
# n > 2r has a connected pair graph, so the density-0.25 group is what
# splits graphs with a nonempty leftover block
FAMILIES = [
    (f"family{n}_{r}_{i}", n, r, 0.5)
    for n, r in ((5, 2), (6, 2), (6, 3), (7, 3), (8, 3))
    for i in range(3)
]
SPARSE_FAMILIES = [
    (f"sparse{n}_{r}_{i}", n, r, 0.25)
    for n, r in ((7, 3), (8, 3), (9, 3), (9, 4))
    for i in range(3)
]


def _set_family(name, n, r, density):
    rng = random.Random(zlib.crc32(name.encode()))
    return [b for b in subset_masks(n, r) if rng.random() < density]


@pytest.mark.parametrize(
    "name,n,r,density",
    FAMILIES + SPARSE_FAMILIES,
    ids=[f[0] for f in FAMILIES + SPARSE_FAMILIES],
)
def test_graph_connected_matches_definition_on_set_families(name, n, r, density):
    """Random r-set families need not be matroids, so their graphs can split."""
    family = _set_family(name, n, r, density)
    _check_all_kinds(name, (ExplicitMatroid(n, r, family),), family)


def test_sparse_set_families_have_both_outcomes():
    """The density-0.25 group holds connected and split pair graphs."""
    outcomes = set()
    for name, n, r, density in SPARSE_FAMILIES:
        family = _set_family(name, n, r, density)
        ok, count = graph_connected(ExplicitMatroid(n, r, family), "bpg")
        assert count and n > 2 * r
        outcomes.add(ok)
    assert outcomes == {True, False}


def connected_by_stack(unseen, neighbours, candidates=None):
    """_connected before it swept the unseen set, kept as the reference."""
    count = len(unseen)
    stack = [unseen.pop()] if unseen else []
    while stack and unseen:
        hit = unseen.intersection(neighbours(stack.pop()))
        unseen -= hit
        stack.extend(hit)
    return not unseen, count


def _small_cases():
    """(label, matroid, bases, unions): every sparse paving family with
    n <= 6 in both representations, with one seeded two-member union for
    the collection graphs (none at rank 0, where the empty union does not
    fix the collection size)."""
    rng = random.Random(0)
    for i, m in enumerate(small_sparse_paving(6)):
        bl = bases_of(m)
        unions = []
        if m.r:
            unions.append(Multiset.from_elements(e for _ in range(2) for e in elements(rng.choice(bl))))
        for mm in (m, to_explicit(m)):
            yield f"family {i} as {type(mm).__name__}", mm, bl, unions


def _set_family_cases():
    """(label, matroid, bases, unions): the random set families, whose
    graphs can split, each with seeded unions of 2, 2 and 3 members."""
    for name, n, r, density in FAMILIES + SPARSE_FAMILIES:
        family = _set_family(name, n, r, density)
        frng = random.Random(zlib.crc32(name.encode()))
        unions = [
            Multiset.from_elements(e for _ in range(k) for e in elements(frng.choice(family)))
            for k in (2, 2, 3)
        ]
        yield name, ExplicitMatroid(n, r, family), family, unions


def _listed_graphs(mm, unions):
    """(kind, union, (vertices, neighbours, candidates)) for the pair
    graph and both collection graphs per union, as the listers return them."""
    pred, n, r = basis_predicate(mm)
    yield "bpg", None, exchange._pair_graph(mm, pred, n, r, MAX_VERTICES)
    for s in unions:
        for kind in ("white_multiset", "white_tuple"):
            yield kind, s, exchange._collection_graph(pred, r, s, kind, MAX_VERTICES)


def _oracle_outcomes(mm, unions):
    """The stack-only reference and _connected, each on its own copy of
    every listed graph's vertex set."""
    want, got = [], []
    for _, _, (verts, neighbours, candidates) in _listed_graphs(mm, unions):
        want.append(connected_by_stack(set(verts), neighbours))
        got.append(exchange._connected(set(verts), neighbours, candidates))
    return want, got


def test_connected_matches_the_stack_reference():
    """Every sparse paving family with n <= 6 in both representations,
    with one seeded two-member union for the collection graphs, then the
    random set families, whose graphs can split."""
    for label, mm, _, unions in _small_cases():
        want, got = _oracle_outcomes(mm, unions)
        assert got == want, label
    outcomes = Counter()
    for label, mm, _, unions in _set_family_cases():
        want, got = _oracle_outcomes(mm, unions)
        assert got == want, label
        outcomes.update(ok for ok, _ in got)
    assert outcomes[False] and outcomes[True], outcomes


def _definition_neighbourhoods(verts, edges):
    """Each vertex's one-swap neighbourhood, as a set of vertices."""
    around = {v: set() for v in verts}
    for i, j in edges:
        around[verts[i]].add(verts[j])
        around[verts[j]].add(verts[i])
    return around


@pytest.mark.parametrize("cases", [_small_cases, _set_family_cases], ids=["small", "set_families"])
def test_listers_give_the_definition_adjacency(cases):
    """For every vertex v of each lister's graph, the vertices among
    neighbours(v) and those among candidates(v) are each exactly v's
    one-swap neighbourhood in the definition graph, and the vertex sets
    agree; a pair-graph vertex (a1 << n) | a2 is read as its partition."""
    for label, mm, bl, unions in cases():
        g = (1 << mm.n) - 1
        for kind, s, (verts, neighbours, candidates) in _listed_graphs(mm, unions):
            if kind == "bpg":
                dverts, edges = _definition_pair_graph(mm, bl)

                def key(v):
                    return BasisPairVertex(v >> mm.n, v & g, g & ~((v >> mm.n) | v))

            else:
                cols = _collections(bl, s.counter(), s.total // mm.r)
                dverts, edges = _definition_collection_graph(mm, cols, kind == "white_tuple")
                key = tuple
            around = _definition_neighbourhoods(dverts, edges)
            assert {key(v) for v in verts} == set(around), (label, kind, s)
            for v in verts:
                want = around[key(v)]
                assert {key(w) for w in neighbours(v) if w in verts} == want, (label, kind, v)
                assert {key(w) for w in candidates(v) if w in verts} == want, (label, kind, v)


class _Ordered(set):
    """A vertex set that pops a chosen start and iterates in ascending
    order, so a search over it does not depend on the hash layout."""

    def __init__(self, start, vertices):
        super().__init__(vertices)
        self.start = start

    def pop(self):
        self.remove(self.start)
        return self.start

    def __iter__(self):
        return iter(sorted(set.__iter__(self)))


def _modes(adjacency, start):
    """_connected over an adjacency dict from start, checked against the
    reference: its result and the runs of its pops and sweep calls."""
    log = []

    def neighbours(v):
        log.append("pop")
        return adjacency[v]

    def candidates(u):
        log.append("sweep")
        return iter(adjacency[u])

    got = exchange._connected(_Ordered(start, adjacency), neighbours, candidates)
    assert got == connected_by_stack(set(adjacency), adjacency.__getitem__)
    return got, [mode for mode, _ in itertools.groupby(log)]


def test_connected_switches_between_pops_and_sweeps():
    """Each outcome of a sweep on a graph small enough to follow by hand.

    A path's stack never holds more than two vertices, so it sweeps only
    for its last vertex, which the sweep reaches: -1 and 200 are
    candidates that are not vertices.  A broom (a hub with 100 leaves
    and a 99-vertex tail 199, 198, .., 101) outgrows the unseen tail
    with its first pop; the sweep meets the tail from its far end, so
    it reaches only 198 and the pops resume.  Two cliques of 20 and 10
    sweep once after the first pop, reach nothing and stop.
    """
    path = {v: [v - 1, v + 1] for v in range(200)}
    assert _modes(path, 100) == ((True, 200), ["pop", "sweep"])
    broom = {0: [*range(1, 101), 199]} | {v: [0] for v in range(1, 101)}
    broom.update({v: [v + 1, v - 1] for v in range(102, 199)})
    broom.update({101: [102], 199: [0, 198]})
    assert _modes(broom, 0) == ((True, 200), ["pop", "sweep", "pop", "sweep"])
    cliques = {v: [w for w in range(20) if w != v] for v in range(20)}
    cliques.update({v: [w for w in range(20, 30) if w != v] for v in range(20, 30)})
    assert _modes(cliques, 0) == ((False, 30), ["pop", "sweep"])
    assert _modes({7: []}, 7) == ((True, 1), [])
    assert exchange._connected(set(), None, None) == connected_by_stack(set(), None) == (True, 0)


def test_connected_builds_a_quarter_of_the_reference_neighbour_lists():
    """A pin on work that does not depend on the host: the pair graph of
    gs12_5c10 (13,964 vertices) builds 356 full neighbour lists and
    sweeps 6,795 vertices, where the stack-only search builds 3,431."""
    m = graham_sloane(12, 5, 10)
    verts, neighbours, candidates = exchange._pair_graph(m, *basis_predicate(m), MAX_VERTICES)
    calls = Counter()

    def counting(kind, f):
        def counted(v):
            calls[kind] += 1
            return f(v)

        return counted

    got = exchange._connected(set(verts), counting("pops", neighbours), counting("sweeps", candidates))
    assert got == (True, 13964)
    assert connected_by_stack(set(verts), counting("reference", neighbours)) == got
    assert 4 * calls["pops"] <= calls["reference"], calls
    assert calls["sweeps"] < len(verts), calls


# -- the one-round improvement engine, branch by branch ----------------------------

U84 = uniform(8, 4)
U83 = uniform(8, 3)
U104 = uniform(10, 4)

# (label, matroid, side members, target, expected moves); the first
# member is the one being advanced.  chsets are engineered to force each
# internal case in turn, from pruned single swaps to anchored detours
# and the interferer chain.
ADVANCE_CASES = [
    ("far-no-overlap", U84, [{0, 1, 2, 3}, {4, 5, 6, 7}], {0, 4, 5, 6}, [(0, 1, 1, 4)]),
    ("far-rich-helper", U84, [{0, 1, 2, 3}, {1, 4, 5, 6}], {0, 4, 5, 6}, [(0, 1, 2, 4)]),
    (
        "far-21-direct",
        U104,
        [{0, 1, 2, 3}, {3, 4, 5, 7}, {0, 6, 8, 9}],
        {0, 4, 5, 6},
        [(0, 1, 1, 4)],
    ),
    (
        "far-21-anchored",
        SparsePavingMatroid(
            10, 4, [{0, 2, 3, 4}, {1, 3, 4, 7}, {2, 3, 5, 7}, {0, 1, 3, 5}]
        ),
        [{0, 1, 2, 3}, {3, 4, 5, 7}, {0, 6, 8, 9}],
        {0, 4, 5, 6},
        [(0, 1, 1, 7), (0, 1, 4, 2)],
    ),
    (
        "far-21-anchored-relabel",
        SparsePavingMatroid(
            10, 4, [{0, 2, 3, 5}, {1, 3, 5, 7}, {0, 1, 3, 4}, {2, 3, 4, 7}]
        ),
        [{0, 1, 2, 3}, {3, 4, 5, 7}, {0, 6, 8, 9}],
        {0, 4, 5, 6},
        [(0, 1, 1, 7), (0, 1, 5, 2)],
    ),
    ("two-clean-direct", U84, [{0, 1, 2, 3}, {4, 5, 6, 7}], {0, 1, 4, 5}, [(0, 1, 2, 4)]),
    (
        "two-clean-anchored",
        SparsePavingMatroid(8, 4, [{0, 1, 3, 4}, {3, 5, 6, 7}]),
        [{0, 1, 2, 3}, {4, 5, 6, 7}],
        {0, 1, 4, 5},
        [(0, 1, 2, 6), (0, 1, 3, 4)],
    ),
    (
        "two-clean-anchored-relabel",
        SparsePavingMatroid(8, 4, [{0, 1, 2, 4}, {2, 5, 6, 7}]),
        [{0, 1, 2, 3}, {4, 5, 6, 7}],
        {0, 1, 4, 5},
        [(0, 1, 3, 6), (0, 1, 2, 4)],
    ),
    ("two-meet-direct", U84, [{0, 1, 2, 3}, {2, 4, 5, 6}], {0, 1, 4, 5}, [(0, 1, 3, 4)]),
    ("two-meet-relabel", U84, [{0, 1, 2, 3}, {3, 4, 5, 6}], {0, 1, 4, 5}, [(0, 1, 2, 4)]),
    (
        "two-meet-anchored",
        SparsePavingMatroid(8, 4, [{0, 1, 2, 4}, {2, 3, 4, 6}]),
        [{0, 1, 2, 3}, {2, 4, 5, 6}],
        {0, 1, 4, 5},
        [(0, 1, 0, 4), (0, 1, 3, 5)],
    ),
    (
        "two-meet-anchored-relabel",
        SparsePavingMatroid(8, 4, [{0, 1, 2, 5}, {2, 3, 5, 6}]),
        [{0, 1, 2, 3}, {2, 4, 5, 6}],
        {0, 1, 4, 5},
        [(0, 1, 0, 5), (0, 1, 3, 4)],
    ),
    ("one-direct", U83, [{0, 1, 2}, {3, 4, 5}], {0, 1, 3}, [(0, 1, 2, 3)]),
    (
        "one-helper-rescue",
        SparsePavingMatroid(8, 3, [{2, 4, 5}]),
        [{0, 1, 2}, {3, 4, 5}, {0, 4, 6}],
        {0, 1, 3},
        [(1, 2, 5, 0), (0, 1, 2, 3)],
    ),
    (
        "one-interferer-chain",
        SparsePavingMatroid(8, 3, [{2, 4, 5}]),
        [{0, 1, 2}, {3, 4, 5}, {3, 4, 5}, {2, 6, 7}],
        {0, 1, 3},
        [(1, 3, 3, 6), (1, 3, 4, 7), (0, 3, 2, 3)],
    ),
]


@pytest.mark.parametrize(
    "label,m,members,target,expect",
    ADVANCE_CASES,
    ids=[c[0] for c in ADVANCE_CASES],
)
def test_advance_branches(label, m, members, target, expect):
    tgt = as_mask(target)
    b1 = as_mask(members[0])
    start = tuple(sorted(as_mask(s) for s in members))
    side = exchange._Side(start, basis_predicate(m)[0])
    exchange._advance(tgt, b1, side)
    assert side.moves == expect

    # independent replay of the logged moves
    state = start
    for mv in side.moves:
        state = apply_white_move(m, state, mv)
    assert state == side.state

    # the element union is untouched and someone got closer to the target
    def union(col):
        c = Counter()
        for b in col:
            for e in range(m.n):
                if (b >> e) & 1:
                    c[e] += 1
        return c

    assert union(state) == union(start)
    before = (b1 & tgt).bit_count()
    gained = Counter(state) - Counter(start)
    assert any((b & tgt).bit_count() == before + 1 for b in gained)


def test_advance_two_member_side_exhausts_the_chain():
    """A two-member side has nothing to repair the single-swap chain with.

    {0, 1} must trade 1 for 2 to reach {0, 2}, and the helper {2, 3}
    would then hold {1, 3}, which is no basis of this family (it is not
    a matroid).
    """
    m = ExplicitMatroid(4, 2, [0b0011, 0b1100, 0b0101])
    side = exchange._Side((0b0011, 0b1100), basis_predicate(m)[0])
    with pytest.raises(InternalCheckError, match="^single-swap chain exhausted every repair$"):
        exchange._advance(0b0101, 0b0011, side)


def anchor_by_corner(pred, b1, x, a1, a2):
    """_anchor before it took the tried pairs, kept for the two references below."""
    corners = (o for o in ((a1, a2), (a2, a1)) if not pred(swap(b1, x, o[0])))
    return guaranteed(next(corners, None), "blocked square lost its anchor")


def advance_by_case(a1_mask, b1, side):
    """_advance as it was, case by case, kept as the reference.

    The half >= 2 blocks and the half = 1 single-swap chain are the
    forms before each was folded into one exchange search per round.
    The chain returns the name of the repair that ended it.
    """
    pred = side.pred
    amb = a1_mask & ~b1
    bma = b1 & ~a1_mask
    half = amb.bit_count()
    assert half >= 1

    if half == 1:
        return single_swap_chain(pred, amb, bma, b1, side)
    if half >= 3:
        b2 = exchange._pick_helper(side.act, amb, bma)
        p = (b2 & amb).bit_count()
        q = (b2 & bma).bit_count()
        if q == 0:
            a = lowest_element(b2 & amb)
            hit = _exchange(pred, b1, b2, ((bh, a) for bh in iter_elements(bma)))
            hit = guaranteed(hit, "pruned exchange failed with no overlap")
        elif p >= 3:
            bh = lowest_element(bma & ~b2)
            hit = _exchange(pred, b1, b2, ((bh, a) for a in iter_elements(b2 & amb)))
            hit = guaranteed(hit, "pruned exchange failed on a rich helper")
        else:
            a1c, a2c = elements(b2 & amb)
            rest = bma & ~b2
            b1c = lowest_element(rest)
            b2c = lowest_element(rest ^ (1 << b1c))
            hit = _exchange(pred, b1, b2, itertools.product((b1c, b2c), (a1c, a2c)))
            if hit is None:
                a1c, a2c = anchor_by_corner(pred, b1, b1c, a1c, a2c)
                spare = b2 & ~(a1_mask | b1)
                if not spare:
                    raise InternalCheckError("anchored case needs an outside element")
                nb1, nb2 = side.push(b1, b2, b1c, lowest_element(spare))
                side.push(nb1, nb2, b2c, a1c)
                return
        side.push(b1, b2, *hit)
        return

    b2 = exchange._pick_helper(side.act, amb, bma)
    a1c, a2c = elements(amb)
    b1c, b2c = elements(bma)
    q0 = b2 & bma
    if q0 == 0:
        a = lowest_element(b2 & amb)
        hit = _exchange(pred, b1, b2, ((b1c, a), (b2c, a)))
        if hit is not None:
            side.push(b1, b2, *hit)
            return
        if pred(swap(b1, b1c, a)):
            b1c, b2c = b2c, b1c
        esc = (z for z in iter_elements(b2 & ~a1_mask) if pred(swap(b2, z, b1c)))
        z = guaranteed(next(esc, None), "no escape element beside the anchor")
        nb1, nb2 = side.push(b1, b2, b1c, z)
        side.push(nb1, nb2, b2c, a)
        return
    if q0 != (1 << b1c):
        b1c, b2c = b2c, b1c
    hit = _exchange(pred, b1, b2, ((b2c, a1c), (b2c, a2c)))
    if hit is not None:
        side.push(b1, b2, *hit)
        return
    if pred(swap(b1, b2c, a1c)):
        a1c, a2c = a2c, a1c
    esc = (x for x in iter_elements(a1_mask & b1 & ~b2) if pred(swap(b2, a1c, x)))
    x = guaranteed(next(esc, None), "no shared element escapes the anchor")
    nb1, nb2 = side.push(b1, b2, x, a1c)
    side.push(nb1, nb2, b2c, a2c)


def single_swap_chain(pred, amb, bma, b1, side):
    """The half = 1 case of advance_by_case: three ordered scans, three searches."""
    a1c = lowest_element(amb)
    b1c = lowest_element(bma)
    while True:
        b2 = exchange._pick_helper(side.act, amb, bma)
        x_mask = b2 & ~(1 << a1c)
        if pred(x_mask | (1 << b1c)):
            side.push(b1, b2, b1c, a1c)
            return "direct"
        others = side.act.copy()
        others[b1] -= 1
        others[b2] -= 1
        others = +others
        ordered = sorted(others)
        for bh in ordered:
            if (bh >> b1c) & 1 or not x_mask & ~bh:
                continue
            y = lowest_element(x_mask & ~bh)
            hit = _exchange(pred, bh, b2, ((z, y) for z in iter_elements(bh & ~b2)))
            z, _ = guaranteed(hit, "symmetric exchange witness missing")
            nb2, _ = side.push(b2, bh, y, z)
            side.push(b1, nb2, b1c, a1c)
            return "pre-swap"
        bh = next((v for v in ordered if (v >> b1c) & 1 and not (v >> a1c) & 1), None)
        if bh is not None:
            hit = _exchange(pred, b2, bh, ((a1c, z) for z in iter_elements(bh & ~b2)))
            side.push(b2, bh, *guaranteed(hit, "interferer fix found no exchange"))
            continue
        for bh in ordered:
            if (bh >> b1c) & 1 and (bh >> a1c) & 1 and (b2 ^ bh).bit_count() >= 4:
                x = lowest_element(bh & ~(1 << b1c) & ~b2)
                hit = _exchange(pred, bh, b2, ((x, y) for y in iter_elements(b2 & ~bh)))
                _, y = guaranteed(hit, "no exchange with a member far from the helper")
                nb2, _ = side.push(b2, bh, y, x)
                side.push(b1, nb2, b1c, a1c)
                return "far"
        raise InternalCheckError("single-swap chain exhausted every repair")


def _advance_draws(label, bl, count):
    """Seeded (a1, b1, side) with a1 != b1 under white_moves' side rule.

    The side holds at least as much of a1 - b1 as of b1 - a1, counted
    with multiplicity, as in every round of white_moves.  The rest of a
    walk's state (a second side of bases with the same union, a nearest
    pair) is not drawn, so a few draws fail a guard even here.
    """
    rng = random.Random(zlib.crc32(label.encode()))
    for _ in range(count):
        a1, b1 = rng.choice(bl), rng.choice(bl)
        amb, bma = a1 & ~b1, b1 & ~a1
        if not amb:
            continue
        gain = {v: (v & amb).bit_count() - (v & bma).bit_count() for v in bl}
        helpers = [v for v in bl if gain[v] > 0]
        members = [b1, rng.choice(helpers)] + rng.choices(bl, k=rng.randint(0, 3))
        if sum(gain[v] for v in members) >= 0:
            yield a1, b1, tuple(sorted(members))


# the single-swap chain's two guards that share one message since its fold
FOLDED_GUARDS = ("interferer fix found no exchange", "no exchange with a member far from the helper")


def test_advance_matches_the_case_by_case_reference():
    """_advance against its case-by-case form, on valid and non-matroid families.

    Both must log the same moves and leave the same state, or raise the
    same error, but for the chain's two folded guards, which now raise
    "symmetric exchange witness missing".  The valid families are every
    one with n <= 6 and the corpus.  The non-matroid families, drawn as
    test_guards draws them, get half = 1 draws only: the half >= 2 fold
    moved where a non-matroid fault surfaces.  Draws are counted by half
    and by the moves they make, or at half = 1 by the repair that ended
    the chain; anchored detours (two moves) are rare on valid matroids.
    """

    def outcome(advance, m, a1, b1, start):
        side = exchange._Side(start, basis_predicate(m)[0])
        got = call_outcome(advance, a1, b1, side)
        if isinstance(got, tuple):  # the class and message raised
            kind, msg = got
            return (kind, "symmetric exchange witness missing" if msg in FOLDED_GUARDS else msg), msg
        return (side.moves, side.state), got

    pool = [(f"family {i}", m, bases_of(m), 16) for i, m in enumerate(small_sparse_paving(6))]
    pool += [(name, m, bases_of(m), 48) for name, m in CORPUS if 4 <= m.n <= 14]
    rng = random.Random(29)
    for i in range(300):
        n = rng.randint(4, 8)
        m, fam = _family(rng, n, rng.randint(2, n - 2), 0.3)
        pool.append((f"non-matroid {i}", m, fam, 8))
    made = Counter()
    for label, m, bl, draws in pool:
        for a1, b1, start in _advance_draws(label, bl, draws if len(bl) > 1 else 0):
            half = (a1 & ~b1).bit_count()
            if half > 1 and label.startswith("non-matroid"):
                continue
            want, why = outcome(advance_by_case, m, a1, b1, start)
            got, _ = outcome(exchange._advance, m, a1, b1, start)
            assert got == want, (label, a1, b1, start)
            made[min(half, 2), why or len(want[0])] += 1
    assert made[2, 1] > 1500 and made[2, 2] >= 10, made
    assert made[2, "no escape element beside the anchor"] > 0, made
    assert made[1, "direct"] > 3000 and made[1, "pre-swap"] >= 100, made
    assert made[1, "far"] > 0, made
    assert all(made[1, msg] > 0 for msg in FOLDED_GUARDS), made


def test_white_moves_stress_far_partitions():
    """Collections whose members share nothing force the deep branches."""
    rng = random.Random(31337)
    total = 0
    for n, r, k in [(12, 4, 3), (12, 3, 4), (14, 7, 2), (16, 4, 4)]:
        m = gs_best(n, r)
        bl = bases_of(m)
        for _ in range(10):
            src = _disjoint_collection(m, bl, rng, k)
            dst = _disjoint_collection(m, bl, rng, k)
            if src is None or dst is None:
                continue
            if Counter(
                e for b in src for e in range(m.n) if (b >> e) & 1
            ) != Counter(e for b in dst for e in range(m.n) if (b >> e) & 1):
                continue
            moves = white_moves(m, src, dst)
            assert len(moves) <= 4 * k * m.r
            assert replay_lands(m, src, dst, moves, ordered=False)
            total += len(moves)
    assert total > 0


def _disjoint_collection(m, bl, rng, k):
    for _ in range(200):
        picked = []
        used = 0
        for b in rng.sample(bl, len(bl)):
            if b & used == 0:
                picked.append(b)
                used |= b
                if len(picked) == k:
                    return picked
    return None


def _sample_basis(m, rng):
    while True:
        s = as_mask(rng.sample(range(m.n), m.r))
        if is_basis(m, s):
            return s


def _frozen_instance(m, k, label):
    rng = random.Random(zlib.crc32(label.encode()))
    src = [_sample_basis(m, rng) for _ in range(k)]
    return src, scramble(m, rng, src, 4 * k)


def _moves_digest(moves):
    text = ";".join(f"{i} {j} {x} {y}" for i, j, x, y in moves)
    return hashlib.sha256(text.encode()).hexdigest()


# (n, r, k): white_moves and white2_path move counts and sha256 digests
FROZEN_LARGE = {
    (22, 8, 64): (
        153,
        "32b05fb64c56f76e109b931ecfef70daeb73f7bd24755d478613331150c5a84f",
        397,
        "1599e1f9cc22d23c1074af87a861b99024002e308accd3e45cac70e586f89c73",
    ),
    (22, 8, 128): (
        283,
        "7b0f42894d639fd3df7b3b6a67e6f1dedd5cb9c0fb3fdf65a1d83991f79ef235",
        828,
        "2e1563d478f64e08094bd28381c1588dc986827739182600158807856267ffe2",
    ),
    # 256 draws from 726 bases: the collections repeat members
    (12, 5, 256): (
        191,
        "59764f14151a6c6044d2e38b0ad661c0b0e6502cf37cc5f80c600ec79899875d",
        908,
        "7dd8595c322aa7f13d463b328090675563a1d3487ae8c5d6ce410457201ee8e1",
    ),
}


def test_white_moves_frozen_large():
    """Pins the move lists, so the nearest-pair tie-break cannot drift.

    The tie-break is smallest distance, then smallest source member,
    then smallest target member; any other order changes these digests.
    """
    for (n, r, k), expect in FROZEN_LARGE.items():
        m = gs_best(n, r)
        src, dst = _frozen_instance(m, k, f"gs{n}_{r} k={k}")
        if n == 12:
            assert len(set(src)) < k  # repeated members
        moves = white_moves(m, src, dst)
        moves2 = white2_path(m, src, dst)
        got = (len(moves), _moves_digest(moves), len(moves2), _moves_digest(moves2))
        assert got == expect, (n, r, k)

    pool = [m for _, m in with_max_n(12, min_rank=1)]
    ks = (2, 3, 4, 5, 8, 12, 16, 24, 32)
    h1, h2 = hashlib.sha256(), hashlib.sha256()
    total = 0
    for i in range(100):
        m = pool[i % len(pool)]
        src, dst = _frozen_instance(m, ks[i % len(ks)], f"small {i}")
        moves = white_moves(m, src, dst)
        total += len(moves)
        h1.update(_moves_digest(moves).encode())
        h2.update(_moves_digest(white2_path(m, src, dst)).encode())
    assert total == 432
    assert (h1.hexdigest(), h2.hexdigest()) == (
        "6c1fe018b94dea693461be464cd10f279c7b8717600b26e00e2bc580e9c1a51b",
        "39621bccc1f79a1f886147cac44ead0d851b4a100e423aeb47a2be3195c10f46",
    )


def white_moves_all_pairs(m, src, dst):
    """The selection rule by definition: each round scans every unmatched pair.

    Same tie-break as white_moves (distance, then src member, then dst
    member) and the same exchanges (_advance on a _Side), without the
    bound table.  Returns the move list and the number of moves made on
    the src side.
    """
    pred = basis_predicate(m)[0]
    side_s = exchange._Side(tuple(sorted(as_mask(b) for b in src)), pred)
    side_d = exchange._Side(tuple(sorted(as_mask(b) for b in dst)), pred)
    union = Counter(e for b in side_s.state for e in elements(b))
    while side_s.act:
        dist, a, b = min(((a ^ b).bit_count(), a, b) for a in side_s.act for b in side_d.act)
        if dist == 0:
            side_s.match(a)
            side_d.match(a)
            union.subtract(elements(a))
        elif sum(union[e] for e in elements(a & ~b)) >= sum(
            union[e] for e in elements(b & ~a)
        ):
            exchange._advance(a, b, side_d)
        else:
            exchange._advance(b, a, side_s)
    return side_s.moves + side_d.undo[::-1], len(side_s.moves)


def test_white_moves_matches_the_all_pairs_rule():
    pool = [m for _, m in with_max_n(16, min_rank=1)]
    ks = (2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
    repeated = src_side = 0
    for i in range(240):
        m = pool[i % len(pool)]
        src, dst = _frozen_instance(m, ks[i % len(ks)], f"all pairs {i}")
        want, from_src = white_moves_all_pairs(m, src, dst)
        assert white_moves(m, src, dst) == want, i
        repeated += len(set(src)) < len(src)
        src_side += from_src > 0
    # 133 instances repeat a member and 124 make moves on the src side
    assert repeated >= 100 and src_side >= 100, (repeated, src_side)


def test_white_moves_matches_the_all_pairs_rule_on_repeated_members():
    """Many members on 7 to 9 elements, so values repeat heavily.

    Some src values then leave before their starting bound reaches the
    top of the heap (in six of these eight walks), and
    some dst values arrive equal to a src value that holds only its
    starting bound (in four).
    """
    pool = [m for _, m in with_max_n(9, min_rank=1) if m.n >= 7]
    ks = (96, 128, 256)
    for i in range(8):
        m = pool[i % len(pool)]
        src, dst = _frozen_instance(m, ks[i % len(ks)], f"repeated {i}")
        assert len(set(src)) < 2 * len(src) // 3, i  # a third or more are repeats
        assert white_moves(m, src, dst) == white_moves_all_pairs(m, src, dst)[0], i


def test_white_moves_fails_fast_when_advance_makes_no_move(monkeypatch):
    """A round that changes nothing fails the round bound instead of spinning."""
    monkeypatch.setattr(exchange, "_advance", lambda a1_mask, b1, side: None)
    start = time.perf_counter()
    with pytest.raises(InternalCheckError, match="^collection walk overran its round bound$"):
        white_moves(U24, [{0, 1}, {2, 3}], [{0, 2}, {1, 3}])
    assert time.perf_counter() - start < 1.0


def test_white_moves_memory_stays_linear_in_k():
    """The bound table holds one entry per unmatched src value, and the heap
    is rebuilt from it once it holds more than twice as many, so memory is O(k).

    A k = 256 walk on gs22_8 peaks at about 0.20 MiB under tracemalloc
    (0.34 MiB at k = 512, which takes about 1 s traced on a 2-vCPU x86-64
    host).  A never-pruned queue that gains a new entry per live src
    value every round peaks at about 3.6 MiB; the heap gains one only
    when a bound is set or lowered.
    """
    m = gs_best(22, 8)
    src, dst = _frozen_instance(m, 256, "memory k=256")
    tracemalloc.start()
    try:
        white_moves(m, src, dst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def disjoint_pair_path_assigning(pred, cur1, cur2, tgt1, tgt2):
    """_disjoint_pair_path before its last swap went through step, kept as the reference."""
    out: list[tuple[int, int]] = []

    def step(x: int, y: int) -> None:
        nonlocal cur1, cur2
        cur1, cur2 = swap(cur1, x, y), swap(cur2, y, x)
        out.append((cur1, cur2))

    while cur1 != tgt1:
        gap = cur1 & ~tgt1
        need = tgt1 & ~cur1  # sits inside cur2
        if gap.bit_count() == 1:
            # adjacent: the target itself is the final step
            cur1, cur2 = tgt1, tgt2
            out.append((cur1, cur2))
            continue
        if gap.bit_count() >= 3:
            x = lowest_element(gap)
            hit = _exchange(pred, cur1, cur2, ((x, y) for y in iter_elements(need)))
            step(*guaranteed(hit, "no pruned-exchange witness in pair walk"))
            continue
        b1, b2 = elements(gap)
        a1, a2 = elements(need)
        hit = _exchange(pred, cur1, cur2, itertools.product((b1, b2), (a1, a2)))
        if hit is not None:
            step(*hit)
            continue
        a1, a2 = anchor_by_corner(pred, cur1, b1, a1, a2)
        common = cur1 & tgt1
        if not common:
            raise InternalCheckError("blocked exchange square in rank two")
        x = lowest_element(common)
        for b, a in ((x, a1), (b2, a2)):
            hit = _exchange(pred, cur1, cur2, [(b, a)])
            step(*guaranteed(hit, "detour step left the basis family"))
    return out


def swaps_through(cur1, firsts):
    """The swaps (x, y), x leaving and y joining, that walk cur1 through firsts."""
    out = []
    for n1 in firsts:
        out.append((lowest_element(cur1 & ~n1), lowest_element(n1 & ~cur1)))
        cur1 = n1
    return out


def bpg_path_by_side(m, u, v):
    """bpg_path before its two basis blocks became one list, kept as the reference."""
    pred, n, _ = basis_predicate(m)
    u = bpg_vertex(m, u.a1, u.a2, u.a3)
    v = bpg_vertex(m, v.a1, v.a2, v.a3)
    path = [u]
    cur1, cur2, cur3 = u.a1, u.a2, u.a3

    def emit(n1: int, n2: int, n3: int) -> None:
        nonlocal cur1, cur2, cur3
        cur1, cur2, cur3 = n1, n2, n3
        path.append(BasisPairVertex(n1, n2, n3))

    while cur3 != v.a3:
        leave = cur3 & ~v.a3
        enter = v.a3 & ~cur3
        t1 = bool(enter & cur1)
        block = cur1 if t1 else cur2
        b = lowest_element(enter & block)
        if leave.bit_count() >= 2:
            land = (e for e in iter_elements(leave) if pred(swap(block, b, e)))
            a3c = guaranteed(next(land, None), "third-block alignment found no landing")
            nb = swap(block, b, a3c)
        else:
            a3c = lowest_element(leave)
            nb = swap(block, b, a3c)
            if not pred(nb):
                other = cur2 if t1 else cur1
                pairs = itertools.product(elements(block & ~(1 << b)), elements(other))
                hit = _exchange(pred, block, other, pairs)
                a1c, a2c = guaranteed(hit, "third-block dodge found no swap")
                m1, m2 = swap(block, a1c, a2c), swap(other, a2c, a1c)
                if t1:
                    emit(m1, m2, cur3)
                else:
                    emit(m2, m1, cur3)
                block = m1
                nb = swap(block, b, a3c)
                if not pred(nb):
                    raise InternalCheckError("third-block dodge did not unblock")
        n3 = swap(cur3, a3c, b)
        if t1:
            emit(nb, cur2, n3)
        else:
            emit(cur1, nb, n3)

    for n1, n2 in disjoint_pair_path_assigning(pred, cur1, cur2, v.a1, v.a2):
        emit(n1, n2, cur3)
    check_bpg_walk(m, path, u, v)
    return path


def test_pair_walks_match_the_two_sided_reference():
    """bpg_path and _pair_path against their two-sided forms.

    Four seeded (u, v) per sparse paving family with n <= 6, and for
    each u a seeded target pair on the same union of its first two
    blocks, then the same on the non-matroid families of the guard fuzz,
    where the walks raise their guards.
    """
    rng = random.Random(0)
    cases = [(m, 4) for m in small_sparse_paving(6)]
    cases += [(_family(rng, n, rng.randint(2, n // 2), 0.5)[0], 2) for n in (4, 5, 6, 7) * 40]
    raised = 0
    for m, draws in cases:
        pred, n, r = basis_predicate(m)
        bases = [b for b in subset_masks(n, r) if pred(b)]
        verts = [BasisPairVertex(a, b, m.ground ^ a ^ b) for a in bases for b in bases if not a & b]
        for _ in range(draws if verts else 0):
            u, v = rng.choice(verts), rng.choice(verts)
            want = call_outcome(bpg_path_by_side, m, u, v)
            assert call_outcome(bpg_path, m, u, v) == want, (m, u, v)
            raised += isinstance(want, tuple)
            w = rng.choice([w for w in verts if w.a3 == u.a3])
            want = call_outcome(disjoint_pair_path_assigning, pred, u.a1, u.a2, w.a1, w.a2)
            if isinstance(want, list):
                want = swaps_through(u.a1, [n1 for n1, _ in want])
            assert call_outcome(exchange._pair_path, pred, u.a1, u.a2, w.a1) == want, (m, u, w)
    assert raised > 10


def transposition_by_view(pred, ai, aj):
    """white2_path's transposition before the pair walk took overlapping
    members, kept as the reference: the disjoint walk of the contraction by
    the shared elements, its first blocks decoded into swaps."""
    shared = ai & aj

    def view(dmask: int) -> bool:
        return pred(dmask | shared)

    d1, d2 = ai & ~shared, aj & ~shared
    return swaps_through(d1, [n1 for n1, _ in disjoint_pair_path_assigning(view, d1, d2, d2, d1)])


def test_pair_walk_of_overlapping_members_matches_the_contraction():
    """_pair_path on two bases that share elements against the walk of the
    contraction by the shared elements, guard class and message included.

    Seeded pairs of distinct bases with a common element, eight per
    sparse paving family with n <= 6 and two per non-matroid family of the
    guard fuzz.  None of those reaches a blocked square with an element
    already in place, which needs rank three after contracting, so two
    built pairs do: {0..4} onto {0, 5..8} at rank 5, sharing 0, meets the
    square {3, 4} x {7, 8} after two steps, and its detour must start
    from 5 or 6 and not from 0; the second adds the shared element 9 to
    every set.
    """
    rng = random.Random(5)
    cases = [(m, 8, []) for m in small_sparse_paving(6)]
    cases += [(_family(rng, n, rng.randint(2, n - 1), 0.5)[0], 2, []) for n in (4, 5, 6, 7) * 60]
    square = ({0, 4, 5, 6, 7}, {0, 1, 2, 4, 8}, {0, 3, 5, 6, 8}, {0, 1, 2, 3, 7})
    for extra in (set(), {9}):
        m = SparsePavingMatroid(9 + len(extra), 5 + len(extra), [h | extra for h in square])
        cases.append((m, 0, [(mask(0, 1, 2, 3, 4, *extra), mask(0, 5, 6, 7, 8, *extra))]))
    seen = Counter()
    for m, draws, built in cases:
        pred, n, r = basis_predicate(m)
        bases = [b for b in subset_masks(n, r) if pred(b)]
        pairs = [(a, b) for a in bases for b in bases if a & b and a != b]
        for ai, aj in built + [rng.choice(pairs) for _ in range(draws if pairs else 0)]:
            want = call_outcome(transposition_by_view, pred, ai, aj)
            assert call_outcome(exchange._pair_path, pred, ai, aj, aj) == want, (m, ai, aj)
            if isinstance(want, tuple):
                seen[want[1]] += 1
            else:
                seen["detour" if len(want) > (ai & ~aj).bit_count() else "direct"] += 1
    # 4,508 direct walks, the 2 detours, and 17 and 3 raises of the two guards
    assert seen["detour"] == 2 and seen["direct"] > 4000, seen
    assert seen["blocked exchange square in rank two"] and seen["blocked square lost its anchor"]


# -- one basis predicate per public call ----------------------------------------------


def _build_counter(monkeypatch) -> list:
    """basis_predicate, wherever core, exchange and cyclic look it up, logging each build."""
    builds = []
    real = core.basis_predicate

    def counting(m):
        builds.append(m)
        return real(m)

    for mod in (core, exchange, cyclic):
        monkeypatch.setattr(mod, "basis_predicate", counting)
    return builds


def _builds_walk(fn, k):
    m = gs_best(12, 5)
    src, dst = _frozen_instance(m, k, f"builds k={k}")
    return lambda: fn(m, src, dst)


def _builds_bpg(far):
    """One swap from u, or seven steps with every block moved."""
    m = gs_best(12, 5)
    u = bpg_vertex(m, mask(0, 1, 2, 3, 5), mask(6, 7, 8, 9, 10), mask(4, 11))
    if far:
        v = bpg_vertex(m, mask(6, 7, 8, 9, 10), mask(2, 3, 4, 5, 11), mask(0, 1))
    else:
        v = bpg_vertex(m, mask(1, 2, 3, 4, 5), mask(6, 7, 8, 9, 10), mask(0, 11))
    return lambda: bpg_path(m, u, v)


def _builds_gabow(n, r, b1, b2):
    m = gs_best(n, r)
    return lambda: gabow_cycle_any(m, mask(*b1), mask(*b2))


def _builds_order(n, r):
    m = gs_best(n, r)
    return lambda: find_cyclic_order(m)


# (kind, small, large): each builds its input and returns the call; the
# second gabow pair tries two repairs and the first none
BUILD_CASES = [
    ("white_moves", lambda: _builds_walk(white_moves, 2), lambda: _builds_walk(white_moves, 64)),
    ("white2_path", lambda: _builds_walk(white2_path, 2), lambda: _builds_walk(white2_path, 64)),
    ("bpg_path", lambda: _builds_bpg(False), lambda: _builds_bpg(True)),
    (
        "gabow_cycle_any",
        lambda: _builds_gabow(8, 3, (1, 3, 7), (2, 4, 6)),
        lambda: _builds_gabow(18, 8, (1, 6, 7, 8, 9, 12, 15, 17), (0, 2, 4, 5, 10, 11, 13, 16)),
    ),
    ("find_cyclic_order", lambda: _builds_order(10, 4), lambda: _builds_order(24, 5)),
]


@pytest.mark.parametrize(
    "small,large", [c[1:] for c in BUILD_CASES], ids=[c[0] for c in BUILD_CASES]
)
def test_one_predicate_build_per_public_call(monkeypatch, small, large):
    """The helpers take the caller's predicate, so the build count does not
    grow with the input: a small and a large one build it equally often,
    once per public call, nested public calls included.  The inputs are
    built before the counting starts."""
    small_call, large_call = small(), large()
    builds = _build_counter(monkeypatch)
    small_call()
    from_small = len(builds)
    builds.clear()
    large_call()
    assert len(builds) == from_small
