"""Property tests on random sparse paving matroids, n <= 12.

Each exchange walk must pass its certificate, which also holds it to
its theorem bound: 4n steps for a pair-graph path, 4kr moves for a
collection walk.  The file format round-trips both representations,
the sparse paving minors agree with the explicit ones, and the dual's
bases are the complements of the bases.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

from sparsepaving import (
    as_mask,
    bpg_path,
    bpg_vertex,
    dual,
    explicit_minor,
    is_basis,
    minor,
    parse_matroid,
    random_sparse_paving,
    serialize_matroid,
    to_explicit,
    white2_path,
    white_moves,
)
from sparsepaving.bitset import elements, swap
from sparsepaving.exchange import check_bpg_walk, check_moves


@st.composite
def matroids(draw, max_rank, max_n=12):
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(1, max_rank(n)))
    seed = draw(st.integers(0, 2**32 - 1))
    max_sets = draw(st.none() | st.integers(0, 3 * n))
    return random_sparse_paving(n, r, seed=seed, max_sets=max_sets)


def _basis(m, perm):
    """The r-set perm[:r]; if it is dependent, perm[0] swapped for perm[r].

    Two dependent r-sets never differ in exactly one element each, so
    the swapped set is a basis.
    """
    b = as_mask(perm[: m.r])
    return b if is_basis(m, b) else swap(b, perm[0], perm[m.r])


def _scramble(m, rng, col, steps):
    """Random legal exchanges between members: a target with the same union."""
    col = list(col)
    for _ in range(steps):
        i, j = rng.sample(range(len(col)), 2)
        legal = [
            (x, y)
            for x in elements(col[i] & ~col[j])
            for y in elements(col[j] & ~col[i])
            if is_basis(m, swap(col[i], x, y)) and is_basis(m, swap(col[j], y, x))
        ]
        if legal:
            x, y = rng.choice(legal)
            col[i], col[j] = swap(col[i], x, y), swap(col[j], y, x)
    return col


@given(st.data(), matroids(lambda n: n // 2))
def test_bpg_path_certified_within_4n(data, m):
    ends = []
    for _ in range(2):
        perm = data.draw(st.permutations(range(m.n)))
        b1, b2 = as_mask(perm[: m.r]), as_mask(perm[m.r : 2 * m.r])
        assume(is_basis(m, b1) and is_basis(m, b2))
        ends.append(bpg_vertex(m, b1, b2, m.ground & ~(b1 | b2)))
    u, v = ends
    path = bpg_path(m, u, v)
    check_bpg_walk(m, path, u, v)


@given(
    st.data(),
    matroids(lambda n: n - 1),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
def test_collection_walks_certified_within_4kr(data, m, k, seed):
    src = [_basis(m, data.draw(st.permutations(range(m.n)))) for _ in range(k)]
    rng = random.Random(seed)
    dst = _scramble(m, rng, src, 4 * k)
    rng.shuffle(dst)
    moves = white_moves(m, src, dst)
    check_moves(m, src, dst, moves, ordered=False)
    moves2 = white2_path(m, src, dst)
    check_moves(m, src, dst, moves2, ordered=True)


@given(matroids(lambda n: n))
def test_file_round_trip(m):
    assert parse_matroid(serialize_matroid(m)) == m
    if m.n <= 9:
        em = to_explicit(m)
        assert parse_matroid(serialize_matroid(em)) == em


@given(matroids(lambda n: n, max_n=9))
def test_minors_agree_with_explicit_minors(m):
    em = to_explicit(m)
    for kind in ("delete", "contract"):
        for e in range(m.n):
            out, labels = minor(m, kind, e)
            want, want_labels = explicit_minor(em, kind, e)
            assert to_explicit(out) == want
            assert labels == want_labels


@given(matroids(lambda n: n))
def test_dual_bases_are_complements(m):
    complements = {m.ground ^ b for b in to_explicit(m).bases}
    assert to_explicit(dual(m)).bases == complements
