"""Deterministic matroid corpus and the references shared by the test modules.

The corpus is built once at import time from fixed seeds, so every test
that walks it sees the same objects in the same order.  Names are
stable and show up in parametrized test ids.

`certify` is bench/certify.py, loaded by path: the textbook predicates
re-derived with the standard library only, so a test that checks
through it shares no code with the library.  The helpers at the end
of the module are the one test-side copy of each shared reference that
certify has no counterpart for.
"""

from __future__ import annotations

import importlib.util
from functools import cache
from pathlib import Path

from sparsepaving import (
    ExchangeViolation,
    SparsePavingMatroid,
    apply_tuple_move,
    apply_white_move,
    as_mask,
    explicit_rank,
    graham_sloane,
    gs_best_class,
    is_basis,
    random_sparse_paving,
    subset_masks,
    uniform,
)
from sparsepaving.bitset import elements, swap


def _load_certify():
    path = Path(__file__).resolve().parent.parent / "bench" / "certify.py"
    spec = importlib.util.spec_from_file_location("certify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


certify = _load_certify()

U24 = uniform(4, 2)
P44 = SparsePavingMatroid(4, 2, [{0, 3}, {1, 2}])

# nonempty chset but too crowded for any cyclic order to exist
TIGHT = (
    SparsePavingMatroid(3, 2, [{0, 1}]),
    SparsePavingMatroid(4, 3, [{0, 1, 2}]),
    SparsePavingMatroid(5, 1, [{0}]),
    SparsePavingMatroid(5, 4, [{0, 1, 2, 3}]),
)

_GS_GRID = (
    (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4), (9, 4), (10, 4),
    (10, 5), (11, 5), (12, 5), (12, 6), (13, 6), (14, 6), (14, 7), (16, 8),
)

_RANDOM_GRID = (
    (6, 3, 101, 4), (7, 3, 102, 6), (8, 4, 103, 8), (9, 4, 104, 10),
    (10, 5, 105, 14), (11, 5, 106, 16), (12, 6, 107, 20), (13, 6, 108, 24),
    (14, 7, 109, 28), (15, 7, 110, 32), (16, 8, 111, 40),
)


def gs_best(n: int, r: int) -> SparsePavingMatroid:
    c, _ = gs_best_class(n, r)
    return graham_sloane(n, r, c)


def _build():
    rows = [
        ("u24", U24),
        ("p44", P44),
        ("u01", uniform(1, 0)),
        ("u11", uniform(1, 1)),
        ("u13", uniform(3, 1)),
        ("u25", uniform(5, 2)),
        ("u36", uniform(6, 3)),
        ("u37", uniform(7, 3)),
    ]
    rows += [(f"tight{m.n}_{m.r}", m) for m in TIGHT]
    rows += [(f"gs{n}_{r}", gs_best(n, r)) for n, r in _GS_GRID]
    rows += [
        (f"rnd{n}_{r}", random_sparse_paving(n, r, seed=seed, max_sets=t))
        for n, r, seed, t in _RANDOM_GRID
    ]
    return rows


CORPUS = _build()


def with_max_n(limit: int, min_rank: int = 0):
    return [
        (name, m)
        for name, m in CORPUS
        if m.n <= limit and m.r >= min_rank and m.n - m.r >= min_rank
    ]


def sparse_paving_families(n: int, r: int) -> list[tuple[int, ...]]:
    """Every labeled sparse paving family on n elements at rank r.

    A family is a set of r-subsets, pairwise at symmetric difference at
    least 4, that leaves at least one basis.  Backtracking over a far
    table: far[i] holds the later r-sets meeting set i in at most r - 2
    elements.  Each family lists its sets in subset_masks order, and the
    families come in the lexicographic order of their index lists.
    """
    sets = list(subset_masks(n, r))
    far = [
        {j for j in range(i + 1, len(sets)) if (sets[i] & sets[j]).bit_count() <= r - 2}
        for i in range(len(sets))
    ]
    out = []

    def grow(family, cands):
        out.append(family)
        for pos, i in enumerate(cands):
            grow((*family, sets[i]), [j for j in cands[pos + 1 :] if j in far[i]])

    grow((), range(len(sets)))
    return [f for f in out if len(f) < len(sets)]


@cache
def small_sparse_paving(max_n: int) -> tuple[SparsePavingMatroid, ...]:
    """One matroid per labeled sparse paving family with 1 <= n <= max_n.

    544 of them for max_n = 6, by n, then r, then family order.
    """
    return tuple(
        SparsePavingMatroid(n, r, f)
        for n in range(1, max_n + 1)
        for r in range(n + 1)
        for f in sparse_paving_families(n, r)
    )


def closure_by_rank(em, s: int) -> int:
    """The closure by its definition: s plus each e whose addition keeps the rank."""
    rk = explicit_rank(em, s)
    return s | sum(1 << e for e in range(em.n) if explicit_rank(em, s | (1 << e)) == rk)


def call_outcome(call, *args):
    """call(*args), or the class and message of what it raised: both are behaviour."""
    try:
        return call(*args)
    except Exception as e:
        return type(e), str(e)


def mask(*elts: int) -> int:
    return as_mask(elts)


def bases_of(m) -> list[int]:
    """The bases in subset_masks order, which seeded draws from this list rely on."""
    return [b for b in subset_masks(m.n, m.r) if is_basis(m, b)]


def scramble(m, rng, col, steps):
    """Random legal exchanges, used as an independent target generator."""
    col = list(col)
    for _ in range(steps):
        i, j = rng.randrange(len(col)), rng.randrange(len(col))
        if i == j:
            continue
        xs = list(elements(col[i] & ~col[j]))
        ys = list(elements(col[j] & ~col[i]))
        rng.shuffle(xs)
        rng.shuffle(ys)
        swaps = ((swap(col[i], x, y), swap(col[j], y, x)) for x in xs for y in ys)
        hit = next(((ni, nj) for ni, nj in swaps if is_basis(m, ni) and is_basis(m, nj)), None)
        if hit:
            col[i], col[j] = hit
    return col


def replay_lands(m, src, dst, moves, ordered) -> bool:
    """Replay through the public one-move functions; True when it reaches dst."""
    step = apply_tuple_move if ordered else apply_white_move
    state, want = tuple(src), tuple(dst)
    if not ordered:
        state, want = tuple(sorted(state)), tuple(sorted(want))
    try:
        for mv in moves:
            state = step(m, state, mv)
    except ExchangeViolation:
        return False
    return state == want
