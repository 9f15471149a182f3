"""Fault injection for the guards of the walks and block cycles.

Each case of Bonin's proofs guarantees an exchange, a landing spot or a
repair, and the code raises InternalCheckError when one is missing.  An
unvalidated ExplicitMatroid over a random family of r-sets need not be
a matroid, let alone a sparse paving one, so it breaks those guarantees
at will.  Every call must then return a result that passes its
certificate or raise a MatroidError; anything else is a crash.
"""

import random
from collections import Counter

from sparsepaving import (
    BasisPairVertex,
    ExplicitMatroid,
    InternalCheckError,
    MatroidError,
    bpg_path,
    gabow_cycle_any,
    white2_path,
    white_moves,
)
from sparsepaving.bitset import elements, subset_masks, swap
from sparsepaving.cyclic import check_block_cycle
from sparsepaving.exchange import check_bpg_walk, check_moves

DRAWS = 1500

# every InternalCheckError message these draws reach; the guards they
# miss hold by counting, whatever the family, or sit behind cases that
# random families do not build
REACHED = {
    "blocked exchange square in rank two",
    "blocked square lost its anchor",
    "detour step left the basis family",
    "greedy block ordering stalled",
    "no pruned-exchange witness in pair walk",
    "no repair reduced the bad window count",
    "symmetric exchange witness missing",
    "third-block alignment found no landing",
    "third-block dodge did not unblock",
    "third-block dodge found no swap",
}


def _disjoint_pair(rng, fam):
    pairs = [(a, b) for a in fam for b in fam if not a & b]
    return rng.choice(pairs) if pairs else None


def _rearranged(rng, fam, src):
    """A collection with the multiset union of src, family members if possible.

    Random symmetric swaps that ignore the family, so the two ends need
    not be joined by any walk that stays inside it.
    """
    members = set(fam)
    for _ in range(20):
        cur = list(src)
        for _ in range(2 * len(cur)):
            i, j = rng.sample(range(len(cur)), 2)
            if cur[i] != cur[j]:
                x = rng.choice(elements(cur[i] & ~cur[j]))
                y = rng.choice(elements(cur[j] & ~cur[i]))
                cur[i], cur[j] = swap(cur[i], x, y), swap(cur[j], y, x)
        if all(b in members for b in cur):
            return cur
    return src[::-1]


def _calls(rng, m, fam):
    """(entry, thunk, certificate) triples for one family."""
    n = m.n
    ground = (1 << n) - 1
    out = []
    pair = _disjoint_pair(rng, fam)
    if pair is not None:
        a1, a2 = pair
        b1, b2 = _disjoint_pair(rng, fam)
        u = BasisPairVertex(a1, a2, ground & ~(a1 | a2))
        v = BasisPairVertex(b1, b2, ground & ~(b1 | b2))
        out.append(
            ("bpg_path", lambda: bpg_path(m, u, v), lambda p: check_bpg_walk(m, p, u, v))
        )
        out.append(
            (
                "gabow_cycle_any",
                lambda: gabow_cycle_any(m, a1, a2),
                lambda c: check_block_cycle(m, c, a1, a2),
            )
        )
    src = [rng.choice(fam) for _ in range(rng.randint(2, 4))]
    dst = _rearranged(rng, fam, src)
    out.append(
        (
            "white_moves",
            lambda: white_moves(m, src, dst),
            lambda mv: check_moves(m, src, dst, mv, ordered=False),
        )
    )
    out.append(
        (
            "white2_path",
            lambda: white2_path(m, src, dst),
            lambda mv: check_moves(m, src, dst, mv, ordered=True),
        )
    )
    return out


def fuzz(draws=DRAWS, seed=0) -> Counter:
    """Counter of (entry, outcome type, message) over seeded draws."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    for _ in range(draws):
        n = rng.randint(4, 7)
        r = rng.randint(2, n // 2)
        sets = list(subset_masks(n, r))
        keep = rng.uniform(0.5, 1.0)
        fam = [s for s in sets if rng.random() < keep] or [sets[0]]
        m = ExplicitMatroid(n, r, fam)
        for entry, call, certify in _calls(rng, m, fam):
            try:
                out = call()
            except MatroidError as e:
                seen[entry, type(e).__name__, str(e)] += 1
            else:
                certify(out)  # a returned result that fails here fails the test
                seen[entry, "ok", ""] += 1
    return seen


def test_guards_raise_matroid_errors_only():
    seen = fuzz()
    guards = {msg for _, kind, msg in seen if kind == InternalCheckError.__name__}
    assert REACHED <= guards
