"""Fault injection for the guards of the walks and block cycles.

Each case of Bonin's proofs guarantees an exchange, a landing spot or a
repair, and the code raises InternalCheckError when one is missing.  An
unvalidated ExplicitMatroid over a random family of r-sets need not be
a matroid, let alone a sparse paving one, so it breaks those guarantees
at will.  Every call must then return a result that passes its
certificate or raise a MatroidError; anything else is a crash.

Two fuzzes do that.  The first drives the public walks and block cycles.
The second calls exchange._advance directly: a random side, a member b1
and a target a1 drawn from the family, under white_moves' side rule
(the side holds at least as much of a1 - b1 as of b1 - a1, counted
with multiplicity), which reaches the deep cases of the collection walk
that whole walks seldom build.  The draws keep that rule only, not the
rest of a walk's state (a second side of bases with the same union, a
nearest pair), so even a sparse paving matroid can fail a guard under
them: they test the guards, not the proofs.  A search that counting
alone guarantees, whatever the family, has no guard to reach: it
carries its argument as a comment instead (_pick_helper, the
single-swap chain's termination, white2_path's transposition walk).
A last test holds every constant guard message in src/ to appearing
verbatim somewhere under tests/, so a new guard cannot land untested.
"""

import ast
import random
from collections import Counter
from pathlib import Path

import sparsepaving
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
from sparsepaving.core import basis_predicate
from sparsepaving.cyclic import check_block_cycle
from sparsepaving.exchange import _advance, _Side, check_bpg_walk, check_moves

DRAWS = 1500
ADVANCE_DRAWS = 3000

# every InternalCheckError message these draws reach; the guards they
# miss sit behind cases that random whole walks do not build
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

# every InternalCheckError message the direct _advance draws reach: all
# five guard sites of _advance and the _anchor_of it calls
ADVANCE_REACHED = {
    "blocked square lost its anchor",
    "no escape element beside the anchor",
    "no shared element escapes the anchor",
    "pruned exchange failed",
    "single-swap chain exhausted every repair",
    "symmetric exchange witness missing",
}


def _family(rng, n, r, low):
    """A random family of r-subsets of range(n), never empty, as a non-matroid."""
    sets = list(subset_masks(n, r))
    keep = rng.uniform(low, 1.0)
    fam = [s for s in sets if rng.random() < keep] or [sets[0]]
    return ExplicitMatroid(n, r, fam), fam


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
        m, fam = _family(rng, n, rng.randint(2, n // 2), 0.5)
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


def advance_fuzz(draws=ADVANCE_DRAWS, seed=0) -> Counter:
    """Counter of (outcome type, message) over seeded direct _advance calls."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    for _ in range(draws):
        n = rng.randint(4, 8)
        m, fam = _family(rng, n, rng.randint(2, n - 2), 0.3)
        a1, b1 = rng.choice(fam), rng.choice(fam)
        amb, bma = a1 & ~b1, b1 & ~a1
        if not amb:
            continue
        # up to ten draws of the other members to meet the side rule
        for _ in range(10):
            members = [b1] + [rng.choice(fam) for _ in range(rng.randint(1, 4))]
            if sum((v & amb).bit_count() - (v & bma).bit_count() for v in members) >= 0:
                break
        else:
            continue
        start = tuple(sorted(members))
        side = _Side(start, basis_predicate(m)[0])
        try:
            _advance(a1, b1, side)
        except MatroidError as e:
            seen[type(e).__name__, str(e)] += 1
        else:
            # every logged move maps bases to bases and lands on the new state
            check_moves(m, start, side.state, side.moves, ordered=False)
            seen["ok", ""] += 1
    return seen


def test_advance_guards_raise_matroid_errors_only():
    seen = advance_fuzz()
    guards = {msg for kind, msg in seen if kind == InternalCheckError.__name__}
    assert ADVANCE_REACHED <= guards
    assert seen["ok", ""] > ADVANCE_DRAWS // 3


def _guard_messages():
    """(file:line, message) for each constant message a src/ guard raises."""
    out = []
    for path in sorted(Path(sparsepaving.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            if node.func.id == "InternalCheckError" and node.args:
                arg = node.args[0]
            elif node.func.id == "guaranteed" and len(node.args) == 2:
                arg = node.args[1]
            else:
                continue
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                out.append((f"{path.name}:{node.lineno}", arg.value))
    return out


def test_every_constant_guard_message_is_named_by_a_test():
    messages = _guard_messages()
    assert len(messages) > 20
    tests = "".join(
        p.read_text(encoding="utf-8") for p in sorted(Path(__file__).parent.glob("*.py"))
    )
    assert [(site, msg) for site, msg in messages if msg not in tests] == []
