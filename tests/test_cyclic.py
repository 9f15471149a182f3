"""Cyclic orders: interval counts, density, construction, disjoint-pair cycles."""

import hashlib
import itertools
import math
import random
import time
import zlib
from fractions import Fraction

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
    small_sparse_paving,
    sparse_paving_families,
    with_max_n,
)
from sparsepaving import (
    ElementOutOfRange,
    ExplicitMatroid,
    GroundSetMismatch,
    InternalCheckError,
    NotBases,
    NotDisjoint,
    RangeError,
    SparsePavingMatroid,
    TooLarge,
    as_mask,
    average_ch_intervals,
    brute_force_order,
    ch_interval_count,
    check_density,
    dual,
    find_cyclic_order,
    gabow_cycle,
    gabow_cycle_any,
    graham_sloane,
    is_basis,
    minor,
    rank_of,
    subset_masks,
    to_explicit,
    uniform,
)
from sparsepaving import cyclic
from sparsepaving.bitset import elements
from sparsepaving.core import basis_predicate
from sparsepaving.cyclic import _problem_positions, _swapped, check_block_cycle
from sparsepaving.errors import guaranteed
from test_guards import _family


def judge_swaps(check, m, seq, positions, *args) -> int:
    """Swap every pair of positions in seq; check must raise exactly when
    certify finds a window that is not a basis.  Returns how many swaps it
    rejected."""
    spm = certify.Spm.of(m)
    rejected = 0
    for i, j in itertools.combinations(positions, 2):
        bad = list(seq)
        bad[i], bad[j] = bad[j], bad[i]
        if certify.windows_ok(spm, bad, len(bad)) is None:
            check(m, tuple(bad), *args)
        else:
            with pytest.raises(InternalCheckError):
                check(m, tuple(bad), *args)
            rejected += 1
    return rejected


# -- window counting -----------------------------------------------------------


def test_ch_interval_count_frozen():
    assert ch_interval_count(P44, (0, 1, 3, 2)) == 0
    assert ch_interval_count(P44, (0, 1, 2, 3)) == 2  # windows {1,2} and {3,0}
    assert ch_interval_count(U24, (2, 0, 3, 1)) == 0
    assert ch_interval_count(uniform(3, 0), (0, 1, 2)) == 0
    assert ch_interval_count(uniform(3, 3), (2, 1, 0)) == 0


def test_ch_interval_count_rejects_non_orders():
    with pytest.raises(GroundSetMismatch):
        ch_interval_count(P44, (0, 1, 2, 2))
    with pytest.raises(GroundSetMismatch):
        ch_interval_count(P44, (0, 1, 2))
    with pytest.raises(GroundSetMismatch):
        ch_interval_count(P44, (0, 1, 2, 4))


def test_ch_interval_count_explicit_matches_sparse():
    for _, m in with_max_n(8):
        em = to_explicit(m)
        rng = random.Random(m.n * 100 + m.r)
        for _ in range(10):
            order = list(range(m.n))
            rng.shuffle(order)
            assert ch_interval_count(m, order) == ch_interval_count(em, order)


# -- averaging -----------------------------------------------------------------


def test_average_frozen():
    assert average_ch_intervals(P44) == Fraction(4, 3)
    assert average_ch_intervals(U24) == 0
    assert average_ch_intervals(SparsePavingMatroid(5, 2, [{0, 1}])) == Fraction(1, 2)
    with pytest.raises(RangeError, match="^ground size 0 must be at least 1$"):
        average_ch_intervals(uniform(0, 0))


def test_average_matches_exhaustive_mean():
    """Closed form against the literal mean over all rooted cycles."""
    for _, m in with_max_n(7):
        if m.n < 1:
            continue
        tot = 0
        num = 0
        for tail in itertools.permutations(range(1, m.n)):
            tot += ch_interval_count(m, (0, *tail))
            num += 1
        assert average_ch_intervals(m) == Fraction(tot, num)


def test_average_below_two_in_the_low_rank_regime():
    for _, m in CORPUS:
        if m.n >= 1 and 2 * m.r <= m.n:
            assert average_ch_intervals(m) < 2


# -- density -------------------------------------------------------------------


def test_check_density_frozen():
    assert check_density(P44) == (True, None)
    assert check_density(SparsePavingMatroid(3, 2, [{0, 1}])) == (False, mask(0, 1))
    assert check_density(SparsePavingMatroid(4, 1, [{3}])) == (False, mask(3))
    assert check_density(uniform(2, 1)) == (True, None)


def test_check_density_against_explicit_scan():
    """Closed form vs subset brute force on the explicit representation."""
    for _, m in with_max_n(10):
        ok, wit = check_density(m)
        ok2, wit2 = check_density(to_explicit(m))
        assert ok == ok2
        if not ok:
            for w in (wit, wit2):
                assert m.r * w.bit_count() > rank_of(m, w) * m.n
            cyclic.check_density_witness(m, wit)
            cyclic.check_density_witness(to_explicit(m), wit2)
            # the whole ground set meets the bound with equality
            for target in (m, to_explicit(m)):
                with pytest.raises(InternalCheckError):
                    cyclic.check_density_witness(target, m.ground)


def test_check_density_explicit_guard():
    with pytest.raises(TooLarge, match=r"^explicit density scan over 2\^21 subsets refused$"):
        check_density(to_explicit(uniform(21, 2)))


# -- witness construction --------------------------------------------------------


def test_find_cyclic_order_frozen():
    assert find_cyclic_order(P44) == (0, 1, 3, 2)
    assert find_cyclic_order(SparsePavingMatroid(3, 2, [{0, 1}])) is None
    assert find_cyclic_order(uniform(7, 3)) == tuple(range(7))
    assert find_cyclic_order(uniform(1, 1)) == (0,)
    with pytest.raises(TypeError, match="expected a SparsePavingMatroid, got ExplicitMatroid"):
        find_cyclic_order(to_explicit(P44))


def test_brute_force_order_frozen():
    assert brute_force_order(P44) == (0, 1, 3, 2)
    assert brute_force_order(SparsePavingMatroid(3, 2, [{0, 1}])) is None
    assert brute_force_order(uniform(5, 2)) == (0, 1, 2, 3, 4)
    # the empty ground set has one cyclic order, the empty one
    empty = SparsePavingMatroid(0, 0, [])
    assert brute_force_order(empty) == brute_force_order(to_explicit(empty)) == ()
    with pytest.raises(TooLarge):
        brute_force_order(uniform(10, 4))
    assert brute_force_order(graham_sloane(8, 6, 3)) == (0, 2, 1, 3, 4, 6, 5, 7)
    assert brute_force_order(graham_sloane(9, 6, 0)) == (0, 1, 2, 3, 5, 4, 7, 8, 6)
    start = time.perf_counter()
    assert brute_force_order(tight(9, 1)) is None
    assert brute_force_order(tight(9, 8)) is None
    assert time.perf_counter() - start < 0.1


def tight(n: int, r: int) -> SparsePavingMatroid:
    """One dependent r-set; no cyclic order is a witness when r is 1 or n - 1."""
    return SparsePavingMatroid(n, r, [range(r)])


def brute_force_scan(m):
    """brute_force_order as it stood before its pruned search, kept as the reference."""
    pred, n, r = basis_predicate(m)
    if n > 9:
        raise TooLarge(f"{math.factorial(max(n - 1, 0))} cycles is past the oracle guard")
    if n == 0:
        return ()
    for tail in itertools.permutations(range(1, n)):
        cand = (0, *tail)
        if not cyclic._dependent_windows(pred, n, r, cand):
            return cand
    return None


def cycle_matroid(v: int, edges) -> ExplicitMatroid:
    """The graphic matroid of a connected graph: its bases are the spanning trees."""

    def spans(tree) -> bool:
        seen = {0}
        for _ in range(v):
            seen |= {x for a, b in tree if a in seen or b in seen for x in (a, b)}
        return len(seen) == v

    trees = itertools.combinations(range(len(edges)), v - 1)
    return ExplicitMatroid(len(edges), v - 1, [t for t in trees if spans([edges[i] for i in t])])


def test_brute_force_order_matches_the_permutation_scan():
    small = list(small_sparse_paving(6))
    assert len(small) == 544
    cases = small + [to_explicit(m) for m in small]
    # every ceil(len / 24)-th family of each rank: r > n/2 and w = 1 included
    for r in range(8):
        fams = sparse_paving_families(7, r)
        cases += [SparsePavingMatroid(7, r, f) for f in fams[:: -(-len(fams) // 24)]]
    cases += [tight(n, r) for n in (7, 8, 9) for r in (1, n - 1)]
    # K4 with one edge doubled: a search that forgets the prefix's first
    # w - 1 entries answers differently here, and on no instance above
    cases.append(cycle_matroid(4, [(0, 3), (2, 3), (1, 2), (1, 3), (1, 0), (2, 0), (2, 0)]))
    for m in cases:
        assert brute_force_order(m) == brute_force_scan(m), m


@pytest.mark.parametrize("name,m", with_max_n(9), ids=[n for n, _ in with_max_n(9)])
def test_orderability_triple_agreement(name, m):
    """Constructive search, exhaustive search, and the density test agree."""
    got = find_cyclic_order(m)
    oracle = brute_force_order(m)
    dens, wit = check_density(m)
    assert (got is not None) == (oracle is not None) == dens
    if got is not None:
        assert ch_interval_count(m, got) == 0
        cyclic.check_cyclic_order(m, got)
    else:
        assert m.r * wit.bit_count() > rank_of(m, wit) * m.n


@pytest.mark.parametrize(
    "name,m",
    [(n, m) for n, m in CORPUS if m.n > 9],
    ids=[n for n, m in CORPUS if m.n > 9],
)
def test_find_cyclic_order_large_instances(name, m):
    a = find_cyclic_order(m)
    assert a is not None
    assert ch_interval_count(m, a) == 0
    cyclic.check_cyclic_order(m, a)
    assert find_cyclic_order(m) == a  # deterministic for the default seed
    for seed in (1, 2, 3):
        b = find_cyclic_order(m, seed=seed)
        assert ch_interval_count(m, b) == 0


def test_check_cyclic_order_rejects_corruptions():
    rejected = 0
    for _, m in with_max_n(9):
        order = find_cyclic_order(m)
        if order is None or m.n < 2:
            continue
        rejected += judge_swaps(cyclic.check_cyclic_order, m, order, range(m.n))
        for bad in (order[:-1], order[:-1] + order[:1], None):
            with pytest.raises(InternalCheckError):
                cyclic.check_cyclic_order(m, bad)
    assert rejected > 100


def test_witness_also_covers_the_dual():
    for _, m in with_max_n(9):
        got = find_cyclic_order(m)
        if got is not None:
            assert ch_interval_count(dual(m), got) == 0


def test_high_rank_side_goes_through_the_dual():
    for m in (SparsePavingMatroid(7, 5, [{0, 1, 2, 3, 4}]), dual(P44)):
        assert 2 * m.r >= m.n
        got = find_cyclic_order(m)
        assert got is not None and ch_interval_count(m, got) == 0


def test_rank_two_direct_construction():
    m = SparsePavingMatroid(7, 2, [{0, 4}, {1, 5}, {2, 6}])
    got = find_cyclic_order(m)
    assert got is not None and ch_interval_count(m, got) == 0


def test_sampler_exhaustion_raises(monkeypatch):
    # with the shuffle a no-op every draw is the identity order, which has
    # three dependent windows here; no exhaustive search may hide that
    m = dict(CORPUS)["gs6_3"]
    pred, n, r = basis_predicate(m)
    assert len(cyclic._dependent_windows(pred, n, r, range(n))) >= 2
    monkeypatch.setattr(random.Random, "shuffle", lambda self, seq: None)
    with pytest.raises(
        InternalCheckError, match="^sampling cap hit while looking for a near-witness cycle$"
    ):
        cyclic._near_witness_cycle(m, 0)


def test_repair_patterns_all_exercised():
    """Drive the single-window repair on sampled near-witness cycles.

    Every pattern in the fixed list must fire somewhere on this corpus;
    the sweep is deterministic, so this is a frozen observation that the
    list has no dead entries.
    """
    used = set()
    repaired = 0
    for _, m in CORPUS:
        if not (3 <= m.r and 3 <= m.n - m.r and m.chset and m.n <= 12):
            continue
        pred, n, r = basis_predicate(m)
        for seed in range(40):
            cand = cyclic._near_witness_cycle(m, seed)
            bad = cyclic._dependent_windows(pred, n, r, cand)
            if len(bad) != 1:
                continue
            fixed = cyclic._repair_single_window(m, cand)
            assert ch_interval_count(m, fixed) == 0
            repaired += 1
            rot = tuple(cand[(bad[0] - 3 + i) % n] for i in range(n))
            for k, pat in enumerate(cyclic._REPAIR_PATTERNS):
                trial = tuple(rot[pat[i]] if i < 4 else rot[i] for i in range(n))
                if not cyclic._dependent_windows(pred, n, r, trial):
                    used.add(k)
                    break
    assert repaired > 50
    assert used == set(range(len(cyclic._REPAIR_PATTERNS)))


# -- disjoint-basis cycles ---------------------------------------------------------


def test_gabow_cycle_frozen():
    assert gabow_cycle(P44, {0, 1}, {2, 3}) == (0, 1, 3, 2)
    assert gabow_cycle(U24, {0, 1}, {2, 3}) == (0, 1, 2, 3)


def test_gabow_cycle_validation():
    for form in (lambda m: m, to_explicit):
        with pytest.raises(NotDisjoint):
            gabow_cycle(form(P44), {0, 1}, {1, 3})
        with pytest.raises(NotBases):
            gabow_cycle(form(P44), {0, 3}, {1, 2})
        with pytest.raises(ElementOutOfRange):
            gabow_cycle(form(P44), {0, 1}, {2, 4})
        with pytest.raises(GroundSetMismatch):
            gabow_cycle(form(uniform(6, 2)), {0, 1}, {2, 3})


def test_gabow_cycle_takes_the_explicit_form():
    for name, m in with_max_n(8):
        em = to_explicit(m)
        b1 = min(em.bases)
        b2 = min((b for b in em.bases if not b & b1), default=None)
        if b2 is None:
            continue
        assert gabow_cycle_any(em, b1, b2) == gabow_cycle_any(m, b1, b2), name
        if b1 | b2 == m.ground:
            assert gabow_cycle(em, b1, b2) == gabow_cycle(m, b1, b2), name


def test_gabow_cycle_exhaustive_small():
    checked = 0
    for _, m in CORPUS:
        if m.n != 2 * m.r or m.n > 12 or m.r == 0:
            continue
        for b in subset_masks(m.n, m.r):
            other = m.ground & ~b
            if not (is_basis(m, b) and is_basis(m, other)):
                continue
            cyc = gabow_cycle(m, b, other)
            assert as_mask(cyc[: m.r]) == b
            assert as_mask(cyc[m.r :]) == other
            assert ch_interval_count(m, cyc) == 0
            cyclic.check_block_cycle(m, cyc, b, other)
            checked += 1
    assert checked > 500


def test_check_block_cycle_rejects_corruptions():
    rejected = 0
    for _, m in with_max_n(10):
        r = m.r
        if m.n != 2 * r or r < 2:
            continue
        for b in itertools.islice(subset_masks(m.n, r), 30):
            other = m.ground & ~b
            if not (is_basis(m, b) and is_basis(m, other)):
                continue
            cyc = gabow_cycle(m, b, other)
            with pytest.raises(InternalCheckError):
                cyclic.check_block_cycle(m, cyc[r:] + cyc[:r], b, other)
            with pytest.raises(InternalCheckError):
                cyclic.check_block_cycle(m, cyc[:-1], b, other)
            # swaps inside a block keep the blocks; only windows can fail
            for block in (range(r), range(r, 2 * r)):
                rejected += judge_swaps(cyclic.check_block_cycle, m, cyc, block, b, other)
    assert rejected > 500


def test_gabow_cycle_any_restricts_and_relabels():
    rng = random.Random(0)
    checked = 0
    for _, m in CORPUS:
        if m.n <= 2 * m.r or m.r < 2 or m.n > 14:
            continue
        bases = bases_of(m)
        for _ in range(10):
            b1 = rng.choice(bases)
            rest = [b for b in bases if b & b1 == 0]
            if not rest:
                continue
            b2 = rng.choice(rest)
            cyc = gabow_cycle_any(m, b1, b2)
            assert as_mask(cyc[: m.r]) == b1
            assert as_mask(cyc[m.r :]) == b2
            # verify inside the restriction, rebuilt independently
            sub = m
            for e in reversed(range(m.n)):
                if not ((b1 | b2) >> e) & 1:
                    sub, _ = minor(sub, "delete", e)
            kept = [e for e in range(m.n) if ((b1 | b2) >> e) & 1]
            back = {e: i for i, e in enumerate(kept)}
            assert ch_interval_count(sub, tuple(back[e] for e in cyc)) == 0
            cyclic.check_block_cycle(m, cyc, b1, b2)
            # reference: gabow_cycle inside the restriction, mapped back
            ref = gabow_cycle(
                sub,
                as_mask(back[e] for e in kept if (b1 >> e) & 1),
                as_mask(back[e] for e in kept if (b2 >> e) & 1),
            )
            assert cyc == tuple(kept[x] for x in ref)
            checked += 1
    assert checked > 50


def _sample_disjoint_pair(m, rng):
    """A random disjoint basis pair by rejection sampling, without listing bases."""
    while True:
        b1 = as_mask(rng.sample(range(m.n), m.r))
        b2 = as_mask(rng.sample([e for e in range(m.n) if not (b1 >> e) & 1], m.r))
        if is_basis(m, b1) and is_basis(m, b2):
            return b1, b2


# (n, r): sha256 of gabow_cycle_any on 20 crc32-seeded disjoint pairs of gs_best(n, r)
FROZEN_ANY = {
    (10, 4): "348beb1110b3e61c7bd2f7588767cd10aeafb095424aae632e4ba831b087c5c2",
    (12, 5): "9e36bad5f67be7e97df530bfd19df9cd41bdd0dd3b154e99cfcd1bb5c7c1a5da",
    (20, 6): "86f7292839b7ddffa38b33880982e5711a7a42f6635290eb8b3d789eb40c9ca7",
    (22, 8): "18ecf837751fbf42f51c16ee94bfebc43e2c981d3c6680a3543754c48de5f6c5",
    (24, 5): "ad4e268dbb96d035a2cf2887796ec36d707a94f08ea06907ee9df6397e17452a",
}


def test_gabow_cycle_any_frozen():
    """Pins the two-block cycles of pairs that leave elements outside, in m's labels."""
    got = {}
    for n, r in FROZEN_ANY:
        m = gs_best(n, r)
        h = hashlib.sha256()
        for i in range(20):
            rng = random.Random(zlib.crc32(f"gs{n}_{r} {i}".encode()))
            b1, b2 = _sample_disjoint_pair(m, rng)
            h.update(" ".join(map(str, gabow_cycle_any(m, b1, b2))).encode() + b"\n")
        got[n, r] = h.hexdigest()
    assert got == FROZEN_ANY


def test_gabow_cycle_any_validation():
    with pytest.raises(NotBases):
        gabow_cycle_any(uniform(6, 2), {0, 1, 2}, {3, 4})
    with pytest.raises(NotDisjoint):
        gabow_cycle_any(uniform(6, 2), {0, 1}, {1, 2})


def rank_two_order_by_scan(m):
    """_rank_two_order before its one sorted pass, kept as the reference."""
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


def block_cycle_by_end(m, b1m, b2m):
    """_block_cycle before its shared swap trials, kept as the reference."""
    pred, _, r = basis_predicate(m)
    b = list(elements(b1m))
    c: list[int] = []
    unused = list(elements(b2m))
    suffix = b1m
    for i in range(r):
        suffix ^= 1 << b[i]
        pick = next((y for y in unused if pred(suffix | (1 << y))), None)
        c.append(guaranteed(pick, "greedy block ordering stalled"))
        unused.remove(pick)
        suffix |= 1 << pick

    probs = _problem_positions(m, b, c)
    while probs:
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
        fewer = (
            (nb, nc, np_)
            for nb, nc in trials
            if (np_ := _problem_positions(m, nb, nc)) is not None and len(np_) < len(probs)
        )
        b, c, probs = guaranteed(next(fewer, None), "no repair reduced the bad window count")

    out = tuple(b) + tuple(c)
    check_block_cycle(m, out, b1m, b2m)
    return out


def test_block_cycle_matches_the_reference():
    """Four seeded disjoint basis pairs per sparse paving family with n <= 6,
    then two per non-matroid family of the guard fuzz, where guards fire."""
    rng = random.Random(0)
    cases = [(m, 4) for m in small_sparse_paving(6)]
    cases += [(_family(rng, n, rng.randint(2, n // 2), 0.5)[0], 2) for n in (4, 5, 6, 7) * 40]
    raised = 0
    for m, draws in cases:
        pred, n, r = basis_predicate(m)
        bases = [b for b in subset_masks(n, r) if pred(b)]
        pairs = [(a, b) for a in bases for b in bases if not a & b]
        for _ in range(draws if pairs and r else 0):
            a, b = rng.choice(pairs)
            want = call_outcome(block_cycle_by_end, m, a, b)
            assert call_outcome(cyclic._block_cycle, m, a, b) == want, (m, a, b)
            raised += isinstance(want[0], type)
    assert raised > 10


def test_rank_two_order_matches_the_reference(monkeypatch):
    """Every family of rank 2 or corank 2 with n <= 7, through find_cyclic_order.

    Corank 2 reaches the rank-2 order through the dual.  The reference
    answers are taken with _rank_two_order swapped for the old scan.
    """
    ms = [
        SparsePavingMatroid(n, r, f)
        for n in range(2, 8)
        for r in {2, n - 2}
        for f in sparse_paving_families(n, r)
    ]
    for m in ms:
        if m.r == 2 and m.chset:
            want = call_outcome(rank_two_order_by_scan, m)
            assert call_outcome(cyclic._rank_two_order, m) == want, m
    got = [call_outcome(find_cyclic_order, m) for m in ms]
    monkeypatch.setattr(cyclic, "_rank_two_order", rank_two_order_by_scan)
    assert got == [call_outcome(find_cyclic_order, m) for m in ms]
    # 671 of the 688 have a dependent pair and an order
    assert sum(m.chset != () and g is not None for g, m in zip(got, ms)) == 671
