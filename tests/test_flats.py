"""Cyclic flats, the z_n bounds, and the per-rank census."""

import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from corpusdef import CORPUS, P44, U24, certify, closure_by_rank, mask, with_max_n
from sparsepaving import (
    ElementOutOfRange,
    ExplicitMatroid,
    InternalCheckError,
    RangeError,
    RankOutOfRange,
    SparsePavingMatroid,
    TooLarge,
    bounds,
    check_density,
    closure_of,
    cyclic_flats_of,
    dual,
    explicit_rank,
    explicit_validate,
    flat_histogram,
    graham_sloane,
    random_sparse_paving,
    rank_of,
    to_explicit,
    uniform,
    zn_census,
)
from sparsepaving.core import MAX_GROUND, _rank_levels
from sparsepaving.errors import ValidationError
from sparsepaving.flats import (
    _cyclic_flat_test,
    _definition_scan,
    check_bounds,
    check_cyclic_flats,
)


def scan_cyclic_flats(m):
    """Definition-level enumeration on the compact representation.

    Kept beside certify.cyclic_flats for the family-scan differential,
    where it is three to four times faster on the same cases.
    """
    out = []
    for f in range(1 << m.n):
        if closure_of(m, f) != f:
            continue
        rf = rank_of(m, f)
        if all(rank_of(m, f & ~(1 << e)) == rf for e in range(m.n) if (f >> e) & 1):
            out.append(f)
    return out


def assert_check_judges(m, flats, want):
    """check_cyclic_flats accepts flats and rejects it plus one set outside want.

    It also rejects the list with a flat dropped, repeated or out of order.
    """
    check_cyclic_flats(m, flats)
    extra = next((f for f in range(1 << m.n) if f not in set(want)), None)
    bad = [flats[:i] + flats[i + 1 :] for i in range(len(flats))]
    bad.append([*flats, flats[-1]])
    if len(flats) > 1:
        bad.append(flats[::-1])
    if extra is not None:
        bad.append([*flats, extra])
    for wrong in bad:
        with pytest.raises(InternalCheckError):
            check_cyclic_flats(m, wrong)


# -- enumeration ------------------------------------------------------------------


def test_cyclic_flats_frozen():
    assert cyclic_flats_of(P44) == [0, mask(1, 2), mask(0, 3), mask(0, 1, 2, 3)]
    assert cyclic_flats_of(U24) == [0, mask(0, 1, 2, 3)]
    assert cyclic_flats_of(uniform(4, 4)) == [0]
    assert cyclic_flats_of(uniform(4, 0)) == [mask(0, 1, 2, 3)]
    assert cyclic_flats_of(uniform(0, 0)) == [0]


def test_cyclic_flats_explicit_guard():
    with pytest.raises(TooLarge, match=r"^definition scan over 2\^21 subsets refused$"):
        cyclic_flats_of(to_explicit(uniform(21, 1)))
    with pytest.raises(TooLarge, match=r"^definition scan over 2\^21 subsets refused$"):
        cyclic_flats_of(uniform(21, 1))
    # a non-matroid is refused by type before its size is looked at
    with pytest.raises(TypeError, match="^expected a matroid, got SimpleNamespace$"):
        cyclic_flats_of(SimpleNamespace(n=21, r=1))
    # the certificate refuses one too, before it reads the list
    with pytest.raises(TypeError, match="^expected a matroid, got object$"):
        check_cyclic_flats(object(), [])
    # an unvalidated basis list is range-checked before it becomes a family
    with pytest.raises(ElementOutOfRange, match="^basis 5 is not inside 0..2$"):
        cyclic_flats_of(ExplicitMatroid(3, 1, [1 << 5]))


@pytest.mark.parametrize("name,m", with_max_n(12), ids=[n for n, _ in with_max_n(12)])
def test_fast_path_matches_definition_scan(name, m):
    fast = cyclic_flats_of(m)
    assert sorted(fast) == sorted(set(fast))
    want = certify.cyclic_flats(certify.Spm.of(m))
    assert sorted(fast) == sorted(want)
    assert_check_judges(m, fast, want)


@pytest.mark.parametrize("name,m", with_max_n(9), ids=[n for n, _ in with_max_n(9)])
def test_fast_path_matches_explicit_enumeration(name, m):
    """Same check routed through the basis-list rank and closure."""
    em = to_explicit(m)
    want = []
    for f in range(1 << m.n):
        if closure_by_rank(em, f) != f:
            continue
        rf = explicit_rank(em, f)
        if all(
            explicit_rank(em, f & ~(1 << e)) == rf
            for e in range(m.n)
            if (f >> e) & 1
        ):
            want.append(f)
    assert sorted(cyclic_flats_of(m)) == want
    assert sorted(cyclic_flats_of(em)) == want
    assert_check_judges(em, want, want)


def cyclic_flat_by_definition(em, f):
    """Closed, and no element of f drops its rank: one rank per element."""
    if closure_by_rank(em, f) != f:
        return False
    rf = explicit_rank(em, f)
    return all(explicit_rank(em, f & ~(1 << e)) == rf for e in range(em.n) if (f >> e) & 1)


@pytest.mark.parametrize("name,m", with_max_n(8), ids=[n for n, _ in with_max_n(8)])
def test_cyclic_flat_test_matches_the_definition_on_every_subset(name, m):
    """The two-pass basis test judges every subset as the per-element definition."""
    em = to_explicit(m)
    test, spm_test = _cyclic_flat_test(em), _cyclic_flat_test(m)
    for f in range(1 << m.n):
        want = cyclic_flat_by_definition(em, f)
        assert test(f) == spm_test(f) == want, (name, f)


def _scan_cases(n):
    """Every matroid of the family-scan differential test with ground size n."""
    g = (1 << n) - 1
    out = [(f"u{n}_{r}", uniform(n, r)) for r in range(n + 1)] if n <= 8 else []
    if 4 <= n <= 11:
        for r in range(n + 1):
            for c in range(n):
                try:
                    out.append((f"gs{n}_{r}_{c}", graham_sloane(n, r, c)))
                except ValidationError:  # the class is every r-set
                    pass
    if 4 <= n <= 10:
        for seed in range(n * 100, n * 100 + 43):
            m = random_sparse_paving(n, seed % (n + 1), seed=seed, max_sets=1 + seed % 9)
            out += [(f"rnd{seed}", m), (f"rnd{seed}*", dual(m))]
    if n >= 3:
        for e in range(n):
            out.append((f"one{n}_{e}", SparsePavingMatroid(n, 1, [1 << e])))
            out.append((f"co{n}_{e}", SparsePavingMatroid(n, n - 1, [g ^ (1 << e)])))
    return out


@pytest.mark.parametrize("n", range(15))
def test_family_scan_matches_per_subset_scan(n):
    """The whole-family scan against the per-subset definition, at every rank.

    Uniform matroids up to n = 8 (n = 0, r = 0 and r = n included),
    every residue class for n 4-11, 301 seeded random sparse paving
    matroids with their duals (n 4-10), and every rank-1 and corank-1
    single-set family for n 3-14; explicit forms too, up to n = 10.
    """
    cases = _scan_cases(n)
    assert cases
    for name, m in cases:
        want = scan_cyclic_flats(m)
        assert _definition_scan(m) == want, name
        assert cyclic_flats_of(m) == want, name
        if n <= 10:
            assert _definition_scan(to_explicit(m)) == want, name


@pytest.mark.parametrize("name,m", with_max_n(9), ids=[n for n, _ in with_max_n(9)])
def test_rank_levels_match_explicit_rank(name, m):
    """R_k holds exactly the subsets of rank >= k, for the explicit form.

    The same per-subset ranks give the density witness the ascending
    scan returns and the cyclic flats by the definition.
    """
    em = to_explicit(m)
    rank = [explicit_rank(em, a) for a in range(1 << m.n)]
    _, levels = _rank_levels(em, "definition scan")
    assert len(levels) == m.r + 2
    for k, level in enumerate(levels):
        assert level == sum(1 << a for a, rk in enumerate(rank) if rk >= k), (name, k)
    bad = [a for a in range(1, 1 << m.n) if m.r * a.bit_count() > rank[a] * m.n]
    assert check_density(em) == ((False, bad[0]) if bad else (True, None))
    one = [1 << e for e in range(m.n)]
    flats = [
        a
        for a in range(1 << m.n)
        if all(rank[a | b] > rank[a] for b in one if not a & b)
        and all(rank[a ^ b] == rank[a] for b in one if a & b)
    ]
    assert _definition_scan(em) == cyclic_flats_of(em) == flats


def test_definition_scan_at_the_scan_cap_is_fast_and_small():
    # corank 1 at n = MAX_SCAN_GROUND: 21 rank levels of 2^20 bits; the
    # designated set {0, .., 18} is a hyperplane and 19 a coloop
    m = SparsePavingMatroid(20, 19, [(1 << 19) - 1])
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        flats = cyclic_flats_of(m)
        best = min(best, time.perf_counter() - start)
    assert flats == [0, (1 << 19) - 1]
    assert best < 2.0
    tracemalloc.start()
    try:
        cyclic_flats_of(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20


def test_flat_histogram_frozen():
    assert flat_histogram(cyclic_flats_of(P44)) == {0: 1, 2: 2, 4: 1}
    assert flat_histogram(cyclic_flats_of(U24)) == {0: 1, 4: 1}
    assert flat_histogram([]) == {}


@pytest.mark.parametrize("name,m", with_max_n(16), ids=[n for n, _ in with_max_n(16)])
def test_counting_inequalities(name, m):
    hist = flat_histogram(cyclic_flats_of(m))
    top = 1 << m.n
    assert sum(a * (i + 1) for i, a in hist.items()) <= top
    assert sum(a * (m.n - i + 1) for i, a in hist.items()) <= top
    assert sum(hist.values()) <= bounds(max(m.n, 1)).zn_upper


# -- bounds ----------------------------------------------------------------------


def test_bounds_frozen():
    b = bounds(4, 2)
    assert b.zn_upper == Fraction(16, 3)
    assert b.zn_lower_int == 3
    assert b.zn_lower_radical == "2^3/4^(3/2) + 2"
    assert b.zn_lower_decimal == "3"
    assert b.ch_upper == Fraction(2)
    assert bounds(8, 4).ch_upper == Fraction(14)
    assert bounds(1).zn_upper == Fraction(4, 3)
    assert bounds(1).ch_upper is None


def test_bounds_lower_int_is_exact_ceiling():
    # ceil(2^(n-1) / n^(3/2)) + 2 recomputed with Fraction arithmetic
    for n in range(1, 25):
        got = bounds(n).zn_lower_int
        if n < 4:  # no sparse paving matroid with 2 <= r <= n - 2
            assert got is None
            continue
        t = 1 << (2 * (n - 1))
        q = got - 2
        # q is the least integer with q^2 * n^3 >= 2^(2(n-1))
        assert q * q * n**3 >= t
        assert q >= 1
        assert (q - 1) * (q - 1) * n**3 < t


def test_bounds_decimal_tracks_the_radical():
    for n in (2, 5, 9, 16):
        b = bounds(n)
        if n < 4:
            assert b.zn_lower_decimal is None and b.zn_lower_radical is None
            continue
        approx = (1 << (n - 1)) / n**1.5 + 2
        assert abs(float(b.zn_lower_decimal) - approx) < 1e-9 * max(1.0, approx)


def test_bounds_order_for_supported_range():
    for n in range(4, 25):
        b = bounds(n)
        assert b.zn_lower_int <= b.zn_upper
        # the real lower bound 2^(n-1)/n^(3/2) + 2 sits below zn_upper too;
        # squares keep the radical out of it
        d = b.zn_upper - 2
        assert d > 0
        assert Fraction(1 << (2 * (n - 1)), n**3) <= d * d


def test_bounds_errors():
    with pytest.raises(RangeError, match="^ground size 0 must be at least 1$"):
        bounds(0)
    with pytest.raises(RankOutOfRange, match=r"^rank 6 not in 0\.\.5$"):
        bounds(5, 6)
    with pytest.raises(RangeError):
        bounds(MAX_GROUND + 1)
    assert bounds(MAX_GROUND).zn_lower_int > 2


def test_check_bounds_accepts_every_report():
    for n in range(1, 40):
        for r in (None, *range(n + 1)):
            check_bounds(bounds(n, r))
    check_bounds(bounds(MAX_GROUND, 7))


def test_check_bounds_rejects_each_corrupted_field():
    b = bounds(10, 4)
    for bad in (
        replace(b, zn_lower_int=b.zn_lower_int + 1),
        replace(b, zn_lower_int=b.zn_lower_int - 1),
        replace(b, zn_lower_int=2),  # q = 0
        replace(b, zn_upper=b.zn_upper + 1),
        replace(b, ch_upper=b.ch_upper + Fraction(1, 7)),
        replace(b, ch_upper=None),
        replace(bounds(10), ch_upper=Fraction(1)),
        replace(b, n=11),
        replace(b, zn_lower_int=None),
        replace(bounds(3), zn_lower_int=3),
        replace(bounds(2), zn_lower_radical="2^1/2^(3/2) + 2"),
    ):
        with pytest.raises(InternalCheckError):
            check_bounds(bad)


def test_bounds_lower_int_is_reached_up_to_n4():
    """zn_lower_int, where defined, is at most the true maximum number of
    cyclic flats, over every matroid on n <= 4 elements."""
    most = {}
    for n in range(1, 5):
        most[n] = 0
        for r in range(n + 1):
            sets = [mask(*c) for c in combinations(range(n), r)]
            for pick in range(1, 1 << len(sets)):
                em = ExplicitMatroid(n, r, [s for i, s in enumerate(sets) if pick >> i & 1])
                try:
                    explicit_validate(em)
                except ValidationError:
                    continue
                most[n] = max(most[n], len(cyclic_flats_of(em)))
    assert most == {1: 1, 2: 2, 3: 2, 4: 4}
    for n, top in most.items():
        low = bounds(n).zn_lower_int
        assert (low is None) == (n < 4)
        assert low is None or low <= top, (n, low, top)
    with pytest.raises(InternalCheckError, match="^zn_lower is set below n = 4$"):
        check_bounds(replace(bounds(3), zn_lower_int=3))


def test_ch_upper_met_with_equality_at_p44():
    assert len(P44.chset) == bounds(4, 2).ch_upper == 2


@pytest.mark.parametrize("name,m", CORPUS, ids=[n for n, _ in CORPUS])
def test_ch_upper_holds_on_corpus(name, m):
    if 0 < m.r < m.n:
        assert len(m.chset) <= bounds(m.n, m.r).ch_upper


# -- census ----------------------------------------------------------------------


def test_census_frozen():
    rep = zn_census(4)
    assert rep.lower_bound == 4
    assert rep.best_rank == 2
    assert rep.best_class == 1
    assert rep.entries == ((2, 1, 4),)
    assert rep.gap_to_upper == Fraction(16, 3) - 4

    rep8 = zn_census(8)
    assert rep8.lower_bound == 12
    assert (rep8.best_rank, rep8.best_class) == (4, 2)
    assert rep8.lower_bound >= 11
    assert len(rep8.entries) == 5  # ranks 2 .. 6

    assert zn_census(6).lower_bound >= 6


def test_census_range_errors():
    with pytest.raises(RangeError):
        zn_census(3)
    with pytest.raises(RangeError):
        zn_census(25)


def test_census_respects_both_bounds():
    for n in range(4, 21):
        rep = zn_census(n)
        assert rep.limits.zn_lower_int <= rep.lower_bound <= rep.limits.zn_upper
        assert rep.gap_to_upper == rep.limits.zn_upper - rep.lower_bound


def test_census_rows_match_direct_construction():
    from corpusdef import gs_best

    rep = zn_census(7)
    for r, c, count in rep.entries:
        m = gs_best(7, r)
        assert len(cyclic_flats_of(m)) == count
        assert len(m.chset) + 2 == count


def test_census_rows_are_largest_classes_by_enumeration():
    """Each row is a largest class, smallest residue on ties, counted directly."""
    for n in range(4, 15):
        rows = []
        for r in range(2, n - 1):
            sizes = [0] * n
            for combo in combinations(range(n), r):
                sizes[sum(combo) % n] += 1
            size = max(sizes)
            rows.append((r, sizes.index(size), size + 2))
        assert zn_census(n).entries == tuple(rows), n
