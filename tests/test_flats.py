"""Cyclic flats, the z_n bounds, and the per-rank census."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from corpusdef import CORPUS, P44, U24, with_max_n
from sparsepaving import (
    InternalCheckError,
    PreconditionViolated,
    RangeError,
    TooLarge,
    as_mask,
    bounds,
    closure_of,
    cyclic_flats_of,
    explicit_closure,
    explicit_rank,
    flat_histogram,
    rank_of,
    to_explicit,
    uniform,
    zn_census,
)
from sparsepaving.core import MAX_GROUND
from sparsepaving.flats import check_bounds, check_cyclic_flats


def mask(*elts: int) -> int:
    return as_mask(elts)


def scan_cyclic_flats(m):
    """Definition-level enumeration on the compact representation."""
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
    with pytest.raises(TooLarge):
        cyclic_flats_of(to_explicit(uniform(21, 1)))


@pytest.mark.parametrize("name,m", with_max_n(12), ids=[n for n, _ in with_max_n(12)])
def test_fast_path_matches_definition_scan(name, m):
    fast = cyclic_flats_of(m)
    assert sorted(fast) == sorted(set(fast))
    want = scan_cyclic_flats(m)
    assert sorted(fast) == sorted(want)
    assert_check_judges(m, fast, want)


@pytest.mark.parametrize("name,m", with_max_n(9), ids=[n for n, _ in with_max_n(9)])
def test_fast_path_matches_explicit_enumeration(name, m):
    """Same check routed through the basis-list rank and closure."""
    em = to_explicit(m)
    want = []
    for f in range(1 << m.n):
        if explicit_closure(em, f) != f:
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
        t = 1 << (2 * (n - 1))
        q = got - 2
        # q is the least integer with q^2 * n^3 >= 2^(2(n-1))
        assert q * q * n**3 >= t
        assert q >= 1
        assert (q - 1) * (q - 1) * n**3 < t


def test_bounds_decimal_tracks_the_radical():
    for n in (2, 5, 9, 16):
        b = bounds(n)
        approx = (1 << (n - 1)) / n**1.5 + 2
        assert abs(float(b.zn_lower_decimal) - approx) < 1e-9 * max(1.0, approx)


def test_bounds_order_for_supported_range():
    for n in range(4, 25):
        b = bounds(n)
        assert b.zn_lower_int <= b.zn_upper


def test_bounds_errors():
    with pytest.raises(PreconditionViolated):
        bounds(0)
    with pytest.raises(PreconditionViolated):
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
    ):
        with pytest.raises(InternalCheckError):
            check_bounds(bad)


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
