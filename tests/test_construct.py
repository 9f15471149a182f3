"""Residue-class and randomized constructors."""

import hashlib
import random
import sys
import time
import tracemalloc
from itertools import combinations
from math import comb
from operator import add

import pytest

import sparsepaving.construct as construct
from corpusdef import P44
from sparsepaving import (
    InternalCheckError,
    NoBasis,
    RangeError,
    RankOutOfRange,
    ResidueOutOfRange,
    TooLarge,
    graham_sloane,
    gs_best_class,
    gs_class_sizes,
    random_sparse_paving,
    serialize_matroid,
    subset_masks,
    validate,
)
from sparsepaving.bitset import iter_elements, swap
from sparsepaving.flats import zn_census


def test_p44_is_the_residue_3_class():
    assert graham_sloane(4, 2, 3) == P44


def test_class_sizes_oracle():
    """The counting table must match plain enumeration of sums."""
    for n in range(1, 13):
        for r in range(0, n + 1):
            direct = [0] * n
            for s in subset_masks(n, r):
                total = sum(e for e in range(n) if (s >> e) & 1)
                direct[total % n] += 1
            assert gs_class_sizes(n, r) == direct


def _class_table(n: int, rmax: int) -> list[list[int]]:
    """table[k][s] counts the k-subsets of 0..n-1 with sum s mod n, k <= rmax.

    Adding element e adds row k - 1, rotated by e, to row k: n * rmax
    rotations of length n, so O(n^2 * rmax) additions for all rows.
    """
    table = [[0] * n for _ in range(rmax + 1)]
    table[0][0] = 1
    for e in range(n):
        cut = -e % n
        for k in range(min(e + 1, rmax), 0, -1):
            prev = table[k - 1]
            table[k] = list(map(add, table[k], prev[cut:] + prev[:cut]))
    if any(sum(row) != comb(n, k) for k, row in enumerate(table)):
        raise InternalCheckError(f"class sizes for n={n} do not sum to C(n, k)")
    return table


def test_class_sizes_match_the_rotation_table():
    """Differential: the divisor sum against the O(n^2 r) rotation table."""
    ties = 0
    for n in range(1, 61):
        table = _class_table(n, n)
        for r in range(n + 1):
            row = table[r]
            assert gs_class_sizes(n, r) == row, (n, r)
            size = max(row)
            assert gs_best_class(n, r) == (row.index(size), size), (n, r)
            ties += row.count(size) > 1
    assert ties > 100  # the smallest-residue rule is exercised, not just unique maxima


def test_census_rows_match_the_rotation_table():
    for n in range(4, 25):
        table = _class_table(n, n - 2)
        rows = []
        for r in range(2, n - 1):
            size = max(table[r])
            rows.append((r, table[r].index(size), size + 2))
        assert zn_census(n).entries == tuple(rows), n


def test_best_class_is_fast_at_the_ground_cap():
    # the rotation table took about 1.8 s here; the divisor sum takes about 1 ms
    start = time.perf_counter()
    c, size = gs_best_class(4096, 2)
    assert time.perf_counter() - start < 0.5
    assert (c, size) == (1, 2048)
    assert graham_sloane(4096, 2) == graham_sloane(4096, 2, c)


def test_graham_sloane_checks_the_class_size(monkeypatch):
    """A class enumerated one set short still validates, so only the size check sees it."""
    class_masks = construct._class_masks

    def one_short(lo, hi, r, c, n):
        out = class_masks(lo, hi, r, c, n)
        return out[1:] if (lo, hi) == (0, n) else out

    monkeypatch.setattr(construct, "_class_masks", one_short)
    with pytest.raises(InternalCheckError, match="^class 0 has 13 r-sets, not 14$"):
        graham_sloane(9, 4, 0)


# class 0 of (9, 4) as _class_masks lists it starts with 0,4,6,8 then 0,5,6,7
@pytest.mark.parametrize(
    "fault, message",
    [
        # 0,4,6,7 sums to 17: another class, and the count is unchanged
        (lambda out: [swap(out[0], 8, 7), *out[1:]], "class 0 set 0,4,6,7 sums to 8 mod 9"),
        # the constructor drops the repeat, so the family is one short
        (lambda out: [out[1], *out[1:]], "class 0 has 13 r-sets, not 14"),
        (lambda out: [out[0] | 0b10, *out[1:]], "class 0 set 0,1,4,6,8 is not 4 elements of 0..8"),
        (
            lambda out: [swap(out[0], 8, 9), *out[1:]],
            "class 0 set 0,4,6,9 is not 4 elements of 0..8",
        ),
    ],
    ids=["wrong-residue", "duplicate", "wrong-size", "out-of-range"],
)
def test_graham_sloane_certifies_the_class(monkeypatch, fault, message):
    """Each fault in the enumerated class fails check_class, which replaced validate."""
    class_masks = construct._class_masks

    def faulty(lo, hi, r, c, n):
        out = class_masks(lo, hi, r, c, n)
        return fault(out) if (lo, hi) == (0, n) else out

    monkeypatch.setattr(construct, "_class_masks", faulty)
    with pytest.raises(InternalCheckError) as err:
        graham_sloane(9, 4, 0)
    assert str(err.value) == message


def test_graham_sloane_runs_no_validate(monkeypatch):
    def refuse(m):
        raise AssertionError("validate called")

    monkeypatch.setattr(construct, "validate", refuse)
    assert graham_sloane(4, 2, 3) == P44
    assert len(graham_sloane(22, 7, 3).chset) == gs_class_sizes(22, 7)[3]


def test_residues_match_a_plain_sum_on_both_paths():
    """Sum tables ((9, 4) to (28, 5)) and element sums (the rest, (40, 36) by complement)."""
    for n, r, c in [(9, 4, 0), (22, 7, 3), (28, 5, 2), (5, 1, 4), (30, 4, 1), (40, 36, 7)]:
        sets = tuple(construct._class_masks(0, n, r, c, n))
        plain = [sum(e for e in range(n) if h >> e & 1) % n for h in sets]
        assert construct._residues(n, r, sets) == plain == [c] * len(sets), (n, r, c)
        flipped = tuple(h ^ 0b11 for h in sets)  # elements 0 and 1 traded or toggled
        plain = [sum(e for e in range(n) if h >> e & 1) % n for h in flipped]
        assert construct._residues(n, r, flipped) == plain, (n, r, c)


def test_classes_partition_all_subsets():
    for n, r in [(4, 2), (6, 3), (7, 3), (9, 4), (10, 5)]:
        seen = set()
        for c in range(n):
            chs = graham_sloane(n, r, c).chset
            assert seen.isdisjoint(chs)
            seen.update(chs)
        assert len(seen) == comb(n, r)


def test_every_class_validates_on_a_small_grid():
    for n in range(4, 11):
        for r in range(1, n):
            for c in range(n):
                validate(graham_sloane(n, r, c))


def test_best_class_frozen_and_tied_low():
    # sizes for (4,2) are [1,2,1,2]: residues 1 and 3 tie, 1 wins
    assert gs_class_sizes(4, 2) == [1, 2, 1, 2]
    assert gs_best_class(4, 2) == (1, 2)
    assert gs_best_class(6, 3) == (0, 4)


def test_best_class_meets_pigeonhole_bound():
    for n in range(4, 15):
        for r in range(1, n):
            _, size = gs_best_class(n, r)
            assert size * n >= comb(n, r)


def test_graham_sloane_errors():
    with pytest.raises(ResidueOutOfRange):
        graham_sloane(5, 2, 5)
    with pytest.raises(ResidueOutOfRange):
        graham_sloane(5, 2, -1)
    with pytest.raises(RangeError):
        graham_sloane(0, 0, 0)
    with pytest.raises(RankOutOfRange):
        graham_sloane(4, 5, 0)
    with pytest.raises(TooLarge):
        graham_sloane(30, 15, 0, cap=1000)


def test_graham_sloane_matches_the_plain_filter():
    """Differential: the split enumerator against a filter over all r-subsets."""
    for n in range(1, 13):
        for r in range(n + 1):
            classes = [[] for _ in range(n)]
            for combo in combinations(range(n), r):
                classes[sum(combo) % n].append(sum(1 << e for e in combo))
            for c, want in enumerate(classes):
                if len(want) == comb(n, r):  # the class takes every r-set
                    with pytest.raises(NoBasis):
                        graham_sloane(n, r, c)
                else:
                    assert graham_sloane(n, r, c).chset == tuple(sorted(want)), (n, r, c)


# (n, r, c): byte count and sha256 of the serialized class, or the error
# it raises; recorded with the filter over all C(n, r) subsets
FROZEN_GS = {
    (22, 7, 3): (
        161398,
        "7cea65a083187e1a201282c69a2084b9bdc61184b302b640d31f3fbdf22f2c14",
    ),
    (22, 11, 0): (
        994062,
        "af5d70fcfe9d59bcabbba01f8590d0dcca4124b74333e40c61a50bfdd0262b8f",
    ),
    (24, 12, 5): (
        3829504,
        "7a1af7f0a6d1a2879e6006d0fdb138dbc7807cf8ae0341af51341b50b4e0a5ba",
    ),
    (18, 9, 0): (
        67615,
        "a46b9d9743264d7f36162c3adfddf82c4fa95ef51f586f47768f010873b571a7",
    ),
    (20, 6, 13): (
        35007,
        "f95b214d954807180fd959727fd288a9c4993a59b11938867f68c31391156828",
    ),
    (200, 3, 7): (
        87685,
        "e428428ae47468589144b07c717da4ca34914aee39bd2b5c25aaf6f13f8fd553",
    ),
    (5, 0, 2): (14, "5533192ff1fcb02a9a3b66cbd659a583299ecdbf4d56db06350cf2bd6a2e99ad"),
    (5, 1, 4): (19, "735acf83aeb7d0b489aa38c107ea9ba28fcbea4cb973a193b0cc63c638455096"),
    (5, 4, 1): (25, "5255e47c6f9ab824251ed23a1adff1bfa9e0d3e310445a9bcc2869df526582cc"),
    (5, 5, 3): (14, "2ab0b2dd09c91981e2a09a9c8beebc2f8f485c2e46c995169e2740cba59a1b6e"),
    (6, 1, 2): (19, "47955da0aca1975dc7649766fb338dff63f440a9784619f9aff53bc186aa27fb"),
    (6, 5, 0): (27, "6b366f45c9921bd9019cb17d607a7a8a8be6ece689518d32226cc12fb1349412"),
    (7, 6, 6): (29, "a3a6096e0aa0926dc3c20c7266e153537bb7affb1946e55ddf719103153789b6"),
    (9, 4, None): (168, "bd4ff04fb21e284ac7ab5773b125c6f8e821b34abf0c36355480074bfd64e4c1"),
    (13, 6, None): (
        2178,
        "4bd14f0ff962e023b5e50e481e695aeb80543e1569867161bc2e9c70b2f7dc1c",
    ),
    (22, 7, None): (
        161397,
        "9ff2a979b344f2bb7b7dfe9222da1ffb4e2ea50f74e2f9748c909cd1aa643d00",
    ),
    # r > n/2: the classes are built from the complements
    (24, 20, 3): (
        24070,
        "056519f6ab831899a8310c550b2613c723f5e90cfd05a7331ef92ebbdb2ae152",
    ),
    (30, 28, 4): (1181, "c5a81b56dfcfe2386523ea6c9b6778a78aac2b0df4790c8747fbd10382083746"),
    (60, 58, 17): (5036, "7463e056606252c351d185a03fb013ff6c303eb9408dbce02e75e2b8725100ec"),
    (64, 61, 9): (
        114897,
        "f2b47bb2aa23984f0fb6358c0e42d2423708e7894a368c8cf50bed7d021eda67",
    ),
    (4096, 4095, 5): (
        19388,
        "9cab12075173beb9d933d2167e6a93127483692823fadeaf64241a13144d1f25",
    ),
    (1, 0, 0): "all 1 r-subsets are designated dependent",
    (1, 1, 0): "all 1 r-subsets are designated dependent",
    (5, 0, 0): "all 1 r-subsets are designated dependent",
    (5, 5, 0): "all 1 r-subsets are designated dependent",
    (6, 6, 3): "all 1 r-subsets are designated dependent",
}


def test_graham_sloane_frozen():
    for (n, r, c), expect in FROZEN_GS.items():
        if isinstance(expect, str):
            with pytest.raises(NoBasis) as err:
                graham_sloane(n, r, c)
            assert str(err.value) == expect, (n, r, c)
            continue
        text = serialize_matroid(graham_sloane(n, r, c))
        got = (len(text), hashlib.sha256(text.encode()).hexdigest())
        assert got == expect, (n, r, c)


def test_graham_sloane_large_ground_is_fast():
    # the filter over all C(4096, 2) pairs took 1.4 s; the split takes ~0.1 s
    best = min(_timed(graham_sloane, 4096, 2, 5) for _ in range(3))
    assert best < 0.7


def test_graham_sloane_near_full_rank_is_fast():
    """r > n/2 is read off the complements, so both calls take milliseconds.

    Bucketing every j in 1..r-1 at (60, 58) would hold about 1.5e8 masks.
    """
    for n, r in [(60, 58), (4096, 4095)]:
        assert _timed(graham_sloane, n, r, 5) < 0.7, (n, r)


def test_graham_sloane_large_ground_memory():
    """The buckets stay near the class size: peak within 5x the class's masks.

    The peak, reached while _class_masks joins its buckets, is about
    3.4x the bytes of the 2,048 masks the class holds; the residue check
    that follows peaks near 0.4x.
    """
    m = graham_sloane(4096, 2, 5)  # warm caches, so only the build is traced
    held = sys.getsizeof(m.chset) + sum(map(sys.getsizeof, m.chset))
    tracemalloc.start()
    try:
        graham_sloane(4096, 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * held


def _timed(fn, *args) -> float:
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def test_random_generator_is_seed_deterministic():
    a = random_sparse_paving(10, 4, seed=5, max_sets=12)
    b = random_sparse_paving(10, 4, seed=5, max_sets=12)
    assert a == b
    c = random_sparse_paving(10, 4, seed=6, max_sets=12)
    assert c != a  # seeds 5 and 6 happen to disagree, frozen observation


# (n, r, seed, max_sets): byte count and sha256 of the serialized matroid
FROZEN_RANDOM = {
    (8, 4, 1, None): (
        124,
        "ec1972e9fa89552e712860a516a472a2838400bbc6f32a324a031328030eea78",
    ),
    (10, 5, 2, None): (
        314,
        "5aee5dd50e6720cd603421db7f77b5efbf2f94e286b9c5e57a39d1dc20ea40c7",
    ),
    (12, 5, 3, 20): (
        294,
        "32446d235184207464a1cdb56f7481cab55c0eca81c387fccefa0a2f296ac49e",
    ),
    (13, 6, 4, None): (
        1969,
        "251d329c03b28a8c83de628ce223ccf35e65bbcd0d452171974eb9b87ebc3817",
    ),
}


def test_random_sparse_paving_frozen():
    """The shuffle runs over the candidate pool, so its order is pinned too."""
    for (n, r, seed, max_sets), expect in FROZEN_RANDOM.items():
        text = serialize_matroid(random_sparse_paving(n, r, seed=seed, max_sets=max_sets))
        got = (len(text), hashlib.sha256(text.encode()).hexdigest())
        assert got == expect, (n, r, seed, max_sets)


def greedy_by_shadows(n, r, seed, max_sets=None):
    """The generator's greedy loop as it first stood, kept as the reference.

    Each candidate hashes its (r-1)-subsets and is kept when none of
    them belongs to a set kept earlier.
    """
    rng = random.Random(seed)
    pool = list(subset_masks(n, r))
    rng.shuffle(pool)
    total = len(pool)
    taken = []
    seen = set()
    for s in pool:
        if max_sets is not None and len(taken) >= max_sets:
            break
        if len(taken) + 1 == total:
            break  # keep one basis
        keys = [s ^ (1 << e) for e in iter_elements(s)]
        if any(k in seen for k in keys):
            continue
        seen.update(keys)
        taken.append(s)
    return tuple(sorted(taken))


def test_random_generator_matches_the_shadow_greedy():
    """The blocked-set loop against the shadow-hashing loop, every n <= 10.

    max_sets binding, 0 and unset; r = 0 and r = n, where the keep-one-basis
    stop takes nothing; rank 1 and corank 1, where it fires at n = 2.
    """
    for n in range(1, 11):
        for r in range(n + 1):
            for seed in range(4):
                for max_sets in (None, 0, 1, 3, 7):
                    got = random_sparse_paving(n, r, seed=seed, max_sets=max_sets)
                    want = greedy_by_shadows(n, r, seed, max_sets)
                    assert got.chset == want, (n, r, seed, max_sets)
    assert random_sparse_paving(5, 0, seed=0).chset == ()
    assert random_sparse_paving(5, 5, seed=0).chset == ()
    assert len(random_sparse_paving(2, 1, seed=0).chset) == 1
    assert len(random_sparse_paving(2, 1, seed=0, max_sets=5).chset) == 1


def greedy_pairwise(n, r, seed, max_sets=None):
    """The definition: keep a candidate at symmetric difference >= 4 from all kept."""
    pool = list(subset_masks(n, r))
    random.Random(seed).shuffle(pool)
    limit = len(pool) - 1 if max_sets is None else min(max_sets, len(pool) - 1)
    taken = []
    for s in pool:
        if len(taken) >= limit:
            break
        if all((s ^ t).bit_count() >= 4 for t in taken):
            taken.append(s)
    return tuple(sorted(taken))


def test_random_generator_on_both_sides_of_the_hash_width():
    """Masks of up to 61 elements take the blocked set, wider ones the shadows."""
    for n in (60, 61, 62, 63, 70):
        for r in (1, 2, n - 2, n - 1):
            for seed, max_sets in ((0, None), (1, 6)):
                got = random_sparse_paving(n, r, seed=seed, max_sets=max_sets).chset
                assert got == greedy_pairwise(n, r, seed, max_sets), (n, r, seed)
    assert random_sparse_paving(64, 3, seed=2, max_sets=20).chset == greedy_pairwise(
        64, 3, 2, 20
    )


def test_random_generator_stays_fast_on_wide_masks():
    """Above n = 61 the greedy pass must not key a set by whole r-sets.

    Int hashes fold bit e onto bit e - 61, so the 499,500 pairs of a
    1000-set share about 1,900 hash values.  A blocked set of them walks
    long collision chains: 16 s and 154 MiB peak RSS for this call, against
    2.4 s and 80 MiB with the (r-1)-subset lookups (2-vCPU x86-64 host).
    The bound leaves 3x headroom over the latter.
    """
    assert _timed(random_sparse_paving, 1000, 2, 1) < 7.5


def test_random_generator_respects_target_and_validates():
    for seed in range(8):
        m = random_sparse_paving(9, 4, seed=seed, max_sets=7)
        validate(m)
        assert len(m.chset) <= 7
        assert m.basis_count >= 1


def test_random_generator_unbounded_still_leaves_a_basis():
    m = random_sparse_paving(6, 3, seed=0, max_sets=None)
    validate(m)
    assert m.basis_count >= 1


def test_random_generator_cap():
    with pytest.raises(TooLarge):
        random_sparse_paving(30, 15, seed=0, cap=1000)
    # the pool holds C(n, r) masks of ceil(n / 64) words; cap bounds the product
    for n, words in ((64, 1), (70, 2), (130, 3)):
        work = comb(n, 2) * words
        random_sparse_paving(n, 2, seed=0, max_sets=3, cap=work)
        with pytest.raises(TooLarge, match=f"C\\({n}, 2\\) {words}-word r-subsets"):
            random_sparse_paving(n, 2, seed=0, max_sets=3, cap=work - 1)


def test_random_generator_refuses_wide_pools_before_listing_them():
    """C(4096, 2) = 8,386,560 sets is under the default cap, 64 words each is not.

    Listing that pool took 70 s and 3.3 GB peak RSS when only the count
    was charged.
    """
    t = time.perf_counter()
    with pytest.raises(TooLarge) as err:
        random_sparse_paving(4096, 2, seed=1)
    assert time.perf_counter() - t < 1.0
    assert str(err.value) == "C(4096, 2) 64-word r-subsets exceed the cap 10000000"
