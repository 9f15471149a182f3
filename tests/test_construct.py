"""Residue-class and randomized constructors."""

import hashlib
from math import comb

import pytest

from corpusdef import P44
from sparsepaving import (
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
