"""Core representation: validity, rank, closure, duality, minors, swaps."""

import ast
import itertools
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from corpusdef import (
    CORPUS,
    P44,
    U24,
    bases_of,
    call_outcome,
    closure_by_rank,
    mask,
    small_sparse_paving,
    sparse_paving_families,
    with_max_n,
)
import sparsepaving
from sparsepaving import (
    DistanceViolation,
    ElementOutOfRange,
    EmptyBases,
    ExchangeViolation,
    ExplicitMatroid,
    MatroidError,
    Multiset,
    NoBasis,
    NotACircuitHyperplane,
    NotBases,
    PreconditionViolated,
    RangeError,
    RankOutOfRange,
    SizeMismatch,
    SparsePavingMatroid,
    as_mask,
    average_ch_intervals,
    basis_predicate,
    bounds,
    bpg_vertex,
    check_density,
    closure_of,
    dual,
    elements,
    explicit_minor,
    explicit_rank,
    explicit_validate,
    gabow_cycle,
    gabow_cycle_any,
    graham_sloane,
    graph_connected,
    gs_class_sizes,
    is_basis,
    minor,
    random_sparse_paving,
    rank_of,
    relax,
    serialize_matroid,
    subset_masks,
    swap_witnesses,
    to_explicit,
    uniform,
    validate,
    white2_path,
    white_moves,
)
from sparsepaving.bitset import format_set, lowest_element, swap
from sparsepaving import core
from sparsepaving.construct import _class_masks
from sparsepaving.core import MAX_GROUND, _drop_element, _rank_attaining, check_ground
from sparsepaving.errors import TooLarge
from test_guards import _family


# -- bit masks ------------------------------------------------------------------


def test_subset_masks_match_combinations():
    """Lexicographic order of the element tuples; no subsets for r out of range."""
    for n in range(11):
        for r in range(-1, n + 2):
            want = [as_mask(c) for c in itertools.combinations(range(n), r)] if r >= 0 else []
            assert list(subset_masks(n, r)) == want, (n, r)


def test_bitset_input_checks():
    with pytest.raises(ValueError, match="^element-set masks are non-negative$"):
        as_mask(-1)
    with pytest.raises(ValueError, match="^elements are non-negative integers$"):
        as_mask([0, "1"])
    with pytest.raises(ValueError, match="^elements are non-negative integers$"):
        as_mask([2, -1])
    with pytest.raises(ValueError, match="^the empty set has no lowest element$"):
        lowest_element(0)
    assert lowest_element(mask(3, 5)) == 3


NEGATIVE_MASK_CALLS = """
from sparsepaving.bitset import (
    bits, elements, format_set, iter_elements, lowest_element, positions, subsets,
)
calls = [
    lambda: format_set(-1),
    lambda: elements(-5),
    lambda: list(iter_elements(-1)),
    lambda: bits(-1),
    lambda: list(subsets(-1, 2)),
    lambda: lowest_element(-4),
    lambda: positions(-1),
]
for call in calls:
    try:
        print(call())
    except ValueError as e:
        print(e)
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_limited(code: str) -> subprocess.CompletedProcess:
    """Run code in a child process under a 1 GiB address-space limit and a 10 s timeout."""
    src = str(Path(sparsepaving.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
        preexec_fn=_limit_address_space,
    )


def test_bit_helpers_refuse_negative_masks():
    """A negative int has infinitely many set bits: walking them never ends,
    and bits(-1) grows its list until memory runs out.  So the calls run in
    a child process, under a 1 GiB address-space limit and a time limit.
    """
    out = _run_limited(NEGATIVE_MASK_CALLS)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "element-set masks are non-negative\n" * 7


# (entry, call, message): each call passes element 10**10 as an iterable,
# which as_mask would turn into a 1.25 GB mask before the range check
WIDE_ELEMENT_CALLS = [
    ("is_basis", "is_basis(uniform(4, 2), {0, W})", "set 0,W is not inside 0..3"),
    ("rank_of", "rank_of(uniform(4, 2), [W, 0])", "set 0,W is not inside 0..3"),
    (
        "bpg_vertex",
        "bpg_vertex(uniform(4, 2), [0, W], [1, 2], [3])",
        "block 0,W is not inside 0..3",
    ),
    (
        "white_moves",
        "white_moves(uniform(4, 2), [[0, 1], [2, W]], [[0, 2], [1, 3]])",
        "src member 2,W is not inside 0..3",
    ),
    (
        "graph_connected",
        'graph_connected(uniform(4, 2), "white_multiset", Multiset.from_elements([0, W]))',
        "multiset union 0,W is not inside 0..3",
    ),
    (
        "SparsePavingMatroid",
        "SparsePavingMatroid(4, 2, [{0, W}])",
        "designated set 0,W is not inside 0..3",
    ),
    ("ExplicitMatroid", "ExplicitMatroid(4, 2, [{0, W}])", "basis 0,W is not inside 0..3"),
    (
        "apply_white_move",
        "apply_white_move(uniform(4, 2), [[0, 1], [2, W]], Move(0, 1, 1, W))",
        "member 2,W is not inside 0..3",
    ),
    (
        "apply_tuple_move",
        "apply_tuple_move(uniform(4, 2), [[0, 1], [2, W]], Move(0, 1, 1, W))",
        "member 2,W is not inside 0..3",
    ),
    (
        "check_moves",
        "check_moves(uniform(4, 2), [[0, 1], [2, 3]], [[0, 1], [2, W]], [], False)",
        "dst member 2,W is not inside 0..3",
    ),
    (
        "check_block_cycle",
        "check_block_cycle(uniform(4, 2), (0, W, 2, 3), {0, W}, {2, 3})",
        "block 0,W is not inside 0..3",
    ),
]


@pytest.mark.parametrize(
    "call, message",
    [row[1:] for row in WIDE_ELEMENT_CALLS],
    ids=[row[0] for row in WIDE_ELEMENT_CALLS],
)
def test_wide_elements_are_refused_before_any_mask(call, message):
    """In a limited child, so that a mask as wide as the element fails as
    MemoryError or a timeout.
    """
    out = _run_limited(
        "from sparsepaving import ElementOutOfRange, ExplicitMatroid, Move, Multiset, "
        "SparsePavingMatroid, apply_tuple_move, apply_white_move, bpg_vertex, "
        "graph_connected, is_basis, rank_of, uniform, white_moves\n"
        "from sparsepaving.cyclic import check_block_cycle\n"
        "from sparsepaving.exchange import check_moves\n"
        "W = 10**10\n"
        "try:\n"
        f"    {call}\n"
        "except ElementOutOfRange as e:\n"
        "    print(e)\n"
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == message.replace("W", str(10**10)) + "\n"


def test_a_wide_move_element_is_refused_before_any_mask():
    """A move's elements are tested against the members they name before any
    mask is built from them; in a limited child, as above.
    """
    out = _run_limited(
        "from sparsepaving import ExchangeViolation, Move, apply_tuple_move, "
        "apply_white_move, uniform\n"
        "from sparsepaving.exchange import check_moves\n"
        "W, m, st = 10**10, uniform(4, 2), [[0, 1], [2, 3]]\n"
        "for call in (\n"
        "    lambda: apply_white_move(m, st, Move(0, 1, W, 2)),\n"
        "    lambda: apply_tuple_move(m, st, Move(0, 1, 1, W)),\n"
        "    lambda: check_moves(m, st, st, [Move(0, 1, W, 2)], True),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except ExchangeViolation as e:\n"
        "        print(e)\n"
    )
    assert (out.returncode, out.stderr) == (0, "")
    w = 10**10
    assert out.stdout == (
        f"element {w} is not in member 0 only\n"
        f"element {w} is not in member 1 only\n"
        f"element {w} is not in member 0 only\n"
    )


def test_a_bad_element_is_named_before_a_wide_one():
    for bad in ("1", 0.5):
        with pytest.raises(ValueError, match="^elements are non-negative integers$"):
            is_basis(uniform(4, 2), [10**6, bad])
        with pytest.raises(ValueError, match="^elements are non-negative integers$"):
            is_basis(uniform(4, 2), [-1, bad])
    # a negative element is a range fault, named with the wide one
    with pytest.raises(ElementOutOfRange, match="^set -1,1000000 is not inside 0..3$"):
        is_basis(uniform(4, 2), [10**6, -1])
    with pytest.raises(ElementOutOfRange, match="^set 0,1,1000000 is not inside 0..3$"):
        rank_of(uniform(4, 2), (10**6, True, 0, 10**6))


def test_negative_elements_are_range_faults():
    """The argument gate refuses a negative element as it refuses a wide one,
    with ElementOutOfRange in the gate's wording, not as_mask's ValueError.
    """
    m = uniform(4, 2)
    calls = {
        "set -1,2 is not inside 0..3": [
            lambda: is_basis(m, {-1, 2}),
            lambda: rank_of(m, [2, -1]),
            lambda: relax(SparsePavingMatroid(4, 2, [{0, 1}]), {-1, 2}),
        ],
        "designated set -1,2 is not inside 0..3": [lambda: SparsePavingMatroid(4, 2, [{-1, 2}])],
        "basis -1,2 is not inside 0..3": [lambda: ExplicitMatroid(4, 2, [{-1, 2}])],
        "block -1,2 is not inside 0..3": [
            lambda: gabow_cycle_any(m, {-1, 2}, {0, 1}),
            lambda: bpg_vertex(m, [-1, 2], [0, 1], [3]),
        ],
        "src member -1,2 is not inside 0..3": [
            lambda: white_moves(m, [[0, 1], [-1, 2]], [[0, 2], [1, 3]]),
            lambda: white2_path(m, [[0, 1], [-1, 2]], [[0, 2], [1, 3]]),
        ],
    }
    for message, fns in calls.items():
        for fn in fns:
            assert call_outcome(fn) == (ElementOutOfRange, message)


# -- validation ----------------------------------------------------------------


def test_named_fixtures_validate():
    validate(U24)
    validate(P44)
    assert U24.basis_count == 6
    assert P44.basis_count == 4


@pytest.mark.parametrize("fn", [basis_predicate, check_density, serialize_matroid])
def test_non_matroids_are_refused_by_type(fn):
    with pytest.raises(TypeError, match="^expected a matroid, got SimpleNamespace$"):
        fn(SimpleNamespace(n=4, r=2))


def test_matroid_reprs():
    assert repr(P44) == "SparsePavingMatroid(n=4, r=2, chset=[1,2; 0,3])"
    assert repr(U24) == "SparsePavingMatroid(n=4, r=2, chset=[])"
    assert repr(to_explicit(P44)) == "ExplicitMatroid(n=4, r=2, 4 bases)"


def test_chset_is_canonicalized():
    a = SparsePavingMatroid(4, 2, [{1, 2}, {0, 3}])
    b = SparsePavingMatroid(4, 2, [{0, 3}, {1, 2}, {1, 2}])
    assert a == b == P44
    assert a.chset == (mask(1, 2), mask(0, 3))  # ascending mask order


# what both constructors make of each input family: the canonical masks
# with their types (a bool mask stays a bool), or the error of the first
# item that is not an element set; each entry is a factory, so that a
# generator is fresh for each constructor
BOTH = ((0b0110, int), (0b1001, int))
CONSTRUCTOR_CASES = {
    "int-masks": (lambda: [0b1001, 0b0110], BOTH),
    "empty": (lambda: [], ()),
    "lists": (lambda: [[0, 3], [1, 2]], BOTH),
    "tuples": (lambda: [(2, 1), (3, 0)], BOTH),
    "sets": (lambda: [{0, 3}, frozenset({1, 2})], BOTH),
    "generator-of-iterables": (
        lambda: (range(e, e + 2) for e in (2, 0)),
        ((0b0011, int), (0b1100, int)),
    ),
    "generator-of-ints": (lambda: (0b11 << e for e in (2, 0)), ((0b0011, int), (0b1100, int))),
    "bool-mask": (lambda: [True, 0b0110], ((True, bool), (0b0110, int))),
    "bool-first-of-equal-masks": (lambda: [True, 1], ((True, bool),)),
    "int-first-of-equal-masks": (lambda: [1, True], ((1, int),)),
    "bool-elements": (lambda: [[True, 2]], ((0b0110, int),)),
    "duplicates": (lambda: [0b0110, [1, 2], (2, 1), 0b0110, 0b1001], BOTH),
    "mixed": (
        lambda: [0b1001, {1, 2}, range(2)],
        ((0b0011, int), (0b0110, int), (0b1001, int)),
    ),
    "wide-int": (lambda: [1 << 5000, 0b11], ((0b11, int), (1 << 5000, int))),
    "negative-int": (lambda: [0b0011, -1], (ValueError, "element-set masks are non-negative")),
    "negative-int-after-iterable": (
        lambda: [{0, 1}, -2],
        (ValueError, "element-set masks are non-negative"),
    ),
    "negative-element": (
        lambda: [[0, -1]],
        {
            SparsePavingMatroid: (ElementOutOfRange, "designated set -1,0 is not inside 0..3"),
            ExplicitMatroid: (ElementOutOfRange, "basis -1,0 is not inside 0..3"),
        },
    ),
    "bad-element-before-negative-int": (
        lambda: [[0, "1"], -1],
        (ValueError, "elements are non-negative integers"),
    ),
    "negative-int-before-bad-element": (
        lambda: [-1, [0, "1"]],
        (ValueError, "element-set masks are non-negative"),
    ),
    "none": (lambda: [0b11, None], (TypeError, "'NoneType' object is not iterable")),
    "float": (lambda: [1.0], (TypeError, "'float' object is not iterable")),
}


@pytest.mark.parametrize("items,want", CONSTRUCTOR_CASES.values(), ids=CONSTRUCTOR_CASES)
def test_constructors_take_masks_and_element_iterables(items, want):
    def spm_masks():
        return tuple((h, type(h)) for h in SparsePavingMatroid(4, 2, items()).chset)

    def explicit_masks():
        bases = ExplicitMatroid(4, 2, items()).bases
        return tuple(sorted(((b, type(b)) for b in bases), key=lambda p: p[0]))

    # a dict gives each constructor its own outcome: they name a member differently
    wants = want if isinstance(want, dict) else dict.fromkeys(
        (SparsePavingMatroid, ExplicitMatroid), want
    )
    assert call_outcome(spm_masks) == wants[SparsePavingMatroid]
    assert call_outcome(explicit_masks) == wants[ExplicitMatroid]


def test_validate_rejects_close_pair():
    with pytest.raises(DistanceViolation):
        validate(SparsePavingMatroid(4, 2, [{0, 1}, {0, 2}]))


def test_validate_rejects_wrong_size():
    with pytest.raises(SizeMismatch):
        validate(SparsePavingMatroid(4, 2, [{0, 1, 2}]))


def test_validate_rejects_out_of_range_member():
    with pytest.raises(ElementOutOfRange):
        validate(SparsePavingMatroid(4, 2, [{0, 5}]))


def test_validate_rejects_bad_rank():
    with pytest.raises(RankOutOfRange):
        validate(SparsePavingMatroid(3, 4, []))
    with pytest.raises(RangeError):
        validate(SparsePavingMatroid(-1, 0, []))


def test_validate_requires_a_basis():
    # the single r-subset is designated, so nothing is left
    with pytest.raises(NoBasis):
        validate(SparsePavingMatroid(1, 1, [{0}]))
    with pytest.raises(NoBasis):
        validate(SparsePavingMatroid(3, 0, [set()]))


# (n, r, chset) -> (error, message), recorded before the separation pass
# became one setdefault loop; the order in which errors win is part of it
VALIDATE_ERRORS = {
    # two close pairs, {0,1,2}~{1,2,6} and {0,3,4}~{0,3,5}: the pair whose
    # second member comes first in chset order is named
    "first-close-pair": (
        (8, 3, [{0, 1, 2}, {0, 3, 4}, {0, 3, 5}, {1, 2, 6}]),
        DistanceViolation,
        "designated sets 0,3,4 and 0,3,5 are at symmetric difference 2",
    ),
    "close-triple": (
        (6, 3, [{0, 1, 4}, {0, 1, 3}, {0, 1, 2}]),
        DistanceViolation,
        "designated sets 0,1,2 and 0,1,3 are at symmetric difference 2",
    ),
    # each member is range-checked before its size is
    "range-beats-size": (
        (4, 2, [{0, 1, 9}]),
        ElementOutOfRange,
        "designated set 0,1,9 is not inside 0..3",
    ),
    # members are checked in chset order, and an in-range mask sorts first
    "size-member-first": (
        (4, 2, [{0, 5}, {0, 1, 2}]),
        SizeMismatch,
        "designated set 0,1,2 has size 3, expected 2",
    ),
    "range-beats-close-pair": (
        (4, 2, [{0, 1}, {0, 2}, {1, 7}]),
        ElementOutOfRange,
        "designated set 1,7 is not inside 0..3",
    ),
    "size-beats-close-pair": (
        (6, 3, [{0, 1, 2}, {0, 1, 3}, {4, 5}]),
        SizeMismatch,
        "designated set 4,5 has size 2, expected 3",
    ),
    "close-pair-beats-no-basis": (
        (2, 1, [{0}, {1}]),
        DistanceViolation,
        "designated sets 0 and 1 are at symmetric difference 2",
    ),
    "size-beats-no-basis": (
        (1, 0, [{0}]),
        SizeMismatch,
        "designated set 0 has size 1, expected 0",
    ),
    "no-basis": (
        (4, 4, [{0, 1, 2, 3}]),
        NoBasis,
        "all 1 r-subsets are designated dependent",
    ),
}


@pytest.mark.parametrize("case", VALIDATE_ERRORS.values(), ids=VALIDATE_ERRORS.keys())
def test_validate_error_precedence_and_messages(case):
    (n, r, chset), error, message = case
    with pytest.raises(error) as err:
        validate(SparsePavingMatroid(n, r, chset))
    assert type(err.value) is error
    assert str(err.value) == message


def validate_by_setdefault(m):
    """validate's separation pass as it first stood, kept as the reference.

    One setdefault per (r-1)-subset: the first set in chset order with a
    subset already seen is named together with the first set that had it.
    """
    check_ground(m.n)
    if not 0 <= m.r <= m.n:
        raise RankOutOfRange(f"rank {m.r} not in 0..{m.n}")
    for h in m.chset:
        if h < 0 or h >> m.n:
            raise ElementOutOfRange(
                f"designated set {format_set(h)} is not inside 0..{m.n - 1}"
            )
        if h.bit_count() != m.r:
            raise SizeMismatch(
                f"designated set {format_set(h)} has size {h.bit_count()}, expected {m.r}"
            )
    seen = {}
    for h in m.chset:
        for e in elements(h):
            other = seen.setdefault(h ^ (1 << e), h)
            if other != h:
                raise DistanceViolation(
                    f"designated sets {format_set(other)} and {format_set(h)} "
                    "are at symmetric difference 2"
                )
    if comb(m.n, m.r) <= len(m.chset):
        raise NoBasis(f"all {len(m.chset)} r-subsets are designated dependent")


def outcome(check, m):
    try:
        check(m)
    except MatroidError as err:
        return type(err), str(err)
    return None


def test_validate_names_the_first_close_pair_not_a_neighbour():
    # {0,1,6} is the first set with a shadow already seen, {0,1} of {0,1,2},
    # two places back; {2,3,6} and {2,3,5} collide after it
    m = SparsePavingMatroid(8, 3, [{0, 1, 2}, {0, 3, 4}, {2, 3, 5}, {0, 1, 6}, {2, 3, 6}])
    assert [format_set(h) for h in m.chset] == ["0,1,2", "0,3,4", "2,3,5", "0,1,6", "2,3,6"]
    want = (
        DistanceViolation,
        "designated sets 0,1,2 and 0,1,6 are at symmetric difference 2",
    )
    assert outcome(validate, m) == outcome(validate_by_setdefault, m) == want


def test_validate_matches_the_setdefault_pass_on_random_families():
    """Same exception and message, or none, as the reference pass.

    Over a hundred families have two or more close pairs, the named pair
    not neighbours in chset; some members are out of range or of the wrong
    size, which must still win over a close pair.
    """
    rng = random.Random(20261018)
    kinds = Counter()
    for _ in range(6000):
        n = rng.randint(1, 12)
        r = rng.randint(0, n)
        pool = list(subset_masks(n, r))
        chset = rng.sample(pool, rng.randint(0, min(len(pool), 16)))
        if rng.random() < 0.15:
            chset.append(rng.randrange(1, 1 << (n + 2)))
        m = SparsePavingMatroid(n, r, chset)
        got = outcome(validate, m)
        assert got == outcome(validate_by_setdefault, m), m
        kinds[got[0] if got else None] += 1
        if got and got[0] is DistanceViolation:
            labels = [format_set(h) for h in m.chset]
            words = got[1].split()
            gap = labels.index(words[4]) - labels.index(words[2])
            pairs = itertools.combinations(m.chset, 2)
            close = sum((a ^ b).bit_count() == 2 for a, b in pairs)
            kinds["several close pairs, the named two apart"] += close >= 2 and gap > 1
    assert set(kinds) >= {None, DistanceViolation, ElementOutOfRange, SizeMismatch, NoBasis}
    assert kinds["several close pairs, the named two apart"] > 100, kinds


HIGH_RANK_VALIDATE = """
import random
from sparsepaving import SparsePavingMatroid, dual, validate
from sparsepaving.core import _one_residue
perm = list(range(4096))
random.Random(0).shuffle(perm)
m = dual(SparsePavingMatroid(4096, 2, [perm[i : i + 2] for i in range(0, 4096, 2)]))
validate(m)
print(m.r, len(m.chset), _one_residue(m.n, m.r, m.chset))
"""


def test_validate_counts_complement_shadows_at_high_rank():
    """The dual of 2,048 disjoint random 2-sets of 0..4095 has rank 4094 and
    mixed sums, so it takes the shadow pass.  Its r shadows of 512 bytes per
    set would need over 2 GB; the complements' two per set fit in 1 GiB."""
    out = _run_limited(HIGH_RANK_VALIDATE)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "4094 2048 False\n")


def test_validate_matches_the_setdefault_pass_on_one_residue_families():
    """Families whose sets share one element sum mod n skip the shadow pass.

    Residue classes, subfamilies of them on both sides of _residues'
    table rule, and their duals; a class plus one set from another class
    at symmetric difference 2, plus an out-of-range or wrong-size set of
    the same sum, and a class mod n - 1, which is not separated.  Each
    against the reference pass.
    """
    rng = random.Random(20261022)
    kinds = Counter()
    for n, r, c in [(9, 4, 0), (12, 5, 3), (13, 9, 2), (16, 3, 5), (22, 7, 3)]:
        cls = _class_masks(0, n, r, c, n)
        full = (1 << n) - 1
        for size in {len(cls), len(cls) // 2, 40, 5, 2}:
            fam = rng.sample(cls, min(size, len(cls)))
            h = rng.choice(fam)
            x = rng.choice(elements(h))
            y = rng.choice(elements(full ^ h))
            cases = {
                "class": (r, fam),
                "dual": (n - r, [full ^ s for s in fam]),
                "foreign neighbour": (r, fam + [swap(h, x, y)]),
                "outside, same sum": (r, fam + [swap(h, x, x + n)]),
                "wrong size, same sum": (r, fam + [h ^ 1]),  # element 0 toggled
            }
            for kind, (rank, sets) in cases.items():
                m = SparsePavingMatroid(n, rank, sets)
                got = outcome(validate, m)
                assert got == outcome(validate_by_setdefault, m), (kind, m)
                kinds[kind, got[0] if got else None] += 1
                if kind in ("class", "dual"):
                    assert core._one_residue(n, rank, m.chset) == (len(m.chset) > 1)
                    table = 1 << (n - n // 2) <= 2 * len(m.chset) * min(rank, n - rank)
                    kinds["table" if table else "element sums"] += 1
        # all sums c mod n - 1: the swap of 0 and n - 1 keeps the sum
        near = [s for s in subset_masks(n, r) if sum(elements(s)) % (n - 1) == c]
        m = SparsePavingMatroid(n, r, near)
        want = outcome(validate_by_setdefault, m)
        assert want[0] is DistanceViolation and outcome(validate, m) == want, (n, r)
    assert kinds["table"] and kinds["element sums"], kinds
    assert kinds["foreign neighbour", DistanceViolation] == 25, kinds
    assert kinds["outside, same sum", ElementOutOfRange] == 25, kinds
    assert kinds["wrong size, same sum", SizeMismatch] == 25, kinds


def test_residues_match_a_plain_sum_on_both_paths():
    """Sum tables ((9, 4) to (28, 5)) and element sums (the rest, (40, 36) by complement)."""
    for n, r, c in [(9, 4, 0), (22, 7, 3), (28, 5, 2), (5, 1, 4), (30, 4, 1), (40, 36, 7)]:
        sets = tuple(_class_masks(0, n, r, c, n))
        plain = [sum(e for e in range(n) if h >> e & 1) % n for h in sets]
        assert list(core._residues(n, r, sets)) == plain == [c] * len(sets), (n, r, c)
        flipped = tuple(h ^ 0b11 for h in sets)  # elements 0 and 1 traded or toggled
        plain = [sum(e for e in range(n) if h >> e & 1) % n for h in flipped]
        assert list(core._residues(n, r, flipped)) == plain, (n, r, c)


def test_one_residue_stops_at_the_first_differing_sum():
    """A class of (22, 7) takes the sum tables; a set of another sum after it
    ends the pass, so a mask past the tables' reach behind it is never read."""
    sets = tuple(_class_masks(0, 22, 7, 3, 22))
    stranger = sets[0] ^ 0b11  # elements 0 and 1 traded or toggled
    assert not core._one_residue(22, 7, (*sets, stranger, 1 << 100))
    with pytest.raises(IndexError):
        core._one_residue(22, 7, (*sets, 1 << 100))


def test_ground_size_cap():
    start = time.perf_counter()
    with pytest.raises(RangeError):
        validate(SparsePavingMatroid(10_000_000, 5_000_000, []))
    with pytest.raises(RangeError):
        explicit_validate(ExplicitMatroid(MAX_GROUND + 1, 1, [1]))
    with pytest.raises(RangeError):
        uniform(MAX_GROUND + 1, 1)
    with pytest.raises(RangeError):
        graham_sloane(MAX_GROUND + 1, 2, 0)
    with pytest.raises(RangeError):
        random_sparse_paving(MAX_GROUND + 1, 2, seed=0)
    # at the cap, C(n, r) is computed in full and NoBasis is still decided fast
    validate(uniform(MAX_GROUND, MAX_GROUND // 2))
    with pytest.raises(NoBasis):
        validate(SparsePavingMatroid(MAX_GROUND, MAX_GROUND, [(1 << MAX_GROUND) - 1]))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name,m", CORPUS, ids=[n for n, _ in CORPUS])
def test_corpus_validates(name, m):
    validate(m)
    assert m.basis_count >= 1


# labeled sparse paving families per (n, r), 1 <= n <= 7, ranks 0..n
FAMILY_COUNTS = {
    1: (1, 1),
    2: (1, 3, 1),
    3: (1, 4, 4, 1),
    4: (1, 5, 10, 5, 1),
    5: (1, 6, 26, 26, 6, 1),
    6: (1, 7, 76, 271, 76, 7, 1),
    7: (1, 8, 232, 5596, 5596, 232, 8, 1),
}


def test_sparse_paving_families_frozen():
    counts = {
        n: tuple(len(sparse_paving_families(n, r)) for r in range(n + 1)) for n in FAMILY_COUNTS
    }
    assert counts == FAMILY_COUNTS
    assert sum(map(sum, counts.values())) == 12218
    for n in range(1, 7):
        for r in range(n + 1):
            fams = sparse_paving_families(n, r)
            assert len(set(fams)) == len(fams)
            for f in fams:
                validate(SparsePavingMatroid(n, r, f))
            if n <= 5:
                # the definition, over every subfamily of the r-sets
                sets = list(subset_masks(n, r))
                want = [
                    sub
                    for k in range(len(sets))
                    for sub in itertools.combinations(sets, k)
                    if all((a ^ b).bit_count() >= 4 for a, b in itertools.combinations(sub, 2))
                ]
                assert sorted(fams) == sorted(want), (n, r)


# -- basis test, rank, closure ---------------------------------------------------


def test_is_basis_frozen():
    assert is_basis(P44, {0, 1})
    assert not is_basis(P44, {0, 3})
    assert not is_basis(P44, {0, 1, 2})
    assert is_basis(uniform(3, 0), set())
    assert is_basis(uniform(3, 3), {0, 1, 2})


def test_rank_of_frozen():
    assert rank_of(P44, {0}) == 1
    assert rank_of(P44, {0, 3}) == 1
    assert rank_of(P44, {0, 1, 2}) == 2
    assert rank_of(P44, set()) == 0


def test_closure_of_frozen():
    assert closure_of(P44, {0}) == mask(0, 3)
    assert closure_of(P44, {0, 1}) == P44.ground
    assert closure_of(P44, {0, 3}) == mask(0, 3)
    assert closure_of(U24, {0}) == mask(0)


def test_closure_is_idempotent_and_monotone():
    for _, m in with_max_n(8):
        for s in range(1 << m.n):
            c = closure_of(m, s)
            assert c & s == s
            assert closure_of(m, c) == c
            assert rank_of(m, c) == rank_of(m, s)


@pytest.mark.parametrize("name,m", with_max_n(9), ids=[n for n, _ in with_max_n(9)])
def test_rank_and_closure_match_explicit_oracle(name, m):
    """The closed forms must agree with the basis-list definitions."""
    em = to_explicit(m)
    explicit_validate(em)
    rng = random.Random(20_000 + m.n)
    subsets = range(1 << m.n) if m.n <= 7 else [
        rng.randrange(1 << m.n) for _ in range(300)
    ]
    for s in subsets:
        assert rank_of(m, s) == explicit_rank(em, s)
        assert closure_of(m, s) == closure_by_rank(em, s)


# -- distance-2 neighbors of designated sets ------------------------------------


@pytest.mark.parametrize("name,m", with_max_n(10), ids=[n for n, _ in with_max_n(10)])
def test_neighbors_of_dependent_sets_are_bases(name, m):
    # any r-set two steps from a designated set must be a basis
    for h in m.chset:
        outside = m.ground & ~h
        for e_out in range(m.n):
            if not (h >> e_out) & 1:
                continue
            for e_in in range(m.n):
                if not (outside >> e_in) & 1:
                    continue
                s = (h ^ (1 << e_out)) | (1 << e_in)
                assert is_basis(m, s)


# -- dual ------------------------------------------------------------------------


def test_dual_frozen():
    assert dual(P44) == P44
    assert dual(U24) == U24
    assert dual(SparsePavingMatroid(5, 2, [{0, 1}])) == SparsePavingMatroid(
        5, 3, [{2, 3, 4}]
    )


@pytest.mark.parametrize("name,m", CORPUS, ids=[n for n, _ in CORPUS])
def test_dual_involution(name, m):
    d = dual(m)
    validate(d)
    assert d.n == m.n and d.r == m.n - m.r
    assert len(d.chset) == len(m.chset)
    assert dual(d) == m


def test_dual_agrees_with_complement_bases():
    for _, m in with_max_n(8):
        d = dual(m)
        want = {m.ground ^ b for b in to_explicit(m).bases}
        assert to_explicit(d).bases == want


# -- minors ----------------------------------------------------------------------


def test_minor_frozen():
    got, labels = minor(P44, "delete", 3)
    assert (got.n, got.r, got.chset) == (3, 2, (mask(1, 2),))
    assert labels == (0, 1, 2)

    got, labels = minor(P44, "contract", 0)
    assert (got.n, got.r, got.chset) == (3, 1, (mask(2),))
    assert labels == (1, 2, 3)

    got, labels = minor(U24, "delete", 0)
    assert got == uniform(3, 2)


def test_minor_errors():
    with pytest.raises(ElementOutOfRange):
        minor(P44, "delete", 4)
    with pytest.raises(PreconditionViolated):
        minor(P44, "truncate", 0)


def test_explicit_minor_errors():
    em = to_explicit(P44)
    with pytest.raises(
        PreconditionViolated, match="^kind must be 'delete' or 'contract', got 'truncate'$"
    ):
        explicit_minor(em, "truncate", 0)
    with pytest.raises(ElementOutOfRange, match=r"^element 4 is not inside 0\.\.3$"):
        explicit_minor(em, "delete", 4)
    with pytest.raises(ElementOutOfRange, match=r"^element -1 is not inside 0\.\.3$"):
        explicit_minor(em, "contract", -1)


def test_minor_degenerate_fallbacks():
    # deleting a coloop behaves as contraction
    got, _ = minor(uniform(2, 2), "delete", 0)
    assert got == uniform(1, 1)
    # contracting a loop behaves as deletion
    got, _ = minor(uniform(2, 0), "contract", 0)
    assert got == uniform(1, 0)
    loopy = SparsePavingMatroid(2, 1, [{0}])
    got, _ = minor(loopy, "contract", 0)
    assert got == uniform(1, 1)


def minor_four_way(m, kind, e):
    """minor before it picked (rank, sets) once, kept as the reference."""
    if kind not in ("delete", "contract"):
        raise PreconditionViolated(f"kind must be 'delete' or 'contract', got {kind!r}")
    if not 0 <= e < m.n:
        raise ElementOutOfRange(f"element {e} is not inside 0..{m.n - 1}")
    bit = 1 << e
    having = [h for h in m.chset if h & bit]
    avoiding = [h for h in m.chset if not h & bit]
    label_map = tuple(x for x in range(m.n) if x != e)
    if kind == "delete":
        if len(avoiding) == comb(m.n - 1, m.r):
            out = SparsePavingMatroid(m.n - 1, m.r - 1, ())
        else:
            out = SparsePavingMatroid(
                m.n - 1, m.r, tuple(_drop_element(h, e) for h in avoiding)
            )
    else:
        if m.r == 0 or len(having) == comb(m.n - 1, m.r - 1):
            out = SparsePavingMatroid(
                m.n - 1, m.r, tuple(_drop_element(h, e) for h in avoiding)
            )
        else:
            out = SparsePavingMatroid(
                m.n - 1, m.r - 1, tuple(_drop_element(h, e) for h in having)
            )
    return out, label_map


def explicit_minor_four_way(em, kind, e):
    """explicit_minor before it picked (rank, sets) once, kept as the reference."""
    if kind not in ("delete", "contract"):
        raise PreconditionViolated(f"kind must be 'delete' or 'contract', got {kind!r}")
    if not 0 <= e < em.n:
        raise ElementOutOfRange(f"element {e} is not inside 0..{em.n - 1}")
    bit = 1 << e
    label_map = tuple(x for x in range(em.n) if x != e)
    if kind == "delete":
        keep = [b for b in em.bases if not b & bit]
        if keep:
            out = ExplicitMatroid(em.n - 1, em.r, (_drop_element(b, e) for b in keep))
        else:
            out = ExplicitMatroid(
                em.n - 1, em.r - 1, (_drop_element(b ^ bit, e) for b in em.bases)
            )
    else:
        cont = [b ^ bit for b in em.bases if b & bit]
        if cont:
            out = ExplicitMatroid(em.n - 1, em.r - 1, (_drop_element(b, e) for b in cont))
        else:
            out = ExplicitMatroid(
                em.n - 1, em.r, (_drop_element(b, e) for b in em.bases)
            )
    return out, label_map


def test_minors_match_the_four_way_reference():
    """Both kinds at every element, and one element off each end, of every
    sparse paving family with n <= 6, its explicit form, and the
    non-matroid families of the guard fuzz and empty families
    (explicit_minor only).  Matroid equality includes the rank.
    """
    rng = random.Random(0)
    small = small_sparse_paving(6)
    cases = [(minor, minor_four_way, m) for m in small]
    cases += [(explicit_minor, explicit_minor_four_way, to_explicit(m)) for m in small]
    for n in (1, 2, 3, 4, 5, 6) * 20:
        fam = _family(rng, n, rng.randint(0, n), 0.0)[0]
        cases.append((explicit_minor, explicit_minor_four_way, fam))
        cases.append((explicit_minor, explicit_minor_four_way, ExplicitMatroid(n, fam.r, ())))
    moved = set()
    for new, old, m in cases:
        for kind in ("delete", "contract", "truncate"):
            for e in range(-1, m.n + 1):
                want = call_outcome(old, m, kind, e)
                got = call_outcome(new, m, kind, e)
                assert got == want, (m, kind, e)
                if isinstance(want[0], (SparsePavingMatroid, ExplicitMatroid)):
                    moved.add((type(m), kind, m.r - want[0].r))
    # each function keeps and drops the rank under each kind
    assert len(moved) == 8, moved


@pytest.mark.parametrize("name,m", with_max_n(9), ids=[n for n, _ in with_max_n(9)])
def test_minor_matches_explicit_oracle(name, m):
    if m.n <= 1:
        return
    em = to_explicit(m)
    for e in range(m.n):
        for kind in ("delete", "contract"):
            got, labels = minor(m, kind, e)
            validate(got)
            want, labels2 = explicit_minor(em, kind, e)
            assert labels == labels2
            assert to_explicit(got).bases == want.bases


# -- relaxation --------------------------------------------------------------------


def test_relax_frozen():
    assert relax(P44, {0, 3}) == SparsePavingMatroid(4, 2, [{1, 2}])
    assert relax(relax(P44, {0, 3}), {1, 2}) == U24
    with pytest.raises(NotACircuitHyperplane):
        relax(P44, {0, 1})


def test_relax_shrinks_by_one_everywhere():
    for _, m in CORPUS:
        for h in m.chset[:3]:
            out = relax(m, h)
            validate(out)
            assert len(out.chset) == len(m.chset) - 1
            assert h not in out.chset


# -- two-sided swaps ----------------------------------------------------------------


def test_swap_witnesses_frozen():
    # y = 2 runs into the dependent pair {1,2}; y = 3 works on both sides
    assert swap_witnesses(P44, {0, 1}, {2, 3}, 0, {2, 3}) == mask(3)
    assert swap_witnesses(U24, {0, 1}, {2, 3}, 0, {2, 3}) == mask(2, 3)
    assert swap_witnesses(P44, {0, 1}, {2, 3}, 0, set()) == 0


def test_swap_witnesses_preconditions():
    with pytest.raises(NotBases):
        swap_witnesses(P44, {0, 3}, {2, 3}, 0, set())
    with pytest.raises(PreconditionViolated):
        swap_witnesses(P44, {0, 1}, {2, 3}, 2, {2, 3})
    with pytest.raises(PreconditionViolated):
        swap_witnesses(P44, {0, 1}, {2, 3}, 0, {1})
    with pytest.raises(ElementOutOfRange):
        swap_witnesses(P44, {0, 1}, {2, 3}, 9, {2, 3})
    with pytest.raises(TypeError, match="expected a SparsePavingMatroid, got ExplicitMatroid"):
        swap_witnesses(to_explicit(P44), {0, 1}, {2, 3}, 0, {2, 3})


def test_swap_witnesses_loses_at_most_two():
    rng = random.Random(4242)
    pool = [m for _, m in CORPUS if 0 < m.r < m.n and m.n <= 12]
    checked = 0
    while checked < 2_000:
        m = rng.choice(pool)
        b1 = rng.choice(bases_of(m))
        b2 = rng.choice(bases_of(m))
        diff = b1 & ~b2
        if not diff:
            continue
        x = rng.choice([e for e in range(m.n) if (diff >> e) & 1])
        opp = [e for e in range(m.n) if ((b2 & ~b1) >> e) & 1]
        cand = as_mask(rng.sample(opp, rng.randint(0, len(opp))))
        got = swap_witnesses(m, b1, b2, x, cand)
        assert got & ~cand == 0
        assert got.bit_count() >= cand.bit_count() - 2
        checked += 1


# -- the argument gate ---------------------------------------------------------------

EXPLICIT_P44 = to_explicit(P44)  # bases 0,1  0,2  1,3  2,3 of n = 4

# (entry point, call, fault, message): a set holding element 5, or a
# non-basis, must be refused in the gate's one wording, whatever module
# the entry point lives in
GATE_CASES = [
    ("is_basis", lambda: is_basis(P44, {0, 5}), ElementOutOfRange, "set 0,5 is not inside 0..3"),
    ("rank_of", lambda: rank_of(P44, {0, 5}), ElementOutOfRange, "set 0,5 is not inside 0..3"),
    ("closure_of", lambda: closure_of(P44, {5}), ElementOutOfRange, "set 5 is not inside 0..3"),
    ("relax", lambda: relax(P44, {1, 5}), ElementOutOfRange, "set 1,5 is not inside 0..3"),
    (
        "explicit_rank",
        lambda: explicit_rank(EXPLICIT_P44, {0, 5}),
        ElementOutOfRange,
        "set 0,5 is not inside 0..3",
    ),
    (
        "swap_witnesses",
        lambda: swap_witnesses(P44, {0, 5}, {2, 3}, 0, set()),
        ElementOutOfRange,
        "set 0,5 is not inside 0..3",
    ),
    (
        "swap_witnesses",
        lambda: swap_witnesses(P44, {0, 1}, {1, 2}, 0, set()),
        NotBases,
        "set 1,2 is not a basis",
    ),
    (
        "bpg_vertex",
        lambda: bpg_vertex(P44, {0, 1}, {2, 3}, {5}),
        ElementOutOfRange,
        "block 5 is not inside 0..3",
    ),
    (
        "white_moves",
        lambda: white_moves(P44, [{0, 1}, {2, 3}], [{0, 2}, {1, 3, 5}]),
        ElementOutOfRange,
        "dst member 1,3,5 is not inside 0..3",
    ),
    (
        "white_moves",
        lambda: white_moves(P44, [{0, 1}, {0, 3}], [{0, 1}, {0, 3}]),
        NotBases,
        "src member 0,3 is not a basis",
    ),
    (
        "white2_path",
        lambda: white2_path(EXPLICIT_P44, [{0, 5}, {2, 3}], [{0, 1}, {2, 3}]),
        ElementOutOfRange,
        "src member 0,5 is not inside 0..3",
    ),
    (
        "white2_path",
        lambda: white2_path(P44, [{0, 1}, {2, 3}], [{0, 3}, {1, 2}]),
        NotBases,
        "dst member 0,3 is not a basis",
    ),
    (
        "gabow_cycle",
        lambda: gabow_cycle(P44, {0, 1}, {2, 5}),
        ElementOutOfRange,
        "block 2,5 is not inside 0..3",
    ),
    (
        "gabow_cycle",
        lambda: gabow_cycle(P44, {0, 3}, {1, 2}),
        NotBases,
        "block 0,3 is not a basis",
    ),
    (
        "gabow_cycle_any",
        lambda: gabow_cycle_any(EXPLICIT_P44, {5}, {2}),
        ElementOutOfRange,
        "block 5 is not inside 0..3",
    ),
    (
        "gabow_cycle_any",
        lambda: gabow_cycle_any(P44, {0, 1}, {1, 2}),
        NotBases,
        "block 1,2 is not a basis",
    ),
    ("minor", lambda: minor(P44, "delete", 4), ElementOutOfRange, "element 4 is not inside 0..3"),
    (
        "explicit_minor",
        lambda: explicit_minor(EXPLICIT_P44, "contract", -1),
        ElementOutOfRange,
        "element -1 is not inside 0..3",
    ),
    (
        "minor.contract",
        lambda: minor(P44, "contract", 9),
        ElementOutOfRange,
        "element 9 is not inside 0..3",
    ),
    (
        "swap_witnesses.x",
        lambda: swap_witnesses(P44, {0, 1}, {2, 3}, 9, {2}),
        ElementOutOfRange,
        "element 9 is not inside 0..3",
    ),
    (
        "swap_witnesses.candidates",
        lambda: swap_witnesses(P44, {0, 1}, {2, 3}, 0, {2, 5}),
        ElementOutOfRange,
        "candidates 2,5 is not inside 0..3",
    ),
    (
        "graph_connected",
        lambda: graph_connected(P44, "white_multiset", s=Multiset.from_elements([0, 5])),
        ElementOutOfRange,
        "multiset union 0,5 is not inside 0..3",
    ),
    # ground sizes and ranks: the constructions, bounds and avg need an element
    ("graham_sloane", lambda: graham_sloane(0, 0), RangeError, "ground size 0 must be at least 1"),
    (
        "random_sparse_paving",
        lambda: random_sparse_paving(0, 0, seed=0),
        RangeError,
        "ground size 0 must be at least 1",
    ),
    (
        "gs_class_sizes",
        lambda: gs_class_sizes(0, 0),
        RangeError,
        "ground size 0 must be at least 1",
    ),
    ("bounds", lambda: bounds(0), RangeError, "ground size 0 must be at least 1"),
    ("bounds", lambda: bounds(5, 7), RankOutOfRange, "rank 7 not in 0..5"),
    (
        "average_ch_intervals",
        lambda: average_ch_intervals(uniform(0, 0)),
        RangeError,
        "ground size 0 must be at least 1",
    ),
    ("uniform", lambda: uniform(-1, 0), RangeError, "ground size -1 must be at least 0"),
    ("uniform", lambda: uniform(4, 5), RankOutOfRange, "rank 5 not in 0..4"),
    (
        "validate",
        lambda: validate(SparsePavingMatroid(-1, 0, [])),
        RangeError,
        "ground size -1 must be at least 0",
    ),
    (
        "validate",
        lambda: validate(SparsePavingMatroid(4, 2, [{0, 5}])),
        ElementOutOfRange,
        "designated set 0,5 is not inside 0..3",
    ),
    (
        "validate",
        lambda: validate(SparsePavingMatroid(4, 2, [{0, 1, 2}])),
        SizeMismatch,
        "designated set 0,1,2 has size 3, expected 2",
    ),
    (
        "explicit_validate",
        lambda: explicit_validate(ExplicitMatroid(-1, 0, [])),
        RangeError,
        "ground size -1 must be at least 0",
    ),
    (
        "explicit_validate",
        lambda: explicit_validate(ExplicitMatroid(4, 2, [{0, 5}])),
        ElementOutOfRange,
        "basis 0,5 is not inside 0..3",
    ),
    (
        "explicit_validate",
        lambda: explicit_validate(ExplicitMatroid(4, 2, [{0, 1}, {2}])),
        SizeMismatch,
        "basis 2 has size 1, expected 2",
    ),
]


@pytest.mark.parametrize(
    "call,fault,message",
    [case[1:] for case in GATE_CASES],
    ids=[f"{name}-{fault.__name__}" for name, _, fault, _ in GATE_CASES],
)
def test_argument_gate_words_each_fault_once(call, fault, message):
    with pytest.raises(fault) as info:
        call()
    assert type(info.value) is fault
    assert str(info.value) == message


GATE_FAULTS = {"RangeError", "RankOutOfRange", "ElementOutOfRange"}


def _raised_in(path: Path) -> list[tuple[str, str]]:
    """(enclosing def or class path, exception name) per `raise Name(...)` in path."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}{child.name}.")
                continue
            if (
                isinstance(child, ast.Raise)
                and isinstance(child.exc, ast.Call)
                and isinstance(child.exc.func, ast.Name)
            ):
                out.append((scope.rstrip("."), child.exc.func.id))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return out


def test_ground_rank_and_element_faults_are_raised_in_core_only():
    """A ground size, rank or element fault raised outside core is a second wording.

    Two stay outside on purpose: zn_census's own 4..24 range, and
    Multiset's check that each element is a non-negative int, made before
    any ground set is known.
    """
    src = Path(sparsepaving.__file__).parent
    assert GATE_FAULTS <= {exc for _, exc in _raised_in(src / "core.py")}
    outside = [
        (path.name, where, exc)
        for path in sorted(src.glob("*.py"))
        if path.name != "core.py"
        for where, exc in _raised_in(path)
        if exc in GATE_FAULTS
    ]
    assert outside == [
        ("exchange.py", "Multiset.__init__", "ElementOutOfRange"),
        ("flats.py", "zn_census", "RangeError"),
    ]


# -- explicit form -------------------------------------------------------------------


def test_to_explicit_frozen():
    assert to_explicit(P44).bases == {mask(0, 1), mask(0, 2), mask(1, 3), mask(2, 3)}
    assert len(to_explicit(U24).bases) == 6
    with pytest.raises(TooLarge):
        to_explicit(uniform(40, 20))


def test_explicit_validate_frozen():
    explicit_validate(to_explicit(P44))
    with pytest.raises(ExchangeViolation):
        explicit_validate(ExplicitMatroid(4, 2, [{0, 1}, {2, 3}]))
    with pytest.raises(EmptyBases):
        explicit_validate(ExplicitMatroid(3, 2, []))
    with pytest.raises(SizeMismatch):
        explicit_validate(ExplicitMatroid(3, 2, [{0, 1}, {2}]))
    # the rank range comes before the empty family
    with pytest.raises(RankOutOfRange, match=r"^rank 5 not in 0\.\.3$"):
        explicit_validate(ExplicitMatroid(3, 5, []))


def test_explicit_validate_matches_the_exchange_axiom_on_every_family():
    """Every nonempty family of r-subsets of a 5-set, r = 1, 2, 3, against the axiom."""
    for r in (1, 2, 3):
        pool = list(subset_masks(5, r))
        for pick in range(1, 1 << len(pool)):
            fam = {s for i, s in enumerate(pool) if pick >> i & 1}
            ok = all(
                any(a ^ (1 << x) | (1 << y) in fam for y in elements(b & ~a))
                for a in fam
                for b in fam
                for x in elements(a & ~b)
            )
            try:
                explicit_validate(ExplicitMatroid(5, r, fam))
            except ExchangeViolation:
                assert not ok, fam
            else:
                assert ok, fam


def test_explicit_rank_frozen():
    em = to_explicit(P44)
    assert explicit_rank(em, {0, 3}) == 1
    assert explicit_rank(em, {0, 1, 2}) == 2
    assert explicit_rank(em, set()) == 0


@pytest.mark.parametrize("name,m", with_max_n(8), ids=[n for n, _ in with_max_n(8)])
def test_explicit_closure_matches_rank_definition(name, m):
    """The bases attaining rank(s) give s's closure and coloops by definition.

    Outside s, e joins the closure exactly when no such basis holds it;
    inside s, e drops the rank exactly when every such basis holds it.
    """
    em = to_explicit(m)
    for s in range(1 << m.n):
        rk, reach, common = _rank_attaining(em, s)
        assert rk == explicit_rank(em, s), (name, s)
        assert em.ground & ~(reach & ~s) == closure_by_rank(em, s), (name, s)
        drops = sum(1 << e for e in range(m.n) if explicit_rank(em, s & ~(1 << e)) < rk)
        assert s & common == drops, (name, s)


@pytest.mark.parametrize("name,m", with_max_n(9), ids=[n for n, _ in with_max_n(9)])
def test_to_explicit_satisfies_exchange_axiom(name, m):
    explicit_validate(to_explicit(m))
