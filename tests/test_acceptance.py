"""Release acceptance gates.

One test per criterion, run in order; each enforces its own wall-clock
budget and prints a single timing line (visible with -s).  Everything
here is checked against definition-level oracles or independent
replays, never against the module under test alone.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
import zlib
from fractions import Fraction
from math import comb, isqrt

import sparsepaving.cyclic as cyclic_mod
from corpusdef import CORPUS, P44, bases_of, certify, replay_lands, scramble, with_max_n
from sparsepaving import (
    Multiset,
    TooLarge,
    average_ch_intervals,
    bpg_path,
    bpg_vertex,
    brute_force_order,
    ch_interval_count,
    check_density,
    cyclic_flats_of,
    find_cyclic_order,
    flat_histogram,
    gabow_cycle,
    graham_sloane,
    graph_connected,
    gs_best_class,
    gs_class_sizes,
    is_basis,
    parse_matroid,
    random_sparse_paving,
    serialize_matroid,
    swap_witnesses,
    validate,
    white2_path,
    white_moves,
    zn_census,
)
from sparsepaving.bitset import elements
from sparsepaving.exchange import check_bpg_walk


def _finish(num: int, label: str, t0: float, limit: float):
    dt = time.monotonic() - t0
    print(f"PASS criterion {num}: {label} ({dt:.1f}s < {limit:.0f}s)")
    assert dt < limit, f"criterion {num} exceeded its {limit:.0f}s budget: {dt:.1f}s"


def test_criterion_01_residue_construction_contract():
    """All residue classes on 4 <= n <= 14 validate, partition, and peak."""
    t0 = time.monotonic()
    for n in range(4, 15):
        for r in range(1, n):
            built = []
            seen: set[int] = set()
            for c in range(n):
                m = graham_sloane(n, r, c)
                validate(m)  # pairwise distance >= 4 plus at least one basis
                built.append(len(m.chset))
                seen.update(m.chset)
            total = comb(n, r)
            # partition: sizes sum to the full count and no set repeats
            assert sum(built) == total and len(seen) == total
            assert built == gs_class_sizes(n, r)
            c, size = gs_best_class(n, r)
            assert size == built[c] == max(built)
            assert size * n >= total  # pigeonhole floor
    _finish(1, "residue construction contract", t0, 60)


def test_criterion_02_dependent_set_budget():
    """|chset| <= C(n,r)/(n-r+1) across generated matroids, tight at P44."""
    t0 = time.monotonic()

    def check(m):
        assert len(m.chset) * (m.n - m.r + 1) <= comb(m.n, m.r)

    for n in range(4, 15):
        for r in range(1, n):
            for c in range(n):
                check(graham_sloane(n, r, c))
    count = 0
    for i in range(1024):
        n = 6 + i % 7
        r = 2 + (i // 7) % (n - 3)
        m = random_sparse_paving(n, r, seed=5000 + i, max_sets=comb(n, r))
        check(m)
        count += 1
    assert count >= 1000
    for _, m in CORPUS:
        check(m)
    assert len(P44.chset) * (P44.n - P44.r + 1) == comb(4, 2)  # equality case
    _finish(2, "dependent set budget", t0, 30)


def test_criterion_03_neighbor_and_swap_lemmas():
    t0 = time.monotonic()
    # every r-set two steps from a designated dependent set is a basis
    for name, m in with_max_n(12):
        for h in m.chset:
            for x in elements(h):
                for y in elements(m.ground & ~h):
                    assert is_basis(m, (h ^ (1 << x)) | (1 << y)), (name, h, x, y)

    pools = []
    for name, m in with_max_n(12, min_rank=1):
        bl = bases_of(m)
        if len(bl) >= 2:
            pools.append((m, bl))
    rng = random.Random(424242)
    checked = 0
    while checked < 10_000:
        m, bl = pools[checked % len(pools)]
        b = rng.choice(bl)
        bp = rng.choice(bl)
        if b == bp:
            continue
        only_b = elements(b & ~bp)
        a = rng.choice(only_b)
        ys = elements(bp & ~b)
        xs = rng.sample(ys, rng.randint(0, len(ys)))
        w = swap_witnesses(m, b, bp, a, set(xs))
        assert w.bit_count() >= len(xs) - 2
        # re-verify every reported witness against the definition
        for y in elements(w):
            assert is_basis(m, (b & ~(1 << a)) | (1 << y))
            assert is_basis(m, (bp & ~(1 << y)) | (1 << a))
        checked += 1
    _finish(3, "neighbor and swap lemmas", t0, 60)


def test_criterion_04_pair_graph_connectivity():
    """Pair graphs up to 1e5 vertices are connected and walkable in <= 4n."""
    t0 = time.monotonic()
    for name, m in CORPUS:
        try:
            ok, count = graph_connected(m, "bpg", cap=10**5)
        except TooLarge:
            continue  # outside the quantified range
        assert ok, f"{name}: pair graph disconnected over {count} vertices"
        if count == 0:
            continue
        bl = bases_of(m)
        disj: dict[int, list[int]] = {}
        rng = random.Random(zlib.crc32(name.encode()))

        def pick():
            while True:
                b1 = rng.choice(bl)
                if b1 not in disj:
                    disj[b1] = [b for b in bl if b & b1 == 0]
                if disj[b1]:
                    b2 = rng.choice(disj[b1])
                    return bpg_vertex(m, b1, b2, m.ground & ~(b1 | b2))

        for _ in range(100):
            u, v = pick(), pick()
            path = bpg_path(m, u, v)
            check_bpg_walk(m, path, u, v)  # also holds the walk to 4n steps
    _finish(4, "pair graph connectivity", t0, 300)


def test_criterion_05_collection_walks():
    """Both collection graphs connected on n <= 8; walks stay under 4kr."""
    t0 = time.monotonic()
    for name, m in with_max_n(8):
        bl = bases_of(m)
        rng = random.Random(zlib.crc32(name.encode()))
        for k in (2, 3):
            for _ in range(20):
                col = [rng.choice(bl) for _ in range(k)]
                s = Multiset.from_elements(
                    e for b in col for e in elements(b)
                )
                ok, _count = graph_connected(m, "white_multiset", s=s)
                ok2, _count2 = graph_connected(m, "white_tuple", s=s)
                assert ok and ok2, (name, k, col)

                dst = scramble(m, rng, col, 3 * k)
                moves = white_moves(m, col, dst)
                assert len(moves) <= 4 * k * m.r
                assert replay_lands(m, col, dst, moves, ordered=False)

                moves2 = white2_path(m, col, dst)
                assert len(moves2) <= 4 * k * m.r
                assert replay_lands(m, col, dst, moves2, ordered=True)
    _finish(5, "collection exchange walks", t0, 600)


def test_criterion_06_interval_average():
    """Closed-form window average matches full enumeration; < 2 when 2r <= n."""
    t0 = time.monotonic()
    for name, m in with_max_n(7):
        total = 0
        count = 0
        for perm in itertools.permutations(range(1, m.n)):
            total += ch_interval_count(m, (0, *perm))
            count += 1
        assert average_ch_intervals(m) == Fraction(total, count), name
    for name, m in CORPUS:
        if 2 * m.r <= m.n:
            assert average_ch_intervals(m) < 2, name
    assert average_ch_intervals(P44) == Fraction(4, 3)
    _finish(6, "window average formula", t0, 60)


def test_criterion_07_cyclic_order_characterization():
    t0 = time.monotonic()
    # exhaustive oracle range: search, brute force, and density must agree
    for name, m in with_max_n(9):
        found = find_cyclic_order(m)
        brute = brute_force_order(m)
        dense, _wit = check_density(m)
        assert (found is not None) == (brute is not None) == dense, name
        for order in (found, brute):
            if order is not None:
                assert sorted(order) == list(range(m.n))
                assert ch_interval_count(m, order) == 0, name
    # larger instances: the search must still land a verified witness
    for name, m in CORPUS:
        if 10 <= m.n <= 16 and m.r >= 3 and m.n - m.r >= 3:
            order = find_cyclic_order(m)
            assert order is not None, name
            assert sorted(order) == list(range(m.n))
            assert ch_interval_count(m, order) == 0, name
    _finish(7, "cyclic order characterization", t0, 300)


def test_criterion_08_disjoint_pair_cycles():
    """Every sampled disjoint pair yields a verified two-block cycle fast."""
    t0 = time.monotonic()
    recorded: list[int] = []
    original = cyclic_mod._problem_positions

    def spy(m, b, c):
        out = original(m, b, c)
        recorded.append(len(out or ()))
        return out

    cyclic_mod._problem_positions = spy
    try:
        for name, m in CORPUS:
            if m.n != 2 * m.r or m.n > 16:
                continue
            r = m.r
            bl = bases_of(m)
            pairs = [(b, m.ground & ~b) for b in bl if is_basis(m, m.ground & ~b)]
            rng = random.Random(zlib.crc32(name.encode()))
            if len(pairs) > 1000:
                pairs = rng.sample(pairs, 1000)
            for b1, b2 in pairs:
                recorded.clear()
                cyc = gabow_cycle(m, b1, b2)
                assert sorted(cyc) == list(range(m.n))
                first = 0
                for e in cyc[:r]:
                    first |= 1 << e
                assert first == b1  # block structure: b1 then b2
                assert ch_interval_count(m, cyc) == 0
                # each accepted repair strictly shrinks the bad-window
                # list, so the first recorded length bounds the rounds
                bound = max(r - 1, 1)
                assert recorded and recorded[0] <= bound, (name, recorded)
                assert len(recorded) <= 1 + 3 * bound, (name, recorded)
    finally:
        cyclic_mod._problem_positions = original
    _finish(8, "disjoint pair cycles", t0, 300)


def test_criterion_09_cyclic_flat_counts():
    t0 = time.monotonic()
    for name, m in with_max_n(12):
        assert sorted(cyclic_flats_of(m)) == certify.cyclic_flats(certify.Spm.of(m)), name
    for name, m in CORPUS:
        flats = cyclic_flats_of(m)
        hist = flat_histogram(flats)
        n = m.n
        assert sum(a * (i + 1) for i, a in hist.items()) <= 2**n, name
        assert sum(a * (n - i + 1) for i, a in hist.items()) <= 2**n, name
        assert len(flats) <= Fraction(2 ** (n + 1), n + 2), name

    for n in range(4, 21):
        q = isqrt(4 ** (n - 1) // n**3)
        while q * q * n**3 < 4 ** (n - 1):
            q += 1
        low, high = q + 2, (2 ** (n + 1)) // (n + 2)
        report = zn_census(n)
        assert low <= report.lower_bound <= high, n
    assert zn_census(8).lower_bound >= 11
    _finish(9, "cyclic flat counts and census", t0, 120)


def test_criterion_10_round_trip_and_determinism(tmp_path):
    t0 = time.monotonic()
    for name, m in CORPUS:
        assert parse_matroid(serialize_matroid(m)) == m, name

    f = tmp_path / "p44.txt"
    f.write_text(serialize_matroid(P44))
    g = tmp_path / "gs.txt"
    g.write_text(serialize_matroid(graham_sloane(8, 4, gs_best_class(8, 4)[0])))

    def run(args):
        out = subprocess.run(
            [sys.executable, "-m", "sparsepaving.cli", *args],
            capture_output=True,
        )
        return out.returncode, out.stdout

    fixed = [
        ["gen", "gs", "--n", "10", "--r", "4"],
        ["gen", "random", "--n", "10", "--r", "4", "--target", "12", "--seed", "7"],
        ["order", "cyclic", str(f)],
        ["conj", "farber", str(f)],
        ["flats", str(g)],
        ["census", "--n", "12"],
    ]
    for args in fixed:
        code1, out1 = run(args)
        code2, out2 = run(args)
        assert code1 == code2 == 0, args
        assert out1 == out2, args
    _finish(10, "round trip and determinism", t0, 30)
