import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from subadd import toric as tc
from subadd.surface import InvalidParametersError

from _oracles import (
    brute_coordinate_steps,
    brute_multiplier_members,
    dominance_minimal,
    fm_product_split,
    generic_newton_facets,
    in_minkowski_interior_fm,
    in_polyhedron_fm,
    minimal_steps,
    product_failures,
    rank_vertices,
)


class TestToricRing:
    def test_membership(self, q41_ring):
        assert q41_ring.semigroup_contains((0, 0, 0))
        assert q41_ring.semigroup_contains((8, 1, 1))
        assert not q41_ring.semigroup_contains((1, 0, 0))
        assert not q41_ring.semigroup_contains((-41, 0, 0))
        assert q41_ring.contains((-41, 0, 0))

    def test_index(self, q41_ring):
        assert q41_ring.index == 41
        assert tc.ToricRing(3).index == 1
        assert tc.cyclic_quotient_ring(2, (1, 1, 0)).index == 2

    def test_minimal_steps_full_lattice(self):
        ring = tc.ToricRing(2)
        assert set(minimal_steps(ring)) == {(1, 0), (0, 1)}

    def test_minimal_steps_are_irreducible(self, q41_ring):
        steps = minimal_steps(q41_ring)
        assert all(q41_ring.semigroup_contains(s) for s in steps)
        assert dominance_minimal(steps) == set(steps)
        # no step dominates another
        for s in steps:
            for t in steps:
                if s != t:
                    assert not all(a <= b for a, b in zip(s, t))

    @pytest.mark.parametrize(
        "ring",
        [
            tc.ToricRing(3, [((1, 2, 0), 3), ((0, 1, 1), 2), ((1, 0, 3), 4)]),
            tc.cyclic_quotient_ring(5, (1, 2, 3, 4)),
        ],
        ids=["three-congruences", "rank-4"],
    )
    def test_minimal_steps_match_brute_scan(self, ring):
        box = itertools.product(range(ring.index + 1), repeat=ring.rank)
        brute = dominance_minimal(v for v in box if any(v) and ring.semigroup_contains(v))
        assert set(minimal_steps(ring)) == brute

    def test_coordinate_steps(self, q41_ring):
        assert q41_ring.coordinate_steps == (1, 1, 1)
        assert tc.cyclic_quotient_ring(4, (1, 2, 2)).coordinate_steps == (2, 1, 1)

    def test_index_and_coordinate_steps_match_brute_scan(self):
        # M contains L * Z^rank for L the lcm of the moduli, so the box
        # [0, L)^rank holds L^rank / index lattice points, and every
        # coordinate step is at most L
        rng = random.Random(609)
        for rank, count in itertools.product(range(1, 5), range(4)):
            for _ in range(2):
                congs = []
                for _ in range(count):
                    r = rng.randint(2, 4)
                    congs.append((tuple(rng.randrange(r) for _ in range(rank)), r))
                ring = tc.ToricRing(rank, congs)
                period = math.lcm(*(r for _, r in congs)) if congs else 1
                box = list(itertools.product(range(period + 1), repeat=rank))
                inside = [v for v in box if ring.contains(v)]
                assert ring.index * sum(max(v) < period for v in inside) == period**rank
                assert ring.coordinate_steps == brute_coordinate_steps(ring), ring

    @pytest.mark.parametrize(
        "congs, index",
        [
            ([((1, 1, 1), 10**21)], 10**21),
            ([((1, 2, 3), 4000), ((3, 1, 1), 3001)], 12_004_000),
        ],
        ids=["modulus-1e21", "two-congruences"],
    )
    def test_index_and_coordinate_steps_of_large_rings_are_fast(self, congs, index):
        t0 = time.perf_counter()
        ring = tc.ToricRing(3, congs)
        assert (ring.index, ring.coordinate_steps) == (index, (1, 1, 1))
        assert time.perf_counter() - t0 < 1.0

    def test_hermite_basis_is_reduced(self):
        # upper triangular with positive pivots, and every entry above a
        # pivot in [0, pivot): the coset solve keeps a unit pivot's axis
        # one-dimensional only because the entries above it are zero
        rng = random.Random(1906)
        for rank, count in itertools.product(range(1, 6), range(4)):
            for _ in range(4):
                congs = []
                for _ in range(count):
                    r = rng.randint(2, 12)
                    congs.append((tuple(rng.randrange(r) for _ in range(rank)), r))
                basis = tc.ToricRing(rank, congs).hermite_basis
                for i, row in enumerate(basis):
                    assert row[:i] == (0,) * i and row[i] > 0, basis
                    assert all(0 <= basis[l][i] < row[i] for l in range(i)), basis

    def test_hermite_basis_refuses_past_desk_scale(self):
        with pytest.raises(tc.OutOfScaleError):
            tc.ToricRing(250).coordinate_steps

    def test_minimal_steps_refuses_before_allocating(self, monkeypatch):
        # 10^8 columns: the oracle refuses before testing any point
        def no_scan(ring, v):
            raise AssertionError("column scanned")

        monkeypatch.setattr(tc.ToricRing, "contains", no_scan)
        with pytest.raises(ValueError, match="scan cap"):
            minimal_steps(tc.ToricRing(3, [((1, 1, 1), 10**4)]))

    def test_json_roundtrip(self, q41_ring):
        assert tc.ToricRing.from_json_dict(q41_ring.to_json_dict()) == q41_ring

    def test_a_ring_is_its_lattice(self):
        # v1 + v2 + v3 = 0 mod 3 and 2(v1 + v2 + v3) = 0 mod 3 cut out one
        # lattice, so the two presentations are one ring
        one = tc.ToricRing(3, [((1, 1, 1), 3)])
        two = tc.ToricRing(3, [((2, 2, 2), 3)])
        assert one.congruences != two.congruences
        assert one == two and hash(one) == hash(two) and len({one, two}) == 1
        assert one != tc.ToricRing(3, [((1, 2, 0), 3)])
        assert one != tc.ToricRing(3) and tc.ToricRing(2) != tc.ToricRing(3)

    def test_gorenstein_predicate(self):
        assert tc.is_gorenstein_cyclic(10, (7, 7, 6))
        assert not tc.is_gorenstein_cyclic(41, (35, 28, 20))


class TestLatticeCoset:
    def test_matches_brute_force(self):
        rng = random.Random(608)
        for rank, count in itertools.product(range(1, 5), range(4)):
            for _ in range(2):
                congs = []
                for _ in range(count):
                    r = rng.randint(2, 6)
                    congs.append((tuple(rng.randrange(r) for _ in range(rank)), r))
                ring = tc.ToricRing(rank, congs)
                m = rank - 1
                period = math.lcm(*(r for _, r in congs)) if congs else 1
                # the whole grid, and a window of it as one engine block sees
                for spans in ([range(9)] * m, [range(4, 9), *[range(5)] * (m - 1)][:m]):
                    z, step, solvable = tc._lattice_coset(ring, spans)
                    lens = tuple(map(len, spans))
                    assert all(n in (1, k) for n, k in zip(np.shape(z), lens[m - np.ndim(z):]))
                    assert all(
                        n in (1, k) for n, k in zip(np.shape(solvable), lens[m - np.ndim(solvable):])
                    )
                    z = np.broadcast_to(z, lens)
                    solvable = np.broadcast_to(solvable, lens)
                    assert step == next(
                        z for z in range(1, period + 1) if ring.contains((0,) * m + (z,))
                    )
                    for cell in itertools.product(*map(range, lens)):
                        prefix = tuple(r[i] for r, i in zip(spans, cell))
                        lowest = next(
                            (z for z in range(period) if ring.contains(prefix + (z,))), -1
                        )
                        assert solvable[cell] == (lowest >= 0), (ring, prefix)
                        if lowest >= 0:
                            assert z[cell] % step == lowest, (ring, prefix)

    @pytest.mark.parametrize(
        "ring",
        [tc.ToricRing(3, [((1, 1, 0), 2)]), tc.ToricRing(4, [((0, 1, 1, 0), 3)])],
        ids=["pivot-2-rank-3", "pivot-3-rank-4"],
    )
    def test_non_unit_prefix_pivot_masks_prefixes(self, ring):
        # a prefix pivot above 1 leaves prefixes with no lattice point over
        # them; with unit pivots the mask stays a 0-d True
        side = 7
        z, step, solvable = tc._lattice_coset(ring, [range(side)] * (ring.rank - 1))
        solvable = np.broadcast_to(solvable, (side,) * (ring.rank - 1))
        assert solvable.any() and not solvable.all()
        for prefix in itertools.product(range(side), repeat=ring.rank - 1):
            over = [x for x in range(step) if ring.contains(prefix + (x,))]
            assert bool(solvable[prefix]) == bool(over)
        q41 = tc.cyclic_quotient_ring(41, (35, 28, 20))
        assert tc._lattice_coset(q41, [range(side)] * 2)[2].ndim == 0

    def test_rank_1_builds_no_axis(self, monkeypatch):
        # at rank 1 the side reaches 3^25, which no array could hold
        def refuse(*args, **kwargs):
            raise AssertionError("a range of the side was built")

        ring = tc.ToricRing(1, [((1,), 3**25)])
        monkeypatch.setattr(tc.np, "arange", refuse)
        z, step, solvable = tc._lattice_coset(ring, [])
        assert (z.shape, int(z), step, solvable.shape, bool(solvable)) == ((), 0, 3**25, (), True)

    def test_int64_guard(self):
        ring = tc.ToricRing(1, [((1,), 10**21)])
        with pytest.raises(tc.OutOfScaleError, match="64-bit"):
            tc._lattice_coset(ring, [])


class TestStaircase:
    @pytest.mark.parametrize("ndim", range(4))
    def test_mask_matches_dominance_oracle(self, ndim):
        # values in [0, 4] tie often; 5 marks a prefix with no member
        rng = np.random.default_rng(811 + ndim)
        for _ in range(40):
            shape = tuple(int(x) for x in rng.integers(1, 6, size=ndim))
            col = np.asarray(rng.integers(0, 5, size=shape), dtype=np.int64)
            col[np.asarray(rng.random(shape) < 0.2)] = 5
            low, keep = tc._staircase(col)
            cells = list(itertools.product(*map(range, shape)))
            below = {x: [y for y in cells if all(a <= b for a, b in zip(y, x))] for x in cells}
            assert all(low[x] == min(col[y] for y in below[x]) for x in cells)
            pts = [(*x, int(col[x])) for x in cells if col[x] < 5]
            kept = {(*x, int(col[x])) for x in cells if keep[x] and col[x] < 5}
            assert kept == dominance_minimal(pts), col


class TestSortedRows:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_key_sort(self, rank):
        # entries in [0, 4) give many equal sums and repeated rows; the
        # keys are built here, one row at a time, and by the engine's encoder
        rng = np.random.default_rng(905 + rank)
        side, m = 4, rank - 1
        for count in (0, 1, 7, 300):
            rows = np.asarray(rng.integers(0, side, size=(count, rank)), dtype=np.int64)
            keys = [sum(g) * side**m + sum(x * side ** (m - 1 - i) for i, x in enumerate(g[:m]))
                    for g in map(tuple, rows.tolist())]
            pos = tuple(rows[:, :m].T)
            assert tc._row_keys(rows.sum(axis=1), pos, side).tolist() == keys
            out = tc._rows_from_keys(np.array(keys, dtype=np.int64), side, m)
            expected = sorted(map(tuple, rows.tolist()), key=lambda g: (sum(g), g))
            assert out.shape == (count, rank)
            assert list(map(tuple, out.tolist())) == expected


class TestMonomialIdeal:
    def test_rows_and_generators_are_built_once_from_each_other(self, q41_ideal):
        # an engine ideal holds the engine's array and builds tuples on
        # first use; an ideal built from tuples derives its array once
        j = tc.multiplier_monomials(q41_ideal, 1)
        assert "generators" not in vars(j)
        assert j.rows.dtype == np.int64 and not j.rows.flags.writeable
        assert j.generators == tuple(map(tuple, j.rows.tolist()))
        assert j.generators is j.generators
        ideal = tc.MonomialIdeal(q41_ideal.ring, q41_ideal.generators)
        assert "rows" not in vars(ideal)
        assert ideal.rows is ideal.rows and not ideal.rows.flags.writeable
        assert ideal.rows.tolist() == list(map(list, ideal.generators))

    def test_minimalization(self):
        ring = tc.ToricRing(2)
        ideal = tc.MonomialIdeal(ring, [(2, 0), (3, 1), (0, 2)])
        assert ideal.generators == ((0, 2), (2, 0))
        # shuffled inputs on both paths (more than 64 distinct points
        # takes the array path) come back sorted by (sum, coordinates)
        rng = random.Random(260)
        ring3 = tc.ToricRing(3)
        for n in (40, 300):
            # near the plane of sum 16, so many points are minimal
            pts = set()
            while len(pts) < n:
                a, b = rng.randint(0, 12), rng.randint(0, 12)
                pts.add((a, b, max(0, 16 - a - b) + rng.randint(0, 2)))
            pts = list(pts)
            rng.shuffle(pts)
            want = sorted(dominance_minimal(pts), key=lambda g: (sum(g), g))
            assert list(tc.MonomialIdeal(ring3, pts).generators) == want

    def test_semigroup_validation(self, q41_ring):
        with pytest.raises(InvalidParametersError):
            tc.MonomialIdeal(q41_ring, [(1, 0, 0)])

    def test_membership(self, q41_ring):
        ideal = tc.MonomialIdeal(q41_ring, [(8, 1, 1)])
        assert ideal.membership((8, 1, 1))
        assert ideal.membership((16, 2, 2))
        # above the generator but the difference leaves the lattice
        assert not ideal.membership((9, 1, 1))
        assert not ideal.membership((0, 0, 0))

    def test_membership_needs_a_vector_of_the_rank(self):
        # zip would truncate (2, 0, 0, 5) to a member
        ideal = tc.MonomialIdeal(tc.ToricRing(3), [(2, 0, 0)])
        assert ideal.membership((2, 0, 0)) and not ideal.membership((1, 5, 5))
        for v in [(2, 0, 0, 5), (2, 0), (1, 0)]:
            with pytest.raises(ValueError, match="length must equal rank"):
                ideal.membership(v)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: tc.MonomialIdeal(tc.ToricRing(3), [(2.9, 0, 0)]),
            lambda: tc.MonomialIdeal(tc.ToricRing(3), [(True, 0, 0)]),
            lambda: tc.ToricRing(3, [((1.7, 1, 1), 2)]),
            lambda: tc.ToricRing(3, [((1, 1, 1), True)]),
            lambda: tc.ToricRing(True),
        ],
        ids=["float entry", "bool entry", "float weight", "bool modulus", "bool rank"],
    )
    def test_non_integers_are_rejected(self, build):
        with pytest.raises(InvalidParametersError):
            build()

    def test_numpy_integers_are_integers(self):
        ring = tc.ToricRing(3, [(np.array([1, 1, 0]), 2)])
        ideal = tc.MonomialIdeal(ring, np.array([[2, 0, 0], [1, 1, 4]]))
        assert ideal.generators == ((2, 0, 0), (1, 1, 4))
        assert {type(x) for x in ideal.generators[1] + ring.congruences[0][0]} == {int}

    def test_product_and_power(self):
        ring = tc.ToricRing(2)
        a = tc.MonomialIdeal(ring, [(1, 0), (0, 1)])
        unit = tc.MonomialIdeal.unit(ring)
        assert tc.ideal_product(a, unit) == a
        assert tc.ideal_power(a, 2).generators == ((0, 2), (1, 1), (2, 0))

    def test_ring_mismatch(self, q41_ring):
        a = tc.MonomialIdeal(q41_ring, [(8, 1, 1)])
        b = tc.MonomialIdeal.unit(tc.ToricRing(3))
        with pytest.raises(tc.RingMismatchError):
            tc.ideal_product(a, b)


class TestNewtonPolyhedron:
    def test_orthant(self):
        ring = tc.ToricRing(3)
        poly = tc.MonomialIdeal.unit(ring).newton_polyhedron()
        assert set(poly.facets) == {
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((0, 0, 1), 0),
        }

    def test_plane_example(self):
        ring = tc.ToricRing(2)
        poly = tc.MonomialIdeal(ring, [(2, 0), (0, 2)]).newton_polyhedron()
        assert set(poly.facets) == {((1, 0), 0), ((0, 1), 0), ((1, 1), 2)}
        assert set(poly.vertices) == {(2, 0), (0, 2)}

    def test_key_facet(self, q41_ideal):
        poly = q41_ideal.newton_polyhedron()
        assert ((35, 28, 20), 328) in poly.facets
        tight = [
            g
            for g in q41_ideal.generators
            if 35 * g[0] + 28 * g[1] + 20 * g[2] == 328
        ]
        assert sorted(tight) == [(4, 1, 8), (4, 6, 1), (8, 1, 1)]
        assert set(poly.vertices) == set(q41_ideal.generators)

    def test_generators_satisfy_all_facets(self, q41_ideal):
        poly = q41_ideal.newton_polyhedron()
        for g in q41_ideal.generators:
            assert poly.contains(g)

    def test_vertices_regenerate_hull(self, q41_ideal):
        ring = q41_ideal.ring
        poly = q41_ideal.newton_polyhedron()
        again = tc.MonomialIdeal(ring, poly.vertices).newton_polyhedron()
        assert set(again.facets) == set(poly.facets)

    def test_matches_fm_oracle_randomized(self):
        rng = random.Random(601)
        for _ in range(20):
            rank = rng.choice([2, 3])
            ring = tc.ToricRing(rank)
            gens = {
                tuple(rng.randint(0, 6) for _ in range(rank))
                for _ in range(rng.randint(1, 4))
            }
            ideal = tc.MonomialIdeal(ring, gens)
            poly = ideal.newton_polyhedron()
            for _ in range(20):
                v = tuple(rng.randint(0, 8) for _ in range(rank))
                assert poly.contains(v) == in_polyhedron_fm(ideal.generators, v)
                assert tc.in_interior(poly, v, 1) == in_polyhedron_fm(
                    ideal.generators, v, strict=True
                )

    def test_rank3_and_generic_paths_agree(self):
        # the vectorised enumerator against the pure-Python reference
        rng = random.Random(602)
        for rank in (1, 2, 3, 4):
            for _ in range(12):
                gens = tuple(
                    sorted(
                        {
                            tuple(rng.randint(0, 7) for _ in range(rank))
                            for _ in range(rng.randint(1, 6))
                        }
                    )
                )
                assert set(tc._newton_facets(rank, gens)) == generic_newton_facets(rank, gens)

    @pytest.mark.parametrize("rank", [5, 6])
    def test_matches_generic_oracle_at_ranks_5_and_6(self, rank):
        # the Leibniz tables of these ranks against cofactor expansion
        # in Python integers
        rng = random.Random(612 + rank)
        for _ in range(6):
            gens = tuple(
                sorted(
                    {
                        tuple(rng.randint(0, 6) for _ in range(rank))
                        for _ in range(rng.randint(1, 7 - rank // 2))
                    }
                )
            )
            facets = tc._newton_facets(rank, gens)
            assert set(facets) == generic_newton_facets(rank, gens), gens
            assert list(facets) == sorted(facets)

    @pytest.mark.parametrize(
        "gens",
        [
            ((0, 916015, 2), (3, 0, 916015), (495626, 804922, 550654), (916015, 2, 0)),
            (
                (0, 1, 20936, 0), (0, 2, 2, 20936), (0, 20936, 1, 1),
                (10825, 14577, 11748, 15439), (20936, 1, 0, 3),
            ),
        ],
        ids=["rank-3", "rank-4"],
    )
    def test_exact_just_under_the_int64_guard(self, gens):
        # the largest entry is the largest big with rank! big^rank < 2^62;
        # near-axis points and one inner point give primitive normals of
        # about big^(rank-1) and offsets of about big^rank, past 2^57
        rank, big = len(gens[0]), max(map(max, gens))
        assert math.factorial(rank) * big**rank < 2**62 <= math.factorial(rank) * (big + 1) ** rank
        facets = tc._newton_facets(rank, gens)
        assert set(facets) == generic_newton_facets(rank, gens)
        assert max(b for _, b in facets) > 2**57
        with pytest.raises(tc.OutOfScaleError, match="64-bit"):
            tc._newton_facets(rank, gens + ((big + 1,) * rank,))

    def test_same_facets_across_many_blocks(self, monkeypatch):
        # 100 entries hold one to four candidates at ranks 1 to 4 (a
        # rank-4 candidate needs 72 gather entries alone); rank 5 needs
        # 480 per candidate, past the block, and is refused
        rng = random.Random(613)
        cases = [
            tuple(sorted({tuple(rng.randint(0, 7) for _ in range(rank)) for _ in range(5)}))
            for rank in (1, 2, 3, 4)
            for _ in range(4)
        ]
        expected = [tc._newton_facets.__wrapped__(len(g[0]), g) for g in cases]
        monkeypatch.setattr(tc, "_FACET_BLOCK", 100)
        assert [tc._newton_facets.__wrapped__(len(g[0]), g) for g in cases] == expected
        with pytest.raises(tc.OutOfScaleError, match="Leibniz"):
            tc._newton_facets.__wrapped__(5, ((1, 2, 3, 4, 5),))

    def test_block_bounds_the_gather(self, monkeypatch):
        # at rank 6 one candidate's gather holds 6 * 5! * 5 = 3600
        # entries against 44 for its rows; a block that left the gather
        # out of its budget would take 1489 candidates, 43 MB of gather
        gens = ((0, 0, 1, 2, 3, 4), (1, 0, 4, 0, 2, 1), (2, 3, 0, 1, 0, 0), (3, 1, 1, 0, 1, 2),
                (4, 4, 0, 0, 0, 1), (0, 2, 2, 2, 0, 0), (1, 1, 1, 1, 1, 0), (0, 5, 0, 3, 1, 1))
        expected = tc._newton_facets.__wrapped__(6, gens)
        monkeypatch.setattr(tc, "_FACET_BLOCK", 1 << 16)
        tracemalloc.start()
        try:
            assert tc._newton_facets.__wrapped__(6, gens) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * (1 << 16), peak

    def test_vertices_match_rank_oracle(self):
        # incidence-matrix vertices against the integer rank of the
        # tight normals; scaled points leave room for generators on
        # edges, inside facets and interior to Newt
        rng = random.Random(603)
        kinds = set()
        for rank in (1, 2, 3, 4):
            for _ in range(25):
                base = [
                    tuple(6 * rng.randint(0, 4) for _ in range(rank))
                    for _ in range(rng.randint(1, 5))
                ]
                gens = set(base)
                for _ in range(3):
                    u, w, z = (rng.choice(base) for _ in range(3))
                    gens.add(tuple((x + y) // 2 for x, y in zip(u, w)))
                    gens.add(tuple((x + y + t) // 3 for x, y, t in zip(u, w, z)))
                    gens.add(tuple((x + y) // 2 + 1 for x, y in zip(u, w)))
                ideal = tc.MonomialIdeal(tc.ToricRing(rank), gens)
                poly = ideal.newton_polyhedron()
                expected = rank_vertices(
                    ideal.generators, generic_newton_facets(rank, ideal.generators)
                )
                assert set(poly.vertices) == expected, (rank, ideal.generators)
                kinds.add((rank, len(expected) < len(ideal.generators)))
        # every rank above 1 has non-vertex generators in its sample
        assert kinds >= {(2, True), (3, True), (4, True)}

    def test_int64_guard_raises_out_of_scale(self):
        # 3! * big^3 passes 2^62 once big reaches about 9.2 * 10^5
        gens = ((2 * 10**6, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(tc.OutOfScaleError):
            tc._newton_facets(3, gens)
        assert tc._newton_facets(3, ((9 * 10**5, 0, 0), (0, 1, 0), (0, 0, 1)))


class TestMinkowskiOracle:
    """The joint-variable Minkowski oracle against the plain FM oracle
    on the product generators: same question, m * k - 1 variables."""

    A1_LINE_A = [(2, 0, 2), (2, 2, 0)]
    A1_LINE_B = [(2, 0, 0), (1, 1, 1)]

    def test_matches_product_generators(self):
        rng = random.Random(604)

        def gens(size):
            return [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(size)]

        pairs = [(self.A1_LINE_A, self.A1_LINE_B)]
        pairs += [(gens(m), gens(k)) for m, k in [(1, 3), (2, 2), (2, 3), (3, 2)]]
        outcomes = set()
        for gens_a, gens_b in pairs:
            product = [tuple(x + y for x, y in zip(g, h)) for g in gens_a for h in gens_b]
            points = {(4, 2, 1), (3, 2, 1)}
            for g in product:
                # a product generator, its unit neighbours and g + (1,1,1)
                # straddle the boundary
                points.add(tuple(x + 1 for x in g))
                for d in range(3):
                    for step in (-1, 0, 1):
                        points.add(tuple(x + step * (i == d) for i, x in enumerate(g)))
            points |= {tuple(rng.randint(0, 11) for _ in range(3)) for _ in range(20)}
            for v in points:
                inside = in_minkowski_interior_fm(gens_a, gens_b, v)
                assert inside == in_polyhedron_fm(product, v, strict=True), (gens_a, gens_b, v)
                outcomes.add((inside, in_polyhedron_fm(product, v)))
        # strictly inside, on the boundary, and outside all occur
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_product_split_on_a1_line(self):
        ring = tc.cyclic_quotient_ring(2, (1, 1, 0))
        a, b = self.A1_LINE_A, self.A1_LINE_B
        # (4,0,1) = (2,0,1) + (2,0,0) lies in J(a) J(b); (3,1,0) does not
        assert fm_product_split(ring, a, b, (4, 0, 1)) == (2, 0, 1)
        assert fm_product_split(ring, a, b, (3, 1, 0)) is None
        assert in_minkowski_interior_fm(a, b, (4, 2, 1))


class TestInterior:
    def test_worked_points(self, q41_ideal):
        poly = q41_ideal.newton_polyhedron()
        assert tc.in_interior(poly, (11, 4, 8), 2)
        assert not tc.in_interior(poly, (3, 3, 7), 1)

    def test_positive_point_in_orthant(self):
        poly = tc.MonomialIdeal.unit(tc.ToricRing(3)).newton_polyhedron()
        assert tc.in_interior(poly, (1, 1, 1), 1)
        assert not tc.in_interior(poly, (0, 1, 1), 1)


class TestMultiplier:
    def test_unit_ideal(self):
        for ring in (tc.ToricRing(3), tc.cyclic_quotient_ring(41, (35, 28, 20))):
            unit = tc.MonomialIdeal.unit(ring)
            for c in (Fraction(1, 2), 1, 3):
                assert tc.multiplier_monomials(unit, c) == unit

    def test_regular_principal(self):
        ring = tc.ToricRing(1)
        ideal = tc.MonomialIdeal(ring, [(3,)])
        assert tc.multiplier_monomials(ideal, 1).generators == ((3,),)
        assert tc.multiplier_monomials(ideal, Fraction(1, 3)).generators == ((1,),)

    def test_engine_does_not_read_minimal_steps(self, monkeypatch, q41_ring):
        cases = [
            (q41_ring, [(41, 0, 0), (0, 41, 0), (0, 0, 41), (8, 1, 1), (4, 6, 1)]),
            (tc.cyclic_quotient_ring(5, (1, 2, 3, 4)), [(5, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)]),
            (tc.ToricRing(3, [((1, 1, 0), 2), ((0, 1, 2), 3)]), [(4, 0, 0), (1, 1, 1), (0, 2, 2)]),
            (tc.ToricRing(1), [(3,)]),
        ]
        ideals = [tc.MonomialIdeal(ring, gens) for ring, gens in cases]
        exponents = (Fraction(1, 3), 1, Fraction(5, 2))

        def outputs():
            tc._box_minimal_impl.cache_clear()
            return [
                [tc.multiplier_monomials(i, c).generators for c in exponents]
                + [tc.integral_closure_monomial(i).generators]
                for i in ideals
            ]

        expected = outputs()

        def refuse(ring):
            raise AssertionError("the engine read minimal_steps")

        # the irreducibles live in the test oracles only; an attribute of
        # the old name that refuses shows that no engine path asks a ring
        assert not hasattr(tc.ToricRing, "minimal_steps")
        monkeypatch.setattr(tc.ToricRing, "minimal_steps", property(refuse), raising=False)
        assert outputs() == expected
        tc._box_minimal_impl.cache_clear()

    def test_q41_contains_witness(self, q41_ideal):
        j2 = tc.multiplier_monomials(q41_ideal, 2)
        assert (10, 3, 7) in j2.generators

    def test_engine_matches_fm_bruteforce(self):
        rng = random.Random(603)
        for trial in range(8):
            rank = 2 if trial % 2 == 0 else 3
            if rank == 2:
                ring = rng.choice([tc.ToricRing(2), tc.cyclic_quotient_ring(3, (1, 2))])
            else:
                ring = rng.choice(
                    [tc.ToricRing(3), tc.cyclic_quotient_ring(4, (1, 1, 2))]
                )
            gens = set()
            while len(gens) < 2:
                v = tuple(rng.randint(0, 5) for _ in range(rank))
                if any(v) and ring.contains(v):
                    gens.add(v)
            ideal = tc.MonomialIdeal(ring, gens)
            c = rng.choice([Fraction(1, 2), 1, 2])
            mine = tc.multiplier_monomials(ideal, c)
            bound = 2 * ideal.max_coordinate + ring.index + rank + 2
            brute = brute_multiplier_members(ring, ideal.generators, c, bound)
            assert dominance_minimal(brute) == set(mine.generators)

    def test_engine_matches_fm_on_multi_congruence_rings(self):
        rng = random.Random(777)
        checked = non_unit = 0
        for _ in range(30):
            rank = rng.choice([2, 3])
            congs = []
            for _ in range(rng.choice([0, 1, 2])):
                r = rng.randint(2, 5)
                congs.append((tuple(rng.randrange(r) for _ in range(rank)), r))
            ring = tc.ToricRing(rank, congs)
            shift = brute_coordinate_steps(ring)
            gens = set()
            tries = 0
            while len(gens) < 2 and tries < 400:
                tries += 1
                v = tuple(rng.randint(0, 5) for _ in range(rank))
                if any(v) and ring.contains(v):
                    gens.add(v)
            if len(gens) < 2:
                continue
            ideal = tc.MonomialIdeal(ring, gens)
            c = rng.choice([Fraction(1, 2), 1, Fraction(3, 2)])
            mine = set(tc.multiplier_monomials(ideal, c).generators)
            bound = 2 * ideal.max_coordinate + ring.index + rank + 3
            brute = dominance_minimal(
                brute_multiplier_members(ring, ideal.generators, c, bound, shift)
            )
            assert mine == brute
            checked += 1
            non_unit += shift != (1,) * rank
        assert checked >= 15 and non_unit >= 5

    @pytest.mark.parametrize(
        "ring, gens, c",
        [
            (tc.ToricRing(1), [(3,)], Fraction(1, 2)),
            (tc.ToricRing(1), [(4,)], Fraction(1)),
            (tc.ToricRing(1, [((0,), 3)]), [(7,)], Fraction(5, 2)),
            (tc.cyclic_quotient_ring(2, (1, 1, 1, 1)), [(2, 0, 2, 0), (0, 2, 1, 1)], Fraction(3, 2)),
            (
                tc.ToricRing(4, [((1, 1, 0, 0), 2), ((0, 1, 1, 0), 2)]),
                [(2, 0, 0, 2), (0, 2, 2, 2)],
                Fraction(1),
            ),
        ],
        ids=["rank-1-a", "rank-1-b", "rank-1-congruence", "rank-4-quotient", "rank-4-two-congruences"],
    )
    def test_engine_matches_fm_at_ranks_1_and_4(self, ring, gens, c):
        ideal = tc.MonomialIdeal(ring, gens)
        mine = set(tc.multiplier_monomials(ideal, c).generators)
        bound = 2 * ideal.max_coordinate + ring.index + ring.rank + 2
        brute = brute_multiplier_members(ring, ideal.generators, c, bound)
        assert mine == dominance_minimal(brute)
        assert mine != {(0,) * ring.rank}

    @pytest.mark.parametrize(
        "ring, gens, exponents",
        [
            (
                tc.ToricRing(3, [((1, 1, 0), 2)]),
                [(4, 0, 0), (0, 4, 0), (1, 1, 3), (0, 0, 3)],
                (Fraction(1, 2), Fraction(3, 2)),
            ),
            (
                tc.ToricRing(4, [((0, 1, 1, 0), 3)]),
                [(2, 0, 0, 0), (0, 0, 0, 2), (0, 1, 2, 0)],
                (Fraction(1, 2),),
            ),
        ],
        ids=["pivot-2-rank-3", "pivot-3-rank-4"],
    )
    def test_engine_matches_fm_with_non_unit_prefix_pivot(self, ring, gens, exponents):
        # Hermite pivots (1, 2, 1) and (1, 1, 3, 1): half or a third of
        # the prefixes carry no lattice point, all coordinate steps are 1
        assert ring.coordinate_steps == (1,) * ring.rank
        ideal = tc.MonomialIdeal(ring, gens)
        for c in exponents:
            mine = tc.multiplier_monomials(ideal, c)
            # every minimal generator lies below ceil(c M) + index + rank
            bound = math.ceil(c * ideal.max_coordinate) + ring.index + ring.rank + 1
            brute = brute_multiplier_members(ring, ideal.generators, c, bound)
            assert set(mine.generators) == dominance_minimal(brute), c

    def test_redundant_congruences_give_the_same_generators(self):
        # (2,209,0) and (3,208,0) are 2 and 3 times (1,210,0) mod 211
        gens = [(5, 5, 0), (0, 0, 4), (211, 0, 0), (2, 2, 1)]
        one = tc.ToricRing(3, [((1, 210, 0), 211)])
        three = tc.ToricRing(3, [((1, 210, 0), 211), ((2, 209, 0), 211), ((3, 208, 0), 211)])
        j_one, j_three = (
            tc.multiplier_monomials(tc.MonomialIdeal(r, gens), Fraction(3, 2)) for r in (one, three)
        )
        assert j_one.generators == j_three.generators
        assert len(j_one.generators) == 5

    def test_huge_modulus_presentation_answers(self):
        # 2*10^20 (v_1 + v_2 + v_3) = 0 mod 4*10^20 cuts out the lattice of
        # v_1 + v_2 + v_3 = 0 mod 2; neither int64 nor the weights as given
        # holds the products, so the re-checks must reduce them first
        huge = tc.ToricRing(3, [((2 * 10**20,) * 3, 4 * 10**20)])
        small = tc.ToricRing(3, [((1, 1, 1), 2)])
        gens = [(2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 2), (3, 1, 2)]
        for c in (Fraction(1, 2), 1, Fraction(5, 2)):
            j_huge, j_small = (
                tc.multiplier_monomials(tc.MonomialIdeal(r, gens), c) for r in (huge, small)
            )
            assert j_huge.generators == j_small.generators
        a, b = [(1, 2, 1), (2, 2, 0)], [(0, 5, 3), (6, 3, 3)]
        cert_huge, cert_small = (
            tc.subadditivity_check_monomial(tc.MonomialIdeal(r, a), tc.MonomialIdeal(r, b))
            for r in (huge, small)
        )
        assert cert_huge.witness == (1, 6, 3) and cert_huge.exhaustive_recheck
        assert cert_huge.to_json_dict() == cert_small.to_json_dict()
        # no cell cap bounds a rank-1 box: (3^24 + 1) 3^25 passes int64
        # even after the reduction
        wide = tc.ToricRing(1, [((3**24 + 1,), 3**25)])
        closure = tc.integral_closure_monomial(tc.MonomialIdeal(wide, [(3**25,)]))
        assert closure.generators == ((3**25,),)

    @pytest.mark.parametrize("fault", ["shifted", "negative"])
    def test_engine_fault_is_an_internal_error(self, break_engine, q41_ideal, fault):
        break_engine(fault)
        with pytest.raises(AssertionError, match="not in the semigroup; internal bug"):
            tc.multiplier_monomials(q41_ideal, 1)

    def test_engine_box_below_the_proof_raises(self, q41_ideal):
        # at c = 1 the proof's bound is 410 + 41 + 3; J has generators
        # with a coordinate above 100, so a box of side 101 cuts them
        facets = q41_ideal.newton_polyhedron().facets
        normals = tuple(a for a, _ in facets)
        thresholds = tuple(b - sum(a) + 1 for a, b in facets)
        args = (q41_ideal.ring, normals, thresholds, 1)
        assert int(tc._box_minimal_impl(*args, 454).max()) > 100
        with pytest.raises(AssertionError, match="too small for its generators"):
            tc._box_minimal_impl(*args, 100)

    def test_engine_facet_values_past_64_bits_raise(self):
        # J((x^4)^c) on Z: the facet x >= 4 gives t = 4p - q + 1, and the
        # box has side ceil(4c) + 3 = 8, so q * 9 + t = 12 q + 5
        # passes 2^61 at q = 2^58 and not at q = 2^57
        ideal = tc.MonomialIdeal(tc.ToricRing(1), [(4,)])
        for e in (57, 58):
            assert tc._multiplier_start(ideal, Fraction(2**e + 1, 2**e)) == 7
        assert tc.multiplier_monomials(ideal, Fraction(2**57 + 1, 2**57)).generators == ((4,),)
        with pytest.raises(tc.OutOfScaleError, match="facet values exceed 64-bit range"):
            tc.multiplier_monomials(ideal, Fraction(2**58 + 1, 2**58))

    def test_engine_drops_facets_that_hold_on_the_whole_semigroup(self):
        # J((x)^(1/2^60)) on Z: t = 2 - 2^60 <= 0, so the one facet holds
        # on every v >= 0 and no facet value is ever formed
        ideal = tc.MonomialIdeal(tc.ToricRing(1), [(1,)])
        assert tc.multiplier_monomials(ideal, Fraction(1, 2**60)).generators == ((0,),)

    def test_engine_facet_rows_stay_within_one_grid(self):
        # at rank 2 a facet's row is as long as the grid: 40 facets built
        # at once would hold 40 grids; a block holds one, and the pass
        # peaks near nine (the coset, bounds, column values and staircase)
        ideal = tc.MonomialIdeal(
            tc.ToricRing(2), [(1000 * i, 25 * (40 - i) ** 2) for i in range(41)]
        )
        facets = [(a, b) for a, b in ideal.newton_polyhedron().facets if b > 0]
        normals = tuple(a for a, _ in facets)
        thresholds = tuple(b - sum(a) + 1 for a, b in facets)
        start = ideal.max_coordinate + ideal.ring.index + ideal.ring.rank
        tracemalloc.start()
        try:
            rows = tc._box_minimal_impl.__wrapped__(ideal.ring, normals, thresholds, 1, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(facets) == 40 and len(rows) > 10_000
        assert peak < 12 * 8 * (start + 1), peak / (8 * (start + 1))

    @pytest.mark.parametrize("budget", [1, 6])
    @pytest.mark.parametrize(
        "ring, gens, c, stops, flat",
        [
            (
                tc.cyclic_quotient_ring(3, (1, 2)),
                [(3, 0), (0, 12), (1, 4)],
                Fraction(3, 2),
                True,
                False,
            ),
            (
                tc.ToricRing(3, [((1, 1, 0), 2)]),
                [(4, 0, 0), (0, 4, 0), (1, 1, 3), (0, 0, 3)],
                Fraction(3, 2),
                True,
                False,
            ),
            (tc.ToricRing(3), [(2, 0, 0), (0, 3, 0)], Fraction(5, 2), True, True),
            (
                tc.ToricRing(4, [((1, 1, 0, 0), 2), ((0, 1, 1, 0), 2)]),
                [(2, 0, 0, 2), (0, 2, 2, 2)],
                Fraction(1),
                False,
                True,
            ),
        ],
        ids=["rank-2", "rank-3-pivot-2", "rank-3-flat-facet", "rank-4-flat-facets"],
    )
    def test_row_blocks_match_one_block_and_fm(
        self, monkeypatch, budget, ring, gens, c, stops, flat
    ):
        # a budget of a few cells walks the grid in blocks of one or a few
        # rows, which must give the one-block pass's rows in its order; a
        # flat facet (a_n = 0, as 3x + 2y >= 6) only filters prefixes
        ideal = tc.MonomialIdeal(ring, gens)
        side = tc._multiplier_start(ideal, c) + 1
        facets = ideal.newton_polyhedron().facets
        assert any(a[-1] == 0 and b > 0 for a, b in facets) == flat
        blocks = []
        staircase = tc._staircase

        def spy(col, carry=None):
            blocks.append(col.shape)
            return staircase(col, carry)

        def rows(cells):
            monkeypatch.setattr(tc, "_ENGINE_BLOCK", cells)
            tc._box_minimal_impl.cache_clear()
            return tc.multiplier_monomials(ideal, c).rows

        one = rows(side**ring.rank)
        monkeypatch.setattr(tc, "_staircase", spy)
        many = rows(budget)
        tc._box_minimal_impl.cache_clear()
        assert len(blocks) > 1 and many.tolist() == one.tolist()
        brute = brute_multiplier_members(ring, ideal.generators, c, side)
        assert set(map(tuple, one.tolist())) == dominance_minimal(brute)
        # a pass that stops early leaves rows of axis 0 unvisited
        assert (sum(shape[0] for shape in blocks) < side) == stops

    def test_cell_cap_raises_out_of_scale(self, monkeypatch):
        monkeypatch.setattr(tc, "_CELL_CAP", 100)
        ideal = tc.MonomialIdeal(tc.ToricRing(3), [(43, 0, 0), (0, 43, 0), (0, 0, 43)])
        with pytest.raises(tc.OutOfScaleError):
            tc.multiplier_monomials(ideal, 1)

    def test_rank_8_refused_before_newton(self):
        # every rank-8 prefix grid passes the cell cap; the facets of
        # these 12 generators would take minutes to enumerate first
        gens = [tuple(2 * (i == j) for j in range(8)) for i in range(8)]
        gens += [tuple(int(j in (i, i + 1)) for j in range(8)) for i in range(4)]
        ideal = tc.MonomialIdeal(tc.ToricRing(8), gens)
        assert len(ideal.generators) == 12
        checks = (
            lambda: tc.multiplier_monomials(ideal, 1),
            lambda: tc.subadditivity_check_monomial(ideal, ideal),
            lambda: tc.strong_subadd_check_monomial(ideal, ideal, "1/2", "1/3"),
        )
        for check in checks:
            start = time.perf_counter()
            with pytest.raises(tc.OutOfScaleError, match="prefix grid"):
                check()
            assert time.perf_counter() - start < 1.0
        assert ideal._newton is None
        # a ring without unit coordinate steps is sized the same way
        shifted = tc.MonomialIdeal(
            tc.cyclic_quotient_ring(4, (1,) + (2,) * 7), [tuple(4 * x for x in g) for g in gens]
        )
        assert shifted.ring.coordinate_steps == (2,) + (1,) * 7
        with pytest.raises(tc.OutOfScaleError, match="prefix grid"):
            tc.subadditivity_check_monomial(shifted, shifted)
        assert shifted._newton is None

    def test_upward_closed_randomized(self, q41_ring, q41_ideal):
        j1 = tc.multiplier_monomials(q41_ideal, 1)
        poly = q41_ideal.newton_polyhedron()
        rng = random.Random(604)
        steps = minimal_steps(q41_ring)
        for g in j1.generators[:25]:
            s = rng.choice(steps)
            bumped = tuple(a + b for a, b in zip(g, s))
            assert tc.in_interior(poly, tuple(x + 1 for x in bumped), 1)

    def test_exponent_monotone(self, q41_ideal):
        poly = q41_ideal.newton_polyhedron()
        j2 = tc.multiplier_monomials(q41_ideal, 2)
        for g in j2.generators[:40]:
            assert tc.in_interior(poly, tuple(x + 1 for x in g), 1)

    def test_no_generator_on_box_shell(self, q41_ideal):
        ring = q41_ideal.ring
        j1 = tc.multiplier_monomials(q41_ideal, 1)
        bound = q41_ideal.max_coordinate + ring.index + ring.rank
        assert all(max(g) < bound for g in j1.generators)

    def test_shifted_ring_rejected(self):
        # 1/4(1,2,2) has coordinate steps (2, 1, 1): its interior shift,
        # here read from a box scan, is not all ones, and the engine must
        # agree with the oracle under that shift, not under all ones
        ring = tc.cyclic_quotient_ring(4, (1, 2, 2))
        shift = brute_coordinate_steps(ring)
        assert shift == (2, 1, 1)
        differs = 0
        for gens in ([(4, 0, 0)], [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 1, 0)]):
            ideal = tc.MonomialIdeal(ring, gens)
            for c in (Fraction(1, 2), 1, Fraction(3, 2)):
                mine = set(tc.multiplier_monomials(ideal, c).generators)
                bound = math.ceil(c * ideal.max_coordinate) + ring.index + ring.rank + 1
                brute = brute_multiplier_members(ring, ideal.generators, c, bound, shift)
                assert mine == dominance_minimal(brute), (gens, c)
                ones = brute_multiplier_members(ring, ideal.generators, c, bound)
                differs += mine != dominance_minimal(ones)
        assert differs


class TestIntegralClosure:
    def test_principal(self):
        ring = tc.ToricRing(2)
        ideal = tc.MonomialIdeal(ring, [(2, 3)])
        assert tc.integral_closure_monomial(ideal) == ideal

    def test_adds_interior_point(self):
        ring = tc.ToricRing(2)
        ideal = tc.MonomialIdeal(ring, [(2, 0), (0, 2)])
        assert tc.integral_closure_monomial(ideal).generators == ((0, 2), (1, 1), (2, 0))

    def test_multiplier_invariance(self, q41_ideal):
        closure = tc.integral_closure_monomial(q41_ideal)
        assert len(closure.generators) >= len(q41_ideal.generators)
        for c in (Fraction(1, 2), 1, 2):
            assert tc.multiplier_monomials(closure, c) == tc.multiplier_monomials(
                q41_ideal, c
            )

    def test_multiplier_invariance_small_randomized(self):
        rng = random.Random(605)
        for _ in range(10):
            ring = tc.ToricRing(2)
            gens = {
                (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(2, 4))
            }
            ideal = tc.MonomialIdeal(ring, gens)
            closure = tc.integral_closure_monomial(ideal)
            c = rng.choice([Fraction(1, 2), 1, Fraction(3, 2)])
            assert tc.multiplier_monomials(closure, c) == tc.multiplier_monomials(ideal, c)


class TestSubadditivityChecks:
    def test_unit_ideals(self, q41_ring):
        unit = tc.MonomialIdeal.unit(q41_ring)
        cert = tc.subadditivity_check_monomial(unit, unit)
        assert cert.verdict

    def test_check_across_presentations_of_one_lattice(self):
        # the weights (1,1,1) and (2,2,2) mod 3 cut out one lattice, so
        # ideals over the two presentations share a ring; a different
        # lattice still does not
        one = tc.ToricRing(3, [((1, 1, 1), 3)])
        two = tc.ToricRing(3, [((2, 2, 2), 3)])
        gens_a, gens_b = [(2, 1, 0), (2, 0, 4)], [(3, 0, 0), (0, 3, 3)]
        within = tc.strong_subadd_check_monomial(
            tc.MonomialIdeal(one, gens_a), tc.MonomialIdeal(one, gens_b), 1, 1
        )
        across = tc.strong_subadd_check_monomial(
            tc.MonomialIdeal(one, gens_a), tc.MonomialIdeal(two, gens_b), 1, 1
        )
        assert within.witness == (2, 2, 2)
        assert across.to_json_dict() == within.to_json_dict()
        other = tc.MonomialIdeal(tc.ToricRing(3, [((1, 2, 0), 3)]), [(3, 0, 0), (0, 0, 3)])
        with pytest.raises(tc.RingMismatchError):
            tc.strong_subadd_check_monomial(tc.MonomialIdeal(one, gens_b), other, 1, 1)

    def test_q41_counterexample(self, q41_ideal):
        cert = tc.subadditivity_check_monomial(q41_ideal, q41_ideal)
        assert not cert.verdict
        assert cert.witness == (10, 3, 7)
        assert cert.failures == ((10, 3, 7),)
        assert not tc.ideal_membership(
            tc.ideal_product(cert.j_a, cert.j_b), (10, 3, 7)
        )

    def test_small_gorenstein_counterexample(self):
        # quadric cone times a line: the smallest violating instance
        # the randomized explorer turns up
        ring = tc.cyclic_quotient_ring(2, (1, 1, 0))
        a = tc.MonomialIdeal(ring, [(2, 0, 2), (2, 2, 0)])
        b = tc.MonomialIdeal(ring, [(2, 0, 0), (1, 1, 1)])
        cert = tc.subadditivity_check_monomial(a, b)
        assert not cert.verdict
        assert cert.witness == (3, 1, 0)

    def test_exhaustive_recheck_is_recorded(self, q41_ring, monkeypatch):
        ring = tc.cyclic_quotient_ring(2, (1, 1, 0))
        a = tc.MonomialIdeal(ring, [(2, 0, 2), (2, 2, 0)])
        b = tc.MonomialIdeal(ring, [(2, 0, 0), (1, 1, 1)])
        assert tc.subadditivity_check_monomial(a, b).exhaustive_recheck
        unit = tc.MonomialIdeal.unit(q41_ring)
        passing = tc.subadditivity_check_monomial(unit, unit)
        assert passing.verdict and not passing.exhaustive_recheck
        monkeypatch.setattr(tc, "_WITNESS_SCAN_CAP", 1)
        skipped = tc.subadditivity_check_monomial(a, b)
        assert skipped.witness == (3, 1, 0) and not skipped.exhaustive_recheck

    def test_non_member_witness_fails_reverification(self, monkeypatch):
        # J(m^4) on Z^2 is m^3; an engine that also returned the
        # non-member x would turn x into a violation of m^2 and m^2
        ring = tc.ToricRing(2)
        m2 = tc.MonomialIdeal(ring, [(2, 0), (1, 1), (0, 2)])
        honest = tc.multiplier_monomials

        def broken(ideal, c):
            out = honest(ideal, c)
            if ideal.max_coordinate == 4:
                return tc.MonomialIdeal(ring, out.generators + ((1, 0),))
            return out

        assert tc.subadditivity_check_monomial(m2, m2).verdict
        monkeypatch.setattr(tc, "multiplier_monomials", broken)
        with pytest.raises(AssertionError, match="re-verification"):
            tc.subadditivity_check_monomial(m2, m2)

    @pytest.mark.parametrize(
        "case", ["rank-1", "rank-2", "rank-4", "multi-congruence", "rational-exponents"]
    )
    def test_failures_match_dominance_oracle(self, case):
        # the staircase certificate against one dominance test per
        # generator, on explorer-style inputs
        rng = random.Random(f"failures:{case}")
        rank = {"rank-1": 1, "rank-2": 2, "rank-4": 4}.get(case, 3)
        cfg = tc.ExploreConfig(rank=rank, max_coordinate=8 if rank == 4 else 20)
        exponents = [Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2)]
        checked = failing = 0
        while checked < 40:
            r = rng.randint(2, 13)
            weights = [rng.randrange(r) for _ in range(rank - 1)]
            ring = tc.cyclic_quotient_ring(r, weights + [(-sum(weights)) % r])
            if case == "multi-congruence":
                extra = (tuple(rng.randrange(2) for _ in range(rank)), 2)
                ring = tc.ToricRing(rank, ring.congruences + (extra,))
            a = tc._sample_ideal(rng, ring, cfg)
            b = tc._sample_ideal(rng, ring, cfg)
            if case == "rational-exponents":
                c, d = rng.choice(exponents), rng.choice(exponents)
                cert = tc.strong_subadd_check_monomial(a, b, c, d)
            else:
                cert = tc.subadditivity_check_monomial(a, b)
            assert cert.failures == product_failures(
                cert.j_product.generators, cert.j_a.generators, cert.j_b.generators
            )
            checked += 1
            failing += bool(cert.failures)
        if rank != 1 and case != "rank-2":
            # rank 1 and rank 2 are log terminal: no violation to find
            assert failing

    @pytest.mark.parametrize("rank", [2, 3])
    def test_vertex_sums_match_expanded_product(self, rank):
        # the route the checks replaced: expand a^p b^q and take
        # J((a^p b^q)^(1/m)) over all its generators
        rng = random.Random(610 + rank)
        quotients = {
            2: [(2, (1, 1)), (5, (2, 3))],
            3: [(2, (1, 1, 0)), (3, (1, 1, 1)), (5, (1, 2, 2))],
        }
        rings = [tc.ToricRing(rank)]
        rings += [tc.cyclic_quotient_ring(r, w) for r, w in quotients[rank]]
        exponents = [
            (1, 1),
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(2, 3), 1),
            (Fraction(3, 2), Fraction(1, 2)),
        ]
        verdicts = set()
        for ring in rings:
            def sample():
                while True:
                    v = tuple(rng.randint(0, 6) for _ in range(rank))
                    if any(v) and ring.contains(v):
                        return v

            for c, d in exponents:
                a = tc.MonomialIdeal(ring, {sample() for _ in range(rng.randint(2, 3))})
                b = tc.MonomialIdeal(ring, {sample() for _ in range(rng.randint(2, 3))})
                m = math.lcm(Fraction(c).denominator, Fraction(d).denominator)
                p, q = int(c * m), int(d * m)
                full = tc.ideal_product(tc.ideal_power(a, p), tc.ideal_power(b, q))
                sums = tc._vertex_sum_ideal(a, b, p, q)
                assert tc._newton_facets(rank, sums.generators) == tc._newton_facets(
                    rank, full.generators
                )
                j_a = tc.multiplier_monomials(a, c)
                j_b = tc.multiplier_monomials(b, d)
                j_full = tc.multiplier_monomials(full, Fraction(1, m))
                expected = tc._certify(
                    a, b, Fraction(c), Fraction(d), full, Fraction(1, m), j_full, j_a, j_b
                )
                checks = [tc.strong_subadd_check_monomial(a, b, c, d)]
                if (c, d) == (1, 1):
                    checks.append(tc.subadditivity_check_monomial(a, b))
                for cert in checks:
                    assert cert.j_product == j_full
                    assert (cert.j_a, cert.j_b) == (j_a, j_b)
                    assert (cert.verdict, cert.witness) == (expected.verdict, expected.witness)
                    verdicts.add(cert.verdict)
        # the seeded inputs hold a violation as well as passes
        assert verdicts == {True, False}

    def test_strong_reduces_to_plain(self, q41_ideal):
        plain = tc.subadditivity_check_monomial(q41_ideal, q41_ideal)
        strong = tc.strong_subadd_check_monomial(q41_ideal, q41_ideal, 1, 1)
        assert plain.verdict == strong.verdict
        assert plain.witness == strong.witness

    def test_regular_strong_never_fails_randomized(self):
        rng = random.Random(606)
        for _ in range(60):
            rank = rng.choice([2, 3])
            ring = tc.ToricRing(rank)
            def samp():
                while True:
                    v = tuple(rng.randint(0, 5) for _ in range(rank))
                    if any(v):
                        return v
            a = tc.MonomialIdeal(ring, {samp() for _ in range(rng.randint(2, 3))})
            b = tc.MonomialIdeal(ring, {samp() for _ in range(rng.randint(2, 3))})
            c = rng.choice([Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2)])
            d = rng.choice([Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2)])
            assert tc.strong_subadd_check_monomial(a, b, c, d).verdict

    def test_containment_monotone_randomized(self):
        rng = random.Random(607)
        for _ in range(15):
            ring = tc.ToricRing(2)
            gens = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(2)}
            a = tc.MonomialIdeal(ring, gens)
            b = tc.MonomialIdeal(ring, gens | {(rng.randint(0, 3), rng.randint(0, 3))})
            c = rng.choice([Fraction(1, 2), 1, 2])
            ja = tc.multiplier_monomials(a, c)
            jb = tc.multiplier_monomials(b, c)
            # a sits inside b, so J(a^c) sits inside J(b^c)
            assert all(jb.ring.contains(g) for g in jb.generators)
            for g in ja.generators:
                assert jb.membership(g)


class TestBarycentric:
    def test_worked_values(self):
        pts = [(8, 1, 1), (4, 6, 1), (4, 1, 8)]
        lam = tc.barycentric_solve(pts, (11, 4, 8))
        assert lam == [Fraction(245, 328), Fraction(131, 328), Fraction(281, 328)]
        assert sum(lam) > 2
        lam2 = tc.barycentric_solve(pts, (3, 3, 7))
        assert lam2 == [Fraction(-83, 328), Fraction(131, 328), Fraction(281, 328)]

    def test_unit_vector(self):
        pts = [(8, 1, 1), (4, 6, 1), (4, 1, 8)]
        assert tc.barycentric_solve(pts, (4, 6, 1)) == [0, 1, 0]

    def test_dependent_points_rejected(self):
        from subadd.rationals import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            tc.barycentric_solve([(1, 0), (2, 0)], (1, 1))


class TestExplorer:
    def test_zero_trials(self):
        rep = tc.explore_question33(tc.ExploreConfig(trials=0))
        assert rep.trials_run == 0 and not rep.violations

    def test_pinned_counterexample_with_filter_off(self, q41_ring, q41_ideal):
        rep = tc.explore_question33(
            tc.ExploreConfig(
                trials=1,
                gorenstein_only=False,
                ring=q41_ring,
                ideal_a=q41_ideal,
                ideal_b=q41_ideal,
            )
        )
        assert len(rep.violations) == 1
        assert rep.violations[0]["certificate"]["witness"] == [10, 3, 7]

    def test_gorenstein_filter_skips_pinned_ring(self, q41_ring, q41_ideal):
        # the filter draws rings; a pinned ring, Gorenstein or not (1/41
        # (35, 28, 20) is not), runs as given in every trial
        rep = tc.explore_question33(
            tc.ExploreConfig(
                trials=2,
                gorenstein_only=True,
                ring=q41_ring,
                ideal_a=q41_ideal,
                ideal_b=q41_ideal,
            )
        )
        assert (rep.trials_run, rep.trials_skipped) == (2, 0)
        assert [v["trial"] for v in rep.violations] == [0, 1]
        assert all(v["certificate"]["witness"] == [10, 3, 7] for v in rep.violations)

    def test_deterministic(self):
        cfg = tc.ExploreConfig(trials=25, seed=9, max_coordinate=12)
        r1 = tc.explore_question33(cfg)
        r2 = tc.explore_question33(cfg)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_full_lattice_config_never_violates(self):
        cfg = tc.ExploreConfig(
            trials=40, seed=3, modulus_min=1, modulus_max=1, max_coordinate=8
        )
        rep = tc.explore_question33(cfg)
        assert rep.trials_run == 40 and not rep.violations

    @pytest.mark.parametrize("gorenstein_only", [True, False], ids=["gorenstein", "all-rings"])
    def test_rank_2_never_violates(self, gorenstein_only):
        # every cyclic quotient surface singularity is log terminal, and
        # the two-dimensional theorem holds there; without the filter that
        # takes in the rings with a non-unit coordinate step
        cfg = tc.ExploreConfig(rank=2, trials=300, seed=1, gorenstein_only=gorenstein_only)
        rep = tc.explore_question33(cfg)
        assert (rep.trials_run, rep.trials_skipped) == (300, 0)
        assert not rep.violations

    def test_rank_4_violation_confirmed_by_fm(self):
        rep = tc.explore_question33(tc.ExploreConfig(rank=4, trials=20, seed=1))
        assert rep.trials_run == 20 and rep.violations
        smallest = min(
            rep.violations, key=lambda v: math.prod(x + 1 for x in v["certificate"]["witness"])
        )
        witness = smallest["certificate"]["witness"]
        assert witness == [4, 4, 4, 4]
        # in J(ab) and with no split into J(a) and J(b), by the oracle
        # that uses neither the engine nor its facets
        ring = tc.ToricRing.from_json_dict(smallest["ring"])
        gens_a = smallest["ideal_a"]["generators"]
        gens_b = smallest["ideal_b"]["generators"]
        assert in_minkowski_interior_fm(gens_a, gens_b, [x + 1 for x in witness])
        assert fm_product_split(ring, gens_a, gens_b, witness) is None

    def test_rank_3_non_unit_violation_confirmed_by_fm(self):
        # without the Gorenstein filter the smallest witness of this run
        # lies on 1/10(2, 0, 9), whose coordinate steps are (1, 1, 2)
        cfg = tc.ExploreConfig(rank=3, trials=20, seed=4, gorenstein_only=False)
        rep = tc.explore_question33(cfg)
        assert (rep.trials_run, rep.trials_skipped) == (20, 0)
        smallest = min(
            rep.violations, key=lambda v: math.prod(x + 1 for x in v["certificate"]["witness"])
        )
        witness = smallest["certificate"]["witness"]
        ring = tc.ToricRing.from_json_dict(smallest["ring"])
        shift = brute_coordinate_steps(ring)
        assert (witness, shift) == ([22, 3, 4], (1, 1, 2))
        # in J(ab) and with no split into J(a) and J(b) under that shift,
        # by the oracle that uses neither the engine nor its facets
        gens_a = smallest["ideal_a"]["generators"]
        gens_b = smallest["ideal_b"]["generators"]
        assert in_minkowski_interior_fm(gens_a, gens_b, [x + s for x, s in zip(witness, shift)])
        assert fm_product_split(ring, gens_a, gens_b, witness, shift) is None

    def test_notes_flag_external_fact(self):
        rep = tc.explore_question33(tc.ExploreConfig(trials=0))
        assert any("standard toric" in n for n in rep.notes)


def _metamorphic_case(rng: random.Random, rank: int):
    """A cyclic quotient 1/r(w) of the given rank and two ideals of 2-3
    nonzero semigroup points with coordinates below 2r. About half the
    rings have every weight but one in a proper divisor of r, which
    gives that coordinate a step s_i > 1."""
    r = rng.randint(2, 12)
    weights = [rng.randrange(r) for _ in range(rank)]
    divisors = [d for d in range(2, r) if r % d == 0]
    if divisors and rng.random() < 0.5:
        d, keep = rng.choice(divisors), rng.randrange(rank)
        weights = [w if i == keep else d * rng.randrange(r // d) for i, w in enumerate(weights)]
    ring = tc.cyclic_quotient_ring(r, weights)

    def ideal():
        gens = set()
        while len(gens) < rng.randint(2, 3):
            v = tuple(rng.randrange(2 * r) for _ in range(rank))
            if any(v) and ring.contains(v):
                gens.add(v)
        return tc.MonomialIdeal(ring, gens)

    return r, weights, ideal(), ideal()


_METAMORPHIC_CASES = [(rank, seed) for rank in (2, 3, 4) for seed in range(40)]


class TestMetamorphic:
    """Two maps that must commute with the engine, checked without an
    oracle on 120 seeded rings: a coordinate permutation, and the
    division by the coordinate steps s onto the unit-step ring
    1/r(w_i s_i)."""

    def test_permutation(self):
        verdicts = set()
        for rank, seed in _METAMORPHIC_CASES:
            rng = random.Random(f"permute:{rank}:{seed}")
            r, weights, a, b = _metamorphic_case(rng, rank)
            perm = rng.sample(range(rank), rank)

            def move(points):
                return {tuple(v[p] for p in perm) for v in points}

            ring = tc.cyclic_quotient_ring(r, [weights[p] for p in perm])
            a2, b2 = (tc.MonomialIdeal(ring, move(i.generators)) for i in (a, b))
            got = tc.multiplier_monomials(a2, 1).generators
            assert set(got) == move(tc.multiplier_monomials(a, 1).generators)
            cert = tc.subadditivity_check_monomial(a, b)
            cert2 = tc.subadditivity_check_monomial(a2, b2)
            assert cert2.verdict == cert.verdict
            assert set(cert2.j_product.generators) == move(cert.j_product.generators)
            assert set(cert2.failures) == move(cert.failures)
            verdicts.add(cert.verdict)
        assert verdicts == {True, False}

    def test_rescaling(self):
        scaled = 0
        for rank, seed in _METAMORPHIC_CASES:
            r, weights, a, _ = _metamorphic_case(random.Random(f"rescale:{rank}:{seed}"), rank)
            s = a.ring.coordinate_steps
            ring = tc.cyclic_quotient_ring(r, [w * t for w, t in zip(weights, s)])
            assert ring.coordinate_steps == (1,) * rank

            def down(points):
                return {tuple(x // t for x, t in zip(v, s)) for v in points}

            a2 = tc.MonomialIdeal(ring, down(a.generators))
            for c in (Fraction(1, 2), 1, Fraction(3, 2)):
                got = tc.multiplier_monomials(a2, c).generators
                assert set(got) == down(tc.multiplier_monomials(a, c).generators)
            scaled += s != (1,) * rank
        assert scaled >= 10
