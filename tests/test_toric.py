import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from subadd import toric as tc
from subadd.surface import InvalidParametersError

from _oracles import (
    brute_multiplier_members,
    dominance_minimal,
    fm_product_split,
    generic_newton_facets,
    in_minkowski_interior_fm,
    in_polyhedron_fm,
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
        assert set(ring.minimal_steps) == {(1, 0), (0, 1)}

    def test_minimal_steps_are_irreducible(self, q41_ring):
        steps = q41_ring.minimal_steps
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
        assert set(ring.minimal_steps) == brute

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
                steps = tuple(min(v[i] for v in inside if v[i]) for i in range(rank))
                assert ring.coordinate_steps == steps, ring

    def test_json_roundtrip(self, q41_ring):
        assert tc.ToricRing.from_json_dict(q41_ring.to_json_dict()) == q41_ring

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
                m, side = rank - 1, 5
                z0, step = tc._lattice_coset(ring, np.indices((side,) * m, dtype=np.int64))
                period = math.lcm(*(r for _, r in congs)) if congs else 1
                assert step == next(
                    z for z in range(1, period + 1) if ring.contains((0,) * m + (z,))
                )
                for prefix in itertools.product(range(side), repeat=m):
                    lowest = next(
                        (z for z in range(period) if ring.contains(prefix + (z,))), -1
                    )
                    assert z0[prefix] == lowest, (ring, prefix)


class TestMonomialIdeal:
    def test_minimalization(self):
        ring = tc.ToricRing(2)
        ideal = tc.MonomialIdeal(ring, [(2, 0), (3, 1), (0, 2)])
        assert ideal.generators == ((0, 2), (2, 0))

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
        checked = 0
        for _ in range(30):
            rank = rng.choice([2, 3])
            congs = []
            for _ in range(rng.choice([0, 1, 2])):
                r = rng.randint(2, 5)
                congs.append((tuple(rng.randrange(r) for _ in range(rank)), r))
            ring = tc.ToricRing(rank, congs)
            if any(s != 1 for s in ring.coordinate_steps):
                continue
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
                brute_multiplier_members(ring, ideal.generators, c, bound)
            )
            assert mine == brute
            checked += 1
        assert checked >= 15

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

    def test_cell_cap_raises_out_of_scale(self, monkeypatch):
        monkeypatch.setattr(tc, "_CELL_CAP", 100)
        ideal = tc.MonomialIdeal(tc.ToricRing(3), [(43, 0, 0), (0, 43, 0), (0, 0, 43)])
        with pytest.raises(tc.OutOfScaleError):
            tc.multiplier_monomials(ideal, 1)

    def test_upward_closed_randomized(self, q41_ring, q41_ideal):
        j1 = tc.multiplier_monomials(q41_ideal, 1)
        poly = q41_ideal.newton_polyhedron()
        rng = random.Random(604)
        steps = q41_ring.minimal_steps
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
        ring = tc.cyclic_quotient_ring(4, (1, 2, 2))
        ideal = tc.MonomialIdeal(ring, [(4, 0, 0)])
        with pytest.raises(InvalidParametersError):
            tc.multiplier_monomials(ideal, 1)


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
                if any(s != 1 for s in ring.coordinate_steps):
                    continue
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
        rep = tc.explore_question33(
            tc.ExploreConfig(
                trials=2,
                gorenstein_only=True,
                ring=q41_ring,
                ideal_a=q41_ideal,
                ideal_b=q41_ideal,
            )
        )
        assert rep.trials_run == 0 and rep.trials_skipped == 2

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

    def test_notes_flag_external_fact(self):
        rep = tc.explore_question33(tc.ExploreConfig(trials=0))
        assert any("standard toric" in n for n in rep.notes)
