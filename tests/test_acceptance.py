"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line. All comparisons
are bit-exact rational equality; there are no tolerances anywhere.

Criterion 10 runs the randomized explorer over Gorenstein cyclic
quotient rings and asserts that it finds monomial subadditivity
violations. They are genuine: the test confirms the first witness and
the one with the smallest box by the exact Fourier-Motzkin oracle,
independently of the generator engine, and pins the smallest instance,
on 1/2(1,1,0), against its hand computation. Its PASS line names a
concrete counterexample.
"""

import math
import random
from fractions import Fraction

import pytest

from subadd import proximity as px
from subadd import toric as tc
from subadd.surface import (
    EXCEPTIONAL,
    MARKED,
    Cycle,
    build_model,
    hj_chain,
)

from _oracles import anti_nef_test_d, fm_product_split, in_minkowski_interior_fm
from _randgen import random_anti_nef_cycle, random_integral_cycle, random_model


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_blown_cone_closures():
    model = build_model([("F", -2, EXCEPTIONAL)], [], [("E1", ["F"])])
    k = model.relative_canonical
    f_a = Cycle({"E1": 2, "F": 1})
    an1 = model.anti_nef_closure(f_a - k)
    an2 = model.anti_nef_closure(2 * f_a - k)
    cert = px.subadditivity_check_2d(model, f_a, f_a)
    ok = (
        k == Cycle({"E1": 1})
        and an1 == Cycle({"E1": 1, "F": 1})
        and an2 == Cycle({"E1": 3, "F": 2})
        and cert.verdict
        and cert.strict_at == ("E1",)
    )
    _line(1, ok, "one blowup over a -2 curve: closures and strict certificate")
    assert ok


def test_criterion_02_chain_closure_and_formula_failure(chain_3215):
    k = chain_3215.relative_canonical
    z = Cycle({"F1": 1, "E1": 3, "E2": 5, "F2": 1})
    oracle = chain_3215.anti_nef_closure(z - k.ceil())
    naive = px.naive_ceil_closure_formula(chain_3215, z)
    ok = (
        k
        == Cycle(
            {
                "F1": Fraction(-1, 5),
                "E1": Fraction(2, 5),
                "E2": 1,
                "F2": Fraction(-2, 5),
            }
        )
        and oracle == z - k.ceil() + Cycle({"E1": 1})
        and naive != oracle
    )
    _line(2, ok, "-3,-2,-1,-5 chain: exact K, closure, rounded formula breaks")
    assert ok


def test_criterion_03_irreducible_strong_failure():
    ok = True
    for k in (2, 3, 4, 5):
        report = px.strong_subadd_counterexample_irreducible(k)
        ok = ok and report.cycle_single == Cycle({"E1": 1, "E2": 1})
        ok = ok and report.cycle_double == Cycle({"E1": 3, "E2": 1})
        ok = ok and not report.inclusion_holds and report.witness == "E2"
    _line(3, ok, "k in {2,3,4,5}: fractional-exponent inclusion fails at E2")
    assert ok


def test_criterion_04_reducible_strong_failure():
    report = px.strong_subadd_counterexample_reducible(hj_chain(5, 2), 2)
    ok = (
        report.fundamental == Cycle({"E1": 1, "E2": 1})
        and report.cycle_whole == report.z
        and report.cycle_fraction == report.fundamental
        and not report.inclusion_holds
    )
    _line(4, ok, "5/2 chain, n = 2: qualifying cycle found, inclusion fails")
    assert ok


def test_criterion_05_marked_divisor_failure():
    model = build_model(
        [("E", -2, EXCEPTIONAL), ("D1", 0, MARKED), ("D2", 0, MARKED)],
        [("E", "D1"), ("E", "D2")],
    )
    t1 = model.total_transform_marked("D1")
    t2 = model.total_transform_marked("D2")
    j1 = model.multiplier_cycle(t1, 1)
    j2 = model.multiplier_cycle(t2, 1)
    j12 = model.multiplier_cycle(t1 + t2, 1)
    ok = (
        j12 == Cycle({"D1": 1, "D2": 1, "E": 1})
        and j1 + j2 == Cycle({"D1": 1, "D2": 1, "E": 2})
        and not (j1 + j2).leq(j12)
        and j12.coeff("E") < (j1 + j2).coeff("E")
    )
    _line(5, ok, "two marked curves through the node: inclusion fails at E")
    assert ok


def test_criterion_06_monomial_counterexample(q41_ring, q41_ideal):
    poly = q41_ideal.newton_polyhedron()
    lam1 = tc.barycentric_solve([(8, 1, 1), (4, 6, 1), (4, 1, 8)], (11, 4, 8))
    lam2 = tc.barycentric_solve([(8, 1, 1), (4, 6, 1), (4, 1, 8)], (3, 3, 7))
    cert = tc.subadditivity_check_monomial(q41_ideal, q41_ideal)
    tight = [
        g for g in q41_ideal.generators if 35 * g[0] + 28 * g[1] + 20 * g[2] == 328
    ]
    ok = (
        tc.in_interior(poly, (11, 4, 8), 2)
        and not tc.in_interior(poly, (3, 3, 7), 1)
        and lam1 == [Fraction(245, 328), Fraction(131, 328), Fraction(281, 328)]
        and lam2 == [Fraction(-83, 328), Fraction(131, 328), Fraction(281, 328)]
        and not cert.verdict
        and cert.witness == (10, 3, 7)
        and ((35, 28, 20), 328) in poly.facets
        and sorted(tight) == [(4, 1, 8), (4, 6, 1), (8, 1, 1)]
    )
    _line(6, ok, "1/41(35,28,20): interior tests, exact combinations, witness (10,3,7)")
    assert ok


def test_criterion_07_two_dimensional_property_suite():
    rng = random.Random(20260810)
    instances = 0
    attempts = 0
    while instances < 200 and attempts < 2000:
        attempts += 1
        model = random_model(rng)
        f_a = random_anti_nef_cycle(rng, model)
        f_b = random_anti_nef_cycle(rng, model)
        try:
            paired = px.paired_sequences(model, f_a, f_b)
        except px.NoLambdaError:
            continue
        # the closure inequality
        assert paired.inequality_holds
        # sequence closures equal the direct-loop closures
        ceil_k = model.relative_canonical.ceil()
        assert paired.final_a == model.anti_nef_closure(f_a - ceil_k)
        assert paired.final_b == model.anti_nef_closure(f_b - ceil_k)
        assert paired.final_c == model.anti_nef_closure(f_a + f_b - ceil_k)
        # the d-space anti-nef test agrees with the direct one
        z = random_integral_cycle(rng, model)
        dc = px.d_coordinates(model, z)
        assert anti_nef_test_d(model, dc) == model.is_anti_nef(z)
        # step bounds along the combined trace
        tr = paired.c_trace
        for step in tr.d_steps:
            for value, original in zip(step, tr.d_start):
                assert original - 1 <= value <= original
        # triple classification never raised, forms recorded per index
        assert len(paired.triple_forms) == len(model.blowup_names)
        instances += 1
    ok = instances >= 200
    _line(7, ok, f"{instances} randomized surface instances, all properties hold")
    assert ok


def test_criterion_08_regular_strong_subadditivity():
    rng = random.Random(20260811)
    exponents = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    checked = 0
    for _ in range(200):
        rank = rng.choice([2, 3])
        ring = tc.ToricRing(rank)

        def sample():
            while True:
                v = tuple(rng.randint(0, 5) for _ in range(rank))
                if any(v):
                    return v

        a = tc.MonomialIdeal(ring, {sample() for _ in range(rng.randint(2, 3))})
        b = tc.MonomialIdeal(ring, {sample() for _ in range(rng.randint(2, 3))})
        c, d = rng.choice(exponents), rng.choice(exponents)
        cert = tc.strong_subadd_check_monomial(a, b, c, d)
        assert cert.verdict, (a.generators, b.generators, c, d, cert.witness)
        checked += 1
    ok = checked >= 200
    _line(8, ok, f"{checked} randomized pairs over full lattices, no failure")
    assert ok


def test_criterion_09_basic_property_suite():
    rng = random.Random(20260812)
    # surface side: monotonicity and containment on log terminal models
    for _ in range(60):
        model = random_model(rng)
        z = random_anti_nef_cycle(rng, model)
        w = z + random_anti_nef_cycle(rng, model)
        c = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
        assert model.multiplier_cycle(z, c).leq(model.multiplier_cycle(w, c))
        assert model.multiplier_cycle(z, 1).leq(z)
        assert model.is_log_terminal() == model.multiplier_cycle(Cycle(), 1).is_zero()
    # monomial side: monotonicity and integral-closure invariance
    for _ in range(40):
        rank = rng.choice([2, 3])
        ring = tc.ToricRing(rank)
        gens = {
            tuple(rng.randint(0, 5) for _ in range(rank))
            for _ in range(rng.randint(2, 3))
        }
        a = tc.MonomialIdeal(ring, gens)
        b = tc.MonomialIdeal(
            ring, set(gens) | {tuple(rng.randint(0, 4) for _ in range(rank))}
        )
        c = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
        ja, jb = tc.multiplier_monomials(a, c), tc.multiplier_monomials(b, c)
        for g in ja.generators:
            assert jb.membership(g)
        closure = tc.integral_closure_monomial(a)
        assert tc.multiplier_monomials(closure, c) == ja
    _line(9, True, "monotonicity, closure invariance, containment all hold")


def _fm_confirms(ring, gens_a, gens_b, witness) -> str | None:
    """Confirm a subadditivity witness by the Fourier-Motzkin oracle:
    it lies in J(ab) and admits no split into J(a) and J(b) parts.
    Returns None when confirmed, else what went wrong."""
    if not in_minkowski_interior_fm(gens_a, gens_b, [x + 1 for x in witness]):
        return f"witness {witness} is not in J(ab)"
    split = fm_product_split(ring, gens_a, gens_b, witness)
    if split is not None:
        return f"witness {witness} splits as {split} + the rest in J(a) J(b)"
    return None


def test_criterion_10_explorer_gorenstein_search():
    """Faithful run of the stated search: Gorenstein cyclic-quotient
    trials at rank 3 with generator coordinates at most 30, a first
    batch of 600 extended to 10^4 if it comes back empty.

    Monomial subadditivity fails on Gorenstein rings, so the search
    must report violations. Every reported ring must be Gorenstein,
    and the first witness and the one with the smallest box are
    confirmed by the Fourier-Motzkin oracle, which uses neither the
    engine nor its facet data. The smallest instance, on the ring
    k[x^2, xy, y^2, z] = 1/2(1,1,0), is pinned against its hand
    computation (see the package README).
    """
    total = 10_000
    first_batch = 600
    report = tc.explore_question33(
        tc.ExploreConfig(
            rank=3, trials=first_batch, seed=20260810, max_coordinate=30
        )
    )
    if not report.violations:
        # trial seeds are independent of the total count, so extending
        # the run keeps the earlier trials identical
        report = tc.explore_question33(
            tc.ExploreConfig(
                rank=3, trials=total, seed=20260810, max_coordinate=30
            )
        )
    assert report.violations, (
        f"{report.trials_run} Gorenstein trials found no violation, but "
        "monomial subadditivity fails on Gorenstein cyclic quotients"
    )
    assert report.trials_run + report.trials_skipped == report.config.trials
    for v in report.violations:
        (cong,) = v["ring"]["congruences"]
        assert sum(cong["weights"]) % cong["modulus"] == 0, v["ring"]

    first = report.violations[0]
    smallest = min(
        report.violations,
        key=lambda v: math.prod(x + 1 for x in v["certificate"]["witness"]),
    )
    for v in (first, smallest):
        ring = tc.ToricRing.from_json_dict(v["ring"])
        gens_a = v["ideal_a"]["generators"]
        gens_b = v["ideal_b"]["generators"]
        witness = v["certificate"]["witness"]
        problem = _fm_confirms(ring, gens_a, gens_b, witness)
        assert problem is None, f"trial {v['trial']}: {problem}"

    # the hand instance: a = (x^2 z^2, x^2 y^2), b = (x^2, xyz)
    ring = tc.cyclic_quotient_ring(2, (1, 1, 0))
    a = tc.MonomialIdeal(ring, [(2, 0, 2), (2, 2, 0)])
    b = tc.MonomialIdeal(ring, [(2, 0, 0), (1, 1, 1)])
    assert set(tc.multiplier_monomials(a, 1).generators) == {
        (2, 0, 1), (2, 2, 0), (3, 1, 0)
    }
    assert set(tc.multiplier_monomials(b, 1).generators) == {(2, 0, 0), (1, 1, 0)}
    cert = tc.subadditivity_check_monomial(a, b)
    assert not cert.verdict and cert.witness == (3, 1, 0)
    problem = _fm_confirms(ring, a.generators, b.generators, (3, 1, 0))
    assert problem is None, f"1/2(1,1,0): {problem}"

    ring_w = first["ring"]["congruences"][0]
    _line(
        10,
        True,
        f"{len(report.violations)} violations in {report.trials_run} Gorenstein "
        f"trials; first at trial {first['trial']}: ring 1/{ring_w['modulus']}"
        f"{tuple(ring_w['weights'])}, ideal_a {first['ideal_a']['generators']}, "
        f"ideal_b {first['ideal_b']['generators']}, witness "
        f"{first['certificate']['witness']}; it, the smallest-box witness "
        f"(trial {smallest['trial']}) and 1/2(1,1,0) confirmed by the FM oracle",
    )
