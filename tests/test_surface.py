import json
import random
from fractions import Fraction

import pytest

from subadd import surface as sf
from subadd.rationals import is_negative_definite
from subadd.surface import (
    EXCEPTIONAL,
    MARKED,
    Cycle,
    InvalidCenterError,
    InvalidParametersError,
    NegativeMarkedError,
    NonIntegralError,
    NotAntiNefError,
    NotNegativeDefiniteError,
    ResolutionModel,
    ade,
    build_model,
    hj_chain,
    hj_weights,
)

from _oracles import (
    brute_anti_nef_closure,
    brute_fundamental_cycle,
    negative_definite_by_minors,
    prefix_model,
    replay_exceptional_block,
    total_transform_dense,
)
from _randgen import random_anti_nef_cycle, random_integral_cycle, random_model


class TestBuild:
    def test_single_blowup_bookkeeping(self, a1_blown):
        assert a1_blown.inter["F"]["F"] == -3
        assert a1_blown.inter["E1"]["E1"] == -1
        assert a1_blown.inter["F"]["E1"] == 1

    def test_chain_weights_and_adjacency(self, chain_3215):
        order = ["F1", "E1", "E2", "F2"]
        assert [chain_3215.inter[n][n] for n in order] == [-3, -2, -1, -5]
        for a, b in zip(order, order[1:]):
            assert chain_3215.inter[a][b] == 1
        assert chain_3215.inter["F1"]["F2"] == 0

    def test_cycle_of_minus_two_curves_rejected(self):
        with pytest.raises(NotNegativeDefiniteError):
            build_model(
                [("A", -2, EXCEPTIONAL), ("B", -2, EXCEPTIONAL), ("C", -2, EXCEPTIONAL)],
                [("A", "B"), ("B", "C"), ("A", "C")],
            )

    def test_invalid_centers(self):
        with pytest.raises(InvalidCenterError):
            build_model([("F", -2, EXCEPTIONAL)], [], [("E1", ["missing"])])
        with pytest.raises(InvalidCenterError):
            # F and G do not meet
            build_model(
                [("F", -2, EXCEPTIONAL), ("G", -3, EXCEPTIONAL)],
                [],
                [("E1", ["F", "G"])],
            )
        with pytest.raises(InvalidCenterError):
            build_model([("F", -2, EXCEPTIONAL)], [], [("E1", [])])

    def test_names_must_be_strings(self):
        # nothing is coerced with str(): "FG" is not the pair F, G
        fg = [("F", -2, EXCEPTIONAL), ("G", 0, MARKED)]
        with pytest.raises(sf.ModelError):
            build_model([("F", -2, EXCEPTIONAL), (None, 0, MARKED)])
        with pytest.raises(sf.ModelError):
            build_model(fg, [("F", "G")], [("E1", ["F"]), (5, ["G"])])
        with pytest.raises(sf.ModelError):
            build_model(fg, ["FG"])
        with pytest.raises(InvalidCenterError):
            build_model(fg, [("F", "G")], [("E1", "FG")])
        with pytest.raises(InvalidCenterError):
            build_model(fg, [], [("E1", [None])])

    def test_json_roundtrip(self, chain_3215):
        again = ResolutionModel.from_json_dict(chain_3215.to_json_dict())
        assert again.inter == chain_3215.inter
        assert again.names == chain_3215.names

    def test_double_edge_multiplicity(self):
        # two curves meeting at two points; blowing one point up
        # separates exactly one intersection
        model = build_model(
            [("A", -3, EXCEPTIONAL), ("B", -3, EXCEPTIONAL)],
            [("A", "B"), ("A", "B")],
            [("E1", ["A", "B"])],
        )
        assert model.inter["A"]["B"] == 1
        assert model.inter["A"]["A"] == -4
        assert model.inter["E1"]["A"] == model.inter["E1"]["B"] == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            build_model(
                [("F", -2, EXCEPTIONAL), ("F", -3, EXCEPTIONAL)], []
            )
        with pytest.raises(ValueError):
            build_model([("F", -2, EXCEPTIONAL)], [], [("F", ["F"])])


class TestDefiniteness:
    def test_base_block_decides_randomized(self):
        # a model builds exactly when its full final exceptional block is
        # negative definite, though only the base block is tested;
        # indefinite and degenerate base graphs included
        rng = random.Random(415)
        seen = set()
        for _ in range(300):
            curves = [(f"C{i}", rng.randint(-4, 0), EXCEPTIONAL) for i in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                curves.append(("D", rng.randint(-2, 2), MARKED))
            names = [c[0] for c in curves]
            edges = [
                (a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.4
            ]
            meets = {frozenset(e): 1 for e in edges}
            blowups = []
            for k in range(rng.randint(0, 3)):
                new = f"B{k + 1}"
                pairs = sorted(tuple(sorted(e)) for e, m in meets.items() if m)
                if pairs and rng.random() < 0.5:
                    center = list(rng.choice(pairs))
                    meets[frozenset(center)] -= 1
                else:
                    center = [rng.choice(names)]
                for c in center:
                    meets[frozenset((c, new))] = 1
                names.append(new)
                blowups.append((new, center))
            block = replay_exceptional_block(curves, edges, blowups)
            definite = negative_definite_by_minors(block)
            assert is_negative_definite(block) == definite
            try:
                model = build_model(curves, edges, blowups)
            except NotNegativeDefiniteError:
                assert not definite
            else:
                assert definite
                assert model.intersection_matrix(curves=model.exceptional) == block
            seen.add((definite, bool(blowups)))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestRelativeCanonical:
    def test_blown_cone(self, a1_blown):
        assert a1_blown.relative_canonical == Cycle({"E1": 1})

    def test_chain(self, chain_3215):
        assert chain_3215.relative_canonical == Cycle(
            {"F1": Fraction(-1, 5), "E1": Fraction(2, 5), "E2": 1, "F2": Fraction(-2, 5)}
        )

    def test_minus_k_curve_blown_up(self):
        # one -k curve blown up once, at k = 2: K = E1 exactly
        model = build_model([("E2", -2, EXCEPTIONAL)], [], [("E1", ["E2"])])
        assert model.relative_canonical == Cycle({"E1": 1})

    @pytest.mark.parametrize("bumped", [0, 1, 2])
    def test_adjunction_guard_fires(self, monkeypatch, bumped):
        # one blowup's K increment off by one breaks adjunction on its curve
        honest = sf._blowup_canonical

        def broken(base_k, blowups, den):
            k = honest(base_k, blowups, den)
            k[blowups[bumped].name] += den
            return k

        monkeypatch.setattr(sf, "_blowup_canonical", broken)
        with pytest.raises(AssertionError, match="fails adjunction"):
            build_model(
                [("F1", -2, EXCEPTIONAL), ("F2", -3, EXCEPTIONAL)],
                [("F1", "F2")],
                [("E1", ["F1", "F2"]), ("E2", ["E1", "F2"]), ("E3", ["E2"])],
            )

    def test_adjunction_residual_randomized(self):
        rng = random.Random(401)
        for _ in range(25):
            model = random_model(rng)
            k = model.relative_canonical
            for e in model.exceptional:
                assert model.dot_curve(k, e) == -model.inter[e][e] - 2
            for m in model.marked:
                assert k.coeff(m) == 0


class TestLogTerminal:
    def test_examples(self, a1_blown):
        assert a1_blown.is_log_terminal()
        single5 = build_model([("E", -5, EXCEPTIONAL)], [], [])
        assert single5.relative_canonical == Cycle({"E": Fraction(-3, 5)})
        assert single5.is_log_terminal()

    def test_cusp_not_log_terminal(self):
        model = build_model(
            [("A", -3, EXCEPTIONAL), ("B", -3, EXCEPTIONAL), ("C", -3, EXCEPTIONAL)],
            [("A", "B"), ("B", "C"), ("A", "C")],
        )
        assert model.relative_canonical == Cycle({"A": -1, "B": -1, "C": -1})
        assert not model.is_log_terminal()

    def test_catalogs_log_terminal(self):
        for r, a in [(2, 1), (5, 2), (7, 3), (11, 4)]:
            assert hj_chain(r, a).is_log_terminal()
        for label in ["A1", "A4", "D4", "E6", "E8"]:
            assert ade(label).is_log_terminal()


class TestAntiNef:
    def test_zero(self, a1_blown):
        assert a1_blown.is_anti_nef(Cycle())

    def test_examples(self, a1_blown):
        assert a1_blown.is_anti_nef(Cycle({"E1": 2, "F": 1}))
        # the failing row is F: E1 . F = 1 > 0
        assert not a1_blown.is_anti_nef(Cycle({"E1": 1}))
        assert a1_blown.dot_curve(Cycle({"E1": 1}), "F") == 1

    def test_not_effective(self, a1_blown):
        assert not a1_blown.is_anti_nef(Cycle({"E1": -1}))


class TestClosure:
    def test_zero(self, a1_blown):
        assert a1_blown.anti_nef_closure(Cycle()) == Cycle()

    def test_already_closed(self, a1_blown):
        z = Cycle({"E1": 1, "F": 1})
        assert a1_blown.anti_nef_closure(z) == z

    def test_single_curve_saturates(self):
        model = build_model([("E2", -2, EXCEPTIONAL)], [], [("E1", ["E2"])])
        assert model.anti_nef_closure(Cycle({"E1": 1})) == Cycle({"E1": 1, "E2": 1})

    def test_fractional_rejected(self, a1_blown):
        with pytest.raises(NonIntegralError):
            a1_blown.anti_nef_closure(Cycle({"E1": Fraction(1, 2)}))

    def test_matches_brute_force_randomized(self):
        # brute force is exponential in the curve count; keep models small
        rng = random.Random(402)
        checked = 0
        while checked < 20:
            model = random_model(rng, max_blowups=1)
            if len(model.exceptional) > 4:
                continue
            z = Cycle({n: rng.randint(-1, 2) for n in model.exceptional})
            assert model.anti_nef_closure(z) == brute_anti_nef_closure(model, z)
            checked += 1

    def test_properties_randomized(self):
        rng = random.Random(403)
        for _ in range(30):
            model = random_model(rng)
            z1 = random_anti_nef_cycle(rng, model)
            z2 = random_anti_nef_cycle(rng, model)
            raw = Cycle({n: rng.randint(0, 3) for n in model.exceptional})
            an = model.anti_nef_closure(raw)
            # idempotent, dominating, monotone, subadditive
            assert model.anti_nef_closure(an) == an
            assert raw.leq(an)
            bigger = raw + Cycle({rng.choice(model.exceptional): 1})
            assert an.leq(model.anti_nef_closure(bigger))
            assert model.anti_nef_closure(z1 + z2).leq(z1 + z2)
            assert model.is_anti_nef(z1 + z2)

    def test_order_independence_randomized(self):
        rng = random.Random(404)
        for _ in range(15):
            model = random_model(rng)
            raw = Cycle({n: rng.randint(0, 3) for n in model.exceptional})
            smallest = model.anti_nef_closure(raw)
            chooser = random.Random(rng.randint(0, 10**6))
            randomized = model.anti_nef_closure(raw, choose=chooser.choice)
            assert smallest == randomized


class TestRowPass:
    """The one-sweep rows of ``curve_rows``, ``is_anti_nef`` and the
    closure loop against ``dot_curve``, one intersection number at a
    time, on random models with marked curves."""

    @staticmethod
    def _cycles(rng, model):
        an = random_anti_nef_cycle(rng, model)
        q = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        bump = Cycle({rng.choice(model.names): Fraction(rng.choice([-1, 1]), 3)})
        return [
            an,
            q * an,
            q * an + bump,
            an + Cycle({rng.choice(model.names): 1}),
            random_integral_cycle(rng, model, lo=0, hi=3),
            random_integral_cycle(rng, model),
            Cycle({n: Fraction(rng.randint(0, 9), rng.randint(1, 4)) for n in model.names}),
        ]

    def test_is_anti_nef_matches_dot_curve(self):
        rng = random.Random(410)
        seen = set()
        for _ in range(40):
            model = random_model(rng, max_blowups=5)
            for z in self._cycles(rng, model):
                expected = z.is_effective() and all(
                    model.dot_curve(z, e) <= 0 for e in model.exceptional
                )
                assert model.is_anti_nef(z) == expected
                seen.add((expected, z.is_integral()))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_curve_rows_match_dot_curve(self):
        rng = random.Random(411)
        for _ in range(40):
            model = random_model(rng, max_blowups=5)
            for z in self._cycles(rng, model):
                rows = model.curve_rows(z.items())
                assert rows == {c: model.dot_curve(z, c) for c in model.names}

    def test_closure_rows_match_dot_curve_at_every_step(self):
        rng = random.Random(412)
        steps = 0
        for _ in range(40):
            model = random_model(rng, max_blowups=5)
            z = random_integral_cycle(rng, model)
            z = Cycle(
                {n: abs(q) if model.kind[n] == MARKED else q for n, q in z.items()}
            )
            work = Cycle(
                {n: q if model.kind[n] == MARKED else max(q, 0) for n, q in z.items()}
            )
            chooser = random.Random(rng.randint(0, 10**6))

            def choose(bad):
                nonlocal work, steps
                assert bad == [e for e in model.exceptional if model.dot_curve(work, e) > 0]
                pick = chooser.choice(bad)
                work = work + Cycle({pick: 1})
                steps += 1
                return pick

            out = model.anti_nef_closure(z, choose=choose)
            assert out == work
            assert all(model.dot_curve(out, e) <= 0 for e in model.exceptional)
        assert steps > 100

    def test_stage_matrices_are_snapshots(self):
        rng = random.Random(413)
        for _ in range(30):
            model = random_model(rng, max_blowups=5)
            base = [c.name for c in model.base_curves]
            index = {n: i for i, n in enumerate(base)}
            graph = [[0] * len(base) for _ in base]
            for c in model.base_curves:
                graph[index[c.name]][index[c.name]] = c.self_intersection
            for a, b in model.base_edges:
                graph[index[a]][index[b]] += 1
                graph[index[b]][index[a]] += 1
            assert prefix_model(model, 0).intersection_matrix() == graph
            # each stage is the one before with its blowup rule applied,
            # and the last is the final surface
            prev = prefix_model(model, 0).inter
            for s, bl in enumerate(model.blowups, 1):
                here = prefix_model(model, s).inter
                center = bl.center_on
                for a in prev:
                    for b in prev:
                        drop = a in center and b in center
                        assert here[a][b] == prev[a][b] - drop
                    assert here[bl.name][a] == here[a][bl.name] == (a in center)
                assert here[bl.name][bl.name] == -1
                prev = here
            assert prev == model.inter


class TestFundamentalCycle:
    def test_single_minus_two(self):
        model = build_model([("F", -2, EXCEPTIONAL)], [], [])
        assert model.fundamental_cycle() == Cycle({"F": 1})

    def test_hj_52(self):
        model = hj_chain(5, 2)
        zf = model.fundamental_cycle()
        assert zf == Cycle({"E1": 1, "E2": 1})
        assert zf == brute_fundamental_cycle(model)

    def test_chain_3215(self, chain_3215):
        zf = chain_3215.fundamental_cycle()
        assert zf == Cycle({"F1": 1, "E1": 2, "E2": 3, "F2": 1})
        assert zf == brute_fundamental_cycle(chain_3215)
        assert Cycle({n: 1 for n in chain_3215.exceptional}).leq(zf)

    def test_needs_exceptional_curves(self):
        model = build_model([("D", 0, MARKED)], [], [])
        with pytest.raises(InvalidParametersError):
            model.fundamental_cycle()


class TestTransport:
    def test_pullbacks(self, chain_3215):
        assert chain_3215.pullback(1, Cycle({"E1": 1})) == Cycle({"E1": 1, "E2": 1})
        assert chain_3215.pullback(0, Cycle({"F2": 1})) == Cycle(
            {"F2": 1, "E1": 1, "E2": 2}
        )

    def test_pushforward(self, a1_blown):
        assert a1_blown.pushforward(Cycle({"E1": 2, "F": 1}), 0) == Cycle({"F": 1})

    def test_stage_bounds(self, a1_blown):
        with pytest.raises(IndexError):
            a1_blown.pushforward(Cycle(), 2)
        with pytest.raises(IndexError):
            a1_blown.pullback(-1, Cycle())

    def test_projection_formula_randomized(self):
        rng = random.Random(405)
        for _ in range(25):
            model = random_model(rng)
            stage = rng.randint(0, model.n_blowups)
            down = Cycle(
                {n: rng.randint(-2, 3) for n in model.stage_names(stage)}
            )
            up = random_integral_cycle(rng, model)
            lhs = model.dot(model.pullback(stage, down), up)
            rhs = prefix_model(model, stage).dot(down, model.pushforward(up, stage))
            assert lhs == rhs
            # pushforward of pullback is the identity
            assert model.pushforward(model.pullback(stage, down), stage) == down


class TestMarkedCurves:
    def test_total_transform(self):
        model = build_model(
            [("E", -2, EXCEPTIONAL), ("D1", 0, MARKED), ("D2", 0, MARKED)],
            [("E", "D1"), ("E", "D2")],
        )
        t1 = model.total_transform_marked("D1")
        assert t1 == Cycle({"D1": 1, "E": Fraction(1, 2)})
        assert model.total_transform_marked("D2") == Cycle({"D2": 1, "E": Fraction(1, 2)})
        assert model.dot_curve(t1, "E") == 0

    def test_disjoint_marked_curve(self):
        model = build_model(
            [("E", -2, EXCEPTIONAL), ("D", 0, MARKED)], []
        )
        assert model.total_transform_marked("D") == Cycle({"D": 1})

    def test_not_marked_rejected(self, a1_blown):
        with pytest.raises(ValueError):
            a1_blown.total_transform_marked("F")

    def test_matches_dense_solve_randomized(self):
        # solved on the base graph and pulled back through the blowups,
        # centers on the marked curve included
        rng = random.Random(416)
        blown = 0
        for _ in range(40):
            model = random_model(rng, max_blowups=4)
            for d in model.marked:
                assert model.total_transform_marked(d) == total_transform_dense(model, d)
                blown += model.n_blowups > 0
        assert blown >= 5


class TestMultiplierCycle:
    def test_blown_cone_exponents(self, a1_blown):
        f_a = Cycle({"E1": 2, "F": 1})
        assert a1_blown.multiplier_cycle(f_a, 1) == Cycle({"E1": 1, "F": 1})
        assert a1_blown.multiplier_cycle(f_a, 2) == Cycle({"E1": 3, "F": 2})

    def test_fractional_exponents(self):
        model = build_model([("E2", -3, EXCEPTIONAL)], [], [("E1", ["E2"])])
        z = Cycle({"E1": 8, "E2": 2})
        assert model.multiplier_cycle(z, Fraction(1, 4)) == Cycle({"E1": 1, "E2": 1})
        assert model.multiplier_cycle(z, Fraction(2, 4)) == Cycle({"E1": 3, "E2": 1})

    def test_unit_ideal_on_log_terminal(self):
        rng = random.Random(406)
        for _ in range(20):
            model = random_model(rng)
            assert model.multiplier_cycle(Cycle(), 1) == Cycle()

    def test_requires_anti_nef(self, a1_blown):
        with pytest.raises(NotAntiNefError):
            a1_blown.multiplier_cycle(Cycle({"E1": 1}), 1)

    def test_negative_marked_rejected_by_closure(self):
        # anti-nef inputs keep marked coefficients nonnegative, so the
        # guard sits on the closure itself
        model = build_model(
            [("E", -2, EXCEPTIONAL), ("D", 0, MARKED)], [("E", "D")]
        )
        with pytest.raises(NegativeMarkedError):
            model.anti_nef_closure(Cycle({"D": -1}))

    def test_marked_multiplier_floors_to_zero(self):
        model = build_model(
            [("E", -2, EXCEPTIONAL), ("D", 0, MARKED)], [("E", "D")]
        )
        z = model.total_transform_marked("D")
        assert model.multiplier_cycle(z, Fraction(1, 2)) == Cycle()

    def test_log_terminal_iff_trivial_unit_multiplier(self):
        cusp = build_model(
            [("A", -3, EXCEPTIONAL), ("B", -3, EXCEPTIONAL), ("C", -3, EXCEPTIONAL)],
            [("A", "B"), ("B", "C"), ("A", "C")],
        )
        assert not cusp.multiplier_cycle(Cycle(), 1).is_zero()

    def test_containment_properties_randomized(self):
        rng = random.Random(407)
        for _ in range(25):
            model = random_model(rng)
            z = random_anti_nef_cycle(rng, model)
            w = z + random_anti_nef_cycle(rng, model)
            c = rng.choice([Fraction(1, 2), 1, Fraction(3, 2), 2])
            # monotone in the cycle
            assert model.multiplier_cycle(z, c).leq(model.multiplier_cycle(w, c))
            # on log terminal models the ideal sits inside its multiplier ideal
            assert model.multiplier_cycle(z, 1).leq(z)


class TestCatalog:
    def test_hj_examples(self):
        assert hj_weights(2, 1) == [2]
        assert hj_weights(5, 2) == [3, 2]
        m = hj_chain(5, 2)
        assert [m.inter[n][n] for n in m.names] == [-3, -2]

    def test_hj_weights_reconstruct(self):
        # the continued fraction evaluates back to r/a
        for r, a in [(5, 2), (7, 3), (11, 4), (12, 5), (9, 2)]:
            weights = hj_weights(r, a)
            value = Fraction(weights[-1])
            for b in reversed(weights[:-1]):
                value = b - 1 / value
            assert value == Fraction(r, a)
            assert all(b >= 2 for b in weights)

    def test_hj_invalid(self):
        with pytest.raises(InvalidParametersError):
            hj_weights(4, 2)
        with pytest.raises(InvalidParametersError):
            hj_weights(2, 3)

    def test_d4_star(self):
        m = ade("D4")
        degrees = sorted(
            sum(1 for b in m.names if b != a and m.inter[a][b]) for a in m.names
        )
        assert degrees == [1, 1, 1, 3]
        assert all(m.inter[n][n] == -2 for n in m.names)

    def test_e8(self):
        m = ade("E8")
        assert len(m.names) == 8
        degrees = sorted(
            sum(1 for b in m.names if b != a and m.inter[a][b]) for a in m.names
        )
        assert degrees == [1, 1, 1, 2, 2, 2, 2, 3]

    def test_bad_labels(self):
        for label in ["E9", "D3", "A0", "F4", "X1"]:
            with pytest.raises(InvalidParametersError):
                ade(label)


class TestCycleValues:
    def test_arithmetic_and_order(self):
        a = Cycle({"x": 1, "y": Fraction(1, 2)})
        b = Cycle({"x": 1})
        assert a - b == Cycle({"y": Fraction(1, 2)})
        assert (2 * a).coeff("y") == 1
        assert b.leq(a) and not a.leq(b)
        assert a.floor() == b
        assert a.ceil() == Cycle({"x": 1, "y": 1})

    def test_json_roundtrip(self):
        a = Cycle({"x": Fraction(-2, 5), "y": 3})
        assert Cycle.from_json_dict(a.to_json_dict()) == a
        assert a.to_json_dict() == {"x": "-2/5", "y": "3"}

    def test_integral_coefficients_are_ints(self):
        a = Cycle({"E": Fraction(4, 2), "F": Fraction(1, 3), "G": "6/3"})
        assert type(a.coeff("E")) is int and a.coeff("E") == 2
        assert type(a.coeff("G")) is int
        assert type(a.coeff("F")) is Fraction
        assert type(a.coeff("absent")) is int
        assert all(type(q) is int for _, q in (3 * a).items())
        assert type((a - a + Cycle({"E": Fraction(1, 2)}) * 2).coeff("E")) is int
        assert Cycle({"E": 0, "F": Fraction(0)}).is_zero()

    def test_int_and_fraction_inputs_agree(self):
        from_ints = Cycle({"x": 2, "y": -1})
        from_fractions = Cycle({"x": Fraction(2), "y": Fraction(-3, 3)})
        assert from_ints == from_fractions
        assert from_ints.to_json_dict() == from_fractions.to_json_dict()
        assert repr(from_ints) == repr(from_fractions) == "Cycle(2*x + -1*y)"

    def test_floats_and_bools_rejected(self):
        for bad in (0.5, 1.0, True, False):
            with pytest.raises(TypeError):
                Cycle({"x": bad})
            with pytest.raises(TypeError):
                Cycle({"x": 1}) * bad

    def test_json_bytes(self):
        a = Cycle({"y": Fraction(6, 3), "x": Fraction(-2, 5), "z": "4", "w": "-0"})
        assert json.dumps(a.to_json_dict()) == '{"x": "-2/5", "y": "2", "z": "4"}'
        assert Cycle.from_json_dict(a.to_json_dict()) == a
        # the strings are those of the Fraction values, as they always were
        rng = random.Random(414)
        for _ in range(50):
            coeffs = {f"E{i}": Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(5)}
            expect = {n: str(q) for n, q in sorted(coeffs.items()) if q}
            assert Cycle(coeffs).to_json_dict() == expect
