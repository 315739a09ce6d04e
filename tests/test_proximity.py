import random
from fractions import Fraction

import pytest

from subadd import proximity as px
from subadd.surface import (
    EXCEPTIONAL,
    MARKED,
    Cycle,
    NotAntiNefError,
    ResolutionModel,
    ade,
    build_model,
    hj_chain,
)

from _oracles import (
    NotGorensteinError,
    anti_nef_test_d,
    gorenstein_closure_formula,
    naive_ceil_closure_by_stages,
    stage_canonical_dense,
)
from _randgen import random_anti_nef_cycle, random_integral_cycle, random_model


class TestProximityData:
    def test_no_blowups(self):
        model = hj_chain(5, 2)
        pd = px.proximity_data(model)
        assert pd.matrix == ()
        assert pd.pullbacks == {}

    def test_single_blowup(self, a1_blown):
        pd = px.proximity_data(a1_blown)
        assert pd.matrix == ((1,),)
        assert pd.prox["E1"] == frozenset()
        assert pd.prox_base["E1"] == frozenset({"F"})

    def test_chain(self, chain_3215):
        pd = px.proximity_data(chain_3215)
        assert pd.matrix == ((1, -1), (0, 1))
        assert pd.prox["E2"] == frozenset({"E1"})
        assert pd.prox_base["E2"] == frozenset({"F2"})
        assert pd.pullbacks["E1"] == Cycle({"E1": 1, "E2": 1})

    def test_tower_order_transitive(self):
        model = build_model(
            [("F", -2, EXCEPTIONAL)],
            [],
            [("E1", ["F"]), ("E2", ["E1"]), ("E3", ["E2"])],
        )
        pd = px.proximity_data(model)
        assert pd.prox["E3"] == frozenset({"E2"})
        # proximity is not transitive, but pullbacks are: E3 lies over E1
        assert pd.pullbacks["E1"] == Cycle({"E1": 1, "E2": 1, "E3": 1})


class TestStageCanonicals:
    def test_recursive_structure_randomized(self):
        # every stage's K, carried through the blowups by K' = pi^*K + E,
        # equals the dense adjunction solve at that stage; and in
        # d-coordinates the full K is the stage-0 part plus one copy of
        # every blowup pullback
        rng = random.Random(500)
        marked_centers = 0
        for i in range(60):
            model = random_model(rng, max_blowups=3 + i % 4)
            marked_centers += sum(
                any(model.kind[c] == MARKED for c in model.center_of[b])
                for b in model.blowup_names
            )
            k = model.relative_canonical
            for s in range(model.n_blowups + 1):
                assert k.restrict(model.stage_names(s)) == stage_canonical_dense(model, s)
            dc = px.d_coordinates(model, k)
            assert dc.base == k.restrict(model.stage_names(0))
            assert all(v == 1 for v in dc.d)
        assert marked_centers >= 5

    def test_marked_centers(self):
        # blowups on a marked curve alone and on its meeting point with
        # an exceptional curve: the marked curve carries no K-mass
        model = build_model(
            [("F", -3, EXCEPTIONAL), ("D", 0, MARKED)],
            [("F", "D")],
            [("B1", ["D"]), ("B2", ["F", "D"]), ("B3", ["B2", "D"])],
        )
        assert model.relative_canonical == Cycle(
            {"F": Fraction(-1, 3), "B1": 1, "B2": Fraction(2, 3), "B3": Fraction(5, 3)}
        )
        for s in range(model.n_blowups + 1):
            k = model.relative_canonical.restrict(model.stage_names(s))
            assert k == stage_canonical_dense(model, s)


class TestDCoordinates:
    def test_examples(self, a1_blown, chain_3215):
        dc = px.d_coordinates(a1_blown, Cycle({"E1": 2, "F": 1}))
        assert dc.base == Cycle({"F": 1})
        assert dc.d == (Fraction(1),)
        dc2 = px.d_coordinates(chain_3215, Cycle({"F1": 1, "E1": 3, "E2": 5, "F2": 1}))
        assert dc2.base == Cycle({"F1": 1, "F2": 1})
        assert dc2.d == (Fraction(1), Fraction(1))
        assert px.d_coordinates(a1_blown, Cycle()) == px.DCoordinates(Cycle(), (Fraction(0),))

    def test_roundtrip_randomized(self):
        rng = random.Random(501)
        for _ in range(30):
            model = random_model(rng)
            z = random_integral_cycle(rng, model)
            dc = px.d_coordinates(model, z)
            assert px.from_d_coordinates(model, dc) == z


class TestAntiNefTestD:
    def test_examples(self, a1_blown, chain_3215):
        dc = px.d_coordinates(a1_blown, Cycle({"E1": 2, "F": 1}))
        assert anti_nef_test_d(a1_blown, dc)
        dc2 = px.d_coordinates(chain_3215, Cycle({"F1": 1, "E1": 3, "E2": 5, "F2": 1}))
        assert anti_nef_test_d(chain_3215, dc2)
        assert not anti_nef_test_d(
            a1_blown, px.DCoordinates(Cycle(), (Fraction(-1),))
        )

    def test_base_row_needs_blowup_mass(self, a1_blown):
        # the strict transform of F plus 4 E1 passes the naive test
        # (P d >= 0, pushforward anti-nef) but is not anti-nef; the
        # corrected stage-0 rows catch it
        z = Cycle({"F": 1, "E1": 4})
        dc = px.d_coordinates(a1_blown, z)
        assert dc.d == (Fraction(3),)
        assert not a1_blown.is_anti_nef(z)
        assert not anti_nef_test_d(a1_blown, dc)

    def test_equivalence_randomized(self):
        rng = random.Random(502)
        for _ in range(40):
            model = random_model(rng)
            z = random_integral_cycle(rng, model)
            dc = px.d_coordinates(model, z)
            assert anti_nef_test_d(model, dc) == model.is_anti_nef(z)


class TestLambda:
    def test_examples(self, a1_blown, chain_3215):
        assert px.lambda_set(a1_blown) == (0,)
        assert px.lambda_set(chain_3215) == (0,)
        assert px.lambda_set(hj_chain(5, 2)) == ()

    def test_gorenstein_towers_use_all_indices(self):
        model = build_model(
            [("F", -2, EXCEPTIONAL)],
            [],
            [("E1", ["F"]), ("E2", ["E1", "F"])],
        )
        assert px.lambda_set(model) == (0, 1)


class TestComputationSequence:
    def test_blown_cone(self, a1_blown):
        f_a = Cycle({"E1": 2, "F": 1})
        tr = px.computation_sequence(a1_blown, f_a)
        assert tr.d_start == (1,)
        assert tr.d_steps == [(0,)]
        assert tr.final_cycle == Cycle({"E1": 1, "F": 1})
        tr2 = px.computation_sequence(a1_blown, 2 * f_a)
        assert tr2.d_steps == [(1,)]
        assert tr2.final_cycle == Cycle({"E1": 3, "F": 2})

    def test_empty_lambda_model(self):
        model = hj_chain(5, 2)
        zf = model.fundamental_cycle()
        tr = px.computation_sequence(model, zf)
        assert len(tr.d_steps) == 1
        assert tr.final_cycle == model.anti_nef_closure(
            zf - model.relative_canonical.ceil()
        )

    def test_rejects_non_anti_nef(self, a1_blown):
        with pytest.raises(NotAntiNefError):
            px.computation_sequence(a1_blown, Cycle({"E1": 1}))

    def test_matches_oracle_randomized(self):
        rng = random.Random(503)
        done = 0
        while done < 40:
            model = random_model(rng)
            z = random_anti_nef_cycle(rng, model)
            try:
                tr = px.computation_sequence(model, z)
            except px.NoLambdaError:
                continue
            oracle = model.anti_nef_closure(z - model.relative_canonical.ceil())
            assert tr.final_cycle == oracle
            done += 1

    def test_choice_independence_randomized(self):
        rng = random.Random(504)
        done = 0
        while done < 15:
            model = random_model(rng)
            z = random_anti_nef_cycle(rng, model)
            try:
                smallest = px.computation_sequence(model, z)
            except px.NoLambdaError:
                continue
            chooser = random.Random(rng.randint(0, 10**6))
            randomized = px.computation_sequence(model, z, choose=chooser.choice)
            assert randomized.final_cycle == smallest.final_cycle
            done += 1

    def test_step_bounds_randomized(self):
        # every step stays within one of the original d-coordinates
        rng = random.Random(505)
        done = 0
        while done < 25:
            model = random_model(rng)
            z = random_anti_nef_cycle(rng, model)
            try:
                tr = px.computation_sequence(model, z)
            except px.NoLambdaError:
                continue
            for step in tr.d_steps:
                for value, original in zip(step, tr.d_start):
                    assert original - 1 <= value <= original
            done += 1

    def test_zero_propagation_randomized(self):
        # anti-nef cycles have zero d-mass above any index of zero d
        rng = random.Random(506)
        for _ in range(25):
            model = random_model(rng)
            z = random_anti_nef_cycle(rng, model)
            dc = px.d_coordinates(model, z)
            prox = px.proximity_data(model)
            names = model.blowup_names
            for j, name_j in enumerate(names):
                if dc.d[j] == 0:
                    for i, name_i in enumerate(names):
                        if name_j in prox.prox[name_i]:
                            assert dc.d[i] == 0


class TestPairedSequences:
    def test_blown_cone_strict(self, a1_blown):
        f_a = Cycle({"E1": 2, "F": 1})
        pp = px.paired_sequences(a1_blown, f_a, f_a)
        assert pp.final_a == Cycle({"E1": 1, "F": 1})
        assert pp.final_b == Cycle({"E1": 1, "F": 1})
        assert pp.final_c == Cycle({"E1": 3, "F": 2})
        assert pp.inequality_holds
        assert pp.strict_at == ("E1",)
        assert pp.triples == [(0, 0, 1)]

    def test_zero_side_collapses(self, a1_blown):
        f_a = Cycle({"E1": 2, "F": 1})
        pp = px.paired_sequences(a1_blown, f_a, Cycle())
        assert pp.final_b == Cycle()
        assert pp.final_c == pp.final_a

    def test_randomized_inequality_and_triples(self):
        rng = random.Random(507)
        done = 0
        while done < 40:
            model = random_model(rng)
            f_a = random_anti_nef_cycle(rng, model)
            f_b = random_anti_nef_cycle(rng, model)
            try:
                pp = px.paired_sequences(model, f_a, f_b)
            except px.NoLambdaError:
                continue
            assert pp.inequality_holds
            ceil_k = model.relative_canonical.ceil()
            assert pp.final_a == model.anti_nef_closure(f_a - ceil_k)
            assert pp.final_b == model.anti_nef_closure(f_b - ceil_k)
            assert pp.final_c == model.anti_nef_closure(f_a + f_b - ceil_k)
            assert len(pp.triple_forms) == len(model.blowup_names)
            done += 1


class TestSteppingProcess:
    """A pinned model whose d-process takes steps on every track."""

    @pytest.fixture
    def stepping(self):
        model = build_model(
            [("E1", -3, "exceptional")],
            [],
            [
                ("B1", ["E1"]),
                ("B2", ["E1", "B1"]),
                ("B3", ["B1", "B2"]),
                ("B4", ["E1", "B2"]),
                ("B5", ["B2"]),
                ("B6", ["B2"]),
            ],
        )
        f_a = Cycle({"B1": 2, "B2": 4, "B3": 6, "B4": 6, "B5": 4, "B6": 4, "E1": 1})
        f_b = Cycle({"B1": 6, "B2": 8, "B3": 14, "B4": 10, "B5": 8, "B6": 8, "E1": 2})
        return model, f_a, f_b

    def test_computation_sequence_steps(self, stepping):
        model, f_a, _ = stepping
        tr = px.computation_sequence(model, f_a)
        assert tr.chosen == [1, 0]
        assert tr.d_steps == [(0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)]

    def test_paired_sequences_extend_the_a_track(self, stepping):
        pp = px.paired_sequences(*stepping)
        assert pp.k_c == 1
        assert len(pp.a_steps) == 1 + pp.k_c + 1
        assert len(pp.b_steps) == 1 + pp.k_c
        assert pp.final_a_d == pp.a_steps[-1] == (1, 0, 0, 0, 0, 0)
        assert pp.inequality_holds

    def test_check_passes_the_laufer_cross_check(self, stepping):
        model, f_a, f_b = stepping
        cert = px.subadditivity_check_2d(model, f_a, f_b)
        pp = px.paired_sequences(model, f_a, f_b)
        assert (cert.cycle_a, cert.cycle_b, cert.cycle_ab) == (pp.final_a, pp.final_b, pp.final_c)
        assert cert.verdict
        assert cert.strict_at == ("B2", "B3", "B4", "B5", "B6")


class TestSubadditivityCertificate:
    def test_blown_cone(self, a1_blown):
        f_a = Cycle({"E1": 2, "F": 1})
        cert = px.subadditivity_check_2d(a1_blown, f_a, f_a)
        assert cert.verdict
        assert cert.witness is None
        assert cert.strict_at == ("E1",)

    def test_trivial_ideals(self, a1_blown):
        cert = px.subadditivity_check_2d(a1_blown, Cycle(), Cycle())
        assert cert.verdict
        assert cert.cycle_a == cert.cycle_ab == Cycle()

    def test_non_log_terminal_warns_and_fails(self):
        cusp = build_model(
            [("A", -3, EXCEPTIONAL), ("B", -3, EXCEPTIONAL), ("C", -3, EXCEPTIONAL)],
            [("A", "B"), ("B", "C"), ("A", "C")],
        )
        with pytest.warns(UserWarning):
            cert = px.subadditivity_check_2d(cusp, Cycle(), Cycle())
        assert not cert.verdict
        assert cert.witness is not None

    def test_one_lambda_and_one_validation_per_check(self, chain_3215, monkeypatch):
        f_a = Cycle({"F1": 2, "F2": 2, "E1": 4, "E2": 6})
        f_b = Cycle({"F1": 1, "F2": 1, "E1": 2, "E2": 3})
        lambdas, validated = [], []
        real_lambda_set = px.lambda_set
        real_is_anti_nef = ResolutionModel.is_anti_nef

        def lambda_set(*args):
            lambdas.append(args)
            return real_lambda_set(*args)

        def is_anti_nef(model, z):
            validated.append(z)
            return real_is_anti_nef(model, z)

        monkeypatch.setattr(px, "lambda_set", lambda_set)
        monkeypatch.setattr(ResolutionModel, "is_anti_nef", is_anti_nef)
        cert = px.subadditivity_check_2d(chain_3215, f_a, f_b)
        assert cert.verdict
        assert len(lambdas) == 1
        assert sum(z is f_a for z in validated) == 1
        assert sum(z is f_b for z in validated) == 1

    def test_randomized_always_holds_on_catalogs(self):
        rng = random.Random(508)
        for _ in range(40):
            model = random_model(rng)
            f_a = random_anti_nef_cycle(rng, model)
            f_b = random_anti_nef_cycle(rng, model)
            cert = px.subadditivity_check_2d(model, f_a, f_b)
            assert cert.verdict

    def test_json_shape(self, a1_blown):
        f_a = Cycle({"E1": 2, "F": 1})
        d = px.subadditivity_check_2d(a1_blown, f_a, f_a).to_json_dict()
        assert d["verdict"] is True
        assert d["cycle_ab"] == {"E1": "3", "F": "2"}


class TestClosureFormulas:
    def test_integral_k_formula(self, a1_blown):
        f_a = Cycle({"E1": 2, "F": 1})
        assert gorenstein_closure_formula(a1_blown, f_a) == Cycle({"E1": 1, "F": 1})
        assert gorenstein_closure_formula(a1_blown, 2 * f_a) == Cycle({"E1": 3, "F": 2})

    def test_formula_includes_correction_terms(self, a1_blown):
        z = a1_blown.pullback(0, Cycle({"F": 1}))
        assert gorenstein_closure_formula(a1_blown, z) == Cycle({"E1": 1, "F": 1})

    def test_fractional_k_rejected(self, chain_3215):
        with pytest.raises(NotGorensteinError):
            gorenstein_closure_formula(chain_3215, Cycle())

    def test_matches_oracle_on_integral_models(self):
        rng = random.Random(509)
        done = 0
        while done < 25:
            model = random_model(rng, allow_marked=False)
            if not model.relative_canonical.is_integral():
                continue
            z = random_anti_nef_cycle(rng, model)
            formula = gorenstein_closure_formula(model, z)
            oracle = model.anti_nef_closure(z - model.relative_canonical)
            assert formula == oracle
            done += 1

    def test_rounded_analog_fails_on_chain(self, chain_3215):
        z = Cycle({"F1": 1, "E1": 3, "E2": 5, "F2": 1})
        naive = px.naive_ceil_closure_formula(chain_3215, z)
        oracle = chain_3215.anti_nef_closure(z - chain_3215.relative_canonical.ceil())
        assert oracle == z - chain_3215.relative_canonical.ceil() + Cycle({"E1": 1})
        assert naive != oracle

    def test_rounded_analog_specializes_on_integral_models(self):
        # with an integral canonical divisor the rounding conditions
        # are vacuous, so both formulas agree
        rng = random.Random(510)
        done = 0
        while done < 15:
            model = random_model(rng, allow_marked=False)
            if not model.relative_canonical.is_integral():
                continue
            z = random_anti_nef_cycle(rng, model)
            assert px.naive_ceil_closure_formula(
                model, z
            ) == gorenstein_closure_formula(model, z)
            done += 1

    def test_rounded_analog_matches_stagewise_definition(self):
        # the closed-form stage rows and rounding test against the
        # definition replayed on one prefix model per stage; the
        # rounding test changes the result on some of these models
        rng = random.Random(7)
        marked = 0
        for _ in range(300):
            model = random_model(rng, max_blowups=4)
            marked += bool(model.marked)
            z = random_anti_nef_cycle(rng, model)
            assert px.naive_ceil_closure_formula(model, z) == naive_ceil_closure_by_stages(
                model, z
            )
        assert marked >= 50


class TestCounterexamples:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_irreducible(self, k):
        report = px.strong_subadd_counterexample_irreducible(k)
        assert report.cycle_single == Cycle({"E1": 1, "E2": 1})
        assert report.cycle_double == Cycle({"E1": 3, "E2": 1})
        assert not report.inclusion_holds
        assert report.witness == "E2"
        assert report.model.relative_canonical == Cycle(
            {"E1": Fraction(2, k), "E2": -Fraction(k - 2, k)}
        )

    def test_irreducible_bad_parameters(self):
        with pytest.raises(ValueError):
            px.strong_subadd_counterexample_irreducible(1)

    def test_reducible_hj52(self):
        report = px.strong_subadd_counterexample_reducible(hj_chain(5, 2), 2)
        assert report.fundamental == Cycle({"E1": 1, "E2": 1})
        assert report.cycle_whole == report.z
        assert report.cycle_fraction == report.fundamental
        assert not report.inclusion_holds
        assert report.witness is not None

    def test_reducible_d4(self):
        report = px.strong_subadd_counterexample_reducible(ade("D4"), 2)
        assert not report.inclusion_holds
        assert report.fundamental.leq(report.z)

    def test_reducible_needs_reducible_locus(self):
        single = build_model([("E", -3, EXCEPTIONAL)], [], [])
        with pytest.raises(px.NoQualifyingCycleError):
            px.strong_subadd_counterexample_reducible(single, 2)
