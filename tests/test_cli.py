import builtins
import functools
import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from subadd import cli
from subadd import proximity as px
from subadd.cli import main
from subadd.reproduce import UnknownExampleError, case_ids, run_case
from subadd.toric import ToricRing

from _oracles import brute_coordinate_steps, brute_multiplier_members, dominance_minimal

DATA = Path(__file__).parent / "data"


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check2d_passes(capsys):
    code, report = run(
        capsys,
        "check2d",
        "--model", str(DATA / "a1_model.json"),
        "--ideal-a", str(DATA / "fa.json"),
        "--ideal-b", str(DATA / "fa.json"),
    )
    assert code == 0
    assert report["status"] == "pass"
    assert report["results"]["strict_at"] == ["E1"]
    assert report["results"]["cycle_ab"] == {"E1": "3", "F": "2"}


def test_checkmono_finds_violation(capsys):
    code, report = run(
        capsys,
        "checkmono",
        "--ring", str(DATA / "q41_ring.json"),
        "--ideal-a", str(DATA / "q41_ideal.json"),
        "--ideal-b", str(DATA / "q41_ideal.json"),
    )
    assert code == 1
    assert report["status"] == "violation"
    assert report["results"]["witness"] == [10, 3, 7]


def test_malformed_json_is_input_error(capsys):
    code = main(
        [
            "check2d",
            "--model", str(DATA / "malformed.json"),
            "--ideal-a", str(DATA / "fa.json"),
            "--ideal-b", str(DATA / "fa.json"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert "malformed.json:1" in report["error"]


def test_missing_file_is_input_error(capsys):
    code = main(
        [
            "multiplier",
            "--model", str(DATA / "nope.json"),
            "--ideal", str(DATA / "fa.json"),
            "-c", "1",
        ]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "error"


def test_semantic_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad_cycle.json"
    bad.write_text('{"E1": "1"}')  # not anti-nef on the blown-up cone
    code = main(
        [
            "check2d",
            "--model", str(DATA / "a1_model.json"),
            "--ideal-a", str(bad),
            "--ideal-b", str(bad),
        ]
    )
    assert code == 2


def test_multiplier_2d(capsys):
    code, report = run(
        capsys,
        "multiplier",
        "--model", str(DATA / "a1_model.json"),
        "--ideal", str(DATA / "fa.json"),
        "-c", "2",
    )
    assert code == 0
    assert report["results"]["multiplier_cycle"] == {"E1": "3", "F": "2"}


def test_multiplier_monomial(capsys):
    code, report = run(
        capsys,
        "multiplier",
        "--ring", str(DATA / "q41_ring.json"),
        "--ideal", str(DATA / "q41_ideal.json"),
        "-c", "1/2",
    )
    assert code == 0
    assert len(report["results"]["multiplier_generators"]) >= 1


def test_strongmono(capsys):
    code, report = run(
        capsys,
        "strongmono",
        "--ring", str(DATA / "q41_ring.json"),
        "--ideal-a", str(DATA / "q41_ideal.json"),
        "--ideal-b", str(DATA / "q41_ideal.json"),
        "-c", "1",
        "-d", "1",
    )
    assert code == 1
    assert report["results"]["witness"] == [10, 3, 7]


def _write_inputs(tmp_path, files: dict) -> None:
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))


def test_out_of_scale_input_exits_3(tmp_path, capsys):
    # 231 generators on the plane x + y + z = 20 form an antichain:
    # facet enumeration would need C(234, 3) * 231, about 4.9 * 10^8
    # normal-generator products, so the pre-flight guard refuses it
    plane = [[i, j, 20 - i - j] for i in range(21) for j in range(21 - i)]
    _write_inputs(tmp_path, {"ring": {"rank": 3}, "ideal": {"generators": plane}})
    start = time.perf_counter()
    code, report = run(
        capsys,
        "multiplier",
        "--ring", str(tmp_path / "ring.json"),
        "--ideal", str(tmp_path / "ideal.json"),
        "-c", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert report["status"] == "error"
    assert report["error"].startswith("OutOfScaleError")


@pytest.mark.parametrize("verb", ["multiplier", "checkmono"])
def test_ring_past_the_hermite_cap_exits_3(tmp_path, capsys, verb):
    # rank 201 passes the 200-column cap of the Hermite basis, which the
    # multiplier's box bound reads and the ring comparison of checkmono
    # reads first: both are out of scale, not internal errors
    _write_inputs(tmp_path, {"ring": {"rank": 201}, "ideal": {"generators": [[1] + [0] * 200]}})
    ideal = str(tmp_path / "ideal.json")
    args = ["--ideal", ideal, "-c", "1"] if verb == "multiplier" else [
        "--ideal-a", ideal, "--ideal-b", ideal
    ]
    code, report = run(capsys, verb, "--ring", str(tmp_path / "ring.json"), *args)
    assert code == 3
    assert report["error"] == "OutOfScaleError: Hermite basis of 201 columns; out of desk scale"


def test_strongmono_499_generator_case_completes(tmp_path, capsys):
    # the expanded a^8 b^15 has 499 generators; its Newton polyhedron
    # comes from the 12 vertex sums 8u + 15w instead
    _write_inputs(
        tmp_path,
        {
            "ring": {"rank": 3, "congruences": [{"weights": [1, 1, 1], "modulus": 3}]},
            "a": {"generators": [[3, 0, 0], [0, 3, 0], [1, 1, 1], [0, 0, 6]]},
            "b": {"generators": [[2, 1, 0], [0, 2, 4], [1, 0, 2]]},
        },
    )
    start = time.perf_counter()
    code, report = run(
        capsys,
        "strongmono",
        "--ring", str(tmp_path / "ring.json"),
        "--ideal-a", str(tmp_path / "a.json"),
        "--ideal-b", str(tmp_path / "b.json"),
        "-c", "2/5",
        "-d", "3/4",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["status"] == "pass"
    assert report["results"]["verdict"] is True


def test_memory_error_exits_3(capsys, monkeypatch):
    def exhausted(ideal, c):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr("subadd.toric.multiplier_monomials", exhausted)
    code, report = run(
        capsys,
        "multiplier",
        "--ring", str(DATA / "q41_ring.json"),
        "--ideal", str(DATA / "q41_ideal.json"),
        "-c", "1/2",
    )
    assert code == 3
    assert report["status"] == "error"
    assert report["error"] == "MemoryError: cannot allocate"


def test_internal_error_exits_4(capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("witness failed re-verification; internal bug")

    monkeypatch.setattr("subadd.toric._certify", broken)
    code, report = run(
        capsys,
        "checkmono",
        "--ring", str(DATA / "q41_ring.json"),
        "--ideal-a", str(DATA / "q41_ideal.json"),
        "--ideal-b", str(DATA / "q41_ideal.json"),
    )
    assert code == 4
    assert report["status"] == "error"
    assert report["error"] == "AssertionError: witness failed re-verification; internal bug"


def test_false_violation_exits_4(tmp_path, capsys, monkeypatch):
    # an engine that puts the non-member x into J(m^4) on Z^2 makes x
    # look like a violation of m^2 and m^2; the product-side interior
    # re-check refuses it
    from subadd import toric as tc

    honest = tc.multiplier_monomials

    def broken(ideal, c):
        out = honest(ideal, c)
        if ideal.max_coordinate == 4:
            return tc.MonomialIdeal(ideal.ring, out.generators + ((1, 0),))
        return out

    monkeypatch.setattr(tc, "multiplier_monomials", broken)
    _write_inputs(
        tmp_path,
        {"ring": {"rank": 2, "congruences": []}, "a": {"generators": [[2, 0], [1, 1], [0, 2]]}},
    )
    code, report = run(
        capsys,
        "checkmono",
        "--ring", str(tmp_path / "ring.json"),
        "--ideal-a", str(tmp_path / "a.json"),
        "--ideal-b", str(tmp_path / "a.json"),
    )
    assert code == 4
    assert report["error"] == "AssertionError: witness failed re-verification; internal bug"


@pytest.mark.parametrize("fault", ["shifted", "negative"])
def test_engine_fault_exits_4(capsys, break_engine, fault):
    break_engine(fault)
    code, report = run(
        capsys,
        "multiplier",
        "--ring", str(DATA / "q41_ring.json"),
        "--ideal", str(DATA / "q41_ideal.json"),
        "-c", "1",
    )
    assert code == 4
    assert report["error"].startswith("AssertionError: engine row")
    assert report["error"].endswith("is not in the semigroup; internal bug")


def test_shifted_engine_row_exits_4_on_the_rows_path(capsys, monkeypatch):
    # engine output stays one array from the engine to the report: no
    # generator tuple is built, and the array re-check still refuses a
    # last row moved off the lattice by e_1
    from subadd import toric as tc

    def no_tuples(ideal):
        raise AssertionError("engine rows were turned into tuples")

    refuse = functools.cached_property(no_tuples)
    refuse.__set_name__(tc.MonomialIdeal, "generators")
    monkeypatch.setattr(tc.MonomialIdeal, "generators", refuse)
    honest, shifted = tc._box_minimal_impl.__wrapped__, []

    def engine(*args):
        rows = honest(*args).copy()
        rows[-1, 0] += 1
        shifted.append(tuple(rows[-1].tolist()))
        return rows

    argv = ["multiplier", "--ring", str(DATA / "q41_ring.json"),
            "--ideal", str(DATA / "q41_ideal.json"), "-c", "1"]
    code, report = run(capsys, *argv)
    assert code == 0 and len(report["results"]["multiplier_generators"]) > 1
    monkeypatch.setattr(tc, "_box_minimal_impl", engine)
    code, report = run(capsys, *argv)
    assert code == 4
    assert report["error"] == (
        f"AssertionError: engine row {shifted[0]} is not in the semigroup; internal bug"
    )


def test_adjunction_fault_exits_4(capsys, monkeypatch):
    # K carried through the blowups with one increment off by one: the
    # adjunction sweep refuses the model and the check exits 4
    from subadd import surface as sf

    honest = sf._blowup_canonical

    def broken(base_k, blowups, den):
        k = honest(base_k, blowups, den)
        k[blowups[0].name] += den
        return k

    monkeypatch.setattr(sf, "_blowup_canonical", broken)
    code, report = run(
        capsys,
        "check2d",
        "--model", str(DATA / "a1_model.json"),
        "--ideal-a", str(DATA / "fa.json"),
        "--ideal-b", str(DATA / "fa.json"),
    )
    assert code == 4
    assert report["error"] == (
        "AssertionError: relative canonical divisor fails adjunction; internal bug"
    )


def test_classification_violation_exits_4(capsys, monkeypatch):
    def violated(*args):
        raise px.ClassificationViolationError("not in the catalog")

    monkeypatch.setattr("subadd.proximity.subadditivity_check_2d", violated)
    code, report = run(
        capsys,
        "check2d",
        "--model", str(DATA / "a1_model.json"),
        "--ideal-a", str(DATA / "fa.json"),
        "--ideal-b", str(DATA / "fa.json"),
    )
    assert code == 4
    assert report["error"] == "ClassificationViolationError: not in the catalog"


def test_unmapped_exception_exits_4(capsys, monkeypatch):
    def stray(ideal, c):
        raise ValueError("stray value")

    monkeypatch.setattr("subadd.toric.multiplier_monomials", stray)
    code = main(
        [
            "multiplier",
            "--ring", str(DATA / "q41_ring.json"),
            "--ideal", str(DATA / "q41_ideal.json"),
            "-c", "1/2",
        ]
    )
    captured = capsys.readouterr()
    assert code == 4
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert report["error"] == "ValueError: stray value"
    assert "Traceback" not in captured.err


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        main(
            [
                "check2d",
                "--model", str(DATA / "a1_model.json"),
                "--ideal-a", str(DATA / "fa.json"),
                "--ideal-b", str(DATA / "fa.json"),
                "--out", str(out),
            ]
        )
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    r1.pop("wall_time_ms")
    r2.pop("wall_time_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_wall_time_is_monotonic_nonnegative_int(capsys, monkeypatch):
    # a wall clock stepped back an hour on every read must not show up
    clock = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    _, passed = run(
        capsys,
        "check2d",
        "--model", str(DATA / "a1_model.json"),
        "--ideal-a", str(DATA / "fa.json"),
        "--ideal-b", str(DATA / "fa.json"),
    )
    code, failed = run(capsys, "check2d", "--model", "missing.json",
                       "--ideal-a", "a.json", "--ideal-b", "b.json")
    assert passed["status"] == "pass"
    assert (code, failed["status"]) == (2, "error")
    for report in (passed, failed):
        assert type(report["wall_time_ms"]) is int
        assert report["wall_time_ms"] >= 0


def test_multiplier_with_model_and_ring_is_input_error(capsys):
    code, report = run(
        capsys,
        "multiplier",
        "--model", str(DATA / "a1_model.json"),
        "--ring", str(DATA / "q41_ring.json"),
        "--ideal", str(DATA / "fa.json"),
        "-c", "1",
    )
    assert code == 2
    assert report["status"] == "error"
    assert "not both" in report["error"]


def test_explore_verb(capsys):
    code, report = run(
        capsys, "explore", "--trials", "3", "--seed", "11", "--max-coordinate", "10"
    )
    assert code in (0, 1)
    assert report["results"]["trials_run"] == 3
    assert report["results"]["seed"] == 11


def test_explore_pinned_non_gorenstein_ring_finds_violation(capsys):
    # the Gorenstein filter applies to drawn rings only
    code, report = run(
        capsys,
        "explore",
        "--ring", str(DATA / "q41_ring.json"),
        "--ideal-a", str(DATA / "q41_ideal.json"),
        "--ideal-b", str(DATA / "q41_ideal.json"),
        "--trials", "1",
    )
    assert code == 1
    assert report["status"] == "violation"
    results = report["results"]
    assert (results["trials_run"], results["trials_skipped"]) == (1, 0)
    assert results["violations"][0]["certificate"]["witness"] == [10, 3, 7]


_CHECK2D = ["check2d", "--model", str(DATA / "a1_model.json"),
            "--ideal-a", str(DATA / "fa.json"), "--ideal-b", str(DATA / "fa.json")]
_CHECKMONO = ["checkmono", "--ring", str(DATA / "q41_ring.json"),
              "--ideal-a", str(DATA / "q41_ideal.json"), "--ideal-b", str(DATA / "q41_ideal.json")]


_F = b'{"name": "F", "self_intersection": -2, "kind": "exceptional"}'
_G = b'{"name": "G", "self_intersection": 0, "kind": "marked"}'
_E1 = b'{"name": "E1", "center_on": ["F"]}'


# (command line, index of the path replaced by the bad file, its bytes;
# None passes the directory itself)
@pytest.mark.parametrize(
    "argv, slot, content",
    [
        pytest.param(_CHECK2D, 4, b'{"E1": "2", "F": "1"}\xff', id="not utf-8"),
        pytest.param(_CHECK2D, 4, None, id="directory"),
        pytest.param(_CHECK2D, 4, b'{"E1": "1/0"}', id="zero denominator"),
        pytest.param(_CHECK2D, 4, b"[" * 100_000, id="nested too deeply"),
        pytest.param(_CHECK2D, 2, b"[]", id="model is a list"),
        pytest.param(_CHECK2D, 4, b"[]", id="cycle is a list"),
        pytest.param(_CHECKMONO, 2, b"[]", id="ring is a list"),
        pytest.param(_CHECKMONO, 4, b"[]", id="ideal is a list"),
        # numbers are never truncated: 41.5 would run as 41, a semigroup point
        pytest.param(_CHECKMONO, 4, b'{"generators": [[41.5, 0, 0]]}', id="ideal entry is a float"),
        pytest.param(
            _CHECKMONO, 2, b'{"rank": 3, "congruences": [{"weights": [1.7, 1, 1], "modulus": 2}]}',
            id="ring weight is a float",
        ),
        pytest.param(
            _CHECK2D, 2,
            b'{"base_curves": [{"name": "F", "self_intersection": -2.5, "kind": "exceptional"}],'
            b' "blowups": [{"name": "E1", "center_on": ["F"]}]}',
            id="model self-intersection is a float",
        ),
        # names are never coerced with str(): null would run as "None",
        # and "FG" as the edge or center F, G
        pytest.param(
            _CHECK2D, 2,
            b'{"base_curves": [' + _F + b', {"name": null, "self_intersection": 0, "kind": "marked"}],'
            b' "blowups": [' + _E1 + b']}',
            id="curve name is null",
        ),
        pytest.param(
            _CHECK2D, 2,
            b'{"base_curves": [' + _F + b', ' + _G + b'],'
            b' "blowups": [' + _E1 + b', {"name": 5, "center_on": ["G"]}]}',
            id="blowup name is a number",
        ),
        pytest.param(
            _CHECK2D, 2,
            b'{"base_curves": [' + _F + b', ' + _G + b'], "base_edges": ["FG"],'
            b' "blowups": [' + _E1 + b']}',
            id="edge is a string",
        ),
        pytest.param(
            _CHECK2D, 2,
            b'{"base_curves": [' + _F + b', ' + _G + b'], "base_edges": [["F", "G"]],'
            b' "blowups": [{"name": "E1", "center_on": "FG"}]}',
            id="center is a string",
        ),
        # unknown keys are refused, not dropped: a misspelt "congruences"
        # would run the q41 ideal on Z^3, and "base_edge" would leave the
        # two curves disjoint
        pytest.param(
            _CHECKMONO, 2, b'{"rank": 3, "congruence": [{"weights": [35, 28, 20], "modulus": 41}]}',
            id="ring key misspelt",
        ),
        pytest.param(
            _CHECKMONO, 2,
            b'{"rank": 3, "congruences": [{"weights": [35, 28, 20], "modulus": 41, "moduli": [2]}]}',
            id="congruence has an unknown key",
        ),
        pytest.param(
            _CHECKMONO, 4, b'{"generators": [[41, 0, 0]], "generator": [[8, 1, 1]]}',
            id="ideal has an unknown key",
        ),
        pytest.param(_CHECKMONO, 4, b'{}', id="ideal lacks its generators"),
        pytest.param(
            _CHECK2D, 2,
            b'{"base_curves": [' + _F + b', ' + _G + b'], "base_edge": [["F", "G"]],'
            b' "blowups": [' + _E1 + b']}',
            id="model key misspelt",
        ),
        pytest.param(
            _CHECK2D, 2,
            b'{"base_curves": [{"name": "F", "self_intersection": -2, "kind": "exceptional",'
            b' "genus": 1}], "blowups": [' + _E1 + b']}',
            id="base curve has an unknown key",
        ),
        pytest.param(
            _CHECK2D, 2,
            b'{"base_curves": [' + _F + b'], "blowups": [{"name": "E1", "center_on": ["F"],'
            b' "centre_on": ["F"]}]}',
            id="blowup has an unknown key",
        ),
    ],
)
def test_bad_input_file_is_input_error(tmp_path, capsys, argv, slot, content):
    bad = tmp_path
    if content is not None:
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
    argv = argv[:slot] + [str(bad)] + argv[slot + 1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert report["error"].startswith(str(bad))
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--modulus-min", "5", "--modulus-max", "2"],
        ["--modulus-min", "0"],
        ["--rank", "0"],
        ["--trials", "-1"],
    ],
    ids=["modulus-min above modulus-max", "modulus-min 0", "rank 0", "trials -1"],
)
def test_explore_out_of_range_is_input_error(capsys, argv):
    code, report = run(capsys, "explore", "--trials", "3", *argv)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"].startswith("InvalidParametersError: explore needs")


def test_unwritable_out_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["reproduce", "2.6.1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write the report to {out}")
    assert not out.parent.exists()


def test_input_digests_are_sha256_of_file_bytes(capsys):
    files = [DATA / "q41_ring.json", DATA / "q41_ideal.json"]
    _, report = run(
        capsys,
        "checkmono",
        "--ring", str(files[0]),
        "--ideal-a", str(files[1]),
        "--ideal-b", str(files[1]),
    )
    assert report["inputs"] == {
        str(p): "sha256:" + hashlib.sha256(p.read_bytes()).hexdigest() for p in files
    }


def test_check2d_opens_each_input_once(tmp_path, capsys, monkeypatch):
    fb = tmp_path / "fb.json"
    fb.write_bytes((DATA / "fa.json").read_bytes())
    paths = [str(DATA / "a1_model.json"), str(DATA / "fa.json"), str(fb)]
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, _ = run(capsys, "check2d", "--model", paths[0], "--ideal-a", paths[1],
                  "--ideal-b", paths[2])
    assert code == 0
    assert [p for p in opened if p in paths] == paths


def test_successive_calls_do_not_leak_arguments(capsys):
    run(capsys, "explore", "--trials", "3")
    _, report = run(capsys, "explore")
    assert report["arguments"]["trials"] == 100
    assert report["results"]["trials_run"] + report["results"]["trials_skipped"] == 100


@pytest.mark.parametrize("case_id", case_ids())
def test_reproduce_cases_pass(capsys, case_id):
    code, report = run(capsys, "reproduce", case_id)
    assert code == 0, report["results"]["mismatches"]
    assert report["status"] == "pass"
    assert report["results"]["mismatches"] == []


def test_reproduce_parameter_variants():
    for k in (2, 3, 5):
        _, mismatches = run_case("2.4.1", k=k)
        assert mismatches == []


def test_unknown_case_rejected():
    with pytest.raises(UnknownExampleError):
        run_case("9.9")


_Q41 = ["--ring", str(DATA / "q41_ring.json")]
_Q41_PAIR = _Q41 + ["--ideal-a", str(DATA / "q41_ideal.json"),
                    "--ideal-b", str(DATA / "q41_ideal.json")]


def _layout(value, rows: bool, pad: str = "\n") -> str:
    """The indent=2, sorted-key JSON layout built one value at a time;
    with ``rows``, a list of int lists with at least one entry puts one
    row per line."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        return "{" + ",".join(
            f"{inner}{json.dumps(k)}: {_layout(v, rows, inner)}" for k, v in sorted(value.items())
        ) + pad + "}"
    if isinstance(value, list) and value:
        if rows and all(isinstance(r, list) for r in value) and any(value) and all(
            type(x) is int for r in value for x in r
        ):
            return "[" + ",".join(inner + json.dumps(r) for r in value) + pad + "]"
        return "[" + ",".join(inner + _layout(v, rows, inner) for v in value) + pad + "]"
    return json.dumps(value)


# (command line, whether the report holds a list of integer rows)
@pytest.mark.parametrize(
    "argv, has_rows",
    [(["reproduce", case], case in ("2.6.2", "3.2")) for case in case_ids()]
    + [
        (_CHECK2D, False),
        (["multiplier", "--model", str(DATA / "a1_model.json"),
          "--ideal", str(DATA / "fa.json"), "-c", "2"], False),
        (["multiplier", *_Q41, "--ideal", str(DATA / "q41_ideal.json"), "-c", "1/2"], True),
        (_CHECKMONO, True),
        (["strongmono", *_Q41_PAIR, "-c", "1", "-d", "1"], True),
        (["explore", *_Q41_PAIR, "--trials", "1", "--no-gorenstein-filter"], True),
        (["explore", "--trials", "2", "--seed", "11", "--max-coordinate", "10"], False),
    ],
    ids=[f"reproduce-{case}" for case in case_ids()]
    + ["check2d", "multiplier-model", "multiplier-ring", "checkmono", "strongmono",
       "explore-violation", "explore-pass"],
)
def test_report_text(tmp_path, monkeypatch, argv, has_rows):
    built, write = [], cli._report_text

    def spy(report):
        built.append(report)
        return write(report)

    monkeypatch.setattr(cli, "_report_text", spy)
    out = tmp_path / "report.json"
    main(argv + ["--out", str(out)])
    text = out.read_text(encoding="utf-8")
    # the multiplier verb hands its generators to the writer as an array
    old = json.dumps(built[0], indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
    assert json.loads(text) == json.loads(old)
    # the writer lays out everything as json.dumps does, but puts each
    # row of an integer-row list on its own line
    assert _layout(json.loads(old), False) + "\n" == old
    assert _layout(json.loads(old), True) + "\n" == text
    assert (text != old) == has_rows
    if argv[0] == "multiplier" and has_rows:
        gens = built[0]["results"]["multiplier_generators"]
        assert gens.dtype == np.int64 and not gens.flags.writeable
        gens = gens.tolist()
        rows = ",\n".join("      " + json.dumps(g) for g in gens)
        assert f'    "multiplier_generators": [\n{rows}\n    ]' in text


# reports written by the one-row-per-line writer, run from the repository
# root; only the wall time may differ
_GOLDEN = [
    ("multiplier_q41_c2.json",
     ["multiplier", "--ring", "tests/data/q41_ring.json",
      "--ideal", "tests/data/q41_ideal.json", "-c", "2"]),
    ("checkmono_q41.json",
     ["checkmono", "--ring", "tests/data/q41_ring.json",
      "--ideal-a", "tests/data/q41_ideal.json", "--ideal-b", "tests/data/q41_ideal.json"]),
    ("check2d_a1.json",
     ["check2d", "--model", "tests/data/a1_model.json",
      "--ideal-a", "tests/data/fa.json", "--ideal-b", "tests/data/fa.json"]),
    # a rank-3 box of side 312 that the engine walks in many row blocks
    ("multiplier_bigbox_c1_2.json",
     ["multiplier", "--ring", "tests/data/bigbox_ring.json",
      "--ideal", "tests/data/bigbox_ideal.json", "-c", "1/2"]),
    # a rank-2 box of side 30012 whose staircase reaches zero at x_1 = 63
    ("multiplier_long_rank2.json",
     ["multiplier", "--ring", "tests/data/long_ring.json",
      "--ideal", "tests/data/long_ideal.json", "-c", "1"]),
    # fractional exponents: the mixed ideal's exponent is 1/6
    ("strongmono_q41_c1_2_d1_3.json",
     ["strongmono", "--ring", "tests/data/q41_ring.json",
      "--ideal-a", "tests/data/q41_ideal.json", "--ideal-b", "tests/data/q41_ideal.json",
      "-c", "1/2", "-d", "1/3"]),
    # the rounded closure formula on a model with fractional K
    ("reproduce_2.6.2.json", ["reproduce", "2.6.2"]),
    # marked curves: total transforms solved on the base graph
    ("reproduce_2.3.2.json", ["reproduce", "2.3.2"]),
    # 1/4(1,2,2) has coordinate steps (2, 1, 1): the interior shift is not
    # all ones
    ("multiplier_q4_c3_2.json",
     ["multiplier", "--ring", "tests/data/q4_ring.json",
      "--ideal", "tests/data/q4_ideal.json", "-c", "3/2"]),
]


@pytest.mark.parametrize("name, argv", _GOLDEN, ids=[name for name, _ in _GOLDEN])
def test_report_bytes_match_golden(tmp_path, monkeypatch, name, argv):
    monkeypatch.chdir(DATA.parent.parent)
    out = tmp_path / name
    main(argv + ["--out", str(out)])

    def mask(data: bytes) -> bytes:
        return re.sub(rb'"wall_time_ms": \d+', b'"wall_time_ms": 0', data)

    assert mask(out.read_bytes()) == mask((DATA / "golden" / name).read_bytes())


def test_non_unit_golden_matches_fm():
    # the golden generators on 1/4(1,2,2) are the minimal semigroup points
    # v with v + s strictly inside (3/2) Newt, s the coordinate steps from
    # a box scan, by Fourier-Motzkin
    ring = ToricRing.from_json_dict(json.loads((DATA / "q4_ring.json").read_text()))
    gens = json.loads((DATA / "q4_ideal.json").read_text())["generators"]
    report = json.loads((DATA / "golden" / "multiplier_q4_c3_2.json").read_bytes())
    shift = brute_coordinate_steps(ring)
    assert shift == (2, 1, 1)
    # every minimal generator lies below ceil(c M) + index + rank
    members = brute_multiplier_members(ring, gens, Fraction(3, 2), 12 + 4 + 3, shift)
    golden = report["results"]["multiplier_generators"]
    assert set(map(tuple, golden)) == dominance_minimal(members)
    assert len(golden) == 17
