import builtins
import hashlib
import json
import time
from pathlib import Path

import pytest

from subadd import proximity as px
from subadd.cli import main
from subadd.reproduce import UnknownExampleError, case_ids, run_case

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


_CHECK2D = ["check2d", "--model", str(DATA / "a1_model.json"),
            "--ideal-a", str(DATA / "fa.json"), "--ideal-b", str(DATA / "fa.json")]
_CHECKMONO = ["checkmono", "--ring", str(DATA / "q41_ring.json"),
              "--ideal-a", str(DATA / "q41_ideal.json"), "--ideal-b", str(DATA / "q41_ideal.json")]


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
