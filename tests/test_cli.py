import json
import time
from pathlib import Path

import pytest

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


def test_out_of_scale_input_exits_3(tmp_path, capsys):
    # a^8 b^15 has 499 generators: facet enumeration would need about
    # 10^10 normal-generator products, so the pre-flight guard refuses it
    files = {
        "ring": {"rank": 3, "congruences": [{"weights": [1, 1, 1], "modulus": 3}]},
        "a": {"generators": [[3, 0, 0], [0, 3, 0], [1, 1, 1], [0, 0, 6]]},
        "b": {"generators": [[2, 1, 0], [0, 2, 4], [1, 0, 2]]},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
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
    assert code == 3
    assert report["status"] == "error"
    assert report["error"].startswith("OutOfScaleError")


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


def test_explore_verb(capsys):
    code, report = run(
        capsys, "explore", "--trials", "3", "--seed", "11", "--max-coordinate", "10"
    )
    assert code in (0, 1)
    assert report["results"]["trials_run"] == 3
    assert report["results"]["seed"] == 11


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
