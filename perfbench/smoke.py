"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, traced and untraced, in fresh
worker processes, and checks that every metric named in BENCHMARK.json
is reported with its unit. Then runs the toric workloads in-process with
a deliberately corrupted library result (a flipped verdict) and checks
that the output checks count failed calls. Exits 1 on any problem.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import worker

HERE = Path(__file__).resolve().parent


def _expected() -> dict[int, dict[str, str]]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    untraced = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {0: untraced, 1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def check_metrics(problems: list[str]) -> None:
    import workloads

    expected = _expected()
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            workdir = HERE.parent / ".bench_out" / f"smoke-{name}-{trace}-{os.getpid()}"
            spans = HERE.parent / ".bench_out" / f"smoke-{name}.spans.jsonl"
            cmd = [
                sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "3",
                "--seconds", "0.5", "--trace", str(trace), "--workdir", str(workdir),
                "--spans", str(spans), "--tiny",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
            spans.unlink(missing_ok=True)
            if proc.returncode != 0:
                problems.append(f"{name} trace {trace}: worker exited {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            # set-up time is measured by run.py around the worker
            want = {k: u for k, u in expected[trace].items() if k != "setup_s"}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if result["failed"]:
                problems.append(f"{name} trace {trace}: {result['problems']}")
            print(f"{name} trace {trace}: {result['attempted']} calls, {len(got)} metrics", flush=True)


def check_corruption(problems: list[str]) -> None:
    """A flipped verdict must show up as failed calls."""
    import workloads
    from subadd import toric

    honest = toric.subadditivity_check_monomial

    def flipped(a, b):
        cert = honest(a, b)
        return dataclasses.replace(cert, verdict=not cert.verdict)

    for name in ("toric-bigbox", "explore-rank3"):
        calls = workloads.build(name, 3, tiny=True)
        if name == "toric-bigbox":
            q41 = {"ring.json": workloads.Q41_RING, "a.json": workloads.Q41_IDEAL, "b.json": workloads.Q41_IDEAL}
            calls = [workloads.Call("checkmono", ["--ring", "ring.json", "--ideal-a", "a.json", "--ideal-b", "b.json"],
                                    q41, workloads._check_checkmono(q41))]
        workdir = HERE.parent / ".bench_out" / f"smoke-corrupt-{name}-{os.getpid()}"
        argvs = worker.write_inputs(calls, workdir)
        toric.subadditivity_check_monomial = flipped
        try:
            args = SimpleNamespace(workload=name, seed=3, tiny=True, trace=0, seconds=0.5)
            result = worker.measure(args, calls, argvs, workdir)
        finally:
            toric.subadditivity_check_monomial = honest
            shutil.rmtree(workdir, ignore_errors=True)
        ratio = result["failed"] / result["attempted"]
        print(f"{name} with flipped verdicts: failed_ratio {ratio:.3f}", flush=True)
        if not ratio > 0:
            problems.append(f"{name}: a flipped verdict went unnoticed")


def main() -> int:
    worker._import_library()
    problems: list[str] = []
    check_metrics(problems)
    check_corruption(problems)
    for p in problems:
        print("PROBLEM", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
