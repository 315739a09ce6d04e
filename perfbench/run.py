"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``. The run starts fresh worker processes: several that only set
up (interpreter start, ``import subadd``, writing the seeded inputs) to
time set-up, then one that also drives the CLI for ``--seconds``. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last stdout line is the JSON
result; the run record and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toric-bigbox", "explore-rank3", "strongmono-powers", "surface-2d")
SETUP_SAMPLES = 3
# Allowance beyond --seconds for the last call, output checks and exit.
GRACE_S = 120


def _machine() -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform()}
    for path, key, field in (
        ("/proc/cpuinfo", "cpu", "model name"),
        ("/proc/meminfo", "mem_total", "MemTotal"),
    ):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(field):
                        info[key] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    info["commit"] = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            info["commit"] = head.stdout.strip() if head.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def _spawn(args, workdir: Path, extra: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the
    process and the set-up time from spawn to ready."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + extra
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit status {proc.returncode})")
    return proc, setup


def _wait(proc: subprocess.Popen, timeout: float) -> str:
    """The worker's remaining stdout; the worker is killed on timeout and
    must exit with status 0."""
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return stdout


def run(args) -> dict:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one process, one thread: the closed loop has a single client
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    setups = []
    for k in range(SETUP_SAMPLES - 1):
        proc, setup = _spawn(args, out_dir / f"{tag}-{os.getpid()}-setup{k}", ["--setup-only"], env)
        _wait(proc, GRACE_S)
        setups.append(setup)

    extra = ["--spans", str(out_dir / f"{tag}.spans.jsonl")] if args.trace else []
    proc, setup = _spawn(args, out_dir / f"{tag}-{os.getpid()}", extra, env)
    setups.append(setup)
    stdout = _wait(proc, args.seconds + GRACE_S)
    result = json.loads(stdout.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        setup_samples_s=setups, machine=_machine(),
    )
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subadd" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'subadd'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} calls, {failed} failed "
          f"(failed_ratio {failed / max(attempted, 1):.4f}), pool of {result['calls']} inputs, "
          f"largest mixed ideal {result['max_mixed_generators']} generators")
    if "tail_percentile" in result:
        print(f"call_tail_ms is the p{result['tail_percentile']:.1f} latency of {attempted} calls")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"machine {json.dumps(result['machine'])} python {result['python']} numpy {result['numpy']}")
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
