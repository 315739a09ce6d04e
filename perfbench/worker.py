"""One workload process: write the inputs, then drive the CLI in a closed loop.

Started by ``run.py``; not meant to be run by hand. The process prints
``ready`` once its inputs are written, which ends set-up, then (unless
``--setup-only``) calls ``subadd.cli.main`` one call at a time, each
after the previous returns, until ``--seconds`` have passed. Every
output is checked. The last stdout line is a JSON object with the raw
measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import subadd

    if Path(subadd.__file__).resolve().parent != ROOT / "src" / "subadd":
        raise SystemExit(f"subadd imported from {subadd.__file__}, not from {ROOT / 'src'}")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _digest(rc, report) -> str:
    body = {"rc": rc, "status": report.get("status"), "results": report.get("results")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_inputs(calls, workdir: Path) -> list[list[str]]:
    """Write every call's input files; return each call's argv."""
    (workdir / "in").mkdir(parents=True)
    out_path = str(workdir / "report.json")
    argvs = []
    for i, call in enumerate(calls):
        paths = {}
        for name, data in call.files.items():
            path = workdir / "in" / f"{i}_{name}"
            path.write_text(json.dumps(data), encoding="utf-8")
            paths[name] = str(path)
        argvs.append([call.verb] + [paths.get(a, a) for a in call.args] + ["--out", out_path])
    return argvs


class Loop:
    """Runs calls from the pool in order, checks each output, keeps the
    measurements."""

    def __init__(self, calls, argvs, workdir: Path, frozen: list[str] | None):
        from subadd import cli, toric

        self.cli, self.toric = cli, toric
        self.calls, self.argvs = calls, argvs
        self.report_path = workdir / "report.json"
        self.frozen = frozen or []
        self.first: dict[int, str] = {}
        self.latencies: list[float] = []
        self.cpu = 0.0
        self.certs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed(self, k: int):
        """One cold call: caches cleared as in a fresh CLI process."""
        self.toric._newton_facets.cache_clear()
        self.toric._box_minimal_impl.cache_clear()
        self.report_path.unlink(missing_ok=True)
        c0 = _cpu_s()
        t0 = perf_counter()
        try:
            rc = self.cli.main(list(self.argvs[k]))
        except (Exception, SystemExit) as exc:  # a failed call, not a failed benchmark
            rc = f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        return rc, t1 - t0, _cpu_s() - c0

    def verify(self, k: int, rc) -> int:
        """Check one call's output; return its result count, 0 if it failed."""
        self.attempted += 1
        problems = []
        report = None
        if not isinstance(rc, int):
            problems.append(str(rc))
        elif rc == 2:
            problems.append("input error (exit status 2)")
        else:
            try:
                report = json.loads(self.report_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"no readable report: {exc}")
        if report is not None:
            digest = _digest(rc, report)
            if k < len(self.frozen) and digest != self.frozen[k]:
                problems.append(f"digest {digest} differs from the frozen {self.frozen[k]}")
            if k in self.first:
                if digest != self.first[k]:
                    problems.append("output differs from an earlier run of the same input")
            else:
                problems += self.calls[k].check(report, rc)
                if not problems:
                    self.first[k] = digest
        if problems:
            self.failed += 1
            self.problems.append(f"call {k} ({self.calls[k].verb}): {problems[0]}")
            return 0
        n = self.calls[k].results
        return report["results"]["trials_run"] if n is None else n

    def run(self, seconds: float) -> None:
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds:
            k = i % len(self.calls)
            rc, wall, cpu = self.timed(k)
            self.latencies.append(wall)
            self.cpu += cpu
            self.certs += self.verify(k, rc)
            i += 1

    def run_traced(self, seconds: float, tracer) -> tuple[float, float]:
        """Each input twice, untraced and traced, in alternating order;
        returns the summed untraced and traced call times."""
        start = perf_counter()
        plain = traced = 0.0
        i = 0
        while perf_counter() - start < seconds:
            k = i % len(self.calls)
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.call_id = i
                    tracer.install()
                    try:
                        rc, wall, _ = self.timed(k)
                    finally:
                        tracer.uninstall()
                    tracer.note_caches()
                    traced += wall
                else:
                    rc, wall, _ = self.timed(k)
                    plain += wall
                self.verify(k, rc)
            i += 1
        return plain, traced


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten calls beyond it,
    and that percentile; the maximum when there are ten calls or fewer."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(args, calls, argvs, workdir: Path) -> dict:
    frozen = None
    if args.seed == 0 and not args.tiny:
        table = json.loads((Path(__file__).parent / "digests.json").read_text(encoding="utf-8"))
        frozen = table[args.workload]
    loop = Loop(calls, argvs, workdir, frozen)
    out = {"calls": len(calls)}
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        plain, traced = loop.run_traced(args.seconds, tracer)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0), "unit": "%"}
        busy = sum(v["value"] for k, v in metrics.items() if k.endswith(".busy_s"))
        metrics["trace.covered_pct"] = {"value": 100.0 * busy / traced, "unit": "%"}
        tracer.write_spans(args.spans)
        out["spans"] = len(tracer.spans)
    else:
        loop.run(args.seconds)
        lat = loop.latencies
        tail_s, pct = tail(lat)
        certs = max(loop.certs, 1)
        metrics = {
            "certs_per_s": {"value": loop.certs / sum(lat), "unit": "1/s"},
            "call_p50_ms": {"value": 1000.0 * statistics.median(lat), "unit": "ms"},
            "call_tail_ms": {"value": 1000.0 * tail_s, "unit": "ms"},
            "cpu_ms_per_cert": {"value": 1000.0 * loop.cpu / certs, "unit": "ms"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
        out["tail_percentile"] = pct
        out["latencies_ms"] = [round(1000.0 * x, 3) for x in lat]
        out["certs"] = loop.certs
    out.update(
        metrics=metrics,
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems[:20],
        max_mixed_generators=max(c.mixed_generators for c in calls),
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    _import_library()
    import numpy
    import workloads

    workdir = Path(args.workdir)
    try:
        calls = workloads.build(args.workload, args.seed, tiny=args.tiny)
        argvs = write_inputs(calls, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        out = measure(args, calls, argvs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["python"] = sys.version.split()[0]
    out["numpy"] = numpy.__version__
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
