"""Regenerate ``digests.json``: the output digests of the default seed.

    python3 perfbench/freeze.py [workload ...]

Runs every call of the seed-0 pool once (at most ``LIMIT`` calls per
workload), requires each output to pass its independent rechecks, and
stores one digest per call. Run it only when the library's outputs are
meant to change; the benchmark then compares every seed-0 call with it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import worker

LIMIT = 200


def freeze(name: str) -> list[str]:
    import workloads

    calls = workloads.build(name, 0)[:LIMIT]
    workdir = worker.ROOT / ".bench_out" / f"freeze-{name}-{os.getpid()}"
    try:
        argvs = worker.write_inputs(calls, workdir)
        loop = worker.Loop(calls, argvs, workdir, None)
        digests = []
        for k in range(len(calls)):
            rc, _, _ = loop.timed(k)
            if not loop.verify(k, rc):
                raise SystemExit(f"{name}: {loop.problems[-1]}")
            digests.append(loop.first[k])
        return digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    worker._import_library()
    import workloads

    path = Path(__file__).parent / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    for name in argv or workloads.WORKLOADS:
        table[name] = freeze(name)
        print(f"{name}: {len(table[name])} digests", flush=True)
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
