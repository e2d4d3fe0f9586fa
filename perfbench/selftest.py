"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a fibanyon checkout.  It checks that

* the same seed generates byte-identical inputs and another seed
  generates different ones, for every workload;
* tracing changes no job report: the short reference cycle of every
  workload gives byte-identical reports with and without tracing.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run  # pins the BLAS thread count before numpy loads
from workloads import WORKLOADS, Context


def inputs_are_seeded() -> list[str]:
    problems = []
    for workload in WORKLOADS.values():
        def generate(seed):
            return json.dumps([workload.jobs(seed, 0), workload.jobs(seed, None)]).encode()

        first, again, other = generate(1), generate(1), generate(2)
        if first != again:
            problems.append(f"{workload.name}: seed 1 gave different inputs on a second call")
        if first == other:
            problems.append(f"{workload.name}: seeds 1 and 2 gave the same inputs")
    return problems


def tracing_is_transparent(ctx: Context, seed: int = 7) -> list[str]:
    problems = []
    for workload in WORKLOADS.values():
        jobs = workload.jobs(seed, None)
        reports = {}
        for traced in (False, True):
            with workload.session(ctx, traced) as session:
                results = session.run_cycle(jobs)
            problems += [f"{workload.name} {r.kind}: {r.error}" for r in results if r.error]
            reports[traced] = [r.report for r in results]
        if reports[False] != reports[True]:
            problems.append(f"{workload.name}: traced and untraced job reports differ")
        else:
            print(f"ok  {workload.name}: {len(jobs)} job reports identical with and without "
                  "tracing")
    return problems


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "fibanyon" / "__init__.py").is_file():
        print("selftest: run from the root of a fibanyon checkout", file=sys.stderr)
        return 2
    problems = inputs_are_seeded()
    if not problems:
        print(f"ok  inputs: byte-identical per seed, different across seeds "
              f"({len(WORKLOADS)} workloads)")
    workdir = root / ".perfbench" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        problems += tracing_is_transparent(Context(root, workdir, run.child_env(root)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
