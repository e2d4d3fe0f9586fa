"""Benchmark of the fibanyon simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload marginals-cold --seed 1 --seconds 15 --trace 0

Run it from the root of a fibanyon checkout; it imports fibanyon from
./src.  The run repeats the workload's cycle of jobs round(seconds /
cycle_s) times, where cycle_s is one cycle's length at the baseline
commit, so every run of a commit does the same work and takes about
--seconds there.  It checks every job's output and prints one line per
metric followed by a JSON result on the last line of stdout.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.  A record of
the run (environment, metrics, every job) goes to .perfbench/results/.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# Every process of a run uses the same single BLAS thread, so runs compare
# like with like and a job never competes with its own threads.  This must
# happen before numpy is imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Context, WorkerSession  # noqa: E402

TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Both latency percentiles are nearest-rank order statistics: job_p50_ms is
# the lower median, job_tail_ms the value with TAIL_BEYOND jobs above it.


@dataclass
class Run:
    setups: list = field(default_factory=list)
    results: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    cycles: int = 0


def child_env(root: Path) -> dict:
    """The environment of every fibanyon process; it inherits the BLAS pinning above."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is read from and written to the benchmark's own cache only, so
    # a __pycache__ left in the checkout (by a test run, say) changes nothing.
    # main() fills the cache before anything is timed; every timed process
    # then loads compiled code, as an installed `fibanyon` does after its
    # first call.
    env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cycle_count(workload, seconds: float) -> int:
    return max(workload.min_cycles, round(seconds / workload.cycle_s))


def measure(ctx: Context, workload, seed: int, cycles: int, traced: bool,
            deadline_s: float = float("inf")) -> Run:
    """Set up, then run `cycles` cycles; none starts after `deadline_s` of looping."""
    run = Run()
    # A warm workload's own session is one more set-up repetition.
    for _ in range(workload.setup_reps - (1 if workload.warm else 0)):
        with WorkerSession(ctx, workload.worker_args, traced=False) as rep:
            pass
        run.setups.append(rep.setup)
        run.rss_kb.append(rep.rss_kb)
    with workload.session(ctx, traced) as session:
        if session.setup:
            run.setups.append(session.setup)
        t0 = time.perf_counter()
        while run.cycles < cycles and time.perf_counter() - t0 < deadline_s:
            run.results += session.run_cycle(workload.jobs(seed, run.cycles))
            run.cycles += 1
    run.rss_kb += [session.rss_kb] + [r.rss_kb for r in run.results if r.rss_kb]
    return run


def reference(ctx: Context, workload, seed: int) -> Run:
    """One short traced cycle, for layers the measured workload never reaches."""
    run = Run()
    with workload.session(ctx, traced=True) as session:
        if session.setup:
            run.setups.append(session.setup)
        run.results = session.run_cycle(workload.jobs(seed, None))
    return run


# ---------------------------------------------------------------------------
# end-to-end metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples above it: value, percentile, beyond.

    With too few samples for that, the maximum (nothing beyond it).
    """
    xs = sorted(latencies)
    n = len(xs)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # 1-based rank of the reported value
    return xs[k - 1], 100.0 * k / n, n - k


def end_to_end(run: Run) -> tuple[dict, dict]:
    lat = [r.latency for r in run.results]
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in run.setups), "s"),
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median_low(lat) * 1e3, "ms"),
        "job_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (max(run.rss_kb) / 1024.0, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(run.setups)} set-ups",
        "jobs_per_s": f"{len(lat)} jobs in {run.cycles} cycles, {sum(lat):.3f} s busy",
        "job_p50_ms": f"median of {len(lat)} jobs",
        "job_tail_ms": f"p{tail_pct:.1f} of {len(lat)} jobs, {beyond} beyond",
        "peak_rss_mb": f"largest of {len(run.rss_kb)} processes",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# per-layer metrics


class Source:
    """Layer totals of one traced run part: its jobs, or its set-ups."""

    def __init__(self, name: str, records: list[dict], setup: bool):
        self.name = name
        self.times: dict = {}
        self.counts: dict = {}
        self.jobs: dict = defaultdict(int)
        if setup:  # median over set-up repetitions
            names = {k for rec in records for k in rec["times"]}
            for key in names:
                reps = [rec["times"][key] for rec in records if key in rec["times"]]
                self.times[key] = [statistics.median(r[0] for r in reps), reps[0][1]]
            for key in {k for rec in records for k in rec["counts"]}:
                self.counts[key] = statistics.median(rec["counts"].get(key, 0.0)
                                                     for rec in records)
            return
        for rec in records:
            for key, (seconds, calls) in rec["times"].items():
                entry = self.times.setdefault(key, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
                self.jobs[key] += 1
            for key, value in rec["counts"].items():
                if key.endswith("max_dim"):
                    self.counts[key] = max(self.counts.get(key, 0.0), value)
                else:
                    self.counts[key] = self.counts.get(key, 0.0) + value

    def mean(self, key):
        entry = self.times.get(key)
        return entry[0] / entry[1] if entry and entry[1] else None

    def total(self, key):
        entry = self.times.get(key)
        return entry[0] if entry else None

    def per_call(self, count, key):
        entry = self.times.get(key)
        return self.counts[count] / entry[1] if entry and count in self.counts else None

    def rate(self, count, key):
        entry = self.times.get(key)
        return self.counts[count] / entry[0] if entry and count in self.counts else None

    def per_job(self, key):
        entry = self.times.get(key)
        return entry[1] / self.jobs[key] if entry and self.jobs[key] else None

    def nnz_frac(self):
        if self.counts.get("recouple.entries"):
            return self.counts["recouple.nnz"] / self.counts["recouple.entries"]
        return None

    def matrix_mb(self):
        dim = self.counts.get("recouple.max_dim")
        return dim * dim * 16 / 2**20 if dim else None  # dense complex128


def _mean(key):
    return lambda src: src.mean(key)


PER_LAYER = {
    "proc.import_s": ("s", _mean("proc.import")),
    "model.load_s": ("s", _mean("model.load")),
    "trees.enumerate_basis_s": ("s", _mean("trees.enumerate_basis")),
    "trees.basis_dim": ("count", lambda s: s.per_call("trees.basis_dim", "trees.enumerate_basis")),
    "recouple.shape_change_s": ("s", _mean("recouple.shape_change")),
    "recouple.matrix_nnz_frac": ("frac", lambda s: s.nnz_frac()),
    "recouple.matrix_mb": ("MiB", lambda s: s.matrix_mb()),
    "states.parse_state_s": ("s", _mean("states.parse_state")),
    "states.bipartition_s": ("s", _mean("states.bipartition")),
    "states.partial_trace_s": ("s", _mean("states.partial_trace")),
    "states.partial_trace_calls": ("count", lambda s: s.per_job("states.partial_trace")),
    "states.spectrum_s": ("s", _mean("states.spectrum")),
    "correlations.is_uncorrelated_s": ("s", _mean("correlations.is_uncorrelated")),
    "correlations.spanning_pairs": (
        "count", lambda s: s.per_call("correlations.pairs", "correlations.is_uncorrelated")),
    "correlations.pairs_per_s": (
        "1/s", lambda s: s.rate("correlations.pairs", "correlations.is_uncorrelated")),
    "correlations.first_call_s": ("s", lambda s: s.total("correlations.first_call")),
    "teleport.catalog_s": ("s", _mean("teleport.catalog")),
    "teleport.split_state_s": ("s", _mean("teleport.split_state")),
    "teleport.validate_pvm_s": ("s", _mean("teleport.validate_pvm")),
    "teleport.run_protocol_s": ("s", _mean("teleport.run_protocol")),
    "teleport.reachability_s": ("s", _mean("teleport.reachability")),
    "teleport.conditionals": (
        "count", lambda s: s.per_call("teleport.conditionals", "teleport.reachability")),
    "teleport.conditionals_per_s": (
        "1/s", lambda s: s.rate("teleport.conditionals", "teleport.reachability")),
    "cli.report_s": ("s", _mean("cli.report")),
    "verify.recoupling_s": ("s", _mean("verify.recoupling")),
    "verify.algebra_s": ("s", _mean("verify.algebra")),
    "verify.correlations_s": ("s", _mean("verify.correlations")),
    "verify.teleportation_s": ("s", _mean("verify.teleportation")),
}


def sources_of(name: str, run: Run) -> list[Source]:
    return [Source(f"{name} jobs", [r.layers for r in run.results], setup=False),
            Source(f"{name} set-up", [s["layers"] for s in run.setups], setup=True)]


def per_layer(own: Run, own_name: str, refs: dict, any_failed: bool) -> tuple[dict, dict]:
    """Each layer metric from the first source that measured it.

    A failed job measures nothing, so with failures a metric may be missing.
    """
    sources = sources_of(own_name, own)
    for name, run in refs.items():
        sources += sources_of(f"reference {name}", run)
    metrics, notes = {}, {}
    for metric, (unit, read) in PER_LAYER.items():
        for src in sources:
            value = read(src)
            if value is not None:
                metrics[metric] = (value, unit)
                notes[metric] = src.name
                break
        else:
            if not any_failed:
                raise RuntimeError(f"per-layer metric {metric} was not measured")
    busy = sum(r.latency for r in own.results)
    metrics["trace.overhead_frac"] = (sum(r.extra_s for r in own.results) / busy, "frac")
    notes["trace.overhead_frac"] = f"{own_name} jobs"
    return metrics, notes


# ---------------------------------------------------------------------------
# environment record


def environment(root: Path, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fibanyon" / "__init__.py").is_file():
        print("perfbench: ./src/fibanyon not found; run from the root of a fibanyon checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(root, workdir, child_env(root))
    try:
        # Untimed: compiles every module a timed process imports into the
        # bytecode cache, and loads them into the file cache.  fibanyon.cli
        # imports all of fibanyon; runpy runs `python -m`; numpy.random and
        # locale are imported lazily by the jobs.
        subprocess.run([sys.executable, "-c", "import locale, runpy, numpy.random, fibanyon.cli"],
                       env=ctx.env, cwd=root, check=True, timeout=120)
        cycles = cycle_count(workload, args.seconds)
        if args.trace:  # traced cold jobs take twice as long; layer means need fewer
            cycles = (cycles + 1) // 2
        # The deadline only guards the exit time limit on a much slower machine.
        run = measure(ctx, workload, args.seed, cycles, bool(args.trace),
                      deadline_s=3 * args.seconds)
        checked_jobs = list(run.results)  # the reference cycles' jobs are checked too
        if args.trace:
            refs = {w.name: reference(ctx, w, args.seed)
                    for w in WORKLOADS.values() if w is not workload}
            checked_jobs += [r for ref in refs.values() for r in ref.results]
        failed = [r for r in checked_jobs if r.error is not None]
        if args.trace:
            metrics, notes = per_layer(run, workload.name, refs, bool(failed))
        else:
            metrics, notes = end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(root, args.seed)
    attempted = len(checked_jobs)
    print(f"perfbench {workload.name} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {notes[name]}")
    print(f"  {'failed_frac':32s} {len(failed) / attempted:14.6g} {'frac':6s} "
          f"{len(failed)} of {attempted} jobs failed")
    for r in failed[:5]:
        print(f"  failed {r.kind}: {r.error}")

    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "metrics": {k: v for k, (v, _) in metrics.items()}, "notes": notes,
        "failed": len(failed), "attempted": attempted,
        "jobs": [{"kind": r.kind, "latency_s": r.latency, "error": r.error} for r in run.results],
    }
    out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
