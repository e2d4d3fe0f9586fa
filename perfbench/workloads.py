"""The four workloads: job schedules, how a job runs, and its output check.

A workload repeats a fixed cycle of job slots.  The slots (sizes, splits,
sectors, job kinds) never depend on the seed; the seed only draws the
states and messages, so every seed puts the same amount of work in a cycle.
Each job is one closed-loop request from a single client: the next job is
sent only after the previous one has returned and been checked.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import inputs

WORKER = Path(__file__).resolve().parent / "worker.py"

TOL = 1e-10
CLASS_TOL = 1e-8  # numeric "entangled" verdict, as in `fibanyon verify`


@dataclass
class Context:
    root: Path
    workdir: Path
    env: dict


@dataclass
class JobResult:
    kind: str
    latency: float
    report: str
    error: str | None = None
    rss_kb: int = 0
    layers: dict = field(default_factory=lambda: {"times": {}, "counts": {}})
    extra_s: float = 0.0


def wait_rss(proc: subprocess.Popen) -> tuple[int, int, float]:
    """Reap a child; returns (exit code, its peak RSS in KiB, its CPU seconds)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def run_child(ctx: Context, argv: list[str], out_path: Path) -> tuple[float, int, int, str]:
    """One fresh interpreter, stdout to `out_path`; (CPU seconds, code, rss, stderr).

    A cold job's latency is the CPU time of its whole process, interpreter
    start-up included (see `clock` in worker.py for why CPU time).
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env, cwd=ctx.root)
        try:
            code, rss, cpu_s = wait_rss(proc)
        except BaseException:
            proc.kill()
            wait_rss(proc)
            raise
    return cpu_s, code, rss, err_path.read_text(encoding="utf-8", errors="replace")


def run_probe(ctx: Context, args: list[str]) -> tuple[dict, float]:
    """Traced children of a cold job, in their own fresh interpreter."""
    path = ctx.workdir / "probe.json"
    seconds, code, _, err = run_child(ctx, [sys.executable, str(WORKER), *args], path)
    if code != 0:
        raise RuntimeError(f"probe {args[0]} failed:\n{err}")
    return json.loads(path.read_text(encoding="utf-8")), seconds


class WorkerSession:
    """A long-lived worker interpreter; set-up is its CPU time until ready."""

    def __init__(self, ctx: Context, args: list[str], traced: bool):
        argv = [sys.executable, str(WORKER), "serve", *args] + (["--traced"] if traced else [])
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=ctx.env, cwd=ctx.root, text=True)
        self.rss_kb = 0
        try:
            ready = self._read()
        except BaseException:
            self._kill()
            raise
        self.setup = {"setup_s": ready["cpu_s"], "layers": ready["layers"]}

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited unexpectedly; see its stderr above")
        return json.loads(line)

    def send(self, jobs: list[dict]) -> list[dict]:
        self.proc.stdin.write(json.dumps(jobs) + "\n")
        self.proc.stdin.flush()
        return self._read()["results"]

    def _kill(self):
        self.proc.kill()
        wait_rss(self.proc)
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._kill()
            return
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        code, self.rss_kb, _ = wait_rss(self.proc)
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")


# ---------------------------------------------------------------------------
# checks: each returns None when the output is correct, else a reason


def checked(check, *args) -> str | None:
    """Run a check; an output it cannot even read fails the job too."""
    try:
        return check(*args)
    except Exception as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_spectrum(spec, purity=None) -> str | None:
    if abs(sum(spec) - 1.0) > TOL:
        return f"spectrum sums to {sum(spec)!r}"
    if any(x < -TOL or x > 1.0 + TOL for x in spec):
        return "spectrum value outside [0, 1]"
    if purity is not None and abs(purity - sum(x * x for x in spec)) > TOL:
        return "purity differs from the sum of squared eigenvalues"
    return None


def check_marginals(report: str) -> str | None:
    payload = json.loads(report)
    for side in ("a", "b"):
        problem = _check_spectrum(payload[f"spectrum_{side}"], payload[f"purity_{side}"])
        if problem:
            return f"party {side}: {problem}"
    return None


def check_verify(report: str) -> str | None:
    lines = report.strip().splitlines()
    return None if lines and lines[-1] == "overall: PASS" else "report does not end in PASS"


def check_correlations(job: dict, result: dict) -> str | None:
    report = result["report"]
    for side in ("a", "b"):
        problem = _check_spectrum(report[f"spectrum_{side}"])
        if problem:
            return f"party {side}: {problem}"
    if job["classify"]:
        numeric = report["max_violation"] > CLASS_TOL
        if numeric != (result["label"] == "entangled"):
            return f"verdict {numeric} disagrees with class {result['label']}"
    if job["expect_correlated"] and report["uncorrelated"]:
        return "a generic random state tested uncorrelated"
    return None


def check_teleport(job: dict, result: dict) -> str | None:
    report = result["report"]
    if job["kind"] == "reach":
        return None if report["ok"] else "receiver support leaked"
    if abs(report["total_probability"] - 1.0) > TOL:
        return f"probabilities sum to {report['total_probability']!r}"
    fids = [f for f in report["fidelities"] + [report["no_click"][1]] if f is not None]
    if any(f < -TOL or f > 1.0 + TOL for f in fids):
        return "fidelity outside [0, 1]"
    if (job["scenario"], job["direction"]) == ("main-text", "ab"):
        if abs(report["average_fidelity"] - 1.0) > TOL:
            return "main-text ab is not perfect"
    return None


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name: str
    stream: int  # input stream id, so workloads never share draws
    warm: bool  # one long-lived worker, rather than one interpreter per job
    cycle_s: float  # one cycle's length at the baseline commit
    min_cycles = 1
    setup_reps: int
    worker_args: list[str]
    cycle_slots: list
    reference_slots: list

    def make_job(self, slot, rng) -> dict:
        raise NotImplementedError

    def jobs(self, seed: int, cycle: int | None) -> list[dict]:
        """Cycle `cycle` of the schedule; None gives the short reference cycle."""
        if cycle is None:
            slots, stream, first = self.reference_slots, self.stream + 100, 0
        else:
            slots, stream, first = self.cycle_slots, self.stream, cycle * len(self.cycle_slots)
        return [self.make_job(slot, inputs.job_rng(seed, stream, first + i))
                for i, slot in enumerate(slots)]

    def session(self, ctx: Context, traced: bool):
        return (WarmSession if self.warm else ColdSession)(ctx, self, traced)


class ColdSession:
    """Cold workloads start a fresh `fibanyon` interpreter for every job."""

    setup = None
    rss_kb = 0

    def __init__(self, ctx: Context, workload, traced: bool):
        self.ctx, self.workload, self.traced = ctx, workload, traced

    def run(self, job: dict) -> JobResult:
        argv, probe_args = self.workload.command(self.ctx, job)
        out_path = self.ctx.workdir / "report.out"
        latency, code, rss, err = run_child(self.ctx, argv, out_path)
        report = out_path.read_text(encoding="utf-8", errors="replace")
        result = JobResult(job["kind"], latency, report, rss_kb=rss)
        if code != 0:
            result.error = f"exit code {code}: {err.strip()[-500:]}"
        else:
            result.error = checked(self.workload.check, report)
        if self.traced and result.error is None:
            try:
                probe, seconds = run_probe(self.ctx, probe_args)
            except RuntimeError as exc:  # the probe calls fibanyon too
                result.error = str(exc)
                return result
            if self.workload.report_layer:
                covered = sum(s for s, _ in probe["times"].values())
                probe["times"][self.workload.report_layer] = [latency - covered, 1]
            result.layers, result.extra_s = probe, seconds
        return result

    def run_cycle(self, jobs: list[dict]) -> list[JobResult]:
        return [self.run(job) for job in jobs]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class WarmSession(WorkerSession):
    def __init__(self, ctx: Context, workload, traced: bool):
        super().__init__(ctx, workload.worker_args, traced)
        self.workload = workload

    def run_cycle(self, jobs: list[dict]) -> list[JobResult]:
        results = []
        for job, out in zip(jobs, self.send(jobs)):
            result = JobResult(job["kind"], out["latency"],
                               json.dumps(out.get("report"), sort_keys=True),
                               layers=out["layers"], extra_s=out.get("extra_s", 0.0))
            result.error = out.get("error") or checked(self.workload.check, job, out)
            results.append(result)
        return results


class MarginalsCold(Workload):
    name = "marginals-cold"
    stream = 1
    warm = False
    cycle_s = 9.4
    min_cycles = 2  # keeps 11 or more N >= 7 jobs, so the tail sits on N=7
    setup_reps = 9
    worker_args = ["cli"]
    report_layer = "cli.report"
    # (N, split, sector).  Every split regroups the left comb.  The N=7 and
    # N=8 slots use one split and sector each, so the tail sits inside one
    # job size, and N=5 and N=6 slots are just over half, so the median
    # sits on them.
    cycle_slots = [
        (5, 1, "e"), (7, 2, "tau"), (6, 1, "tau"), (7, 2, "tau"), (5, 2, "tau"), (6, 2, "e"),
        (7, 2, "tau"), (5, 3, "e"), (6, 3, "tau"), (7, 2, "tau"), (5, 2, "e"), (6, 4, "e"),
        (7, 2, "tau"), (7, 2, "tau"), (8, 2, "tau"),
    ]
    reference_slots = [(6, 2, "tau"), (7, 2, "tau")]

    def make_job(self, slot, rng) -> dict:
        n, split, sector = slot
        return {"kind": f"n{n}", "split": split,
                "state": inputs.random_state_text(inputs.left_comb(n), sector, rng)}

    def command(self, ctx: Context, job: dict):
        path = ctx.workdir / "job.state"
        path.write_text(job["state"], encoding="utf-8")
        argv = [sys.executable, "-m", "fibanyon.cli", "marginals", "--state", str(path),
                "--split", str(job["split"]), "--format", "json"]
        return argv, ["probe-marginals", str(path), str(job["split"])]

    check = staticmethod(check_marginals)


class VerifySuites(Workload):
    name = "verify-suites"
    stream = 4
    warm = False
    cycle_s = 5.7
    min_cycles = 4  # keeps the median on algebra and the tail on correlations/teleportation
    setup_reps = 9
    worker_args = ["cli"]
    report_layer = None
    # (suite, quick).  All six suites with --quick, plus the full recoupling
    # suite: the one full suite that stays short, and the only run of every
    # shape pair up to N=5.
    cycle_slots = [("model", True), ("dims", True), ("recoupling", True), ("algebra", True),
                   ("correlations", True), ("teleportation", True), ("recoupling", False)]
    reference_slots = [("recoupling", True), ("algebra", True), ("correlations", True),
                       ("teleportation", True)]

    def make_job(self, slot, rng) -> dict:
        suite, quick = slot
        return {"kind": suite if quick else f"{suite}-full", "suite": suite, "quick": quick,
                "seed": int(rng.integers(0, 2**31))}

    def command(self, ctx: Context, job: dict):
        argv = [sys.executable, "-m", "fibanyon.cli", "verify", "--suite", job["suite"],
                "--seed", str(job["seed"])] + (["--quick"] if job["quick"] else [])
        return argv, ["probe-verify", job["kind"], str(job["seed"])]

    check = staticmethod(check_verify)


FAMILIES = list(inputs.PAIR_FAMILIES)


def _correlation_cycle(families):
    """Mostly 2-anyon tests (the verify and acceptance traffic), spread evenly
    between 2|2 and 2|3 tests, and one 3|3 test per cycle.  Every fifth
    larger test is on a mixed state."""
    slots = []
    for i in range(60):
        slots += [
            ("random-mix", (2, 3)) if i % 5 == 4 else ("random", (2, 3, ("e", "tau")[i % 2])),
            ("family", families[i % 5]),
            ("family", families[(i + 1) % 5]),
            ("random-mix", (2, 2)) if i % 5 == 4 else ("random", (2, 2, ("tau", "e")[i % 2])),
            ("family", families[(i + 2) % 5]),
            ("family-mix", None),
        ]
    return slots + [("random", (3, 3, "tau"))]


class CorrelationsWarm(Workload):
    name = "correlations-warm"
    stream = 2
    warm = True
    cycle_s = 4.8
    setup_reps = 9
    worker_args = ["correlations"]
    cycle_slots = _correlation_cycle(FAMILIES)
    reference_slots = [("family", f) for f in FAMILIES] + [
        ("random", (2, 2, "e")), ("random", (2, 2, "tau")), ("random-mix", (2, 2))]

    def make_job(self, slot, rng) -> dict:
        kind, arg = slot
        job = {"kind": kind, "weights": None, "classify": False, "expect_correlated": False}
        if kind == "family":
            job.update(shape=[1, 1], states=[inputs.pair_state_text(arg, rng)], classify=True)
        elif kind == "family-mix":
            picks = rng.choice(FAMILIES, size=2)
            job.update(shape=[1, 1], states=[inputs.pair_state_text(f, rng) for f in picks],
                       weights=_weights(rng, 2))
        elif kind == "random":
            n_a, n_b, sector = arg
            node = inputs.grouped(n_a, n_b)
            job.update(shape=[n_a, n_b], states=[inputs.random_state_text(node, sector, rng)],
                       expect_correlated=True)
        else:
            n_a, n_b = arg
            node = inputs.grouped(n_a, n_b)
            job.update(shape=[n_a, n_b], weights=_weights(rng, 3), expect_correlated=True,
                       states=[inputs.random_state_text(node, s, rng) for s in ("e", "tau", "e")])
        job["kind"] = f"{kind}-{job['shape'][0]}x{job['shape'][1]}"
        return job

    check = staticmethod(check_correlations)


def _weights(rng, k: int) -> list[float]:
    w = rng.uniform(0.2, 1.0, size=k)
    return [float(x) for x in w / w.sum()]


PVM_DIRECTIONS = [("main-text", "ab"), ("appendix-d1-symmetric", "ab"),
                  ("appendix-d1-symmetric", "ba"), ("appendix-d2-asymmetric", "ba")]
SWEEP_DIRECTIONS = [("main-text", "ba"), ("appendix-d2-asymmetric", "ab")]
SWEEP_SAMPLES = 200


class TeleportWarm(Workload):
    name = "teleport-warm"
    stream = 3
    warm = True
    cycle_s = 0.9
    setup_reps = 9
    worker_args = ["teleport"]
    # Protocol runs between the two sweeps.  About 17 cycles fit a 15 s run,
    # so the tail (11th slowest job) is a middle sweep of the slower direction.
    protocol_slots = [("protocol", d) for d in PVM_DIRECTIONS] * 50
    cycle_slots = (protocol_slots + [("reach", SWEEP_DIRECTIONS[0])]
                   + protocol_slots + [("reach", SWEEP_DIRECTIONS[1])])
    reference_slots = [("protocol", d) for d in PVM_DIRECTIONS] + [
        ("reach", d) for d in SWEEP_DIRECTIONS]

    def make_job(self, slot, rng) -> dict:
        kind, (scenario, direction) = slot
        job = {"kind": kind, "scenario": scenario, "direction": direction,
               "message": inputs.random_message(rng)}
        if kind == "reach":
            job.update(samples=SWEEP_SAMPLES, seed=int(rng.integers(0, 2**31)))
        return job

    check = staticmethod(check_teleport)


WORKLOADS = {w.name: w for w in (MarginalsCold(), CorrelationsWarm(), TeleportWarm(),
                                 VerifySuites())}
