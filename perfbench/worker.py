"""Child side of the benchmark: runs inside a fresh interpreter.

Modes (the parent sets PYTHONPATH to the checkout's ``src`` and pins the
BLAS thread count):

``serve KIND [--traced]``
    Import fibanyon, load the model, do KIND's warm-up, print one JSON
    "ready" line, then run one JSON list of jobs per stdin line until EOF.
    KIND is ``cli`` (import only), ``correlations`` or ``teleport``.
``probe-marginals STATE SPLIT``
    Time, call by call, the public functions ``fibanyon marginals`` uses.
``probe-verify SUITE SEED``
    Time ``run_suites`` on one suite, as ``fibanyon verify`` runs it: with
    --quick, or in full for ``<suite>-full``.

Only public names of fibanyon are used, so a renamed or removed function
fails here with an ImportError instead of silently dropping a timing.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Jobs are single-threaded (one BLAS thread) and never wait on I/O, so their
# CPU time is their latency on an idle machine.  Unlike wall time it leaves
# out the time a shared host steals from this virtual machine.
clock = time.process_time


class Layers:
    """Seconds and call counts per layer, plus plain counters."""

    def __init__(self):
        self.times = defaultdict(lambda: [0.0, 0])
        self.counts = defaultdict(float)

    def timed(self, name, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        entry = self.times[name]
        entry[0] += clock() - t0
        entry[1] += 1
        return out

    def as_dict(self) -> dict:
        return {"times": dict(self.times), "counts": dict(self.counts)}


def emit(payload: dict):
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def import_fibanyon(layers: Layers, module: str):
    import importlib

    layers.timed("proc.import", importlib.import_module, module)
    from fibanyon import fibonacci_model

    return layers.timed("model.load", fibonacci_model)


# ---------------------------------------------------------------------------
# correlations


class Correlations:
    # Set-up builds the bipartition and spanning sets of every job shape.
    SHAPES = [(1, 1), (2, 2), (2, 3), (3, 3)]

    def __init__(self, layers: Layers, traced: bool):
        model = import_fibanyon(layers, "fibanyon.correlations")
        from fibanyon import bipartition, enumerate_basis, grouped_shape, ket
        from fibanyon.correlations import is_uncorrelated

        self.model = model
        self.traced = traced
        self.parts = {}
        for n_a, n_b in self.SHAPES:
            basis = layers.timed("trees.enumerate_basis", enumerate_basis, model,
                                 grouped_shape(n_a, n_b))
            layers.counts["trees.basis_dim"] += basis.dim
            part = layers.timed("states.bipartition", bipartition, basis, n_a)
            # The first call builds and caches the embedded spanning sets.
            layers.timed("correlations.first_call", is_uncorrelated, ket(basis, basis.tree_at(0)),
                         part)
            self.parts[(n_a, n_b)] = part

    def prepare(self, job: dict, layers: Layers):
        from fibanyon import mixture
        from fibanyon.states import parse_state_text

        states = [layers.timed("states.parse_state", parse_state_text, self.model, text)
                  for text in job["states"]]
        arg = states[0] if job["weights"] is None else mixture(zip(job["weights"], states))
        return job, states, arg

    def run(self, prepared, layers: Layers) -> dict:
        from fibanyon import partial_trace, pure_density, spectrum
        from fibanyon.correlations import classify_pure_2anyon, is_uncorrelated

        job, states, arg = prepared
        part = self.parts[tuple(job["shape"])]
        t0 = clock()
        report = is_uncorrelated(arg, part)
        latency = clock() - t0
        out = {"latency": latency, "report": report.to_json_dict()}
        if job["classify"]:
            out["label"] = classify_pure_2anyon(states[0])
        if self.traced:
            t1 = clock()
            rho = pure_density(arg) if job["weights"] is None else arg
            rho_a = layers.timed("states.partial_trace", partial_trace, rho, part, traced="B")
            rho_b = layers.timed("states.partial_trace", partial_trace, rho, part, traced="A")
            layers.timed("states.spectrum", spectrum, rho_a)
            layers.timed("states.spectrum", spectrum, rho_b)
            entry = layers.times["correlations.is_uncorrelated"]
            entry[0] += latency
            entry[1] += 1
            layers.counts["correlations.pairs"] += _span_size(part.a_basis) * _span_size(
                part.b_basis)
            out["extra_s"] = clock() - t1
        return out


def _span_size(basis) -> int:
    """Size of the Hermitian spanning set: the sum of squared sector dims."""
    return sum(basis.sector_dim(g) ** 2 for g in basis.model.charges)


# ---------------------------------------------------------------------------
# teleportation


class Teleport:
    def __init__(self, layers: Layers, traced: bool):
        model = import_fibanyon(layers, "fibanyon.teleport")
        from fibanyon.teleport import (
            MessageQubit,
            builtin_scenarios,
            receiver_reachability_check,
            run_protocol,
        )

        self.traced = traced
        self.catalog = layers.timed("teleport.catalog", builtin_scenarios, model)
        # Warm-up: regroup every direction once, so recoupling is cached.
        for directions in self.catalog.values():
            for scenario in directions.values():
                if scenario.pvm is None:
                    receiver_reachability_check(scenario, [MessageQubit(1.0, 0.0)],
                                                pvm_samples=1, seed=0)
                else:
                    run_protocol(scenario, MessageQubit(1.0, 0.0))

    def prepare(self, job: dict, layers: Layers):
        from fibanyon.teleport import MessageQubit

        m = job["message"]
        message = MessageQubit(complex(m[0], m[1]), complex(m[2], m[3]))
        return job, self.catalog[job["scenario"]][job["direction"]], message

    def run(self, prepared, layers: Layers) -> dict:
        from fibanyon.teleport import (
            SplitState,
            receiver_reachability_check,
            run_protocol,
            validate_pvm,
        )

        job, scenario, message = prepared
        if job["kind"] == "protocol":
            t0 = clock()
            outcome = run_protocol(scenario, message)
            latency = clock() - t0
            report = {
                "probabilities": outcome.probabilities(),
                "fidelities": outcome.fidelities(),
                "no_click": [outcome.no_click.probability, outcome.no_click.fidelity],
                "average_fidelity": outcome.average_fidelity,
                "total_probability": outcome.total_probability(),
            }
        else:
            t0 = clock()
            sweep = receiver_reachability_check(scenario, [message], pvm_samples=job["samples"],
                                                seed=job["seed"])
            latency = clock() - t0
            report = {
                "samples": sweep.samples,
                "conditionals": sweep.conditionals,
                "max_off_support": sweep.max_off_support,
                "ok": sweep.ok,
            }
        out = {"latency": latency, "report": report}
        if self.traced:
            t1 = clock()
            split = layers.timed("teleport.split_state", SplitState, scenario, message)
            if job["kind"] == "protocol":
                layers.timed("teleport.validate_pvm", validate_pvm, scenario.pvm,
                             split.measured_basis)
                name = "teleport.run_protocol"
            else:
                name = "teleport.reachability"
                layers.counts["teleport.conditionals"] += sweep.conditionals
            entry = layers.times[name]
            entry[0] += latency
            entry[1] += 1
            out["extra_s"] = clock() - t1
        return out


# ---------------------------------------------------------------------------
# probes for the cold, one-process-per-job workloads


def probe_marginals(path: str, split: int) -> dict:
    layers = Layers()
    model = import_fibanyon(layers, "fibanyon.cli")
    from fibanyon import (
        bipartition,
        change_shape,
        enumerate_basis,
        grouped_shape,
        partial_trace,
        pure_density,
        purity,
        shape_change,
        spectrum,
    )
    from fibanyon.states import parse_state_text

    import numpy as np

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    state = layers.timed("states.parse_state", parse_state_text, model, text)
    n = state.basis.shape.n_leaves
    grouped = grouped_shape(split, n - split)
    basis = layers.timed("trees.enumerate_basis", enumerate_basis, model, grouped)
    layers.counts["trees.basis_dim"] += basis.dim
    change = layers.timed("recouple.shape_change", shape_change, model, state.basis.shape, grouped)
    layers.counts["recouple.nnz"] += int(np.count_nonzero(change.matrix))
    layers.counts["recouple.entries"] += change.matrix.size
    layers.counts["recouple.max_dim"] = max(layers.counts["recouple.max_dim"], basis.dim)
    state = layers.timed("recouple.change_shape", change_shape, model, state, grouped)
    part = layers.timed("states.bipartition", bipartition, basis, split)
    rho = layers.timed("states.pure_density", pure_density, state)
    rho_a = layers.timed("states.partial_trace", partial_trace, rho, part, traced="B")
    rho_b = layers.timed("states.partial_trace", partial_trace, rho, part, traced="A")
    for side in (rho_a, rho_b):
        layers.timed("states.spectrum", spectrum, side)
        layers.timed("states.purity", purity, side)
    return layers.as_dict()


def probe_verify(kind: str, seed: int) -> dict:
    """`kind` is a suite name, or ``<suite>-full`` for the suite without --quick."""
    layers = Layers()
    model = import_fibanyon(layers, "fibanyon.cli")
    from fibanyon.verify import run_suites

    suite = kind.removesuffix("-full")
    results = layers.timed(f"verify.{kind}", run_suites, model, names=[suite], seed=seed,
                           quick=suite == kind)
    if not all(r.passed for r in results):
        raise RuntimeError(f"suite {suite} failed under the probe")
    return layers.as_dict()


def serve(kind: str, traced: bool) -> int:
    layers = Layers()
    if kind == "cli":
        import_fibanyon(layers, "fibanyon.cli")
        engine = None
    elif kind == "correlations":
        engine = Correlations(layers, traced)
    elif kind == "teleport":
        engine = Teleport(layers, traced)
    else:
        raise SystemExit(f"unknown worker kind {kind!r}")
    emit({"ready": True, "cpu_s": clock(), "layers": layers.as_dict()})
    # Each stdin line is one cycle of jobs.  A job's input is parsed untimed;
    # its latency is the one public call that `engine.run` times.
    for line in sys.stdin:
        results = []
        for job in json.loads(line):
            job_layers = Layers()
            t0 = clock()
            try:
                out = engine.run(engine.prepare(job, job_layers), job_layers)
            except Exception as exc:  # a failed job is counted, the worker keeps serving
                out = {"latency": clock() - t0, "error": f"{type(exc).__name__}: {exc}"}
            out["layers"] = job_layers.as_dict()
            results.append(out)
        emit({"results": results})
    return 0


def main(argv) -> int:
    mode = argv[0]
    if mode == "serve":
        return serve(argv[1], "--traced" in argv)
    if mode == "probe-marginals":
        emit(probe_marginals(argv[1], int(argv[2])))
        return 0
    if mode == "probe-verify":
        emit(probe_verify(argv[1], int(argv[2])))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
