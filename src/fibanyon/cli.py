"""Command-line front end.

Subcommands: basis, dims, marginals, correlations, teleport, verify.
Reports go to stdout (or --out) and are byte-stable for fixed flags and
seed; timing and diagnostics go to stderr.  Exit codes: 0 success,
1 domain/validation failure, 2 usage error.

Each run is a fresh process, so the top level imports only what basis,
dims and marginals need; cmd_correlations, cmd_teleport and cmd_verify
each import their own module when they run.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import sys
import time

import numpy as np

from .errors import AnyonError, ModelFormatError, ShapeError, stack_slices
from .model import AnyonModel, fibonacci_model, load_model_text, validation_refusal
from .recouple import change_shape
from .states import (
    bipartition,
    norm_problem,
    parse_state_text,
    pure_marginal,
    purity,
    spectra,
    spectra_agree,
)
from .trees import TreeShape, enumerate_basis, grouped_shape, left_comb

DISPLAY_ZERO = 1e-12  # magnitudes below this render as 0 (API values untouched)

# teleport's largest --samples: a one-message sweep costs about 2.6 us per
# sample, so this many take about 3 s
MAX_SAMPLES = 10**6

# verify.SUITES' names in its order, spelled out so that parsing does not load
# verify; a test pins the two
_SUITE_NAMES = ("model", "dims", "recoupling", "algebra", "correlations", "teleportation")


def _clip(x: float) -> float:
    return 0.0 if abs(x) < DISPLAY_ZERO else float(x)


def _fmt(x: float) -> str:
    return format(_clip(x), ".6g")


def _load_model(spec: str, validate: bool) -> AnyonModel:
    """The built-in model, or a model file that must pass :func:`validate_model`
    when `validate` is set (``verify`` reports violations itself)."""
    if spec == "fibonacci":
        return fibonacci_model()
    with open(spec, encoding="utf-8") as handle:
        model = load_model_text(handle.read(), name=spec)
    refusal = validation_refusal(model) if validate else None
    if refusal:
        raise ModelFormatError(refusal)
    return model


def _parse_amplitude(flag: str, text: str) -> complex:
    """Accept '0.6', '0.6,0.8' (re,im) or '0.8@1.57' (polar r@theta); finite only."""
    text = text.strip()
    polar = "@" in text
    head, sep, tail = text.partition("@" if polar else ",")
    try:
        parts = (float(head), float(tail) if sep else 0.0)
        if all(map(math.isfinite, parts)):
            return cmath.rect(*parts) if polar else complex(*parts)
    except ValueError:
        pass
    raise UsageError(f"{flag} {text!r} is not a finite 're', 're,im' or 'r@theta'")


def _output(args):
    """The report stream: the --out file, opened by this call, or stdout (left open)."""
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _emit(args, text: str):
    with _output(args) as out:
        out.write(text)


def _emit_json(args, payload: dict):
    _emit(args, json.dumps(payload, indent=2) + "\n")


# json writes a finite float as float.__repr__ (%r).  A marginal of a normalized
# state has no infinite entry, and a NaN one fails the DISPLAY_ZERO test.
_JSON_ENTRY = '    {\n      "bra": %s,\n      "ket": %s,\n      "re": %r,\n      "im": %r\n    }'


def _entry_chunks(op):
    """The entries of `op` with modulus >= DISPLAY_ZERO, in row-major order of
    the full matrix, as (rows, cols, re, im) arrays of row ranges of a block.

    Sector slices are contiguous and in charge order, and the full matrix is
    zero off the blocks, so walking each block a row range at a time gives
    ``np.nonzero``'s order on the full matrix without forming it.  A range
    holds one stack of :func:`~fibanyon.errors.stack_slices` at 32 bytes an
    entry (4 096 entries, a few hundred kB of text), whatever the size of
    the report.
    """
    for g in op.basis.model.charges:
        block, first = op.blocks[g], op.basis.sector_slice(g).start
        for stack in stack_slices(block.shape[0], 32 * max(1, block.shape[1])):
            rows = block[stack]
            r, c = np.nonzero(np.abs(rows) >= DISPLAY_ZERO)
            if r.size:
                values = rows[r, c]
                yield (r + (first + stack.start), c + first,
                       np.where(np.abs(values.real) < DISPLAY_ZERO, 0.0, values.real),
                       np.where(np.abs(values.imag) < DISPLAY_ZERO, 0.0, values.imag))


def _write_json_entries(out, op):
    """`op`'s entry list as ``json.dumps(indent=2)`` writes it one level deep."""
    quoted = np.array([json.dumps(label) for label in op.basis.labels], dtype=object)
    opening = "[\n"
    for rows, cols, re, im in _entry_chunks(op):
        # one % over the chunk; object columns hold str and Python float
        fields = np.empty((len(rows), 4), dtype=object)
        fields[:, 0], fields[:, 1], fields[:, 2], fields[:, 3] = quoted[rows], quoted[cols], re, im
        out.write(opening + ",\n".join([_JSON_ENTRY] * len(rows)) % tuple(fields.ravel().tolist()))
        opening = ",\n"
    out.write("[]" if opening == "[\n" else "\n  ]")


def _write_text_entries(out, op):
    labels = op.basis.labels
    for rows, cols, re, im in _entry_chunks(op):
        out.write("".join(
            f"  {labels[r]} | {labels[c]} : {_fmt(x)} {_fmt(y)}\n"
            for r, c, x, y in zip(rows.tolist(), cols.tolist(), re.tolist(), im.tolist())
        ))


# ---------------------------------------------------------------------------
# subcommands


def cmd_basis(args, model: AnyonModel) -> int:
    if not 1 <= args.n <= 10:
        raise UsageError("--n must be between 1 and 10")
    shape = TreeShape.parse(args.shape) if args.shape else left_comb(args.n)
    if shape.n_leaves != args.n:
        raise UsageError(f"--shape has {shape.n_leaves} leaves but --n is {args.n}")
    basis = enumerate_basis(model, shape)
    if args.format == "json":
        _emit_json(args, {
            "command": "basis",
            "n": args.n,
            "shape": shape.serialize(),
            "dim": basis.dim,
            "sector_dims": {g: basis.sector_dim(g) for g in model.charges},
            "trees": [
                {"index": i, "sector": basis.sector_of(i), "label": label}
                for i, label in enumerate(basis.labels)
            ],
        })
    else:
        lines = [f"basis for N={args.n} anyons, shape {shape.serialize()}, dim {basis.dim}"]
        for g in model.charges:
            lines.append(f"sector {g}: dim {basis.sector_dim(g)}")
        for i, label in enumerate(basis.labels):
            lines.append(f"{i:4d}  [{basis.sector_of(i):>3s}]  {label}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_dims(args, model: AnyonModel) -> int:
    if not 1 <= args.max_n <= 10:
        raise UsageError("--max-n must be between 1 and 10")
    rows = []
    for n in range(1, args.max_n + 1):
        basis = enumerate_basis(model, left_comb(n))
        rows.append((n, basis.dim, {g: basis.sector_dim(g) for g in model.charges}))
    if args.format == "json":
        _emit_json(args, {
            "command": "dims",
            "dims": [{"n": n, "dim": d, "sector_dims": s} for n, d, s in rows],
        })
    else:
        lines = ["  N    dim   " + "  ".join(f"dim[{g}]" for g in model.charges)]
        for n, d, sectors in rows:
            lines.append(
                f"{n:3d}  {d:5d}   " + "  ".join(f"{sectors[g]:6d}" for g in model.charges)
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _load_split_state(args, model: AnyonModel):
    try:
        with open(args.state, encoding="utf-8") as handle:
            state = parse_state_text(model, handle.read())
    except AnyonError as exc:
        raise type(exc)(f"state file {args.state}: {exc}") from None
    n = state.basis.shape.n_leaves
    if n < 2:
        raise ShapeError(f"state file {args.state}: a split needs at least two anyons, not {n}")
    split = args.split if args.split is not None else n // 2
    if not 1 <= split < n:
        raise UsageError(f"--split must be between 1 and {n - 1}")
    grouped = grouped_shape(split, n - split)
    if state.basis.shape != grouped:
        state = change_shape(model, state, grouped)
    return state, bipartition(state.basis, split), split


def cmd_marginals(args, model: AnyonModel) -> int:
    state, part, split = _load_split_state(args, model)
    rho_a = pure_marginal(state, part, traced="B")
    rho_b = pure_marginal(state, part, traced="A")
    with _output(args) as out:
        _write_marginals(out, args.format, split, state.basis.shape.n_leaves, rho_a, rho_b,
                         args.tol)
    return 0


def _write_marginals(out, fmt: str, split: int, n: int, rho_a, rho_b, tol: float):
    """The marginals report, its entry lists streamed from the sector blocks."""
    spec_a, spec_b = spectra(rho_a.blocks.values(), rho_b.blocks.values())
    symmetric = spectra_agree(spec_a, spec_b, tol)
    if fmt == "json":
        head = json.dumps({
            "command": "marginals",
            "split": split,
            "spectrum_a": [_clip(x) for x in spec_a],
            "spectrum_b": [_clip(x) for x in spec_b],
            "purity_a": _clip(purity(rho_a)),
            "purity_b": _clip(purity(rho_b)),
            "spectra_symmetric": symmetric,
        }, indent=2)
        out.write(head[:-2])  # the entry lists go before the closing "\n}"
        for key, rho in (("marginal_a", rho_a), ("marginal_b", rho_b)):
            out.write(f',\n  "{key}": ')
            _write_json_entries(out, rho)
        out.write("\n}\n")
    else:
        out.write(f"marginals at split {split}|{n - split}\n")
        for name, rho_side, spec in (("A", rho_a, spec_a), ("B", rho_b, spec_b)):
            out.write(f"party {name}: spectrum [" + ", ".join(_fmt(x) for x in spec) + "]"
                      f"  purity {_fmt(purity(rho_side))}\n")
            _write_text_entries(out, rho_side)
        out.write(f"spectra symmetric: {'yes' if symmetric else 'no'}\n")


def cmd_correlations(args, model: AnyonModel) -> int:
    from .correlations import is_uncorrelated

    state, part, split = _load_split_state(args, model)
    report = is_uncorrelated(state, part, tol=args.tol)
    payload = report.to_json_dict()
    payload_out = {"command": "correlations", "split": split, **payload}
    payload_out["max_violation"] = _clip(payload_out["max_violation"])
    payload_out["spectrum_a"] = [_clip(x) for x in payload_out["spectrum_a"]]
    payload_out["spectrum_b"] = [_clip(x) for x in payload_out["spectrum_b"]]
    if args.format == "json":
        _emit_json(args, payload_out)
    else:
        lines = [
            f"uncorrelated: {'yes' if report.is_uncorrelated else 'no'}",
            f"max violation: {_fmt(report.max_violation)} (witness pair"
            f" {report.witness[0]}, {report.witness[1]})",
            "spectrum A: [" + ", ".join(_fmt(x) for x in report.marginal_spectra[0]) + "]",
            "spectrum B: [" + ", ".join(_fmt(x) for x in report.marginal_spectra[1]) + "]",
            f"spectra symmetric: {'yes' if report.spectra_symmetric else 'no'}",
        ]
        if report.pure_class is not None:
            lines.append(f"class: {report.pure_class}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_teleport(args, model: AnyonModel) -> int:
    from .teleport import MessageQubit, builtin_scenarios, receiver_reachability_check, run_protocol

    catalog = builtin_scenarios(model)
    if args.scenario not in catalog:
        raise UsageError(
            f"unknown scenario {args.scenario!r} (choose from {', '.join(sorted(catalog))})"
        )
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must be from 1 to {MAX_SAMPLES}")
    scenario = catalog[args.scenario][args.direction]
    alpha = _parse_amplitude("--alpha", args.alpha)
    beta = _parse_amplitude("--beta", args.beta)
    try:
        squared = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        squared = math.inf
    if alpha == beta == 0.0:
        raise UsageError("message amplitudes must not both vanish")
    problem = norm_problem(squared)
    if problem:
        raise UsageError(f"--alpha and --beta: the message norm {problem}")
    norm = math.sqrt(squared)
    if abs(norm - 1.0) > 1e-10:
        print(f"note: normalizing message by 1/{norm:.6g}", file=sys.stderr)
    message = MessageQubit(alpha / norm, beta / norm)

    if scenario.pvm is None:
        report = receiver_reachability_check(
            scenario, [message], pvm_samples=args.samples, seed=args.seed, tol=args.tol
        )
        if args.format == "json":
            _emit_json(args, {
                "command": "teleport",
                "mode": "reachability",
                "scenario": scenario.name,
                "direction": scenario.direction,
                "alpha": [message.alpha.real, message.alpha.imag],
                "beta": [message.beta.real, message.beta.imag],
                "samples": report.samples,
                "conditionals": report.conditionals,
                "reachable": list(scenario.reachable),
                "max_off_support": _clip(report.max_off_support),
                "tolerance": report.tol,
                "ok": report.ok,
            })
        else:
            _emit(args, (
                f"scenario {scenario.name} direction {scenario.direction}: no catalog PVM;"
                f" sampled {report.samples} sector-respecting measurements\n"
                f"receiver support restricted to diagonal on: "
                + ", ".join(scenario.reachable)
                + f"\nconditional states examined: {report.conditionals}\n"
                f"max off-support mass: {_fmt(report.max_off_support)}"
                f" (tolerance {report.tol:g}) -> {'OK' if report.ok else 'VIOLATED'}\n"
            ))
        return 0

    outcome = run_protocol(scenario, message)
    if args.format == "json":
        _emit_json(args, {
            "command": "teleport",
            "mode": "protocol",
            "scenario": scenario.name,
            "direction": scenario.direction,
            "alpha": [message.alpha.real, message.alpha.imag],
            "beta": [message.beta.real, message.beta.imag],
            "probabilities": [_clip(b.probability) for b in outcome.branches],
            "fidelities": [None if b.fidelity is None else _clip(b.fidelity)
                           for b in outcome.branches],
            "no_click_probability": _clip(outcome.no_click.probability),
            "no_click_fidelity": (None if outcome.no_click.fidelity is None
                                  else _clip(outcome.no_click.fidelity)),
            "average_fidelity": _clip(outcome.average_fidelity),
            "receiver_diagonals": [
                None if b.receiver_state is None
                else [_clip(x) for x in np.real(np.diag(b.receiver_state))]
                for b in outcome.branches
            ],
        })
    else:
        lines = [
            f"scenario {scenario.name} direction {scenario.direction}"
            f"  message alpha={_fmt(message.alpha.real)}{_fmt_imag(message.alpha.imag)}"
            f" beta={_fmt(message.beta.real)}{_fmt_imag(message.beta.imag)}",
            "outcome   probability   fidelity",
        ]
        for k, branch in enumerate(outcome.branches):
            fid = "-" if branch.fidelity is None else _fmt(branch.fidelity)
            lines.append(f"{k:7d}   {_fmt(branch.probability):>11s}   {fid:>8s}")
        nc_fid = "-" if outcome.no_click.fidelity is None else _fmt(outcome.no_click.fidelity)
        lines.append(f"no-click   {_fmt(outcome.no_click.probability):>11s}   {nc_fid:>8s}")
        lines.append(f"average fidelity: {_fmt(outcome.average_fidelity)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _fmt_imag(x: float) -> str:
    x = _clip(x)
    return "" if x == 0.0 else f"{x:+.6g}i"


def cmd_verify(args, model: AnyonModel) -> int:
    from .verify import run_suites

    names = [args.suite] if args.suite else None
    start = time.monotonic()
    results = run_suites(model, names=names, seed=args.seed, quick=args.quick)
    elapsed = time.monotonic() - start
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        _emit_json(args, {
            "command": "verify",
            "passed": all_passed,
            "suites": [
                {"name": r.name, "skipped": r.skipped} if r.skipped else {
                    "name": r.name,
                    "passed": r.passed,
                    "max_residual": float(r.max_residual),
                    "checks": [
                        {"label": c.label, "ok": c.ok, "residual": float(c.residual)}
                        for c in r.checks
                    ],
                }
                for r in results
            ],
        })
    else:
        lines = []
        for r in results:
            if r.skipped:
                lines.append(f"[SKIP] suite {r.name}: {r.skipped}")
                continue
            lines.append(f"[{'PASS' if r.passed else 'FAIL'}] suite {r.name}"
                         f"  checks={len(r.checks)}  max_residual={r.max_residual:.3e}")
            for c in r.checks:
                lines.append(f"    [{'ok' if c.ok else 'FAIL'}] {c.label}"
                             f"  residual={c.residual:.3e}")
        lines.append(f"overall: {'PASS' if all_passed else 'FAIL'}")
        _emit(args, "\n".join(lines) + "\n")
    print(f"verify: {elapsed:.1f}s", file=sys.stderr)
    return 0 if all_passed else 1


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibanyon",
        description="Fusion-tree simulator for Fibonacci anyons",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", default="fibonacci",
                        help="built-in 'fibonacci' or path to a model definition file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", default=None, help="write the report to this path")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=42)
    tolerant = argparse.ArgumentParser(add_help=False)
    tolerant.add_argument("--tol", type=float, default=1e-10)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common], help="list the fusion-tree basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shape", default=None, help="nested-parenthesis shape, e.g. '((0 1) 2)'")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("dims", parents=[common], help="state-space dimension table")
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("marginals", parents=[common, tolerant],
                       help="both marginals of a state file")
    p.add_argument("--state", required=True, help="state file (see README for the format)")
    p.add_argument("--split", type=int, default=None, help="anyons in party A (default: half)")
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("correlations", parents=[common, tolerant],
                       help="uncorrelated-state test on a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--split", type=int, default=None)
    p.set_defaults(func=cmd_correlations)

    p = sub.add_parser("teleport", parents=[common, seeded, tolerant],
                       help="run a teleportation scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--direction", required=True, choices=("ab", "ba"))
    p.add_argument("--alpha", default="0.6", help="complex: '0.6', 're,im' or 'r@theta'")
    p.add_argument("--beta", default="0.8")
    p.add_argument("--samples", type=int, default=200,
                   help="PVM samples for directions without a catalog PVM")
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("verify", parents=[common, seeded], help="run the invariant suites")
    p.add_argument("--suite", default=None, choices=_SUITE_NAMES)
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in args and not 0.0 <= args.tol < math.inf:
            raise UsageError("--tol must be a finite number >= 0")
        if "seed" in args and args.seed < 0:
            raise UsageError("--seed must be a non-negative integer")
        model = _load_model(args.model, validate=args.command != "verify")
        return args.func(args, model)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AnyonError, OSError, ValueError, MemoryError) as exc:
        # numpy names the allocation it failed; a bare MemoryError() names nothing
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
