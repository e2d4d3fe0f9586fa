import argparse
import cmath
import functools
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibanyon import cli, errors, verify
from fibanyon.cli import DISPLAY_ZERO, build_parser, main
from fibanyon.model import fibonacci_model
from fibanyon.states import (
    AnyonState,
    BlockOperator,
    bipartition,
    format_state_text,
    pure_marginal,
    purity,
    random_pure_state,
    spectra_agree,
    spectrum,
)
from fibanyon.trees import enumerate_basis, grouped_shape, left_comb

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
STATE_FILE = str(DATA / "unequal_marginals.state")
Z2_MODEL = str(DATA / "z2.model")
ISING_MODEL = str(DATA / "ising.model")
Z3_MODEL = str(DATA / "z3.model")
ISING_STATE = str(DATA / "ising_one_one.state")
Z3_STATE = str(DATA / "z3_five.state")
ALL_TAU_13_STATE = str(DATA / "all_tau_13.state")  # written as CI writes the N=16 file
TAU_EIGHT_STATE = str(DATA / "tau_eight.state")


def run_cli(*argv):
    """Run the CLI in-process, capturing stdout text and the exit code."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_cli_subprocess(*argv):
    """Run the CLI in a child process under the Haswell OpenBLAS kernel, whose
    digits the goldens hold whatever kernel this host would select."""
    proc = subprocess.run(
        [sys.executable, "-m", "fibanyon.cli", *argv],
        capture_output=True,
        cwd=str(Path(__file__).parent.parent),
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
    )
    return proc.returncode, proc.stdout


GOLDEN_CASES = [
    ("basis_n2.txt", ("basis", "--n", "2")),
    ("dims.txt", ("dims",)),
    ("marginals_unequal.txt", ("marginals", "--state", STATE_FILE)),
    ("correlations_unequal.json", ("correlations", "--state", STATE_FILE, "--format", "json")),
    *(
        (f"teleport_{short}_{direction}.{ext}",
         ("teleport", "--scenario", scenario, "--direction", direction, "--format", fmt))
        for short, scenario in (("main", "main-text"), ("d1", "appendix-d1-symmetric"),
                                ("d2", "appendix-d2-asymmetric"))
        for direction in ("ab", "ba")
        for fmt, ext in (("text", "txt"), ("json", "json"))
    ),
    # the two reachability sweeps away from the default seed and sample count
    *(
        (f"teleport_{short}_{direction}_seed7.json",
         ("teleport", "--scenario", scenario, "--direction", direction, "--samples", "1000",
          "--seed", "7", "--format", "json"))
        for short, scenario, direction in (("main", "main-text", "ba"),
                                           ("d2", "appendix-d2-asymmetric", "ab"))
    ),
    # a complex message on the four PVM directions: the Y correction's +-i phases
    *(
        (f"teleport_{short}_{direction}_complex.json",
         ("teleport", "--scenario", scenario, "--direction", direction,
          "--alpha", "0.3,0.2", "--beta", "0.5@1.1", "--format", "json"))
        for short, scenario, direction in (("main", "main-text", "ab"),
                                           ("d1", "appendix-d1-symmetric", "ab"),
                                           ("d1", "appendix-d1-symmetric", "ba"),
                                           ("d2", "appendix-d2-asymmetric", "ba"))
    ),
    ("verify_dims.txt", ("verify", "--suite", "dims")),
    ("verify_teleportation_quick.txt", ("verify", "--suite", "teleportation", "--quick")),
    # every bit of the oracle excess and the sweep, at the quick count's four messages
    ("verify_teleportation_quick.json",
     ("verify", "--suite", "teleportation", "--quick", "--format", "json")),
    # every bit of the correlation residuals, which the text report rounds to three digits
    ("verify_correlations_quick.json",
     ("verify", "--suite", "correlations", "--quick", "--format", "json")),
    # every BlockOperator operation, partial trace and embedding; as text, because the
    # JSON residuals' last digits differ between one BLAS thread and several
    ("verify_algebra_quick.txt", ("verify", "--suite", "algebra", "--quick")),
    # every bit of the recoupling residuals, up to N=4 and (every shape pair) up to N=5
    ("verify_recoupling_quick.json",
     ("verify", "--suite", "recoupling", "--quick", "--format", "json")),
    ("verify_recoupling.json", ("verify", "--suite", "recoupling", "--format", "json")),
    # the other models' state files: their labels parsed (both spellings) and rendered
    *(
        (f"{command}_{name}.{ext}", (command, "--model", model, "--state", state, *argv))
        for name, model, state in (("ising_one_one", ISING_MODEL, ISING_STATE),
                                   ("z3_five", Z3_MODEL, Z3_STATE))
        for command, ext, argv in (("marginals", "txt", ()),
                                   ("correlations", "json", ("--format", "json")))
    ),
    # large N: the all-tau N=13 comb (233 trees) at its balanced split, regrouped by route
    ("marginals_all_tau_13.json",
     ("marginals", "--state", ALL_TAU_13_STATE, "--split", "6", "--format", "json")),
    # a seeded N=8 tau-sector state on the all-tau leaves, at a lopsided and the balanced split
    *(
        (f"{command}_tau_eight_split{split}.json",
         (command, "--state", TAU_EIGHT_STATE, "--split", split, "--format", "json"))
        for command in ("marginals", "correlations")
        for split in ("2", "4")
    ),
]


# Runs every argv it reads from stdin through fibanyon.cli.main, as
# ``python -m fibanyon.cli`` would run it alone, and writes each exit code and
# the bytes its report wrote to stdout.
_GOLDEN_CHILD = """
import io, pickle, sys
from fibanyon.cli import main
real, results = sys.stdout, []
for argv in pickle.load(sys.stdin.buffer):
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding=real.encoding, errors=real.errors)
    code = main(list(argv))
    sys.stdout.flush()
    results.append((code, sys.stdout.buffer.getvalue()))
sys.stdout = real
real.buffer.write(pickle.dumps(results))
"""


@functools.cache
def _golden_outputs() -> dict:
    """(exit code, stdout bytes) of every GOLDEN_CASES argv, from one child
    under the Haswell OpenBLAS kernel, as :func:`run_cli_subprocess` runs one:
    interpreter and numpy start-up are paid once, not once per case."""
    argvs = [argv for _, argv in GOLDEN_CASES]
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_CHILD],
        input=pickle.dumps(argvs),
        capture_output=True,
        cwd=str(Path(__file__).parent.parent),
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return dict(zip(argvs, pickle.loads(proc.stdout), strict=True))


def golden_run(argv):
    """(exit code, stdout bytes) of the CLI on one GOLDEN_CASES argv: both
    golden tests compare these bytes."""
    return _golden_outputs()[argv]


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_byte_equality(golden_name, argv):
    code, out = golden_run(argv)
    assert code == 0
    assert out == (GOLDEN / golden_name).read_bytes()


def test_output_deterministic_across_runs():
    first = run_cli_subprocess("teleport", "--scenario", "main-text", "--direction", "ab",
                               "--format", "json", "--seed", "42")
    second = run_cli_subprocess("teleport", "--scenario", "main-text", "--direction", "ab",
                                "--format", "json", "--seed", "42")
    assert first == second


def test_basis_n4_has_34_lines():
    code, out = run_cli("basis", "--n", "4")
    assert code == 0
    tree_lines = [line for line in out.splitlines() if line and line.lstrip()[0].isdigit()]
    assert len(tree_lines) == 34


def test_basis_rejects_out_of_range():
    assert run_cli("basis", "--n", "0")[0] == 2
    assert run_cli("basis", "--n", "11")[0] == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["basis", "--n", "2", "--bogus"])
    assert excinfo.value.code == 2


def test_marginals_values():
    code, out = run_cli("marginals", "--state", STATE_FILE, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum_a"] == [0.5000000000000001, 0.5000000000000001]
    assert payload["spectrum_b"] == [1.0000000000000002, 0.0]
    assert payload["spectra_symmetric"] is False


def test_marginals_missing_file_is_domain_error(tmp_path):
    code, _ = run_cli("marginals", "--state", str(tmp_path / "nope.state"))
    assert code == 1


def test_correlations_report_class():
    code, out = run_cli("correlations", "--state", STATE_FILE, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["uncorrelated"] is True
    assert payload["class"] == "class-2-tau"


def test_teleport_polar_and_pair_amplitudes():
    code, out = run_cli("teleport", "--scenario", "main-text", "--direction", "ab",
                        "--alpha", "0.6,0.0", "--beta", f"0.8@{math.pi/2}",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"][0] == pytest.approx(0.0, abs=1e-12)
    assert payload["beta"][1] == pytest.approx(0.8)
    assert payload["average_fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_teleport_reachability_mode():
    code, out = run_cli("teleport", "--scenario", "main-text", "--direction", "ba",
                        "--samples", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "reachability"
    assert payload["ok"] is True
    assert payload["max_off_support"] == 0.0


@pytest.mark.parametrize("scenario, direction", [
    ("main-text", "ab"), ("appendix-d1-symmetric", "ab"), ("appendix-d1-symmetric", "ba"),
    ("appendix-d2-asymmetric", "ba"),
])
def test_teleport_tol_does_not_move_pvm_validation(scenario, direction):
    # --tol is the sweep's pass threshold; the catalog PVMs carry ~1e-16 rounding and
    # are validated at a fixed threshold, so even a zero --tol leaves the report as it is
    for fmt in ("text", "json"):
        argv = ("teleport", "--scenario", scenario, "--direction", direction, "--format", fmt)
        default = run_cli(*argv)
        assert default[0] == 0
        for tol in ("0", "1e-300"):
            assert run_cli(*argv, "--tol", tol) == default


def test_teleport_unknown_scenario_usage_error():
    assert run_cli("teleport", "--scenario", "nope", "--direction", "ab")[0] == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_teleport_empty_sweep_usage_error(samples):
    # a sweep over no measurements must not report the direction as confined
    code, out = run_cli("teleport", "--scenario", "main-text", "--direction", "ba",
                        "--samples", samples)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("samples", [str(cli.MAX_SAMPLES + 1), "100000000000"])
def test_teleport_refuses_samples_over_the_cap_at_once(samples, capsys):
    # 10**11 samples would sweep for hours; the refusal comes before any sweep
    start = time.process_time()
    code, out = run_cli("teleport", "--scenario", "main-text", "--direction", "ba",
                        "--samples", samples)
    assert time.process_time() - start < 1.0
    assert (code, out) == (2, "")
    assert f"--samples must be from 1 to {cli.MAX_SAMPLES}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("teleport", "--scenario", "main-text", "--direction", "ab", "--alpha", "nan"),
    ("teleport", "--scenario", "main-text", "--direction", "ba", "--alpha", "inf"),
    ("teleport", "--scenario", "main-text", "--direction", "ab", "--beta", "1@inf"),
    ("marginals", "--state", STATE_FILE, "--tol", "nan"),
    ("marginals", "--state", STATE_FILE, "--tol", "-1"),
    ("correlations", "--state", STATE_FILE, "--tol", "inf"),
], ids=["alpha-nan", "alpha-inf-ba", "beta-polar-inf", "tol-nan", "tol-negative", "tol-inf"])
def test_non_finite_or_negative_numbers_are_usage_errors(capsys, argv):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("usage error: ")


def test_negative_seed_is_usage_error(capsys):
    for argv in (("teleport", "--scenario", "main-text", "--direction", "ba"),
                 ("verify", "--suite", "dims")):
        code, out = run_cli(*argv, "--seed", "-1")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "usage error: --seed must be a non-negative integer\n"


@pytest.mark.parametrize("flag, text", [
    ("--alpha", "0.6,"), ("--alpha", "abc"), ("--beta", "1@x"), ("--beta", "@1"),
    ("--alpha", "0.6,0.8,0.1"), ("--beta", "1@inf"),
])
def test_malformed_amplitude_is_usage_error_naming_flag(capsys, flag, text):
    code, out = run_cli("teleport", "--scenario", "main-text", "--direction", "ab", flag, text)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"usage error: {flag} {text!r} is not a finite 're', 're,im' or 'r@theta'\n")


@pytest.mark.parametrize("label, message", [
    ("(tau,e),(e,tau);tau,e;e", "tree '(tau,e),(e,tau);tau,e;e' is not fusion-consistent"),
    ("(sigma,e),(e,tau);tau,tau;e", "unknown charge 'sigma' (model fibonacci)"),
    ("(tau,e),(e);tau,tau;e", "label '(tau,e),(e);tau,tau;e' has 3 leaves, shape has 4"),
], ids=["inconsistent", "unknown-charge", "leaf-count"])
def test_bad_label_in_state_file_exits_1(tmp_path, capsys, label, message):
    path = tmp_path / "bad.state"
    path.write_text(f"shape: ((0 1)(2 3))\n{label} : 1.0 0.0\n", encoding="utf-8")
    code, out = run_cli("marginals", "--state", str(path))
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: state file {path}: {message}\n"


def test_non_finite_amplitude_in_state_file_exits_1(tmp_path, capsys):
    path = tmp_path / "inf.state"
    path.write_text("shape: (0 1)\ne,tau;tau : inf 0.0\n", encoding="utf-8")
    code, out = run_cli("marginals", "--state", str(path), "--format", "json")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: state file {path}: line 2: amplitude is not finite in 'e,tau;tau : inf 0.0'\n")


def test_deeply_nested_shape_exits_1_with_one_line(tmp_path, capsys):
    # both used to end in a RecursionError traceback
    limit = sys.getrecursionlimit() // 4
    code, out = run_cli("basis", "--n", "2", "--shape", "(" * 3000 + "0 1" + ")" * 3000)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: shape expression nested more than {limit} levels deep\n")
    comb = "0"
    for leaf in range(1, 1200):
        comb = f"({comb} {leaf})"
    path = tmp_path / "comb.state"
    path.write_text(f"shape: {comb}\n" + ",".join(["tau"] * 1200) + ";"
                    + ",".join(["tau"] * 1198) + ";tau : 1.0 0.0\n", encoding="utf-8")
    code, out = run_cli("marginals", "--state", str(path))
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: state file {path}: shape expression nested more than {limit} levels deep\n")


def test_shape_with_more_key_columns_than_numpy_indexes_exits_1_with_one_line(tmp_path, capsys):
    # a one-charge model: 32 leaves are indexed, 33 used to fail inside numpy
    model = tmp_path / "one.model"
    model.write_text("charges e\nvacuum e\nfusion e e -> e\n", encoding="utf-8")
    for n in (32, 33):
        path = tmp_path / f"comb{n}.state"
        path.write_text(f"shape: {left_comb(n).serialize()}\n" + ",".join(["e"] * n) + ";"
                        + ",".join(["e"] * (n - 2)) + ";e : 1.0 0.0\n", encoding="utf-8")
        code, out = run_cli("marginals", "--model", str(model), "--state", str(path), "--split", "3")
        err = capsys.readouterr().err
        if n == 32:
            assert code == 0 and out.startswith("marginals at split 3|29\n")
    assert code == 1 and out == ""
    assert err == (f"error: state file {path}: shape {left_comb(33).serialize()}"
                   " over 1 charges is too large to index\n")


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 806. MiB for an array with shape (24157817, 35)"),
     "Unable to allocate 806. MiB for an array with shape (24157817, 35)"),
    (MemoryError(), "MemoryError"),
], ids=["numpy-allocation", "bare"])
def test_out_of_memory_exits_1_with_one_line(monkeypatch, capsys, error, line):
    def parse_state_text(model, text):
        raise error

    monkeypatch.setattr(cli, "parse_state_text", parse_state_text)
    code, out = run_cli("marginals", "--state", STATE_FILE)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("entries, problem", [
    # repeated labels add, and 1e308 + 1e308 overflows
    ("e,tau;tau : 1e308 0\ne,tau;tau : 1e308 0\n", "overflows"),
    # each amplitude is finite, the sum of their squares is not
    ("e,tau;tau : 1e200 0\ntau,tau;tau : 1e200 0\n", "overflows"),
    ("e,tau;tau : 1e-320 0\n", "underflows to 0"),
    # nonzero, but the sum of the squares is subnormal and has lost digits
    ("e,tau;tau : 1e-160 0\ntau,tau;tau : 1e-160 0\n", "underflows (its square is subnormal)"),
], ids=["repeated-label-overflows", "norm-overflows", "norm-underflows", "norm-subnormal"])
@pytest.mark.parametrize("command", ["marginals", "correlations"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_state_file_norm_out_of_range_exits_1(tmp_path, capsys, entries, problem, command, fmt):
    path = tmp_path / "extreme.state"
    path.write_text("shape: (0 1)\n" + entries, encoding="utf-8")
    code, out = run_cli(command, "--state", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: state file {path}: cannot normalize: the norm of the amplitudes {problem}\n")


@pytest.mark.parametrize("alpha, beta, problem", [
    ("1e308", "1e308", "overflows"),
    ("1e200,1e200", "0", "overflows"),
    ("1e-200", "1e-200", "underflows to 0"),
    ("1e-160", "0", "underflows (its square is subnormal)"),
])
def test_message_norm_out_of_range_is_usage_error(capsys, alpha, beta, problem):
    code, out = run_cli("teleport", "--scenario", "main-text", "--direction", "ab",
                        "--alpha", alpha, "--beta", beta)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"usage error: --alpha and --beta: the message norm {problem}\n")


_LABELS = ("(tau,e),(e,tau);tau,tau;e", "(e,e),(tau,tau);e,tau;tau", "(tau,tau),(tau,tau);e,e;e",
           "(tau,tau),(tau,tau);tau,tau;e")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_LABELS), st.floats(-330, 308), st.floats(-330, 308),
                          st.booleans()), min_size=1, max_size=4),
       st.sampled_from(["marginals", "correlations"]), st.sampled_from(["text", "json"]))
def test_state_files_at_any_magnitude_give_a_clean_report_or_error(entries, command, fmt):
    # repeated labels add; exponents span underflow through overflow
    lines = [f"{label} : {(-1) ** sign * 10.0 ** re!r} {10.0 ** im!r}"
             for label, re, im, sign in entries]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.state"
        path.write_text("shape: ((0 1)(2 3))\n" + "\n".join(lines) + "\n", encoding="utf-8")
        code, out = run_cli(command, "--state", str(path), "--format", fmt)
        assert code in (0, 1, 2)
        assert "NaN" not in out and "Infinity" not in out and "nan" not in out and "inf" not in out
        if code == 0:
            code_json, out_json = (code, out) if fmt == "json" else run_cli(
                command, "--state", str(path), "--format", "json")
            assert code_json == 0
            report = json.loads(out_json)
            for key in ("spectrum_a", "spectrum_b"):
                assert abs(math.fsum(report[key]) - 1.0) <= 1e-12


def _run_contract(argv):
    """run_cli, with argparse's own exits read as exit codes."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code, ""


def _assert_clean_exit(code, out):
    assert code in (0, 1, 2)
    assert not re.search(r"\b(nan|inf|infinity)\b", out, flags=re.IGNORECASE)


def _fibonacci_model_text(*overrides):
    """The built-in Fibonacci model in the model-file format, with the (key,
    value) `overrides` replacing some of its F or R lines."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    r_e, r_tau = cmath.exp(-4j * math.pi / 5.0), cmath.exp(3j * math.pi / 5.0)
    lines = {
        "F tau tau tau ; tau ; e e": f"{inv_phi!r} 0.0",
        "F tau tau tau ; tau ; e tau": f"{math.sqrt(inv_phi)!r} 0.0",
        "F tau tau tau ; tau ; tau e": f"{math.sqrt(inv_phi)!r} 0.0",
        "F tau tau tau ; tau ; tau tau": f"{-inv_phi!r} 0.0",
        "R tau tau ; e": f"{r_e.real!r} {r_e.imag!r}",
        "R tau tau ; tau": f"{r_tau.real!r} {r_tau.imag!r}",
    }
    lines.update(overrides)
    return ("charges e tau\nvacuum e\nfusion e e -> e\nfusion e tau -> tau\n"
            "fusion tau tau -> e tau\n"
            + "".join(f"{key} = {value}\n" for key, value in lines.items()))


# the model files the fuzz starts from: every F and R line is one a mutation may
# rewrite; the Z2 and Z3 ones restate defaults
_FUZZ_MODELS = {
    "fibonacci": _fibonacci_model_text(),
    "z2": (DATA / "z2.model").read_text(encoding="utf-8")
          + "F s s s ; s ; e e = 1.0 0.0\nR s s ; e = 1.0 0.0\n",
    "z3": (DATA / "z3.model").read_text(encoding="utf-8")
          + "F a a a ; e ; b b = 1.0 0.0\nR a a ; b = 1.0 0.0\n",
    "ising": (DATA / "ising.model").read_text(encoding="utf-8"),
}

# mostly finite entries, which load: signs, magnitudes from subnormal to the
# largest float, and the loader's refusals
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.sampled_from([1.0, -1.0]), st.integers(-320, 308)).map(
        lambda pair: repr(pair[0] * 10.0 ** pair[1])),
    st.sampled_from(["1.7976931348623157e308", "0.7071067811865476", "nan", "-inf", "1e309"]),
)
_MUTATIONS = st.one_of(
    st.tuples(st.just("repeat charge"), st.integers(0, 2)),
    st.tuples(st.just("undeclared charge"), st.integers(0, 20)),
    st.tuples(st.just("undeclared vacuum"), st.just(0)),
    st.tuples(st.just("drop line"), st.integers(0, 20)),
    *[st.tuples(st.just("entry"), st.integers(0, 20), _NUMBERS, _NUMBERS)] * 4,
)


def _mutated_model(text, mutations):
    """`text` with each mutation applied in turn (a line index wraps around)."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    for kind, index, *values in mutations:
        charges = lines[0].split()[1:]
        fusion = [k for k, line in enumerate(lines) if line.startswith("fusion")]
        entries = [k for k, line in enumerate(lines) if line[:2] in ("F ", "R ")]
        if kind == "repeat charge":
            lines[0] += " " + charges[index % len(charges)]
        elif kind == "undeclared charge" and fusion:
            k = fusion[index % len(fusion)]
            lines[k] = lines[k].replace(charges[-1], "x", 1)
        elif kind == "undeclared vacuum":
            lines[1] = "vacuum x"
        elif kind == "drop line" and len(lines) > 2:
            del lines[2 + index % (len(lines) - 2)]
        elif kind == "entry" and entries:
            k = entries[index % len(entries)]
            lines[k] = lines[k].split("=")[0] + "= " + " ".join(values)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("line, value", [
    ("F tau tau tau ; tau ; e e", "1e300 0.0"),
    ("R tau tau ; e", "1e308 1e308"),
], ids=["f-overflows", "r-modulus-overflows"])
def test_model_file_with_huge_entries_exits_1(tmp_path, capsys, line, value):
    path = _fibonacci_model_file(tmp_path, "huge.model", (line, value))
    for fmt in ("text", "json"):
        code, out = run_cli("verify", "--quick", "--model", path, "--format", fmt)
        assert code == 1
        _assert_clean_exit(code, out)
        assert "not finite" in out
    capsys.readouterr()
    # a named suite other than the model one refuses the model, as other commands do
    for argv in (("verify", "--quick", "--suite", "recoupling"), ("basis", "--n", "3")):
        code, out = run_cli(*argv, "--model", path)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(f"error: model {path} fails validation: ")


def test_model_format_error_inside_a_suite_fails_a_run_of_all(monkeypatch):
    # only a model that fails validation turns the other suites into skips
    def broken(model):
        raise errors.ModelFormatError("raised inside the suite")

    monkeypatch.setitem(verify.SUITES, "dims", (broken, False, {}))
    with pytest.raises(errors.ModelFormatError, match="inside the suite"):
        verify.run_suites(quick=True)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_MODELS)), st.lists(_MUTATIONS, max_size=3),
       st.sampled_from([("basis", "--n", "3"), ("dims", "--max-n", "4"),
                        ("marginals", "--state", STATE_FILE),
                        ("verify", "--quick", "--suite", "model"),
                        ("verify", "--quick", "--suite", "dims"),
                        ("verify", "--quick", "--suite", "recoupling")]),
       st.sampled_from(["text", "json"]))
def test_model_files_of_any_content_give_a_clean_report_or_error(base, mutations, argv, fmt):
    # repeated and undeclared charges, missing fusion rules, non-finite and
    # non-unitary F and R entries
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.model"
        path.write_text(_mutated_model(_FUZZ_MODELS[base], mutations), encoding="utf-8")
        code, out = _run_contract((*argv, "--model", str(path), "--format", fmt))
    _assert_clean_exit(code, out)


_JUNK = st.sampled_from(["", "x", "nan", "inf", "-1", "1e308", "0.6,", "@1"])


def _or_junk(valid):
    """Mostly `valid` values, sometimes a malformed or out-of-range one."""
    return st.one_of(valid, valid, valid, _JUNK)


_INTS = st.integers(-2, 12).map(str)
_FLOATS = st.one_of(st.floats(-1.0, 1.0), st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-330, 308).map(lambda e: 10.0 ** e)).map(repr)
_TOLS = st.one_of(st.floats(0.0, 1.0), st.floats(min_value=0.0, allow_infinity=False)).map(repr)
_AMPLITUDES = st.one_of(
    _FLOATS,
    st.tuples(_FLOATS, _FLOATS).map(",".join),
    st.tuples(_FLOATS, _FLOATS).map("@".join),
)
_STATES = st.sampled_from([STATE_FILE, "missing.state"])
# per subcommand: the options it requires, then those it may take (None: a bare flag)
_SUBCOMMAND_OPTIONS = {
    "basis": ({"--n": _or_junk(_INTS)},
              {"--shape": _or_junk(st.sampled_from(["((0 1) 2)", "(0 (1 2))", "((0 1)(2 3))",
                                                    "(0 1", "0", "(0 0)"]))}),
    "dims": ({}, {"--max-n": _or_junk(_INTS)}),
    "marginals": ({"--state": _STATES}, {"--split": _or_junk(_INTS), "--tol": _or_junk(_TOLS)}),
    "correlations": ({"--state": _STATES},
                     {"--split": _or_junk(_INTS), "--tol": _or_junk(_TOLS)}),
    "teleport": ({"--scenario": _or_junk(st.sampled_from(["main-text", "appendix-d1-symmetric",
                                                          "appendix-d2-asymmetric"])),
                  "--direction": _or_junk(st.sampled_from(["ab", "ba"]))},
                 {"--alpha": _or_junk(_AMPLITUDES), "--beta": _or_junk(_AMPLITUDES),
                  "--samples": _or_junk(st.integers(-1, 5).map(str)),
                  "--seed": _or_junk(_INTS), "--tol": _or_junk(_TOLS)}),
    # the algebra suite alone takes a third of a second, quick or not
    "verify": ({"--suite": _or_junk(st.sampled_from(["model", "dims", "recoupling",
                                                     "correlations", "teleportation"])),
                "--quick": st.none()},
               {"--seed": _or_junk(_INTS)}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_OPTIONS)))
    required, optional = _SUBCOMMAND_OPTIONS[command]
    argv = [command]
    for flag in [*required, *draw(st.lists(st.sampled_from(sorted(optional)), unique=True))]:
        value = draw({**required, **optional}[flag])
        argv += [flag] if value is None else [flag, value]
    argv += draw(st.sampled_from([[], [], ["--format", "json"], ["--format", "json"],
                                  ["--format", "xml"], ["--bogus"]]))
    return argv


@settings(max_examples=80, deadline=None)
@given(_argv())
def test_any_argv_gives_a_clean_report_or_error(argv):
    _assert_clean_exit(*_run_contract(argv))


@pytest.mark.parametrize("command", ["marginals", "correlations"])
def test_one_anyon_state_file_exits_1(tmp_path, capsys, command):
    path = tmp_path / "one.state"
    path.write_text("shape: 0\ntau : 1.0 0.0\n", encoding="utf-8")
    code, out = run_cli(command, "--state", str(path))
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: state file {path}: a split needs at least two anyons, not 1\n")


def test_verify_quick_passes():
    code, out = run_cli("verify", "--quick")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_corrupted_model_fails(tmp_path):
    # Fibonacci with F^{tau,tau,tau}_tau[e,e] zeroed: not unitary, no pentagon
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    model_file = tmp_path / "corrupted.model"
    model_file.write_text(
        "charges e tau\n"
        "vacuum e\n"
        "fusion e e -> e\n"
        "fusion e tau -> tau\n"
        "fusion tau tau -> e tau\n"
        "F tau tau tau ; tau ; e e = 0.0 0.0\n"
        f"F tau tau tau ; tau ; e tau = {math.sqrt(inv_phi)!r} 0.0\n"
        f"F tau tau tau ; tau ; tau e = {math.sqrt(inv_phi)!r} 0.0\n"
        f"F tau tau tau ; tau ; tau tau = {-inv_phi!r} 0.0\n",
        encoding="utf-8",
    )
    code, out = run_cli("verify", "--suite", "model", "--model", str(model_file))
    assert code == 1
    assert "FAIL" in out


def _fibonacci_model_file(tmp_path, name, *overrides):
    """Fibonacci in the model-file format, with some F or R lines replaced."""
    path = tmp_path / name
    path.write_text(_fibonacci_model_text(*overrides), encoding="utf-8")
    return str(path)


def test_model_file_validated_on_load(tmp_path, capsys):
    valid = _fibonacci_model_file(tmp_path, "fibonacci.model")
    for argv in (("marginals", "--state", STATE_FILE),
                 ("teleport", "--scenario", "main-text", "--direction", "ab")):
        assert run_cli(*argv, "--model", valid) == run_cli(*argv)
    capsys.readouterr()

    corrupted = _fibonacci_model_file(tmp_path, "corrupted.model",
                                      ("F tau tau tau ; tau ; e e", "0.0 0.0"))
    for argv in (("marginals", "--state", STATE_FILE, "--split", "1"),
                 ("teleport", "--scenario", "main-text", "--direction", "ab")):
        code, out = run_cli(*argv, "--model", corrupted)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert f"model {corrupted} fails validation" in err
        assert "F-matrix not unitary: [tau,tau,tau; tau]" in err
        assert "pentagon identity violated" in err


@pytest.mark.parametrize("charges, vacuum, suite, message", [
    ("e s s", "e", "algebra", "charge 's' is declared more than once"),
    ("e e s", "e", "algebra", "charge 'e' is declared more than once"),
    ("e s", "x", "recoupling", "vacuum 'x' is not a declared charge"),
], ids=["repeated-charge", "repeated-vacuum", "undeclared-vacuum"])
def test_model_file_charges_checked_on_load(tmp_path, capsys, charges, vacuum, suite, message):
    path = tmp_path / "z2.model"
    path.write_text(f"charges {charges}\nvacuum {vacuum}\n"
                    "fusion e e -> e\nfusion e s -> s\nfusion s s -> e\n", encoding="utf-8")
    code, out = run_cli("verify", "--quick", "--suite", suite, "--model", str(path))
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ising_one_one_state_has_unequal_marginals():
    # (|e,sigma;sigma> + |psi,sigma;sigma>)/sqrt(2): A holds e or psi, B always sigma
    code, out = run_cli("marginals", "--model", ISING_MODEL, "--state", ISING_STATE,
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["spectrum_a"] == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    assert report["spectrum_b"] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert report["spectra_symmetric"] is False


def test_hexagon_violation_fails_verify_and_load(tmp_path, capsys):
    # R^{tau tau}_e = i, R^{tau tau}_tau = -i: phases, but no braiding
    path = _fibonacci_model_file(tmp_path, "plus_minus_i.model",
                                 ("R tau tau ; e", "0.0 1.0"), ("R tau tau ; tau", "0.0 -1.0"))
    code, out = run_cli("verify", "--suite", "model", "--model", path)
    assert code == 1
    assert "[FAIL] suite model  checks=2" in out
    assert "violation: hexagon identities violated" in out
    code, out = run_cli("marginals", "--model", path, "--state", STATE_FILE, "--split", "1")
    assert code == 1 and out == ""
    assert "hexagon identities violated" in capsys.readouterr().err


def test_dims_suite_counts_trees_of_any_model():
    code, out = run_cli("verify", "--suite", "dims", "--model", Z2_MODEL)
    assert code == 0
    for n in range(1, 9):
        assert f"[ok] N={n} dim {2**n} (expect {2**n})" in out
    assert "[ok] enumeration deterministic" in out


def _fails_on_z2(capsys, *argv):
    code, out = run_cli(*argv, "--model", Z2_MODEL)
    assert code == 1 and out == ""
    return capsys.readouterr().err


def test_teleport_catalog_on_other_model_says_fibonacci(capsys):
    err = _fails_on_z2(capsys, "teleport", "--scenario", "main-text", "--direction", "ab")
    assert err.startswith("error: the scenario catalog is defined for the Fibonacci charges")
    assert f"unknown charge 'tau' (model {Z2_MODEL})" in err


def test_marginals_state_error_names_file(capsys):
    err = _fails_on_z2(capsys, "marginals", "--state", STATE_FILE)
    assert err.startswith(f"error: state file {STATE_FILE}: unknown charge 'tau'")


def test_correlations_state_error_names_file(capsys):
    err = _fails_on_z2(capsys, "correlations", "--state", STATE_FILE)
    assert err.startswith(f"error: state file {STATE_FILE}: unknown charge 'tau'")


def test_correlations_of_an_other_model_pair_has_no_class(tmp_path):
    # the closed-form classes are stated on the Fibonacci pair basis only
    state = tmp_path / "z2.state"
    state.write_text("shape: (0 1)\ne,s;s : 0.6 0.0\ns,e;s : 0.8 0.0\n")
    code, out = run_cli("correlations", "--state", str(state), "--model", Z2_MODEL,
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["class"] is None and report["uncorrelated"] is False


@pytest.mark.parametrize("suite, what", [("correlations", "the 2-anyon correlations suite"),
                                         ("teleportation", "the scenario catalog")])
def test_verify_fibonacci_suites_on_other_model(capsys, suite, what):
    err = _fails_on_z2(capsys, "verify", "--suite", suite, "--quick")
    assert err.startswith(f"error: {what} is defined for the Fibonacci charges e and tau:")


def _subcommand_parsers(parser):
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_no_hidden_options():
    parser = build_parser()
    parsers = [parser, *_subcommand_parsers(parser).values()]
    hidden = [
        action.option_strings or action.dest
        for p in parsers for action in p._actions if action.help == argparse.SUPPRESS
    ]
    assert hidden == []


# every option of every subcommand, each one read by its command
SHARED_OPTIONS = {"--model", "--format", "--out"}
SUBCOMMAND_OPTIONS = {
    "basis": SHARED_OPTIONS | {"--n", "--shape"},
    "dims": SHARED_OPTIONS | {"--max-n"},
    "marginals": SHARED_OPTIONS | {"--tol", "--state", "--split"},
    "correlations": SHARED_OPTIONS | {"--tol", "--state", "--split"},
    "teleport": SHARED_OPTIONS | {"--seed", "--tol", "--scenario", "--direction", "--alpha",
                                  "--beta", "--samples"},
    "verify": SHARED_OPTIONS | {"--seed", "--suite", "--quick"},
}


def test_each_subcommand_has_exactly_its_options():
    options = {
        name: {flag for action in p._actions for flag in action.option_strings
               if action.dest != "help"}
        for name, p in _subcommand_parsers(build_parser()).items()
    }
    assert options == SUBCOMMAND_OPTIONS
    assert sum(map(len, options.values())) == 37


def test_suite_choices_are_verify_suites_in_order():
    verify_parser = _subcommand_parsers(build_parser())["verify"]
    suite = next(action for action in verify_parser._actions if action.dest == "suite")
    assert suite.choices == tuple(verify.SUITES)


def test_unknown_suite_is_usage_error_listing_the_suites(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "bogus"])
    assert excinfo.value.code == 2
    choices = ", ".join(map(repr, verify.SUITES))
    assert f"invalid choice: 'bogus' (choose from {choices})" in capsys.readouterr().err


# Prints which of the per-subcommand modules a child loaded, after running
# `fibanyon.cli.main` on its arguments (none: the bare import).
_IMPORT_SCOPE_CHILD = """
import contextlib, io, sys
import fibanyon.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fibanyon.cli.main(sys.argv[1:]) == 0
print(*(m for m in ("fibanyon.correlations", "fibanyon.teleport", "fibanyon.verify")
        if m in sys.modules))
"""


def test_each_subcommand_imports_only_its_own_module():
    expected = {
        (): "",
        ("basis", "--n", "2"): "",
        ("dims",): "",
        ("marginals", "--state", STATE_FILE): "",
        ("correlations", "--state", STATE_FILE): "fibanyon.correlations",
        ("teleport", "--scenario", "main-text", "--direction", "ab"): "fibanyon.teleport",
        ("verify", "--suite", "algebra", "--quick"): "fibanyon.verify",
        ("verify", "--suite", "correlations", "--quick"): "fibanyon.correlations fibanyon.verify",
        ("verify", "--suite", "recoupling", "--quick"): "fibanyon.verify",
    }
    # all children at once: a cold start each, so together under a second
    children = {
        argv: subprocess.Popen([sys.executable, "-c", _IMPORT_SCOPE_CHILD, *argv],
                               stdout=subprocess.PIPE, text=True,
                               cwd=str(Path(__file__).parent.parent))
        for argv in expected
    }
    loaded = {argv: child.communicate()[0].strip() for argv, child in children.items()}
    assert all(child.returncode == 0 for child in children.values())
    assert loaded == expected


@pytest.mark.parametrize("argv", [
    ("verify", "--tol", "1e-3"),
    ("basis", "--n", "2", "--seed", "1"),
    ("dims", "--tol", "0"),
    ("marginals", "--state", STATE_FILE, "--seed", "1"),
    ("correlations", "--state", STATE_FILE, "--seed", "1"),
], ids=["verify-tol", "basis-seed", "dims-tol", "marginals-seed", "correlations-seed"])
def test_flag_a_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli("basis", "--n", "2", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["dim"] == 5


def test_state_file_unicode_tau_accepted(tmp_path):
    text = (DATA / "unequal_marginals.state").read_text().replace("tau", "τ")
    path = tmp_path / "unequal_unicode.state"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli("marginals", "--state", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["spectrum_b"][0] == pytest.approx(1.0)


def test_emitted_state_files_reparse_exactly(tmp_path, model, unequal_marginals_state):
    # emitted text round-trips: re-read amplitudes match to the bit
    from fibanyon.states import format_state_text, parse_state_text

    text = format_state_text(unequal_marginals_state)
    reread = parse_state_text(model, text)
    assert format_state_text(reread) == text


def test_teleport_direction_outside_choices_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["teleport", "--scenario", "main-text", "--direction", "xy"])
    assert excinfo.value.code == 2


def test_verify_all_suites_skips_fibonacci_suites_on_other_model():
    code, out = run_cli("verify", "--quick", "--model", Z2_MODEL)
    assert code == 0
    for suite in ("model", "dims", "recoupling", "algebra"):
        assert f"[PASS] suite {suite}  checks=" in out
    assert ("[SKIP] suite correlations: the 2-anyon correlations suite is defined for the"
            " Fibonacci charges e and tau: unknown charge 'tau'") in out
    assert "[SKIP] suite teleportation: the scenario catalog is defined for the" in out
    assert out.endswith("overall: PASS\n")

    code, out = run_cli("verify", "--quick", "--model", Z2_MODEL, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    suites = {s["name"]: s for s in payload["suites"]}
    assert list(suites) == ["model", "dims", "recoupling", "algebra", "correlations",
                            "teleportation"]
    assert set(suites["correlations"]) == {"name", "skipped"}
    assert suites["teleportation"]["skipped"].startswith("the scenario catalog is defined")
    assert all(suites[s]["passed"] for s in ("model", "dims", "recoupling", "algebra"))


def _write_state(path, n, sector, seed, shape=None):
    basis = enumerate_basis(fibonacci_model(), shape or left_comb(n))
    state = random_pure_state(basis, sector, np.random.default_rng(seed))
    path.write_text(format_state_text(state), encoding="utf-8")
    return str(path)


def test_correlation_table_over_memory_budget_exits_1(tmp_path, monkeypatch, capsys):
    path = _write_state(tmp_path / "three_three.state", 6, "tau", 5, grouped_shape(3, 3))
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    code, out = run_cli("correlations", "--state", path, "--split", "3")
    assert code == 1 and out == ""
    units = enumerate_basis(fibonacci_model(), left_comb(3)).unit_count  # per party
    assert capsys.readouterr().err == (
        f"error: the correlation table of a 3|3 split needs ~{80 * units**2 / 2**30:.3g} GiB,"
        f" {2**20 / 2**30:.3g} GiB available (at most half may be used)\n"
    )
    monkeypatch.setattr(errors, "_available_bytes", lambda: None)  # no meminfo: no guard
    assert run_cli("correlations", "--state", path, "--split", "3")[0] == 0


def test_marginal_over_memory_budget_exits_1(tmp_path, monkeypatch, capsys):
    # 2|6: party A's 5-dim marginal always fits; party B's blocks on the 233-dim
    # basis (89 and 144 per sector), and their copy, do not fit half of 1 MiB
    path = _write_state(tmp_path / "two_six.state", 8, "tau", 5)
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    code, out = run_cli("marginals", "--state", path, "--split", "2")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: the marginal on a 233-dim basis needs ~{32 * (89**2 + 144**2) / 2**30:.3g}"
        f" GiB, {2**20 / 2**30:.3g} GiB available (at most half may be used)\n"
    )
    monkeypatch.setattr(errors, "_available_bytes", lambda: None)  # no meminfo: no guard
    assert run_cli("marginals", "--state", path, "--split", "2")[0] == 0


# --- marginals reports: the streamed emission against the dense one it replaced


def _reference_marginals_report(fmt, split, n, rho_a, rho_b, tol=1e-10):
    """The report as it was built before streaming: each marginal made dense,
    one dict per entry, then one ``json.dumps(indent=2)`` or one list of lines."""

    def operator_entries(op):
        labels = op.basis.labels
        full = op.to_full()
        rows, cols = np.nonzero(np.abs(full) >= cli.DISPLAY_ZERO)
        return [{"bra": labels[r], "ket": labels[c], "re": cli._clip(full[r, c].real),
                 "im": cli._clip(full[r, c].imag)} for r, c in zip(rows, cols)]

    spec_a, spec_b = spectrum(rho_a), spectrum(rho_b)
    symmetric = spectra_agree(spec_a, spec_b, tol)
    if fmt == "json":
        return json.dumps({
            "command": "marginals",
            "split": split,
            "spectrum_a": [cli._clip(x) for x in spec_a],
            "spectrum_b": [cli._clip(x) for x in spec_b],
            "purity_a": cli._clip(purity(rho_a)),
            "purity_b": cli._clip(purity(rho_b)),
            "spectra_symmetric": symmetric,
            "marginal_a": operator_entries(rho_a),
            "marginal_b": operator_entries(rho_b),
        }, indent=2) + "\n"
    lines = [f"marginals at split {split}|{n - split}"]
    for name, rho_side, spec in (("A", rho_a, spec_a), ("B", rho_b, spec_b)):
        lines.append(f"party {name}: spectrum [" + ", ".join(cli._fmt(x) for x in spec) + "]"
                     f"  purity {cli._fmt(purity(rho_side))}")
        for entry in operator_entries(rho_side):
            lines.append(f"  {entry['bra']} | {entry['ket']} :"
                         f" {cli._fmt(entry['re'])} {cli._fmt(entry['im'])}")
    lines.append(f"spectra symmetric: {'yes' if symmetric else 'no'}")
    return "\n".join(lines) + "\n"


def _assert_same_report(out, expected):
    """Byte equality that fails fast: on a report of megabytes, pytest's own diff
    takes minutes, so only the first differing line is shown."""
    if out != expected:
        got, want = out.splitlines(keepends=True), expected.splitlines(keepends=True)
        k = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
        pytest.fail(f"reports differ at line {k + 1}: {got[k:k + 1]!r} != {want[k:k + 1]!r}"
                    f" ({len(out)} vs {len(expected)} characters)")


def _marginals_of(path, split):
    args = argparse.Namespace(state=path, split=split)
    state, part, split = cli._load_split_state(args, fibonacci_model())
    return (split, state.basis.shape.n_leaves,
            pure_marginal(state, part, traced="B"), pure_marginal(state, part, traced="A"))


def _streamed_report(fmt, split, n, rho_a, rho_b):
    buf = io.StringIO()
    cli._write_marginals(buf, fmt, split, n, rho_a, rho_b, 1e-10)
    return buf.getvalue()


def _assert_cli_matches_reference(tmp_path, path, split):
    marginals = _marginals_of(path, split)
    for fmt in ("json", "text"):
        expected = _reference_marginals_report(fmt, *marginals)
        code, out = run_cli("marginals", "--state", path, "--split", str(split), "--format", fmt)
        assert code == 0
        _assert_same_report(out, expected)
        target = tmp_path / f"report.{fmt}"
        code, out = run_cli("marginals", "--state", path, "--split", str(split), "--format", fmt,
                            "--out", str(target))
        assert code == 0 and out == ""
        _assert_same_report(target.read_bytes().decode("utf-8"), expected)


def test_reference_report_reproduces_marginals_golden():
    split, n, rho_a, rho_b = _marginals_of(STATE_FILE, None)
    golden = (GOLDEN / "marginals_unequal.txt").read_text(encoding="utf-8")
    _assert_same_report(_reference_marginals_report("text", split, n, rho_a, rho_b), golden)


def test_streamed_report_matches_reference_on_golden_state(tmp_path):
    _assert_cli_matches_reference(tmp_path, STATE_FILE, 1)


# (N, sector, split): every split for N <= 5; above that, splits 1-3 in both
# sectors at N=6 and one split a sector at N=7 and 8 (30 states in all)
RANDOM_REPORTS = [
    *((n, sector, split) for n in range(2, 6) for sector in ("e", "tau") for split in range(1, n)),
    *((6, sector, split) for sector in ("e", "tau") for split in (1, 2, 3)),
    (7, "e", 2), (7, "tau", 3), (8, "e", 3), (8, "tau", 2),
]


@pytest.mark.parametrize("n, sector, split", RANDOM_REPORTS,
                         ids=[f"n{n}-{g}-split{s}" for n, g, s in RANDOM_REPORTS])
def test_streamed_report_matches_reference_on_random_states(tmp_path, n, sector, split):
    seed = 1000 + RANDOM_REPORTS.index((n, sector, split))
    path = _write_state(tmp_path / "random.state", n, sector, seed)
    _assert_cli_matches_reference(tmp_path, path, split)


def test_streamed_report_clips_and_drops_small_entries(tmp_path):
    basis = enumerate_basis(fibonacci_model(), grouped_shape(2, 2))
    start = basis.sector_slice("tau").start
    index = next(index for g, _, _, index in bipartition(basis, 2).blocks
                 if g == "tau" and index.shape[0] >= 2)
    # two A trees of one root against one B tree: rho_A gets a 1e-7 entry with a
    # 1e-13 imaginary part, and a 1e-14 diagonal entry; the other A root's block is zero
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[start + index[0, 0]] = 1.0
    amplitudes[start + index[1, 0]] = 1e-7 * cmath.exp(1e-6j)
    path = tmp_path / "small.state"
    path.write_text(format_state_text(AnyonState(basis, amplitudes)), encoding="utf-8")

    _, _, rho_a, _ = _marginals_of(str(path), 2)
    values = np.concatenate([b.ravel() for b in rho_a.blocks.values()])
    assert np.any((np.abs(values) >= DISPLAY_ZERO) & (np.abs(values.imag) < DISPLAY_ZERO)
                  & (values.imag != 0.0))
    assert np.any((np.abs(values) < DISPLAY_ZERO) & (values != 0.0))
    assert any(b.size and not b.any() for b in rho_a.blocks.values())
    _assert_cli_matches_reference(tmp_path, str(path), 2)


def test_streamed_report_writes_empty_entry_list(unequal_marginals_state):
    part = bipartition(unequal_marginals_state.basis, 1)
    rho_a = pure_marginal(unequal_marginals_state, part, traced="B")
    zero_b = BlockOperator(part.b_basis, {})
    for fmt in ("json", "text"):
        _assert_same_report(_streamed_report(fmt, 1, 2, rho_a, zero_b),
                            _reference_marginals_report(fmt, 1, 2, rho_a, zero_b))
    assert '"marginal_b": []\n}\n' in _streamed_report("json", 1, 2, rho_a, zero_b)


@pytest.mark.parametrize("chunk", [1, 5, 20])
def test_streamed_report_splits_blocks_mid_block(tmp_path, monkeypatch, chunk):
    path = _write_state(tmp_path / "five.state", 5, "tau", 77)
    marginals = _marginals_of(path, 2)
    rho_b = marginals[3]
    # some block must span several row ranges, each ending inside the block
    assert any(b.shape[0] * b.shape[1] > chunk and b.shape[0] > max(1, chunk // b.shape[1])
               for b in rho_b.blocks.values())
    monkeypatch.setattr(errors, "STACK_BYTES", 32 * chunk)  # 32 bytes an entry
    for fmt in ("json", "text"):
        _assert_same_report(_streamed_report(fmt, *marginals),
                            _reference_marginals_report(fmt, *marginals))


def test_streamed_report_memory_stays_small(tmp_path):
    path = _write_state(tmp_path / "eight.state", 8, "tau", 8)
    marginals = _marginals_of(path, 2)
    assert max(b.size for b in marginals[3].blocks.values()) > errors.STACK_BYTES // 32

    class NullSink:
        def write(self, text):
            return len(text)

    tracemalloc.start()
    try:
        cli._write_marginals(NullSink(), "json", *marginals, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
