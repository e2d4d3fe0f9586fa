import argparse
import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from fibanyon.cli import build_parser, main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
STATE_FILE = str(DATA / "unequal_marginals.state")
Z2_MODEL = str(DATA / "z2.model")


def run_cli(*argv):
    """Run the CLI in-process, capturing stdout text and the exit code."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_cli_subprocess(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fibanyon.cli", *argv],
        capture_output=True,
        cwd=str(Path(__file__).parent.parent),
    )
    return proc.returncode, proc.stdout


GOLDEN_CASES = [
    ("basis_n2.txt", ("basis", "--n", "2")),
    ("dims.txt", ("dims",)),
    ("marginals_unequal.txt", ("marginals", "--state", STATE_FILE)),
    ("correlations_unequal.json", ("correlations", "--state", STATE_FILE, "--format", "json")),
    ("teleport_main_ab.json",
     ("teleport", "--scenario", "main-text", "--direction", "ab", "--format", "json")),
    ("verify_dims.txt", ("verify", "--suite", "dims")),
]


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_byte_equality(golden_name, argv):
    code, out = run_cli_subprocess(*argv)
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


def test_teleport_unknown_scenario_usage_error():
    assert run_cli("teleport", "--scenario", "nope", "--direction", "ab")[0] == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_teleport_empty_sweep_usage_error(samples):
    # a sweep over no measurements must not report the direction as confined
    code, out = run_cli("teleport", "--scenario", "main-text", "--direction", "ba",
                        "--samples", samples)
    assert code == 2
    assert out == ""


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
    for key, value in overrides:
        lines[key] = value
    path = tmp_path / name
    path.write_text(
        "charges e tau\nvacuum e\nfusion e e -> e\nfusion e tau -> tau\nfusion tau tau -> e tau\n"
        + "".join(f"{key} = {value}\n" for key, value in lines.items()),
        encoding="utf-8",
    )
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


@pytest.mark.parametrize("suite, what", [("correlations", "the 2-anyon correlations suite"),
                                         ("teleportation", "the scenario catalog")])
def test_verify_fibonacci_suites_on_other_model(capsys, suite, what):
    err = _fails_on_z2(capsys, "verify", "--suite", suite, "--quick")
    assert err.startswith(f"error: {what} is defined for the Fibonacci charges e and tau:")


def test_no_hidden_options():
    parser = build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    hidden = [
        action.option_strings or action.dest
        for p in parsers for action in p._actions if action.help == argparse.SUPPRESS
    ]
    assert hidden == []


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
