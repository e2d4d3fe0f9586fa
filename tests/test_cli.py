import argparse
import cmath
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fibanyon import cli, errors
from fibanyon.cli import DISPLAY_ZERO, build_parser, main
from fibanyon.correlations import _units
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


def test_non_finite_amplitude_in_state_file_exits_1(tmp_path, capsys):
    path = tmp_path / "inf.state"
    path.write_text("shape: (0 1)\ne,tau;tau : inf 0.0\n", encoding="utf-8")
    code, out = run_cli("marginals", "--state", str(path), "--format", "json")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: state file {path}: line 2: amplitude is not finite in 'e,tau;tau : inf 0.0'\n")


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
    units = _units(enumerate_basis(fibonacci_model(), left_comb(3))).count  # per party
    assert capsys.readouterr().err == (
        f"error: the correlation table of a 3|3 split needs ~{80 * units**2 / 2**30:.3g} GiB,"
        f" {2**20 / 2**30:.3g} GiB available (at most half may be used)\n"
    )
    monkeypatch.setattr(errors, "_available_bytes", lambda: None)  # no meminfo: no guard
    assert run_cli("correlations", "--state", path, "--split", "3")[0] == 0


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
        }, indent=2, default=cli._json_default) + "\n"
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
    monkeypatch.setattr(cli, "_CHUNK_ENTRIES", chunk)
    for fmt in ("json", "text"):
        _assert_same_report(_streamed_report(fmt, *marginals),
                            _reference_marginals_report(fmt, *marginals))


def test_streamed_report_memory_stays_small(tmp_path):
    path = _write_state(tmp_path / "eight.state", 8, "tau", 8)
    marginals = _marginals_of(path, 2)
    assert max(b.size for b in marginals[3].blocks.values()) > cli._CHUNK_ENTRIES

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
