"""The stacked algebra suite against its per-sample loop, the per-block
recoupling suite against its dense loop, and the correlation suite's stacked
family check against its per-state loop (tests/reference.py)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from fibanyon import verify
from fibanyon.model import fibonacci_model, load_model_text

DATA = Path(__file__).parent / "data"
MODELS = {
    "fibonacci": fibonacci_model(),
    **{name: load_model_text((DATA / f"{name}.model").read_text(encoding="utf-8"), name=name)
       for name in ("z2", "z3", "ising")},
}
SEEDS = [42, 7, *range(10, 20)]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def check_bits(result) -> list:
    return [(c.label, c.ok, c.residual.hex()) for c in result.checks]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model_name,pairs", [("fibonacci", 50), ("z3", 2), ("ising", 1)],
                         ids=["fibonacci-quick", "z3-2-pairs", "ising-1-pair"])
def test_algebra_suite_matches_per_sample_loop_bit_for_bit(model_name, pairs, seed):
    model = MODELS[model_name]
    expected, expected_samples = reference.suite_algebra(model, seed, pairs)
    samples = verify.algebra_samples(model, seed, pairs)
    assert samples.keys() == expected_samples.keys()
    assert samples["densities"].tolist() == np.reshape(expected_samples["densities"],
                                                       (50, 2)).tolist()
    assert bits(samples["spreads"]) == bits(np.reshape(expected_samples["spreads"], (50, 2)))
    for key in samples.keys() - {"densities", "spreads"}:
        assert bits(samples[key]) == bits(expected_samples[key]), key
    # the suite's checks, built from the same stacked pass
    assert check_bits(verify._algebra_checks(samples, pairs)) == check_bits(expected)


def recoupling_sides(model_name, max_n) -> dict:
    """Both sides of the recoupling comparison, as JSON: per side, each check
    residual's per-pair values as hex bytes, and the suite's checks."""
    model = MODELS[model_name]
    expected, expected_residuals = reference.suite_recoupling(model, max_n)
    residuals = verify.recoupling_residuals(model, max_n)
    return {
        "suite": {"residuals": {key: bits(values).hex() for key, values in residuals.items()},
                  "checks": check_bits(verify._recoupling_checks(residuals, max_n))},
        "dense": {"residuals": {key: bits(values).hex()
                                for key, values in expected_residuals.items()},
                  "checks": check_bits(expected)},
    }


@pytest.mark.parametrize("model_name,max_n", [("fibonacci", 5), ("z2", 4), ("z3", 4),
                                              ("ising", 4)])
def test_recoupling_suite_matches_dense_loop_bit_for_bit(model_name, max_n):
    # both sides run in a child under the Haswell OpenBLAS kernel: the dense
    # reference's own digits depend on the kernel (at one thread, Sandybridge
    # rounds 9 of Fibonacci's 226 pairs unlike its four-thread run); the child
    # turns RuntimeWarnings into errors, as pyproject.toml does for pytest
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         "import json, sys, test_verify; print(json.dumps("
         "test_verify.recoupling_sides(sys.argv[1], int(sys.argv[2]))))", model_name, str(max_n)],
        capture_output=True, text=True, cwd=str(root / "tests"),
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell",
             "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0, proc.stderr
    sides = json.loads(proc.stdout)
    suite, dense = sides["suite"], sides["dense"]
    assert suite["residuals"].keys() == dense["residuals"].keys()
    for key, values in suite["residuals"].items():
        assert values == dense["residuals"][key], key
    assert suite["checks"] == dense["checks"]


@pytest.mark.parametrize("seed", range(20))
def test_correlations_suite_families_match_per_state_loop_bit_for_bit(seed):
    # two samples and no random pairs: the classification and bilinearity
    # sections barely run, and the family section does not depend on them
    result = verify.suite_correlations(MODELS["fibonacci"], seed=seed, samples=2, random_pairs=0)
    [family] = [c for c in result.checks if c.label.startswith("both uncorrelated families")]
    assert family.residual.hex() == reference.family_residual(MODELS["fibonacci"], seed).hex()
    assert family.ok
