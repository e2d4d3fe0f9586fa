"""The stacked algebra suite against its per-sample loop (tests/reference.py)."""

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
       for name in ("z3", "ising")},
}
SEEDS = [42, 7, *range(10, 20)]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


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
    result = verify.suite_algebra(model, seed=seed, pairs=pairs)
    assert [(c.label, c.ok, c.residual.hex()) for c in result.checks] == \
        [(c.label, c.ok, c.residual.hex()) for c in expected.checks]
