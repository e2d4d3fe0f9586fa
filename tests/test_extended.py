"""Cross-module checks beyond the per-module suites: generic models,
nontrivial recoupling inside protocols, uneven splits, reshaped braids."""

import math
from pathlib import Path

import numpy as np
import pytest

from fibanyon.model import load_model_text, validate_model
from fibanyon.recouple import change_shape
from fibanyon.states import (
    AnyonState,
    BlockOperator,
    bipartition,
    embed_local,
    ket,
    partial_trace,
    pure_density,
    purity,
    random_density,
    random_observable,
    superpose,
    trace,
)
from fibanyon.teleport import (
    MessageQubit,
    TeleportScenario,
    builtin_scenarios,
    run_protocol,
    run_protocol_via_embedding,
)
from fibanyon.trees import TreeShape, enumerate_basis, grouped_shape, left_comb
from reference import sector_haar_unitary

ABELIAN_MODEL = (Path(__file__).parent / "data" / "z2.model").read_text(encoding="utf-8")


def test_abelian_model_loads_and_validates():
    z2 = load_model_text(ABELIAN_MODEL, name="z2")
    assert validate_model(z2) == []
    # every leaf labeling is allowed and the internal labels are forced
    for n in range(1, 7):
        basis = enumerate_basis(z2, left_comb(n))
        assert basis.dim == 2**n
        assert basis.sector_dim("e") == 2 ** (n - 1)
    # partial-trace consistency holds for the generic model too
    basis = enumerate_basis(z2, grouped_shape(2, 2))
    part = bipartition(basis, 2)
    rng = np.random.default_rng(0)
    for _ in range(25):
        obs = random_observable(part.a_basis, rng)
        rho = random_density(basis, rng)
        lhs = trace(obs @ partial_trace(rho, part, traced="B"))
        rhs = trace(embed_local(obs, part, side="A") @ rho)
        assert abs(lhs - rhs) <= 1e-12


def test_abelian_marginals_have_equal_spectra():
    # without fusion multiplicity there is no root-charge ambiguity left:
    # an abelian bipartite ket has product form and pure marginals
    z2 = load_model_text(ABELIAN_MODEL, name="z2")
    basis = enumerate_basis(z2, grouped_shape(1, 1))
    part = bipartition(basis, 1)
    for label in basis.labels:
        rho = pure_density(ket(basis, label))
        assert purity(partial_trace(rho, part, traced="B")) == pytest.approx(1.0)
        assert purity(partial_trace(rho, part, traced="A")) == pytest.approx(1.0)


def test_tau_channel_protocol_uses_nontrivial_recoupling(model):
    # composing the main-text pieces in the tau channel makes the root
    # re-association a genuine 2x2 F-block; both engines must still agree
    base = builtin_scenarios(model)["main-text"]["ab"]
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    # a complete rank-1 measurement: one projector per column of a block diagonal Haar unitary
    unitary = sector_haar_unitary(g4, np.random.default_rng(123))
    pvm = tuple(BlockOperator.from_full(np.outer(u, u.conj()), g4) for u in unitary.T)
    scenario = TeleportScenario(
        name="tau-channel-probe",
        direction="ab",
        model=model,
        resource=base.resource,
        channel="tau",
        pvm=pvm,
        corrections=None,
        encoding=base.encoding,
    )
    msg = MessageQubit(0.6, 0.8)
    split_out = run_protocol(scenario, msg)
    assert split_out.total_probability() == pytest.approx(1.0, abs=1e-10)
    embed_out = run_protocol_via_embedding(scenario, msg)
    for lhs, rhs in zip(split_out.branches, embed_out.branches):
        assert lhs.probability == pytest.approx(rhs.probability, abs=1e-10)
        if lhs.receiver_state is not None:
            np.testing.assert_allclose(lhs.receiver_state, rhs.receiver_state, atol=1e-10)


def test_uneven_split_partial_trace(model, rng):
    basis = enumerate_basis(model, grouped_shape(1, 3))
    part = bipartition(basis, 1)
    assert part.a_basis.dim == 2 and part.b_basis.dim == 13
    for _ in range(20):
        rho = random_density(basis, rng)
        for traced, kept_dim in (("B", 2), ("A", 13)):
            reduced = partial_trace(rho, part, traced=traced)
            assert reduced.basis.dim == kept_dim
            assert trace(reduced).real == pytest.approx(1.0, abs=1e-10)
        obs_b = random_observable(part.b_basis, rng)
        lhs = trace(obs_b @ partial_trace(rho, part, traced="A"))
        rhs = trace(embed_local(obs_b, part, side="B") @ rho)
        assert abs(lhs - rhs) <= 1e-10


def test_braid_after_reshape(model, rng):
    # leaves 1,2 of the left comb share no vertex; after regrouping they do
    basis = enumerate_basis(model, left_comb(3))
    from fibanyon.states import random_pure_state

    state = random_pure_state(basis, "tau", rng)
    regrouped = change_shape(model, state, TreeShape.parse("(0(1 2))"))
    from fibanyon.recouple import braid_adjacent

    braided = braid_adjacent(model, regrouped, (1, 2), "ccw")
    assert braided.norm() == pytest.approx(1.0, abs=1e-12)
    undone = braid_adjacent(model, braided, (1, 2), "cw")
    np.testing.assert_allclose(undone.amplitudes, regrouped.amplitudes, atol=1e-12)


def test_vacuum_bearing_party_marginal_purity(model, basis2):
    # in each uncorrelated tau family, the party whose anyon alternates with
    # the vacuum has a pure marginal exactly when one coefficient dies
    part = bipartition(basis2, 1)
    rng = np.random.default_rng(21)
    for _ in range(50):
        c = math.sqrt(rng.uniform(0.0, 1.0))
        s = math.sqrt(1 - c * c)
        # family with support {|e,tau;tau>, |tau,tau;tau>}: A alternates
        amps = np.zeros(basis2.dim, dtype=complex)
        amps[basis2.index_of_label("e,tau;tau")] = c
        amps[basis2.index_of_label("tau,tau;tau")] = s
        if c == 0.0 and s == 0.0:
            continue
        rho = pure_density(AnyonState(basis2, amps))
        marg_a = partial_trace(rho, part, traced="B")
        expected_pure = min(c, s) <= 1e-8
        assert (abs(purity(marg_a) - 1.0) <= 1e-10) == expected_pure
        # the other party is stuck with |tau><tau| regardless
        assert purity(partial_trace(rho, part, traced="A")) == pytest.approx(1.0)


def test_cli_basis_custom_shape():
    from test_cli import run_cli

    code, out = run_cli("basis", "--n", "6", "--shape", "((0 1)((2 3)(4 5)))")
    assert code == 0
    assert "dim 233" in out
    code, _ = run_cli("basis", "--n", "4", "--shape", "((0 1) 2)")
    assert code == 2  # leaf count mismatch is a usage error


def test_superpose_of_reshaped_states_consistent(model):
    # building a superposition before or after a reshape commutes
    basis = enumerate_basis(model, left_comb(4))
    target = grouped_shape(2, 2)
    tau_labels = basis.labels[basis.sector_slice("tau")]
    s1 = ket(basis, tau_labels[0])
    s2 = ket(basis, tau_labels[3])
    pre, _ = superpose([(0.6, s1), (0.8j, s2)])
    moved_pre = change_shape(model, pre, target)
    moved_parts, _ = superpose([
        (0.6, change_shape(model, s1, target)),
        (0.8j, change_shape(model, s2, target)),
    ])
    np.testing.assert_allclose(moved_pre.amplitudes, moved_parts.amplitudes, atol=1e-12)
