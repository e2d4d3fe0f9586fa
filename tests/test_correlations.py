import math
import tracemalloc

import numpy as np
import pytest

from fibanyon import errors
from fibanyon.correlations import (
    PURE_CLASSES,
    _witness,
    classify_pure_2anyon,
    is_maximally_entangled_2anyon,
    is_uncorrelated,
    local_observable_basis,
    local_unitary_orbit_check,
    random_pure_2anyon,
)
from fibanyon.errors import MemoryBudgetError
from fibanyon.states import (
    AnyonState,
    Bipartition,
    bipartition,
    embed_local,
    ket,
    mixture,
    partial_trace,
    pure_density,
    random_pure_state,
    superpose,
    trace,
    validate_cssr,
)
from fibanyon.trees import enumerate_basis, grouped_shape, left_comb

SQ2 = 1.0 / math.sqrt(2.0)


def _tau_state(basis, c_te, c_et, c_tt):
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of_label("tau,e;tau")] = c_te
    amps[basis.index_of_label("e,tau;tau")] = c_et
    amps[basis.index_of_label("tau,tau;tau")] = c_tt
    return AnyonState(basis, amps).normalized()


def test_spanning_set_sizes(model, basis2):
    one = enumerate_basis(model, 1)
    ops1 = local_observable_basis(one)
    assert len(ops1) == 2
    diags = sorted(tuple(np.diag(op.to_full()).real) for op in ops1)
    assert diags == [(0.0, 1.0), (1.0, 0.0)]
    ops2 = local_observable_basis(basis2)
    assert len(ops2) == 13  # 2^2 + 3^2
    # vacuum sector: the two diagonal units, then the symmetric and antisymmetric one
    assert [np.diag(op.block("e")).tolist() for op in ops2[:2]] == [[1, 0], [0, 1]]
    assert np.array_equal(ops2[2].block("e"), [[0, 1], [1, 0]])
    assert np.array_equal(ops2[3].block("e"), [[0, -1j], [1j, 0]])
    assert all(validate_cssr(op) for op in ops2)
    assert all(op.is_hermitian(1e-14) for op in ops2)


def test_unequal_marginals_state_is_uncorrelated_second_class(basis2, unequal_marginals_state):
    part = bipartition(basis2, 1)
    report = is_uncorrelated(unequal_marginals_state, part)
    assert report.is_uncorrelated
    assert report.max_violation <= 1e-12
    assert report.pure_class == "class-2-tau"
    assert not report.spectra_symmetric  # spectra {1/2,1/2} vs {1,0}


def test_vacuum_bell_state_is_correlated(basis2):
    state, _ = superpose([(1.0, ket(basis2, "e,e;e")), (1.0, ket(basis2, "tau,tau;e"))])
    part = bipartition(basis2, 1)
    report = is_uncorrelated(state, part)
    assert not report.is_uncorrelated
    assert report.pure_class == "entangled"
    assert report.spectra_symmetric


def test_vacuum_product_state(basis2):
    part = bipartition(basis2, 1)
    report = is_uncorrelated(ket(basis2, "e,e;e"), part)
    assert report.is_uncorrelated
    assert report.max_violation == 0.0
    assert report.pure_class == "product-e-alpha"


def test_tau_bell_state_is_correlated(basis2):
    state, _ = superpose([(1.0, ket(basis2, "e,tau;tau")), (1.0, ket(basis2, "tau,e;tau"))])
    report = is_uncorrelated(state, bipartition(basis2, 1))
    assert not report.is_uncorrelated
    assert report.pure_class == "entangled"


def test_classify_examples(basis2):
    assert classify_pure_2anyon(_tau_state(basis2, 0.6, 0.0, 0.8)) == "class-1-tau"
    assert classify_pure_2anyon(_tau_state(basis2, 0.0, 0.6, 0.8)) == "class-2-tau"
    assert classify_pure_2anyon(_tau_state(basis2, SQ2, SQ2, 0.0)) == "entangled"
    assert (
        classify_pure_2anyon(_tau_state(basis2, 1 / math.sqrt(3), 1 / math.sqrt(3),
                                        1 / math.sqrt(3)))
        == "entangled"
    )
    assert classify_pure_2anyon(ket(basis2, "e,e;e")) == "product-e-alpha"
    assert classify_pure_2anyon(ket(basis2, "tau,tau;e")) == "product-e-beta"
    # both tau coefficients zero: the family intersection, deterministically class 1
    assert classify_pure_2anyon(ket(basis2, "tau,tau;tau")) == "class-1-tau"


def test_classification_matches_numeric_verdict(model, basis2):
    part = bipartition(basis2, 1)
    rng = np.random.default_rng(7)
    for sector in ("e", "tau"):
        for _ in range(500):
            psi = random_pure_2anyon(model, sector, rng)
            report = is_uncorrelated(psi, part, tol=1e-8)
            label = classify_pure_2anyon(psi)
            assert (label == "entangled") == (report.max_violation > 1e-8)


def test_uncorrelated_families_violation_floor(model, basis2):
    part = bipartition(basis2, 1)
    rng = np.random.default_rng(11)
    for _ in range(100):
        th = rng.uniform(0, 2 * math.pi, 2)
        c = math.sqrt(rng.uniform(0.02, 0.98))
        s = math.sqrt(1 - c * c)
        for terms in (
            (c * np.exp(1j * th[0]), 0.0, s * np.exp(1j * th[1])),
            (0.0, c * np.exp(1j * th[0]), s * np.exp(1j * th[1])),
        ):
            report = is_uncorrelated(_tau_state(basis2, *terms), part)
            assert report.max_violation <= 1e-12


def test_maximally_entangled_tau_family(basis2):
    state = _tau_state(basis2, 1j * SQ2, SQ2, 0.0)  # (|e,tau> + i|tau,e>)/sqrt(2)
    flag, phase = is_maximally_entangled_2anyon(state)
    assert flag
    assert phase == pytest.approx(math.pi / 2)


def test_maximally_entangled_vacuum_pair(basis2):
    state, _ = superpose([(1.0, ket(basis2, "e,e;e")), (1.0, ket(basis2, "tau,tau;e"))])
    flag, phase = is_maximally_entangled_2anyon(state)
    assert flag  # both marginals are diag(1/2, 1/2) by direct partial trace
    assert phase is None


def test_unequal_marginals_state_not_maximally_entangled(unequal_marginals_state):
    flag, _ = is_maximally_entangled_2anyon(unequal_marginals_state)
    assert not flag


def test_local_unitary_orbit_preserves_moduli(basis2):
    assert local_unitary_orbit_check(_tau_state(basis2, 0.0, 0.6, 0.8), samples=100, seed=3)
    assert local_unitary_orbit_check(_tau_state(basis2, 0.6, 0.0, 0.8), samples=100, seed=4)


def test_report_json_keys(basis2, unequal_marginals_state):
    report = is_uncorrelated(unequal_marginals_state, bipartition(basis2, 1))
    payload = report.to_json_dict()
    assert set(payload) == {
        "uncorrelated", "max_violation", "witness_a", "witness_b",
        "spectrum_a", "spectrum_b", "class",
    }


# --- the sparse table against the dense spanning-pair loop


def _dense_reference(state_or_rho, part):
    """(max violation, witness) from the dense double loop over spanning pairs.

    Every spanning operator is embedded as a dense joint-basis matrix, and
    the first pair in row-major order within 4 ulps of the largest
    violation wins.
    """
    ops_a = local_observable_basis(part.a_basis)
    ops_b = local_observable_basis(part.b_basis)
    emb_a = [embed_local(o, part, side="A").to_full() for o in ops_a]
    emb_b = [embed_local(o, part, side="B").to_full() for o in ops_b]
    if isinstance(state_or_rho, AnyonState):
        rho = pure_density(state_or_rho.normalized())
    else:
        rho = state_or_rho
    exp_a = [trace(o @ partial_trace(rho, part, traced="B")).real for o in ops_a]
    exp_b = [trace(o @ partial_trace(rho, part, traced="A")).real for o in ops_b]
    rho_full = rho.to_full()
    violations = []
    for i, ea in enumerate(emb_a):
        ea_rho = ea @ rho_full
        for j, eb in enumerate(emb_b):
            lhs = np.einsum("ij,ji->", eb, ea_rho).real
            violations.append(((i, j), abs(lhs - exp_a[i] * exp_b[j])))
    worst = max(v for _, v in violations)
    witness = next(ij for ij, v in violations if v >= worst - 4 * np.spacing(worst))
    return worst, witness


def _family_member(basis, label, rng):
    """A random pure 2-anyon state of one closed-form class.

    Every kept coefficient has modulus at least 0.2 before normalizing, far
    from the class boundaries.
    """
    phases = np.exp(2j * math.pi * rng.uniform(size=3))
    mods = rng.uniform(0.2, 1.0, size=3)
    if label == "product-e-alpha":
        terms = {"e,e;e": 1.0}
    elif label == "product-e-beta":
        terms = {"tau,tau;e": phases[0]}
    elif label == "class-1-tau":
        terms = {"tau,e;tau": mods[0] * phases[0], "tau,tau;tau": mods[1] * phases[1]}
    elif label == "class-2-tau":
        terms = {"e,tau;tau": mods[0] * phases[0], "tau,tau;tau": mods[1] * phases[1]}
    else:
        terms = {"tau,e;tau": mods[0] * phases[0], "e,tau;tau": mods[1] * phases[1],
                 "tau,tau;tau": mods[2] * phases[2]}
    amps = np.zeros(basis.dim, dtype=complex)
    for key, value in terms.items():
        amps[basis.index_of_label(key)] = value
    state = AnyonState(basis, amps).normalized()
    assert classify_pure_2anyon(state) == label
    return state


def _assert_matches_reference(state_or_rho, part):
    report = is_uncorrelated(state_or_rho, part, classify=False)
    worst, witness = _dense_reference(state_or_rho, part)
    assert report.witness == witness
    assert abs(report.max_violation - worst) <= 1e-15


def test_table_matches_dense_loop_on_2anyon_families(basis2, unequal_marginals_state):
    part = bipartition(basis2, 1)
    rng = np.random.default_rng(31)
    _assert_matches_reference(unequal_marginals_state, part)
    for label in PURE_CLASSES:
        for _ in range(4):
            _assert_matches_reference(_family_member(basis2, label, rng), part)
    for _ in range(4):
        members = [_family_member(basis2, label, rng) for label in PURE_CLASSES[2:]]
        _assert_matches_reference(mixture(zip(rng.dirichlet(np.ones(3)), members)), part)


@pytest.mark.parametrize("n_a,n_b", [(1, 3), (3, 1), (2, 2), (2, 3)])
def test_table_matches_dense_loop_on_random_states(model, n_a, n_b):
    part = bipartition(enumerate_basis(model, grouped_shape(n_a, n_b)), n_a)
    rng = np.random.default_rng(10 * n_a + n_b)
    for sector in model.charges:
        for _ in range(3):
            _assert_matches_reference(random_pure_state(part.basis, sector, rng), part)
        states = [random_pure_state(part.basis, sector, rng) for _ in range(3)]
        _assert_matches_reference(mixture(zip(rng.dirichlet(np.ones(3)), states)), part)


def test_table_matches_dense_loop_at_3_3(model):
    part = bipartition(enumerate_basis(model, grouped_shape(3, 3)), 3)
    _assert_matches_reference(random_pure_state(part.basis, "tau", np.random.default_rng(33)), part)


def test_witness_is_first_pair_within_4_ulps():
    top = 0.25
    table = np.array([[0.0, top], [np.nextafter(top, 1.0), 0.0]])
    assert _witness(table) == 1  # a later entry 1 ulp larger does not win
    table[1, 0] = top + 8 * np.spacing(top)
    assert _witness(table) == 2
    assert _witness(np.zeros((2, 3))) == 0


def test_first_3_3_call_stays_small(model):
    # a fresh Bipartition, as the first call on a new split sees it
    part = Bipartition(enumerate_basis(model, grouped_shape(3, 3)), 3)
    psi = random_pure_state(part.basis, "e", np.random.default_rng(34))
    tracemalloc.start()
    try:
        is_uncorrelated(psi, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_local_observable_basis_checks_memory_first(model, monkeypatch):
    # n=4: 13^2 + 21^2 = 610 units, four 610 x 610 arrays, over half of 1 MiB
    basis = enumerate_basis(model, left_comb(4))
    need = f"~{64 * 610**2 / 2**30:.3g} GiB, {2**20 / 2**30:.3g} GiB available"
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    with pytest.raises(MemoryBudgetError,
                       match=f"^the 610 local observables of a 34-dim basis needs {need}"):
        local_observable_basis(basis)
    monkeypatch.setattr(errors, "_available_bytes", lambda: None)  # no meminfo: no guard
    assert len(local_observable_basis(basis)) == 610
