import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fibanyon import correlations, errors
from fibanyon.correlations import (
    PURE_CLASSES,
    _witness,
    classify_pure_2anyon,
    is_uncorrelated,
    local_observable_basis,
    pure_max_violations,
    violation_table,
)
from fibanyon.errors import (BasisMismatchError, FibonacciOnlyError, MemoryBudgetError,
                             SuperselectionError)
from fibanyon.model import load_model_text
from fibanyon.states import (
    AnyonState,
    Bipartition,
    BlockOperator,
    bipartition,
    embed_local,
    ket,
    mixture,
    partial_trace,
    pure_density,
    pure_marginal,
    random_density,
    random_pure_state,
    random_pure_states,
    spectra,
    superpose,
    trace,
    validate_cssr,
)
from fibanyon.trees import enumerate_basis, grouped_shape, left_comb
from fibanyon.verify import classification_sweep

import reference

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
    assert all(np.max(np.abs(b - b.conj().T)) <= 1e-14 for op in ops2 for b in op.blocks.values())


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
        tops, labels = pure_max_violations(random_pure_states(basis2, sector, rng, 500), part)
        assert np.array_equal(labels == "entangled", tops > 1e-8)


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


def _marginal_spectra(psi):
    """The spectra of both one-anyon marginals of a 2-anyon state, A first."""
    part = bipartition(psi.basis, 1)
    return spectra(*(pure_marginal(psi, part, traced).blocks.values() for traced in ("B", "A")))


def test_maximally_entangled_tau_family(basis2):
    state = _tau_state(basis2, 1j * SQ2, SQ2, 0.0)  # (|e,tau> + i|tau,e>)/sqrt(2)
    for spec in _marginal_spectra(state):
        np.testing.assert_allclose(spec, [0.5, 0.5], rtol=0, atol=1e-10)
    c_te, c_et = state.amplitude("tau,e;tau"), state.amplitude("e,tau;tau")
    assert abs(c_te) == pytest.approx(SQ2) and abs(c_et) == pytest.approx(SQ2)
    assert np.angle(c_te / c_et) == pytest.approx(math.pi / 2)


def test_maximally_entangled_vacuum_pair(basis2):
    state, _ = superpose([(1.0, ket(basis2, "e,e;e")), (1.0, ket(basis2, "tau,tau;e"))])
    # both marginals are diag(1/2, 1/2) by direct partial trace
    for spec in _marginal_spectra(state):
        np.testing.assert_allclose(spec, [0.5, 0.5], rtol=0, atol=1e-10)
    # outside the tau-sector family: no relative phase to read
    assert state.amplitude("tau,e;tau") == state.amplitude("e,tau;tau") == 0.0


def test_unequal_marginals_state_not_maximally_entangled(unequal_marginals_state):
    spec_a, spec_b = _marginal_spectra(unequal_marginals_state)
    np.testing.assert_allclose(spec_a, [0.5, 0.5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(spec_b, [1.0, 0.0], rtol=0, atol=1e-10)


def test_local_unitary_orbit_preserves_moduli(basis2):
    # one-anyon unitaries that respect the superselection rule are diagonal
    # phase pairs, so U_A V_B leaves every amplitude modulus fixed
    part = bipartition(basis2, 1)
    one_anyon = part.a_basis
    for psi, seed in ((_tau_state(basis2, 0.0, 0.6, 0.8), 3), (_tau_state(basis2, 0.6, 0.0, 0.8), 4)):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            th = rng.uniform(0.0, 2.0 * math.pi, size=4)
            u_a, v_b = (BlockOperator(one_anyon, {"e": [[np.exp(1j * th[k])]],
                                                  "tau": [[np.exp(1j * th[k + 1])]]})
                        for k in (0, 2))
            moved = (embed_local(u_a, part, side="A") @ embed_local(v_b, part, side="B")).apply(psi)
            np.testing.assert_allclose(np.abs(moved.amplitudes), np.abs(psi.amplitudes),
                                       rtol=0, atol=1e-12)


def test_report_json_keys(basis2, unequal_marginals_state):
    report = is_uncorrelated(unequal_marginals_state, bipartition(basis2, 1))
    payload = report.to_json_dict()
    assert set(payload) == {
        "uncorrelated", "max_violation", "witness_a", "witness_b",
        "spectrum_a", "spectrum_b", "class",
    }


@pytest.mark.parametrize("weight", [2.0, 0.5])
def test_density_operator_of_wrong_trace_is_rejected(basis2, weight):
    # a scaled product state would otherwise read as correlated, by weight - weight**2
    part = bipartition(basis2, 1)
    rho = mixture([(weight, ket(basis2, "e,e;e"))])
    for call in (is_uncorrelated, violation_table):
        with pytest.raises(ValueError, match=rf"^density operator has trace {weight!r}, not 1$"):
            call(rho, part)
    # within SPECTRAL_TOL of 1 passes, and the state is the product it is
    report = is_uncorrelated(mixture([(1 + 1e-12, ket(basis2, "e,e;e"))]), part)
    assert report.is_uncorrelated and report.max_violation <= 1e-11


def test_density_operator_of_another_shape_is_rejected(model):
    # left_comb(4) has the sector sizes of the 2|2 grouped shape, 13 and 21
    rho = random_density(enumerate_basis(model, left_comb(4)), np.random.default_rng(5))
    part = bipartition(enumerate_basis(model, grouped_shape(2, 2)), 2)
    for call in (is_uncorrelated, violation_table):
        with pytest.raises(BasisMismatchError, match="^objects live on different bases$"):
            call(rho, part)


# --- the sparse table against the dense spanning-pair loop


@functools.lru_cache(maxsize=1)  # the tests run one split at a time
def _dense_spanning_sets(part):
    ops_a = local_observable_basis(part.a_basis)
    ops_b = local_observable_basis(part.b_basis)
    emb_a = [embed_local(o, part, side="A").to_full() for o in ops_a]
    emb_b = [embed_local(o, part, side="B").to_full() for o in ops_b]
    return ops_a, ops_b, emb_a, emb_b


def _dense_reference(state_or_rho, part):
    """(max violation, witness) from the dense double loop over spanning pairs.

    Every spanning operator is embedded as a dense joint-basis matrix, and
    the first pair in row-major order within 4 ulps of the largest
    violation wins.
    """
    ops_a, ops_b, emb_a, emb_b = _dense_spanning_sets(part)
    if isinstance(state_or_rho, AnyonState):
        rho = pure_density(state_or_rho.normalized())
    else:
        rho = state_or_rho
    rho_a = partial_trace(rho, part, traced="B")
    rho_b = partial_trace(rho, part, traced="A")
    exp_a = [trace(o @ rho_a).real for o in ops_a]
    exp_b = [trace(o @ rho_b).real for o in ops_b]
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


def _assert_matches_table(state_or_rho, part):
    """is_uncorrelated's maximum and witness are those of violation_table."""
    report = is_uncorrelated(state_or_rho, part)
    table = np.abs(violation_table(state_or_rho, part))
    assert report.max_violation == table.max()
    assert report.witness == divmod(_witness(table, table.max()), table.shape[1])
    return report, table


def _assert_matches_reference(state_or_rho, part):
    report, _ = _assert_matches_table(state_or_rho, part)
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


@pytest.fixture(scope="module")
def models(model):
    z3 = load_model_text((Path(__file__).parent / "data" / "z3.model").read_text(), name="z3")
    return {"fibonacci": model, "z3": z3}


@pytest.fixture(scope="module")
def all_models(models):
    z2 = load_model_text((Path(__file__).parent / "data" / "z2.model").read_text(), name="z2")
    return {**models, "z2": z2}


# Every split whose dense loop fits in about 100 MB, with the pure states
# drawn per sector.  Z3 has three charges and is not self-dual, so its blocks
# (g, x, y) are not Fibonacci's.
DENSE_SPLITS = (
    [pytest.param("fibonacci", n_a, n_b, 3, id=f"{n_a}-{n_b}")
     for n_a, n_b in [(1, 3), (3, 1), (2, 2), (2, 3)]]
    + [pytest.param("fibonacci", n_a, n_b, 1, id=f"{n_a}-{n_b}")
       for n_a, n_b in [(1, 1), (1, 2), (2, 1), (3, 2), (1, 4), (4, 1)]]
    + [pytest.param("z3", n_a, n_b, 1, id=f"z3-{n_a}-{n_b}")
       for n_a, n_b in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]]
)


@pytest.mark.parametrize("model_name,n_a,n_b,pure", DENSE_SPLITS)
def test_table_matches_dense_loop_on_random_states(models, model_name, n_a, n_b, pure):
    model = models[model_name]
    part = bipartition(enumerate_basis(model, grouped_shape(n_a, n_b)), n_a)
    rng = np.random.default_rng(10 * n_a + n_b + (100 if model_name == "z3" else 0))
    for sector in model.charges:
        for _ in range(pure):
            _assert_matches_reference(random_pure_state(part.basis, sector, rng), part)
        states = [random_pure_state(part.basis, sector, rng) for _ in range(3)]
        _assert_matches_reference(mixture(zip(rng.dirichlet(np.ones(3)), states)), part)
    # a mixture over every sector
    _assert_matches_reference(random_density(part.basis, rng), part)


def test_table_matches_dense_loop_at_3_3(model):
    part = bipartition(enumerate_basis(model, grouped_shape(3, 3)), 3)
    rng = np.random.default_rng(33)
    _assert_matches_reference(random_pure_state(part.basis, "tau", rng), part)
    _assert_matches_reference(random_density(part.basis, rng), part)


def _pair_reference(rho, part, i, j, ops_a, ops_b):
    """|T[i, j]| from block algebra, for splits too large for the dense loop."""
    lhs = trace(embed_local(ops_a[i], part, side="A") @ embed_local(ops_b[j], part, side="B") @ rho)
    exp_a = trace(ops_a[i] @ partial_trace(rho, part, traced="B"))
    exp_b = trace(ops_b[j] @ partial_trace(rho, part, traced="A"))
    return abs(lhs.real - exp_a.real * exp_b.real)


# The rest of the splits up to 4|4 (Z3 up to six anyons: its 4|4 table alone
# would take about 0.4 GiB).
SAMPLED_SPLITS = (
    [pytest.param("fibonacci", n_a, n_b, id=f"{n_a}-{n_b}")
     for n_a, n_b in [(2, 4), (4, 2), (3, 4), (4, 3), (4, 4)]]
    + [pytest.param("z3", n_a, n_b, id=f"z3-{n_a}-{n_b}")
       for n_a, n_b in [(2, 3), (3, 2), (1, 4), (4, 1), (3, 3)]]
)


@pytest.mark.parametrize("model_name,n_a,n_b", SAMPLED_SPLITS)
def test_table_matches_sampled_pairs_beyond_the_dense_loop(models, model_name, n_a, n_b):
    model = models[model_name]
    part = bipartition(enumerate_basis(model, grouped_shape(n_a, n_b)), n_a)
    ops_a = local_observable_basis(part.a_basis)
    ops_b = local_observable_basis(part.b_basis)
    rng = np.random.default_rng(10 * n_a + n_b + (100 if model_name == "z3" else 0))
    sector = model.charges[1]
    states = [random_pure_state(part.basis, g, rng) for g in model.charges]
    for arg in (random_pure_state(part.basis, sector, rng),
                mixture(zip(rng.dirichlet(np.ones(len(states))), states))):
        report, table = _assert_matches_table(arg, part)
        rho = pure_density(arg) if isinstance(arg, AnyonState) else arg
        pairs = [report.witness] + [divmod(int(k), table.shape[1])
                                    for k in rng.integers(table.size, size=2)]
        for i, j in pairs:
            assert abs(table[i, j] - _pair_reference(rho, part, i, j, ops_a, ops_b)) <= 1e-15


def test_witness_is_first_pair_within_4_ulps():
    top = 0.25
    table = np.array([[0.0, top], [np.nextafter(top, 1.0), 0.0]])
    assert _witness(table, table.max()) == 1  # a later entry 1 ulp larger does not win
    table[1, 0] = top + 8 * np.spacing(top)
    assert _witness(table, table.max()) == 2
    assert _witness(np.zeros((2, 3)), 0.0) == 0


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


def test_oversized_table_is_refused_before_anything_is_built(monkeypatch):
    # a model loaded here, so no cache holds its bases or this bipartition yet
    z3 = load_model_text((Path(__file__).parent / "data" / "z3.model").read_text(), name="z3")
    part = Bipartition(enumerate_basis(z3, grouped_shape(3, 3)), 3)
    rng = np.random.default_rng(36)
    psi = random_pure_state(part.basis, "a", rng)
    rho = mixture([(0.5, psi), (0.5, random_pure_state(part.basis, "e", rng))])
    # 3^3 trees a party, 9 per charge: 243 units, a 243 x 243 table
    need = f"~{80 * 243**2 / 2**30:.3g} GiB, {2**20 / 2**30:.3g} GiB available"
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    units = []
    monkeypatch.setattr(correlations, "_units", lambda basis: units.append(basis))
    before = correlations._plan.cache_info()
    for call in (is_uncorrelated, violation_table):
        for arg in (psi, rho):
            with pytest.raises(MemoryBudgetError,
                               match=rf"^the correlation table of a 3\|3 split needs {need}"):
                call(arg, part)
    with pytest.raises(MemoryBudgetError, match="^the 243 local observables of a 27-dim basis"):
        local_observable_basis(part.a_basis)
    assert units == [] and correlations._plan.cache_info() == before


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


# --- the compiled plan against the per-block route it replaced (tests/reference.py)


def _assert_report_bytes_equal(report, expected):
    assert dataclasses.fields(report) == dataclasses.fields(expected)
    for field in dataclasses.fields(report):
        got, want = getattr(report, field.name), getattr(expected, field.name)
        if field.name == "marginal_spectra":
            for spec, ref in zip(got, want, strict=True):
                assert spec.dtype == ref.dtype and spec.tobytes() == ref.tobytes()
        else:
            assert type(got) is type(want) and repr(got) == repr(want), field.name


def _assert_matches_previous_route(state_or_rho, part):
    _assert_report_bytes_equal(is_uncorrelated(state_or_rho, part),
                               reference.is_uncorrelated(state_or_rho, part))
    table = violation_table(state_or_rho, part)
    expected = reference.violation_table(state_or_rho, part)
    assert table.shape == expected.shape and table.tobytes() == expected.tobytes()


def _sparse_pure_state(basis, sector, rng):
    """A pure state of one sector, about a third of its amplitudes exactly 0,
    not normalized."""
    psi = random_pure_state(basis, sector, rng)
    amplitudes = np.where(rng.random(basis.dim) < 0.35, 0.0, psi.amplitudes)
    if not amplitudes.any():
        amplitudes = psi.amplitudes
    return AnyonState(basis, amplitudes * rng.uniform(0.5, 2.0))


# perfbench's correlations-warm families on Fibonacci (perfbench/inputs.py,
# PAIR_FAMILIES); on another model, each sector's trees and each single tree
_FAMILY_LABELS = [("e,e;e", "tau,tau;e"), ("tau,e;tau", "e,tau;tau", "tau,tau;tau"),
                  ("tau,e;tau", "tau,tau;tau"), ("e,tau;tau", "tau,tau;tau"), ("e,e;e",)]


def _families(basis):
    if basis.model.name == "fibonacci":
        return [basis.index_of_labels(labels) for labels in _FAMILY_LABELS]
    sectors = [np.arange(basis.dim)[basis.sector_slice(g)] for g in basis.model.charges]
    return [s for s in sectors if len(s)] + [np.array([k]) for k in range(basis.dim)]


def _family_state(basis, family, rng):
    """A state on the trees `family`, drawn as perfbench's pair_state_text draws
    one: weights uniform in [0.1, 1), normalized, and uniform phases."""
    weights = rng.uniform(0.1, 1.0, size=len(family))
    weights /= weights.sum()
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(family))
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[family] = [math.sqrt(w) * complex(math.cos(t), math.sin(t))
                          for w, t in zip(weights, phases)]
    return AnyonState(basis, amplitudes)


def _workload_weights(rng, k):
    """Mixture weights as perfbench draws them: uniform in [0.2, 1), normalized."""
    weights = rng.uniform(0.2, 1.0, size=k)
    return [float(w) for w in weights / weights.sum()]


# Fibonacci up to 3|3, Z2 and Z3 up to 2|2
PREVIOUS_ROUTE_SPLITS = [
    pytest.param(name, n_a, n_b, id=f"{name}-{n_a}-{n_b}")
    for name, top in (("fibonacci", 3), ("z2", 2), ("z3", 2))
    for n_a in range(1, top + 1) for n_b in range(1, top + 1)
]


@pytest.mark.parametrize("model_name,n_a,n_b", PREVIOUS_ROUTE_SPLITS)
def test_report_and_table_bit_identical_to_previous_route(all_models, model_name, n_a, n_b):
    model = all_models[model_name]
    part = bipartition(enumerate_basis(model, grouped_shape(n_a, n_b)), n_a)
    rng = np.random.default_rng([n_a, n_b, len(model.charges)])
    sectors = [g for g in model.charges if part.basis.sector_dim(g)]
    for g in sectors:
        _assert_matches_previous_route(random_pure_state(part.basis, g, rng), part)
        _assert_matches_previous_route(_sparse_pure_state(part.basis, g, rng), part)
        members = [random_pure_state(part.basis, h, rng) for h in rng.choice(sectors, 3)]
        _assert_matches_previous_route(mixture(zip(rng.dirichlet(np.ones(3)), members)), part)
    # correlations-warm's busiest jobs, 1|1 mixtures of two family states,
    # and its 3-state mixtures at 2|2 and 2|3
    if (n_a, n_b) == (1, 1):
        families = _families(part.basis)
        for _ in range(40):
            picks = rng.choice(len(families), size=2)
            states = [_family_state(part.basis, families[k], rng) for k in picks]
            _assert_matches_previous_route(mixture(zip(_workload_weights(rng, 2), states)), part)
    elif (n_a, n_b) in [(2, 2), (2, 3)]:
        for k in range(10):
            states = [random_pure_state(part.basis, sectors[(k + i) % len(sectors)], rng)
                      for i in range(3)]
            _assert_matches_previous_route(mixture(zip(_workload_weights(rng, 3), states)), part)


@pytest.mark.parametrize("model_name", ["fibonacci", "z2", "z3"])
def test_every_2anyon_ket_bit_identical_to_previous_route(all_models, model_name):
    basis = enumerate_basis(all_models[model_name], grouped_shape(1, 1))
    part = bipartition(basis, 1)
    for label in basis.labels:
        _assert_matches_previous_route(ket(basis, label), part)
        _assert_matches_previous_route(pure_density(ket(basis, label)), part)




# ---------------------------------------------------------------------------
# The stacked test: pure_max_violations against one is_uncorrelated call per
# state, and the verify sweep against the loop that drew one state at a time.


def _assert_stack_matches_per_call(amplitudes, part):
    """pure_max_violations on the rows gives each row's is_uncorrelated
    max_violation and pure_class, bit for bit."""
    tops, labels = pure_max_violations(amplitudes, part)
    reports = [is_uncorrelated(AnyonState(part.basis, row), part) for row in amplitudes]
    assert tops.tobytes() == np.array([r.max_violation for r in reports]).tobytes()
    if labels is None:
        assert all(r.pure_class is None for r in reports)
    else:
        assert list(labels) == [r.pure_class for r in reports]
    return labels


def test_stacked_verdicts_bit_identical_on_seeded_draws(basis2):
    part = bipartition(basis2, 1)
    rng = np.random.default_rng(23)
    for sector in ("e", "tau"):
        amplitudes = random_pure_states(basis2, sector, rng, 1000)
        _assert_stack_matches_per_call(amplitudes, part)
        # unnormalized rows, and both sectors in one stack
        scaled = amplitudes[:100] * rng.uniform(0.5, 2.0, (100, 1))
        _assert_stack_matches_per_call(np.concatenate([scaled, np.eye(basis2.dim)]), part)


@pytest.mark.parametrize("model_name", ["fibonacci", "z2", "z3"])
def test_stacked_verdicts_bit_identical_on_every_2anyon_ket(all_models, model_name):
    basis = enumerate_basis(all_models[model_name], grouped_shape(1, 1))
    labels = _assert_stack_matches_per_call(np.eye(basis.dim, dtype=complex), bipartition(basis, 1))
    assert (labels is None) == (model_name != "fibonacci")


def test_stacked_verdicts_bit_identical_on_uncorrelated_families(basis2):
    part = bipartition(basis2, 1)
    rng = np.random.default_rng(29)
    rows = []
    for _ in range(100):
        th = rng.uniform(0, 2 * math.pi, 2)
        c = math.sqrt(rng.uniform(0.02, 0.98))
        s = math.sqrt(1 - c * c)
        rows.append(_tau_state(basis2, c * np.exp(1j * th[0]), 0.0, s * np.exp(1j * th[1])))
        rows.append(_tau_state(basis2, 0.0, c * np.exp(1j * th[0]), s * np.exp(1j * th[1])))
    labels = _assert_stack_matches_per_call(np.array([psi.amplitudes for psi in rows]), part)
    assert list(labels) == ["class-1-tau", "class-2-tau"] * 100
    vacuum = np.eye(basis2.dim)[:2] * np.exp(1j * rng.uniform(0, 2 * math.pi, (2, 1)))
    assert list(_assert_stack_matches_per_call(vacuum, part)) == [
        "product-e-alpha", "product-e-beta"]


def test_stacked_verdicts_bit_identical_with_a_coefficient_at_1e_7(basis2):
    part = bipartition(basis2, 1)
    rows = [_tau_state(basis2, *terms).amplitudes for terms in (
        (1e-7, 0.6, 0.8), (0.6, 1e-7, 0.8), (0.6, 0.8, 1e-7), (1e-7, 1.0, 0.0))]
    vacuum = np.zeros((2, basis2.dim), dtype=complex)
    vacuum[:, :2] = [[1e-7, 1.0], [1.0, 1e-7j]]
    labels = _assert_stack_matches_per_call(np.concatenate([rows, vacuum]), part)
    assert list(labels) == ["entangled"] * 6


def test_stacked_classes_round_moduli_as_one_state_does(basis2):
    # moduli within an ulp of ZERO_COEFF_TOL on which np.abs of a complex array
    # and abs of one complex number disagree; the row norm is exactly 1
    part = bipartition(basis2, 1)
    rows = np.zeros((4, basis2.dim), dtype=complex)
    rows[:, 2] = [-3.695371538695892e-11 + 9.29215955475348e-11j,
                  -9.306462313197199e-11 + 3.659201991287207e-11j,
                  2.2295837502703602e-11 - 9.74827965851054e-11j,
                  9.773507457882958e-11 - 2.1162589564385128e-11j]
    rows[:, 3:] = [0.6, 0.8]
    _assert_stack_matches_per_call(rows, part)


def test_stacked_verdicts_reject_what_one_state_rejects(basis2, monkeypatch):
    part = bipartition(basis2, 1)
    with pytest.raises(ValueError, match="zero state"):
        pure_max_violations(np.zeros((2, basis2.dim)), part)
    with pytest.raises(SuperselectionError):
        pure_max_violations(np.ones((1, basis2.dim)), part)
    with pytest.raises(BasisMismatchError):
        pure_max_violations(np.ones((1, basis2.dim + 1)), part)
    # the guard checks one table: 2000 1|1 tables (625 KiB) run in stacks at 1 MiB available
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    rows = random_pure_states(basis2, "tau", np.random.default_rng(37), 2000)
    _assert_stack_matches_per_call(rows, part)


def test_stacked_verdicts_refuse_one_oversized_table_before_anything_is_built(model, monkeypatch):
    # a fresh Bipartition, so no cache holds its plan; 89 units a party, so
    # one 3|3 table needs 80 * 89^2 bytes (619 KiB), over half of 1 MiB
    part = Bipartition(enumerate_basis(model, grouped_shape(3, 3)), 3)
    rows = random_pure_states(part.basis, "tau", np.random.default_rng(38), 2)
    need = f"~{80 * 89**2 / 2**30:.3g} GiB, {2**20 / 2**30:.3g} GiB available"
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    units = []
    monkeypatch.setattr(correlations, "_units", lambda basis: units.append(basis))
    before = correlations._plan.cache_info()
    with pytest.raises(MemoryBudgetError,
                       match=rf"^the correlation table of a 3\|3 split needs {need}"):
        pure_max_violations(rows, part)
    assert units == [] and correlations._plan.cache_info() == before


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("per_stack", [1, 7, None], ids=["1-row", "7-rows", "all-rows"])
def test_stacked_verdicts_bit_identical_at_every_stack_size(model, monkeypatch, n, per_stack):
    part = bipartition(enumerate_basis(model, grouped_shape(n, n)), n)
    rng = np.random.default_rng(39 + n)
    amplitudes = np.concatenate([random_pure_states(part.basis, g, rng, 15) for g in ("e", "tau")])
    amplitudes = amplitudes[rng.permutation(len(amplitudes))]  # the sectors interleaved
    table_bytes = 80 * part.a_basis.unit_count * part.b_basis.unit_count
    monkeypatch.setattr(errors, "STACK_BYTES", (per_stack or len(amplitudes)) * table_bytes)
    stacks = []
    violations = correlations._Plan.violations

    def counting(plan, realigned):
        stacks.append(len(realigned))
        return violations(plan, realigned)

    monkeypatch.setattr(correlations._Plan, "violations", counting)
    _assert_stack_matches_per_call(amplitudes, part)
    # the per-call reports ran one 2-d table each, after the stacks
    stacks = stacks[:-len(amplitudes)]
    assert stacks == {1: [1] * 15, 7: [7, 7, 1], None: [15]}[per_stack] * 2


def test_stacked_verdicts_memory_stays_within_one_stack(model):
    part = bipartition(enumerate_basis(model, grouped_shape(3, 3)), 3)
    amplitudes = random_pure_states(part.basis, "tau", np.random.default_rng(40), 600)
    pure_max_violations(amplitudes[:1], part)  # the plan, built once
    tracemalloc.start()
    try:
        pure_max_violations(amplitudes, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all 600 tables at once peaked at 314 MiB
    assert peak < 8 * 2**20


@pytest.mark.parametrize("scale, problem", [(1e200, "overflows"), (1e-170, "underflows to 0")])
def test_stacked_verdicts_refuse_an_unusable_norm_as_one_state_does(basis2, scale, problem):
    # a stack used to score the 1e200 row 0.0 and product-e-alpha, and to call
    # the 1e-170 row the zero state
    part = bipartition(basis2, 1)
    row = np.zeros(basis2.dim, dtype=complex)
    row[[basis2.index_of_label("e,tau;tau"), basis2.index_of_label("tau,e;tau")]] = scale
    message = f"^cannot normalize: the norm of the amplitudes {problem}$"
    with pytest.raises(ValueError, match=message):  # without an overflow warning first
        is_uncorrelated(AnyonState(basis2, row), part)
    with pytest.raises(ValueError, match=message):
        pure_max_violations(np.stack([ket(basis2, "e,e;e").amplitudes, row]), part)


@pytest.mark.parametrize("n,sector", [(2, "e"), (2, "tau"), (5, "tau"), (9, "e")])
def test_random_pure_states_are_sequential_draws(model, n, sector):
    basis = enumerate_basis(model, left_comb(n))
    stacked_rng, single_rng = np.random.default_rng(8), np.random.default_rng(8)
    stack = random_pure_states(basis, sector, stacked_rng, 25)
    singles = [reference.random_pure_amplitudes(basis, sector, single_rng) for _ in range(25)]
    assert stack.tobytes() == np.array(singles).tobytes()
    assert stacked_rng.standard_normal() == single_rng.standard_normal()
    assert random_pure_state(basis, sector, np.random.default_rng(8)).amplitudes.tobytes() \
        == stack[0].tobytes()


@pytest.mark.parametrize("clear_margin", [1e-6, 0.1, 0.2, 0.249])
def test_classification_sweep_matches_one_draw_at_a_time(basis2, clear_margin):
    """Same counts, and the generator left where the one-at-a-time loop leaves
    it; at margins 0.2 and 0.249 most draws are redrawn and the redraw cap
    ends a sector (the tau sector, then the vacuum one)."""
    part = bipartition(basis2, 1)
    batched_rng, single_rng = np.random.default_rng(31), np.random.default_rng(31)
    got = classification_sweep(part, ["e", "tau"], batched_rng, 20, 1e-8, clear_margin)
    expected = reference.classification_sweep(part, ["e", "tau"], single_rng, 20, 1e-8,
                                              clear_margin)
    assert got == expected
    assert batched_rng.standard_normal() == single_rng.standard_normal()
    assert (got[1] > 10 * 20) == (clear_margin >= 0.2)


def test_classification_of_another_model_says_it_is_fibonacci_only(all_models):
    basis = enumerate_basis(all_models["z2"], grouped_shape(1, 1))
    for label in basis.labels:
        with pytest.raises(FibonacciOnlyError, match="the pure 2-anyon classification is defined"):
            classify_pure_2anyon(ket(basis, label))
