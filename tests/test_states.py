import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibanyon.errors import (
    BasisMismatchError,
    ModelFormatError,
    ShapeError,
    SuperselectionError,
)
from fibanyon.states import (
    AnyonState,
    BlockOperator,
    bipartition,
    embed_local,
    fidelity,
    format_operator_text,
    format_state_text,
    is_density,
    ket,
    mixture,
    parse_operator_text,
    parse_state_text,
    partial_trace,
    pure_density,
    pure_marginal,
    purity,
    random_density,
    random_observable,
    random_pure_state,
    spectrum,
    superpose,
    trace,
    validate_cssr,
)
from fibanyon.trees import (
    FusionTree,
    all_shapes,
    enumerate_basis,
    grouped_shape,
    left_comb,
    subtree_shape,
)

SQ2 = 1.0 / math.sqrt(2.0)


# --- construction and the superselection rule


def test_ket_unit_vector(model):
    basis = enumerate_basis(model, 1)
    state = ket(basis, "tau")
    assert state.norm() == 1.0
    assert state.sector == "tau"


def test_superpose_within_sector(basis2):
    state, norm = superpose([(1.0, ket(basis2, "e,tau;tau")), (1.0, ket(basis2, "tau,tau;tau"))])
    assert norm == pytest.approx(math.sqrt(2.0))
    assert state.amplitude("e,tau;tau") == pytest.approx(SQ2)
    assert state.amplitude("tau,tau;tau") == pytest.approx(SQ2)


def test_superpose_across_sectors_forbidden(basis2):
    with pytest.raises(SuperselectionError):
        superpose([(1.0, ket(basis2, "e,e;e")), (1.0, ket(basis2, "tau,e;tau"))])


def test_state_constructor_enforces_single_sector(basis2):
    amps = np.zeros(basis2.dim, dtype=complex)
    amps[0] = 1.0
    amps[2] = 1.0  # |e,e;e> plus |e,tau;tau>: different sectors
    with pytest.raises(SuperselectionError):
        AnyonState(basis2, amps)


def test_ket_bra_across_sectors_forbidden(basis2):
    with pytest.raises(SuperselectionError):
        BlockOperator.from_ket_bra(ket(basis2, "e,e;e"), ket(basis2, "tau,e;tau"))


@settings(deadline=None, max_examples=25)
@given(w1=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
       w2=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_superpose_norm_factor(model, w1, w2):
    basis = enumerate_basis(model, grouped_shape(1, 1))
    vec = w1 * np.eye(basis.dim, dtype=complex)[2] + w2 * np.eye(basis.dim, dtype=complex)[4]
    expected = np.linalg.norm(vec)
    if expected < 1e-12:
        return
    state, norm = superpose([(w1, ket(basis, "e,tau;tau")), (w2, ket(basis, "tau,tau;tau"))])
    assert norm == pytest.approx(expected)
    assert state.norm() == pytest.approx(1.0)


# --- embedding


def test_embed_diagonal_unitary_pattern(model, basis2):
    # U = diag(e^{i phi}, e^{i eta}) on one anyon, embedded on side A
    phi, eta = 0.3, 0.9
    one = enumerate_basis(model, 1)
    u = BlockOperator(one, {"e": [[np.exp(1j * phi)]], "tau": [[np.exp(1j * eta)]]})
    part = bipartition(basis2, 1)
    emb = embed_local(u, part, side="A")
    expected = {
        "e,e;e": phi,
        "tau,tau;e": eta,
        "e,tau;tau": phi,
        "tau,e;tau": eta,
        "tau,tau;tau": eta,
    }
    full = emb.to_full()
    for label, angle in expected.items():
        idx = basis2.index_of_label(label)
        assert full[idx, idx] == pytest.approx(np.exp(1j * angle))
    off = full - np.diag(np.diag(full))
    assert np.max(np.abs(off)) == 0.0


def test_embed_identity_is_identity(model, basis4):
    part = bipartition(basis4, 2)
    emb = embed_local(BlockOperator.identity(part.a_basis), part, side="A")
    np.testing.assert_allclose(emb.to_full(), np.eye(basis4.dim), atol=0)


def test_embed_projector_on_unequal_marginals_state(model, basis2, unequal_marginals_state):
    one = enumerate_basis(model, 1)
    project_e = BlockOperator(one, {"e": [[1.0]], "tau": [[0.0]]})
    part = bipartition(basis2, 1)
    projected = embed_local(project_e, part, side="A").apply(unequal_marginals_state)
    assert projected.amplitude("e,tau;tau") == pytest.approx(SQ2)
    assert projected.amplitude("tau,tau;tau") == 0.0


def test_embed_homomorphism(model, basis4, rng):
    part = bipartition(basis4, 2)
    o1 = random_observable(part.a_basis, rng)
    o2 = random_observable(part.a_basis, rng)
    lhs = embed_local(o1 @ o2, part, side="A").to_full()
    rhs = (embed_local(o1, part, side="A") @ embed_local(o2, part, side="A")).to_full()
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    np.testing.assert_allclose(
        embed_local(o1.adjoint(), part, side="A").to_full(),
        embed_local(o1, part, side="A").adjoint().to_full(),
        atol=1e-12,
    )


def _families(part, traced):
    """Partial-trace families read off the trees' labels, as (members, kept indices).

    A family is every joint tree with one traced-side labeling, one global
    charge and one kept-side root charge.  Families come in (global
    charge, traced tree) order, the order in which the partial trace adds
    its terms.
    """
    charges = part.basis.model.charges
    kept_basis = part.kept_basis(traced)
    traced_basis = part.b_basis if traced == "B" else part.a_basis
    n_a, n_int_a = part.n_a, part.a_basis.shape.n_internal
    families = {}
    for i, tree in enumerate(part.basis.trees):
        leaves, ints = tree.leaf_charges, tree.internal_charges
        a_tree = FusionTree(part.a_basis.shape, leaves[:n_a], ints[1 : 1 + n_int_a])
        b_tree = FusionTree(part.b_basis.shape, leaves[n_a:], ints[1 + n_int_a :])
        kept, other = (a_tree, b_tree) if traced == "B" else (b_tree, a_tree)
        key = (charges.index(tree.global_charge), traced_basis.index_of(other), kept.global_charge)
        members, kept_members = families.setdefault(key, ([], []))
        members.append(i)
        kept_members.append(kept_basis.index_of(kept))
    return [(np.array(m), np.array(k)) for _, (m, k) in sorted(families.items())]


def _index_loop(part):
    """Reference a_index / b_index: one FusionTree pair per joint tree."""
    n_a, n_int_a = part.n_a, part.a_basis.shape.n_internal
    a_idx = np.empty(part.basis.dim, dtype=np.intp)
    b_idx = np.empty(part.basis.dim, dtype=np.intp)
    for i, tree in enumerate(part.basis.trees):
        ints = tree.internal_charges
        a_tree = FusionTree(part.a_basis.shape, tree.leaf_charges[:n_a], ints[1 : 1 + n_int_a])
        b_tree = FusionTree(part.b_basis.shape, tree.leaf_charges[n_a:], ints[1 + n_int_a :])
        a_idx[i] = part.a_basis.index_of(a_tree)
        b_idx[i] = part.b_basis.index_of(b_tree)
    return a_idx, b_idx


@pytest.mark.parametrize("n", range(2, 8))
def test_bipartition_indices_equal_per_tree_reference(model, n):
    for shape in all_shapes(n):
        part = bipartition(enumerate_basis(model, shape),
                           subtree_shape(shape.structure[0]).n_leaves)
        a_idx, b_idx = _index_loop(part)
        assert part.a_index.dtype == a_idx.dtype and np.array_equal(part.a_index, a_idx)
        assert part.b_index.dtype == b_idx.dtype and np.array_equal(part.b_index, b_idx)


def _dense_embed(op, part, side):
    """Reference embedding through dense full-basis matrices."""
    traced = "B" if side == "A" else "A"
    op_full = op.to_full()
    out = np.zeros((part.basis.dim, part.basis.dim), dtype=complex)
    for members, kept_members in _families(part, traced):
        out[np.ix_(members, members)] += op_full[np.ix_(kept_members, kept_members)]
    return BlockOperator.from_full(out, part.basis)


def _dense_partial_trace(rho, part, traced):
    """Reference partial trace through a dense kept-basis matrix."""
    kept = part.kept_basis(traced)
    rho_full = rho.to_full()
    out = np.zeros((kept.dim, kept.dim), dtype=complex)
    for members, kept_members in _families(part, traced):
        out[np.ix_(kept_members, kept_members)] += rho_full[np.ix_(members, members)]
    return BlockOperator.from_full(out, kept)


def _splits(max_n):
    for n in range(2, max_n + 1):
        for n_a in range(1, n):
            yield n, n_a


@pytest.mark.parametrize("n,n_a", list(_splits(6)))
def test_embed_and_partial_trace_equal_dense_reference(model, n, n_a):
    part = bipartition(enumerate_basis(model, grouped_shape(n_a, n - n_a)), n_a)
    rng = np.random.default_rng(1000 * n + n_a)
    for side, sub in (("A", part.a_basis), ("B", part.b_basis)):
        op = random_observable(sub, rng)
        assert np.array_equal(
            embed_local(op, part, side=side).to_full(), _dense_embed(op, part, side).to_full()
        )
    rho = random_density(part.basis, rng)
    for traced in ("A", "B"):
        assert np.array_equal(
            partial_trace(rho, part, traced=traced).to_full(),
            _dense_partial_trace(rho, part, traced).to_full(),
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_pure_marginal_equals_trace_of_pure_density(model, n):
    rng = np.random.default_rng(n)
    for n_a in sorted({1, 2, n // 2, n - 1} & set(range(1, n))):
        part = bipartition(enumerate_basis(model, grouped_shape(n_a, n - n_a)), n_a)
        for sector in model.charges:
            # unnormalized on purpose: both sides normalize first
            amplitudes = 3.0 * random_pure_state(part.basis, sector, rng).amplitudes
            state = AnyonState(part.basis, amplitudes)
            for traced in ("A", "B"):
                # C C^dagger adds in BLAS order, so the last bit may differ
                diff = (pure_marginal(state, part, traced=traced).to_full()
                        - partial_trace(pure_density(state), part, traced=traced).to_full())
                assert np.max(np.abs(diff)) <= 1e-15


def test_pure_marginal_n10_stays_small(model):
    part = bipartition(enumerate_basis(model, grouped_shape(2, 8)), 2)
    state = random_pure_state(part.basis, "tau", np.random.default_rng(10))
    tracemalloc.start()
    try:
        marginals = [pure_marginal(state, part, traced=traced) for traced in ("A", "B")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    for marginal in marginals:
        assert trace(marginal).real == pytest.approx(1.0, abs=1e-12)


# --- partial trace


def test_unequal_marginals(model, basis2, unequal_marginals_state):
    rho = pure_density(unequal_marginals_state)
    part = bipartition(basis2, 1)
    rho_a = partial_trace(rho, part, traced="B")
    rho_b = partial_trace(rho, part, traced="A")
    np.testing.assert_allclose(spectrum(rho_a), [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(spectrum(rho_b), [1.0, 0.0], atol=1e-12)
    assert rho_b.block("tau")[0, 0] == pytest.approx(1.0)


def test_mixed_state_with_pure_marginals(model, basis2):
    rho = mixture([(0.5, ket(basis2, "tau,tau;e")), (0.5, ket(basis2, "tau,tau;tau"))])
    part = bipartition(basis2, 1)
    for traced in ("A", "B"):
        marginal = partial_trace(rho, part, traced=traced)
        assert purity(marginal) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(spectrum(marginal), [1.0, 0.0], atol=1e-12)
    assert purity(rho) == pytest.approx(0.5, abs=1e-10)


def test_asymmetric_resource_marginal_spectra(model, basis4):
    state, _ = superpose([
        (math.sqrt(2.0), ket(basis4, "(e,e),(e,tau);e,tau;tau")),
        (1.0, ket(basis4, "(e,tau),(e,e);tau,e;tau")),
        (1.0, ket(basis4, "(tau,e),(e,tau);tau,tau;tau")),
    ])
    part = bipartition(basis4, 2)
    rho = pure_density(state)
    np.testing.assert_allclose(
        spectrum(partial_trace(rho, part, traced="B")), [0.5, 0.25, 0.25, 0.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        spectrum(partial_trace(rho, part, traced="A")), [0.75, 0.25, 0.0, 0.0, 0.0], atol=1e-12
    )


def test_partial_trace_preserves_trace_and_density(model, basis4, rng):
    part = bipartition(basis4, 2)
    for _ in range(20):
        rho = random_density(basis4, rng)
        for traced in ("A", "B"):
            reduced = partial_trace(rho, part, traced=traced)
            assert trace(reduced).real == pytest.approx(1.0, abs=1e-10)
            assert is_density(reduced)


def test_partial_trace_requires_grouped_shape(model):
    basis = enumerate_basis(model, left_comb(4))  # (((0 1) 2) 3) does not split 2|2
    with pytest.raises(ShapeError, match="change_shape"):
        bipartition(basis, 2)


def test_partial_trace_consistency_seeded(model, rng):
    for n, n_a in ((4, 2), (6, 3)):
        basis = enumerate_basis(model, grouped_shape(n_a, n - n_a))
        part = bipartition(basis, n_a)
        for _ in range(50):
            obs = random_observable(part.a_basis, rng)
            rho = random_density(basis, rng)
            lhs = trace(obs @ partial_trace(rho, part, traced="B"))
            rhs = trace(embed_local(obs, part, side="A") @ rho)
            assert abs(lhs - rhs) <= 1e-10


# --- scalar diagnostics


def test_purity_examples(model, basis2):
    one = enumerate_basis(model, 1)
    assert purity(pure_density(ket(one, "tau"))) == pytest.approx(1.0)
    maximally_mixed = BlockOperator(one, {"e": [[0.5]], "tau": [[0.5]]})
    assert purity(maximally_mixed) == pytest.approx(0.5)
    two_level = mixture([(0.5, ket(basis2, "tau,tau;e")), (0.5, ket(basis2, "tau,tau;tau"))])
    assert purity(two_level) == pytest.approx(0.5)


def test_purity_one_for_random_sector_states(model, rng):
    for n in (1, 2, 3, 4):
        basis = enumerate_basis(model, left_comb(n))
        for sector in ("e", "tau"):
            state = random_pure_state(basis, sector, rng)
            assert purity(pure_density(state)) == pytest.approx(1.0, abs=1e-10)


def test_spectrum_sorted_and_normalized(model, basis4, rng):
    rho = random_density(basis4, rng)
    vals = spectrum(rho)
    assert np.all(np.diff(vals) <= 1e-14)
    assert float(np.sum(vals)) == pytest.approx(1.0, abs=1e-10)
    assert vals[-1] >= -1e-10 and vals[0] <= 1 + 1e-10


def test_fidelity_and_mismatch(model, basis2, unequal_marginals_state):
    assert fidelity(unequal_marginals_state, pure_density(unequal_marginals_state)) == pytest.approx(1.0)
    other_basis = enumerate_basis(model, left_comb(3))
    other = ket(other_basis, other_basis.tree_at(0))
    with pytest.raises(BasisMismatchError):
        fidelity(other, pure_density(unequal_marginals_state))


def test_trace_sums_blocks(model, basis2):
    op = BlockOperator(basis2, {"e": np.eye(2) * 2.0, "tau": np.eye(3)})
    assert trace(op) == pytest.approx(7.0)


# --- superselection validation of raw matrices


def test_validate_cssr(model, basis2, unequal_marginals_state):
    assert validate_cssr(pure_density(unequal_marginals_state))
    full = np.zeros((5, 5), dtype=complex)
    full[basis2.index_of_label("e,e;e"), basis2.index_of_label("tau,e;tau")] = 1.0
    assert not validate_cssr(full, basis2)
    with pytest.raises(SuperselectionError):
        BlockOperator.from_full(full, basis2)
    for check in (validate_cssr, BlockOperator.from_full):
        with pytest.raises(BasisMismatchError, match=r"matrix shape \(3, 3\) != basis dim 5"):
            check(np.eye(3), basis2)


# --- file formats


def test_state_file_roundtrip(model, unequal_marginals_state):
    text = format_state_text(unequal_marginals_state)
    back = parse_state_text(model, text)
    np.testing.assert_array_equal(back.amplitudes, unequal_marginals_state.amplitudes)


def test_state_file_exact_bytes(model, unequal_marginals_state):
    assert format_state_text(unequal_marginals_state) == (
        "shape: (0 1)\n"
        "e,tau;tau : 0.7071067811865475 0.0\n"
        "tau,tau;tau : 0.7071067811865475 0.0\n"
    )


def test_operator_file_roundtrip(model, basis4, rng):
    op = random_density(basis4, rng)
    back = parse_operator_text(model, format_operator_text(op))
    np.testing.assert_array_equal(back.to_full(), op.to_full())


@pytest.mark.parametrize("value", ["inf 0.0", "0.5 nan", "-inf -inf"])
def test_entry_files_reject_non_finite_values(model, value):
    with pytest.raises(ModelFormatError, match=r"^line 3: amplitude is not finite in "):
        parse_state_text(model, f"shape: (0 1)\ne,tau;tau : 0.6 0.0\ntau,tau;tau : {value}")
    with pytest.raises(ModelFormatError, match=r"^line 2: amplitude is not finite in "):
        parse_operator_text(model, f"shape: (0 1)\ne,e;e | e,e;e : {value}")


def test_state_file_rejects_malformed(model):
    with pytest.raises(ModelFormatError):
        parse_state_text(model, "e,tau;tau : 1.0 0.0")  # missing shape header
    with pytest.raises(ModelFormatError):
        parse_state_text(model, "shape: (0 1)\nnonsense")
