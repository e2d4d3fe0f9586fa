import math
from pathlib import Path
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibanyon import errors
from fibanyon.errors import (
    BasisMismatchError,
    MemoryBudgetError,
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
    format_state_text,
    is_density,
    ket,
    mixture,
    normalized_amplitudes,
    parse_state_text,
    partial_trace,
    pure_density,
    pure_marginal,
    purity,
    random_density,
    random_observable,
    random_pure_state,
    rounded_outer,
    rounded_product,
    spectra,
    spectrum,
    superpose,
    trace,
    validate_cssr,
)
from fibanyon.model import load_model_text
from fibanyon.trees import all_shapes, enumerate_basis, grouped_shape, left_comb, subtree_shape
from reference import global_charge, reference

SQ2 = 1.0 / math.sqrt(2.0)


# --- construction and the superselection rule


def test_ket_unit_vector(model):
    basis = enumerate_basis(model, 1)
    state = ket(basis, "tau")
    assert state.norm() == 1.0
    assert state.sector == "tau"


def test_rounded_outer_rounds_as_the_elementwise_product():
    # the plan's operands: a message (alpha, beta) against 1-6 resource amplitudes
    rng = np.random.default_rng(20)
    cases = [(np.array(message, dtype=complex),
              rng.standard_normal(s) + 1j * rng.standard_normal(s))
             for message in ((0, 1), (1, 0), (0.6, 0.8j)) for s in (1, 4)]
    for _ in range(20000):
        parts = rng.standard_normal((2, 2)) * rng.choice([0.0, 1.0, 1e-300, 1e300], size=(2, 2))
        s = int(rng.integers(1, 7))
        resource = (rng.standard_normal(s) + 1j * rng.standard_normal(s)) * rng.choice(
            [0.0, 1.0, -1.0, 1e-170], size=s)
        cases.append((parts[0] + 1j * parts[1], resource))
    for message, resource in cases:
        out = rounded_outer(message, resource)
        expected = rounded_product(message[:, None], resource[None, :])
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out.view(float)), np.signbit(expected.view(float)))


def test_superpose_within_sector(basis2):
    state, norm = superpose([(1.0, ket(basis2, "e,tau;tau")), (1.0, ket(basis2, "tau,tau;tau"))])
    assert norm == pytest.approx(math.sqrt(2.0))
    assert state.amplitude("e,tau;tau") == pytest.approx(SQ2)
    assert state.amplitude("tau,tau;tau") == pytest.approx(SQ2)


def test_superpose_whose_norm_underflows_is_refused(basis2):
    # a nonzero sum whose squared norm underflows to 0 has not vanished
    with pytest.raises(ValueError,
                       match="^cannot normalize the superposition: its norm underflows to 0$"):
        superpose([(1e-170, ket(basis2, "e,tau;tau")), (1e-170, ket(basis2, "tau,tau;tau"))])


def test_superpose_across_sectors_forbidden(basis2):
    with pytest.raises(SuperselectionError):
        superpose([(1.0, ket(basis2, "e,e;e")), (1.0, ket(basis2, "tau,e;tau"))])


def test_state_constructor_enforces_single_sector(basis2):
    amps = np.zeros(basis2.dim, dtype=complex)
    amps[0] = 1.0
    amps[2] = 1.0  # |e,e;e> plus |e,tau;tau>: different sectors
    with pytest.raises(SuperselectionError):
        AnyonState(basis2, amps)


def test_state_keeps_a_read_only_copy_of_its_amplitudes(basis2):
    # a later write into the caller's array used to reach the state, past the
    # sector check: is_uncorrelated then failed on a trace of 1/2
    from fibanyon.correlations import is_uncorrelated

    a = np.zeros(basis2.dim, dtype=complex)
    a[basis2.index_of_label("e,e;e")] = 1.0
    state = AnyonState(basis2, a)
    expected = is_uncorrelated(AnyonState(basis2, a), bipartition(basis2, 1)).to_json_dict()
    a[3] = 1.0  # a tau tree
    assert state.sector == "e" and state.amplitudes[3] == 0.0
    assert is_uncorrelated(state, bipartition(basis2, 1)).to_json_dict() == expected
    for amplitudes in (state.amplitudes, state.normalized().amplitudes):
        with pytest.raises(ValueError, match="read-only"):
            amplitudes[3] = 1.0


def test_operator_keeps_read_only_copies_of_its_blocks(basis2):
    block = np.eye(2, dtype=complex)
    full = np.eye(basis2.dim, dtype=complex)
    for op in (BlockOperator(basis2, {"e": block}), BlockOperator.from_full(full, basis2)):
        block[0, 0] = full[0, 0] = 5.0
        assert op.blocks["e"][0, 0] == 1.0
        for b in op.blocks.values():  # the zero block of a missing key too
            with pytest.raises(ValueError, match="read-only"):
                b[0, 0] = 2.0


def test_operator_blocks_are_read_only_views_of_its_data(model, basis2, basis4, rng):
    part, pair = bipartition(basis4, 2), bipartition(basis2, 1)
    psi = random_pure_state(basis4, "tau", rng)
    obs, rho = random_observable(basis4, rng), random_density(basis4, rng)
    local = random_observable(part.a_basis, rng)
    ops = {
        "dict": BlockOperator(basis4, {"e": np.eye(basis4.sector_dim("e"))}),
        "embed_local": embed_local(local, part, side="A"),
        "partial_trace": partial_trace(rho, part, traced="A"),
        "from_ket_bra": BlockOperator.from_ket_bra(psi),
        "+": obs + rho, "-": obs - rho, "*": 0.5 * rho, "@": obs @ rho,
        "adjoint": obs.adjoint(),
        "pure_marginal": pure_marginal(psi, part, traced="B"),
        "pure_marginal of one anyon": pure_marginal(random_pure_state(basis2, "tau", rng), pair,
                                                    traced="A"),
        "random_density": rho, "random_observable": obs,
    }
    for name, op in ops.items():
        assert op.data.dtype == complex and op.data.shape == (op.basis.unit_count,), name
        assert not op.data.flags.writeable, name
        for g, sl in op.basis.block_slices.items():
            block = op.blocks[g]
            assert np.shares_memory(op.data, block) and not block.flags.writeable, (name, g)
            assert block.shape == (op.basis.sector_dim(g),) * 2, (name, g)
            assert np.array_equal(block.ravel(), op.data[sl]), (name, g)


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
    model = part.basis.model
    kept_index = reference(model, part.kept_basis(traced).shape).index
    traced_index = reference(model, (part.b_basis if traced == "B" else part.a_basis).shape).index
    families = {}
    for i, tree in enumerate(reference(model, part.basis.shape).trees):
        a_tree, b_tree = _party_trees(part, tree)
        kept, other = (a_tree, b_tree) if traced == "B" else (b_tree, a_tree)
        key = (model.charges.index(global_charge(tree)), traced_index[other], global_charge(kept))
        members, kept_members = families.setdefault(key, ([], []))
        members.append(i)
        kept_members.append(kept_index[kept])
    return [(np.array(m), np.array(k)) for _, (m, k) in sorted(families.items())]


def _party_trees(part, tree):
    """The A and B subtrees of a joint reference tree."""
    (leaves, ints), n_a = tree, part.n_a
    n_int_a = part.a_basis.shape.n_internal
    return (leaves[:n_a], ints[1 : 1 + n_int_a]), (leaves[n_a:], ints[1 + n_int_a :])


def _index_loop(part):
    """Reference a_index / b_index: one reference tree pair per joint tree."""
    model = part.basis.model
    a_index = reference(model, part.a_basis.shape).index
    b_index = reference(model, part.b_basis.shape).index
    a_idx = np.empty(part.basis.dim, dtype=np.intp)
    b_idx = np.empty(part.basis.dim, dtype=np.intp)
    for i, tree in enumerate(reference(model, part.basis.shape).trees):
        a_tree, b_tree = _party_trees(part, tree)
        a_idx[i] = a_index[a_tree]
        b_idx[i] = b_index[b_tree]
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


@pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
def test_mixture_rejects_negative_or_non_finite_weight(basis2, weight):
    # with weights 2 and -1 the 1|1 correlation test read spectra [2, -1]
    with pytest.raises(ValueError, match=rf"^mixture weight {weight!r} is not a finite number >= 0$"):
        mixture([(2.0, ket(basis2, "e,e;e")), (weight, ket(basis2, "tau,tau;e"))])


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


def _per_block_spectrum(blocks) -> np.ndarray:
    """Per-block eigvalsh, concatenated in block order and sorted descending."""
    vals = [np.linalg.eigvalsh(b) if b.size else np.empty(0) for b in blocks]
    return np.sort(np.concatenate(vals))[::-1]


def _hermitian(rng, d):
    gin = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return gin + gin.conj().T


def test_spectra_equal_per_block_eigvalsh_bytes(rng):
    # 1 x 1 blocks: a tiny imaginary part, -0.0 (also beside +0.0, which sorts
    # as its equal), and a negative value; 0 x 0 blocks; same-size blocks in
    # both parties, stacked into one eigvalsh call per size
    one = [np.array([[0.25 + 1e-18j]]), np.array([[complex(-0.0, 0.0)]]),
           np.array([[complex(-0.0, -1e-300)]]), np.array([[0.0j]]), np.array([[-3.5 + 2e-17j]])]
    empty = np.zeros((0, 0), dtype=complex)
    party_a = [empty, one[0], _hermitian(rng, 3), one[1], _hermitian(rng, 2), _hermitian(rng, 3)]
    party_b = [_hermitian(rng, 3), one[2], empty, _hermitian(rng, 2), one[3], _hermitian(rng, 3),
               one[4], _hermitian(rng, 4)]
    parties = (party_a, party_b, [empty], [one[1], one[3], one[2]])
    got = spectra(*parties)
    assert len(got) == len(parties)
    for blocks, spec in zip(parties, got):
        expected = _per_block_spectrum(blocks)
        assert spec.dtype == expected.dtype and spec.tobytes() == expected.tobytes()
    assert np.signbit(got[3]).sum() == 2  # both -0.0 kept


def test_spectrum_equals_per_block_eigvalsh_bytes(model, rng):
    z3 = load_model_text((Path(__file__).parent / "data" / "z3.model").read_text(), name="z3")
    for m in (model, z3):
        for n in (1, 2, 3, 4):
            basis = enumerate_basis(m, left_comb(n))
            rho = random_density(basis, rng)
            for op in (rho, partial_trace(rho, bipartition(basis, n - 1), "A") if n > 1 else rho):
                assert spectrum(op).tobytes() == _per_block_spectrum(op.blocks.values()).tobytes()


def test_fidelity_and_mismatch(model, basis2, unequal_marginals_state):
    assert fidelity(unequal_marginals_state, pure_density(unequal_marginals_state)) == pytest.approx(1.0)
    other_basis = enumerate_basis(model, left_comb(3))
    other = ket(other_basis, other_basis.tree_at(0))
    with pytest.raises(BasisMismatchError):
        fidelity(other, pure_density(unequal_marginals_state))


def test_trace_sums_blocks(model, basis2):
    op = BlockOperator(basis2, {"e": np.eye(2) * 2.0, "tau": np.eye(3)})
    assert trace(op) == pytest.approx(7.0)


def test_block_operator_rejects_keys_that_are_not_charges(basis2):
    # a misspelt charge would otherwise be dropped, leaving its sector's block zero
    with pytest.raises(BasisMismatchError,
                       match=r"^block keys 'sigma', 'tau ' are not charges of model fibonacci$"):
        BlockOperator(basis2, {"e": np.eye(2), "tau ": np.eye(3), "sigma": np.eye(1)})


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


@pytest.mark.parametrize("value", ["inf 0.0", "0.5 nan", "-inf -inf"])
def test_entry_files_reject_non_finite_values(model, value):
    with pytest.raises(ModelFormatError, match=r"^line 3: amplitude is not finite in "):
        parse_state_text(model, f"shape: (0 1)\ne,tau;tau : 0.6 0.0\ntau,tau;tau : {value}")


def test_state_file_rejects_malformed(model):
    with pytest.raises(ModelFormatError):
        parse_state_text(model, "e,tau;tau : 1.0 0.0")  # missing shape header
    with pytest.raises(ModelFormatError):
        parse_state_text(model, "shape: (0 1)\nnonsense")


def test_pure_density_checks_memory_first(model, monkeypatch):
    # n=6: the 89 x 89 and 144 x 144 blocks are 0.44 MiB, over half of the 512 KiB "available"
    basis = enumerate_basis(model, left_comb(6))
    state = ket(basis, basis.labels[-1])
    need = f"~{16 * (89**2 + 144**2) / 2**30:.3g} GiB, {2**19 / 2**30:.3g} GiB available"
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**19)
    with pytest.raises(MemoryBudgetError,
                       match=f"^the ket-bra of a 233-dim state needs {need}"):
        pure_density(state)
    monkeypatch.setattr(errors, "_available_bytes", lambda: None)  # no meminfo: no guard
    assert [block.shape for block in pure_density(state).blocks.values()] == [(89, 89), (144, 144)]


@pytest.mark.parametrize("amplitudes, problem", [
    ([0.0, 0.0], "cannot normalize the zero state"),
    ([1e-320, 0.0], "cannot normalize: the norm of the amplitudes underflows to 0"),
    ([1e-160, 1e-160j],
     "cannot normalize: the norm of the amplitudes underflows (its square is subnormal)"),
    ([1e200, 1e200], "cannot normalize: the norm of the amplitudes overflows"),
])
def test_normalized_amplitudes_refuses_an_unusable_norm(amplitudes, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        with np.errstate(over="ignore"):  # the overflow shows in the message
            normalized_amplitudes(np.array(amplitudes, dtype=complex))


def test_normalized_amplitudes_keeps_the_smallest_normal_squared_norm():
    # a squared norm of exactly the smallest normal float is accepted
    amplitudes = np.array([math.sqrt(2.0 ** -1022), 0.0], dtype=complex)
    assert np.abs(normalized_amplitudes(amplitudes)[0] - 1.0) <= 1e-15
