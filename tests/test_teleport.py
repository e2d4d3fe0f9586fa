import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fibanyon import errors, teleport, verify
from fibanyon.errors import FusionError, MemoryBudgetError, SuperselectionError
from fibanyon.recouple import change_shape
from fibanyon.states import AnyonState, BlockOperator, bipartition, ket, superpose
from fibanyon.teleport import (
    MESSAGE_GRID,
    MESSAGE_KETS,
    MessageQubit,
    SplitState,
    builtin_scenarios,
    d1_family_resource,
    PROB_TOL,
    MESSAGE_SAMPLES,
    diagonal_mixture_fidelity_bound,
    pauli_correction,
    receiver_reachability_check,
    run_protocol,
    row_space,
    run_protocol_via_embedding,
    sample_rng,
    sampled_sweep,
    superselection_violating_protocol,
    validate_pvm,
)
from fibanyon.trees import enumerate_basis, grouped_shape, join_shapes, left_comb
from fibanyon.verify import oracle_excess
from reference import (complete_unitary, global_charge, haar_rows, reference,
                       sector_haar_unitary)

SQ2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def catalog(model):
    return builtin_scenarios(model)


# --- composition: SplitState joins the message to the resource, then regroups


def _joined_state(scenario, message):
    """SplitState's regrouped state, taken back to the joined grouping: the
    message first for "ab", the resource first for "ba"."""
    parts = (grouped_shape(1, 1), grouped_shape(2, 2))
    if scenario.direction == "ba":
        parts = parts[::-1]
    state = SplitState(scenario, message).state
    return change_shape(scenario.model, state, join_shapes(*parts))


def test_compose_main_text_four_terms(catalog):
    composed = _joined_state(catalog["main-text"]["ab"], MessageQubit(0.6, 0.8))
    a, b = 0.6 * SQ2, 0.8 * SQ2
    expected = {
        "(tau,e),((e,e),(e,tau));tau,tau,e,tau;e": a,
        "(tau,e),((tau,e),(tau,e));tau,tau,tau,tau;e": a,
        "(e,tau),((e,e),(e,tau));tau,tau,e,tau;e": b,
        "(e,tau),((tau,e),(tau,e));tau,tau,tau,tau;e": b,
    }
    nonzero = {
        composed.basis.labels[i]: composed.amplitudes[i]
        for i in np.nonzero(composed.amplitudes)[0]
    }
    assert set(nonzero) == set(expected)
    for label, amp in expected.items():
        assert nonzero[label] == pytest.approx(amp)


def test_compose_resource_first_grouping(catalog):
    composed = _joined_state(catalog["main-text"]["ba"], MessageQubit(0.6, 0.8))
    a, b = 0.6 * SQ2, 0.8 * SQ2
    # internal charges in preorder: AB root, A root, B root, M root
    expected = {
        "((e,e),(e,tau)),(tau,e);tau,e,tau,tau;e": a,
        "((tau,e),(tau,e)),(tau,e);tau,tau,tau,tau;e": a,
        "((e,e),(e,tau)),(e,tau);tau,e,tau,tau;e": b,
        "((tau,e),(tau,e)),(e,tau);tau,tau,tau,tau;e": b,
    }
    for label, amp in expected.items():
        assert composed.amplitude(label) == pytest.approx(amp)


def test_trivial_fmoves_preserve_main_text_amplitudes(catalog):
    # global charge e makes every re-association coefficient 1, so the
    # regrouped state carries the same four coefficients unchanged.
    regrouped = SplitState(catalog["main-text"]["ab"], MessageQubit(0.6, 0.8)).state
    assert regrouped.basis.shape == join_shapes(grouped_shape(2, 2), grouped_shape(1, 1))
    a, b = 0.6 * SQ2, 0.8 * SQ2
    expected = {
        "((tau,e),(e,e)),(e,tau);tau,tau,e,tau;e": a,
        "((tau,e),(tau,e)),(tau,e);tau,tau,tau,tau;e": a,
        "((e,tau),(e,e)),(e,tau);tau,tau,e,tau;e": b,
        "((e,tau),(tau,e)),(tau,e);tau,tau,tau,tau;e": b,
    }
    nonzero = np.nonzero(regrouped.amplitudes)[0]
    assert len(nonzero) == 4
    for label, amp in expected.items():
        assert regrouped.amplitude(label) == pytest.approx(amp)


def test_compose_channel_admissibility(catalog):
    message = MessageQubit(1.0, 0.0)
    # tau x tau contains tau, so the tau channel is allowed too
    tau_channel = dataclasses.replace(catalog["main-text"]["ab"], channel="tau")
    assert SplitState(tau_channel, message).state.sector == "tau"
    e_channel = dataclasses.replace(catalog["appendix-d1-symmetric"]["ab"], channel="e")
    for _ in range(2):  # a plan that fails to build is not cached: every call raises
        with pytest.raises(FusionError):
            SplitState(e_channel, message)  # tau x e has no e channel


# --- PVM validation


def test_catalog_pvms_validate(model, catalog):
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    for name, directions in catalog.items():
        for scenario in directions.values():
            if scenario.pvm is None:
                continue
            assert validate_pvm(scenario.pvm, g4) == []


def test_cross_sector_projector_rejected(model, basis4):
    lam_plus, _ = superpose([
        (SQ2, ket(basis4, "(tau,e),(e,e);tau,e;tau")),
        (SQ2, ket(basis4, "(e,tau),(tau,e);tau,tau;tau")),
    ])
    vec = lam_plus.amplitudes * SQ2
    vec[basis4.index_of_label("(e,tau),(e,tau);tau,tau;e")] = SQ2
    bad = np.outer(vec, vec.conj())
    report = validate_pvm([bad], basis4)
    assert any("cross-sector" in line for line in report)


def test_d2_pvm_sum_below_identity(model, catalog, basis4):
    pvm = catalog["appendix-d2-asymmetric"]["ba"].pvm
    assert validate_pvm(pvm, basis4) == []
    total = sum(op.to_full() for op in pvm)
    eigvals = np.linalg.eigvalsh(total)
    assert eigvals.min() >= -1e-12
    assert eigvals.max() <= 1 + 1e-12
    assert np.trace(total).real == pytest.approx(4.0)  # rank-4 < dim 34


# --- catalog structure


def _catalog_scenarios(catalog):
    return [scenario for directions in catalog.values() for scenario in directions.values()]


def test_catalog_pvm_elements_are_bell_pair_partners(basis4, catalog):
    # |w><w| with w = (|u> +- |v>)/sqrt(2) in one sector, elements 2k and 2k+1
    # the + and - partners of one pair (u, v)
    for scenario in _catalog_scenarios(catalog):
        if scenario.pvm is None:
            continue
        full = [op.to_full() for op in scenario.pvm]
        assert len(full) == 4
        supports = []
        for mat in full:
            assert np.linalg.matrix_rank(mat, tol=1e-12) == 1
            support = np.flatnonzero(np.abs(np.diag(mat)) > 1e-12)
            assert len(support) == 2 and np.count_nonzero(mat) == 4
            np.testing.assert_allclose(np.diag(mat)[support], 0.5, rtol=0, atol=1e-15)
            assert basis4.sector_of(support[0]) == basis4.sector_of(support[1])
            supports.append(support)
        for k in (0, 2):
            assert np.array_equal(supports[k], supports[k + 1])
            pair_projector = np.zeros_like(full[k])
            pair_projector[supports[k], supports[k]] = 1.0
            np.testing.assert_allclose(full[k] + full[k + 1], pair_projector, rtol=0, atol=1e-15)


def test_catalog_corrections_are_encoded_x_y_i_z(basis2, catalog):
    paulis = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, 1]], [[1, 0], [0, -1]])
    for scenario in _catalog_scenarios(catalog):
        if scenario.corrections is None:
            continue
        pair = [basis2.index_of_label(lbl) for lbl in scenario.encoding]
        assert len(scenario.corrections) == len(paulis)
        for op, pauli in zip(scenario.corrections, paulis):
            expected = np.eye(basis2.dim, dtype=complex)
            expected[np.ix_(pair, pair)] = pauli
            assert np.array_equal(op.to_full(), expected)


def test_catalog_directions_without_pvm_declare_reachable_sets(catalog):
    without_pvm = {(s.name, s.direction) for s in _catalog_scenarios(catalog) if s.pvm is None}
    assert without_pvm == {("main-text", "ba"), ("appendix-d2-asymmetric", "ab")}
    for scenario in _catalog_scenarios(catalog):
        has_pvm = scenario.pvm is not None
        assert (scenario.corrections is not None) == has_pvm
        assert (scenario.reachable is None) == has_pvm


def test_d1_family_resource_at_one_one_is_the_catalog_resource(model, catalog):
    resource = catalog["appendix-d1-symmetric"]["ab"].resource
    assert d1_family_resource(model, 1, 1).amplitudes.tobytes() == resource.amplitudes.tobytes()
    family = d1_family_resource(model, 0.6, 0.8)
    for label, weight in (("(e,e),(e,e);e,e;e", 0.6), ("(tau,tau),(tau,tau);e,e;e", 0.8)):
        assert family.amplitudes[family.basis.index_of_label(label)] == pytest.approx(weight)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_d1_family_resource_whose_norm_overflows_is_refused(model):
    # an infinite norm would scale the amplitudes to a zero resource
    with pytest.raises(ValueError,
                       match="^cannot normalize the superposition: its norm overflows$"):
        d1_family_resource(model, 1e200, 1e200)


def test_pauli_correction_rejects_unknown_kind(basis2):
    with pytest.raises(ValueError, match="^unknown Pauli kind 'W'$"):
        pauli_correction(basis2, *MESSAGE_KETS, "W")


# --- protocols


@pytest.mark.parametrize("alpha,beta", MESSAGE_GRID)
def test_main_text_ab_perfect(catalog, alpha, beta):
    outcome = run_protocol(catalog["main-text"]["ab"], MessageQubit(alpha, beta))
    assert len(outcome.branches) == 4
    for branch in outcome.branches:
        assert branch.probability == pytest.approx(0.25, abs=1e-12)
        assert branch.fidelity == pytest.approx(1.0, abs=1e-10)
    assert outcome.no_click.probability == pytest.approx(0.0, abs=1e-12)
    assert outcome.average_fidelity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("direction", ["ab", "ba"])
@pytest.mark.parametrize("alpha,beta", MESSAGE_GRID)
def test_d1_perfect_both_directions(catalog, direction, alpha, beta):
    outcome = run_protocol(catalog["appendix-d1-symmetric"][direction],
                           MessageQubit(alpha, beta))
    assert outcome.average_fidelity == pytest.approx(1.0, abs=1e-10)
    assert outcome.total_probability() == pytest.approx(1.0, abs=1e-10)


def test_d1_family_direction_symmetric(model, catalog):
    rng = np.random.default_rng(5)
    for _ in range(3):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec /= np.linalg.norm(vec)
        resource = d1_family_resource(model, vec[0], vec[1])
        for alpha, beta in MESSAGE_GRID:
            msg = MessageQubit(alpha, beta)
            f_ab = run_protocol(
                catalog["appendix-d1-symmetric"]["ab"].with_resource(resource), msg
            ).average_fidelity
            f_ba = run_protocol(
                catalog["appendix-d1-symmetric"]["ba"].with_resource(resource), msg
            ).average_fidelity
            assert f_ab == pytest.approx(f_ba, abs=1e-10)


def test_d2_ba_clicks_half_the_time(catalog):
    outcome = run_protocol(catalog["appendix-d2-asymmetric"]["ba"], MessageQubit(0.6, 0.8))
    click = sum(b.probability for b in outcome.branches)
    assert click == pytest.approx(0.5, abs=1e-12)
    for branch in outcome.branches:
        assert branch.probability == pytest.approx(0.125, abs=1e-12)
        assert branch.fidelity == pytest.approx(1.0, abs=1e-10)
    assert outcome.no_click.probability == pytest.approx(0.5, abs=1e-12)
    # the no-click receiver is stuck in |e,e;e>, orthogonal to any message
    assert outcome.no_click.fidelity == pytest.approx(0.0, abs=1e-12)
    diag = np.real(np.diag(outcome.no_click.receiver_state))
    idx = outcome.receiver_basis.index_of_label("e,e;e")
    assert diag[idx] == pytest.approx(1.0, abs=1e-10)


def test_d2_ab_receiver_confined_to_classical_pair(model, catalog):
    scenario = catalog["appendix-d2-asymmetric"]["ab"]
    report = receiver_reachability_check(
        scenario, [(0.6, 0.8), (SQ2, SQ2), (0.0, 1.0)], pvm_samples=40, seed=11
    )
    assert report.max_off_support <= 1e-10


def test_main_ba_receiver_confined(model, catalog):
    report = receiver_reachability_check(
        catalog["main-text"]["ba"], [(0.6, 0.8), (1.0, 0.0)], pvm_samples=40, seed=3
    )
    assert report.max_off_support <= 1e-10
    assert report.conditionals > 0


def test_main_ba_cannot_beat_diagonal_oracle(model, catalog):
    scenario = catalog["main-text"]["ba"]
    message = MessageQubit(SQ2, SQ2 * np.exp(0.37j))
    split = SplitState(scenario, message)
    target = message.target_vector(split.receiver_basis, scenario.encoding)
    bound = diagonal_mixture_fidelity_bound(target, split.receiver_basis, scenario.reachable)
    assert bound == pytest.approx(0.5, abs=1e-6)
    excess = oracle_excess(scenario, [message])
    assert excess <= 1e-10
    seed, samples = 1000, 25
    unitaries = _reference_unitaries(split.coefficients[None], split.measured_basis,
                                     sample_rng(seed), samples)
    for unitary in unitaries:
        # one rank-1 projector per column of each sector's completed unitary
        avg = _pvm_average_fidelity(split, [np.outer(u.conj(), u) for u in unitary.T], target)
        assert avg <= bound + 1e-10
        assert abs(avg - bound - excess) <= 1e-12

    skewed = MessageQubit(0.6, 0.8)
    target = skewed.target_vector(split.receiver_basis, scenario.encoding)
    i_tau_e = split.receiver_basis.index_of_label("tau,e;tau")
    bound = diagonal_mixture_fidelity_bound(target, split.receiver_basis, scenario.reachable)
    assert bound == abs(target[i_tau_e]) ** 2


def _pvm_average_fidelity(split, projectors, target):
    """The uncorrected average fidelity of the measurement `projectors`, outcome by
    outcome: sum_k p_k <t|mask(rho_k)|t> over the outcomes with p_k > PROB_TOL."""
    avg = 0.0
    for proj in projectors:
        D = split.coefficients @ BlockOperator.from_full(proj, split.measured_basis).to_full().T
        p = float(np.sum(np.abs(D) ** 2))
        if p > PROB_TOL:
            rho = np.where(split.receiver_mask, D @ D.conj().T / p, 0.0)
            avg += p * float(np.real(target.conj() @ rho @ target))
    return avg


def test_sector_haar_rows_are_orthonormal(model, basis4):
    # per (d, r): the top r rows of a d x d unitary, down to r = 1 and up to the whole unitary
    dims = [basis4.sector_dim(g) for g in model.charges if basis4.sector_dim(g)]
    rng = np.random.default_rng(7)
    for d, r in [(d, r) for d in dims for r in (1, 2, d)]:
        stack = teleport._haar_rows(rng.standard_normal((1, 2 * d * r)), d, r)
        assert stack.shape == (1, r, d)
        np.testing.assert_allclose(stack[0] @ stack[0].conj().T, np.eye(r), atol=1e-12)


def _reference_unitaries(coefficients, measured_basis, rng, samples):
    """The block diagonal U-bar of every sample, drawn sample by sample from
    the one stream `rng`: per sector, the reference top rows completed with
    the row space B of the coefficients' block (any unitary where the block
    is zero)."""
    slices = [measured_basis.sector_slice(g) for g in measured_basis.model.charges
              if measured_basis.sector_dim(g)]
    bases = [row_space(coefficients[..., sl]) for sl in slices]
    shapes = [basis.shape for basis in bases if basis.shape[1]]
    unitaries = []
    for _ in range(samples):
        rows = iter(haar_rows(shapes, rng))
        unitary = np.zeros((measured_basis.dim, measured_basis.dim), dtype=complex)
        for sl, basis in zip(slices, bases):
            unitary[sl, sl] = complete_unitary(basis, next(rows) if basis.shape[1] else None)
        unitaries.append(unitary)
    return unitaries


def test_reachability_matches_per_outcome_loop(catalog):
    # with only |e,e;e> reachable, the tau-sector receiver states leak
    scenario = dataclasses.replace(catalog["main-text"]["ba"], reachable=("e,e;e",))
    messages = [MessageQubit(0.6, 0.8), MessageQubit(SQ2, 1j * SQ2)]
    seed = 9
    splits = [SplitState(scenario, m) for m in messages]
    coefficients = np.stack([split.coefficients for split in splits])
    recv_basis, meas_basis = splits[0].receiver_basis, splits[0].measured_basis
    off_mask = np.ones((recv_basis.dim, recv_basis.dim), dtype=bool)
    i_ee = recv_basis.index_of_label("e,e;e")
    off_mask[i_ee, i_ee] = False
    # sample counts on both sides of the two-message chunk boundary
    chunk = MESSAGE_SAMPLES // len(messages)
    for samples in (chunk - 1, chunk + 1, 30):
        report = receiver_reachability_check(scenario, messages, pvm_samples=samples, seed=seed)
        worst, conditionals = 0.0, 0
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        for U in _reference_unitaries(coefficients, meas_basis, rng, samples):
            for split in splits:
                W = split.coefficients @ U
                probs = np.sum(np.abs(W) ** 2, axis=0)
                for k in np.nonzero(probs > PROB_TOL)[0]:
                    rho = np.outer(W[:, k], W[:, k].conj()) / probs[k]
                    rho = np.where(split.receiver_mask, rho, 0.0)
                    worst = max(worst, float(np.max(np.abs(rho[off_mask]))))
                    conditionals += 1
        assert report.conditionals == conditionals
        assert worst > 0.1
        assert abs(report.max_off_support - worst) <= 1e-15


def test_sampled_outcomes_equal_the_completed_unitary(catalog):
    # W = (C B) Y is C U-bar for the completed unitary, outcome by outcome; one
    # message's main-text A->B tau block has rank 2, so there W's columns follow the draw
    for name, direction in (("main-text", "ba"), ("main-text", "ab"),
                            ("appendix-d2-asymmetric", "ab")):
        seed, samples = 3, MESSAGE_SAMPLES // 2 + 3  # two chunks of the two messages
        splits, chunks = sampled_sweep(catalog[name][direction],
                                       [MessageQubit(0.6, 0.8), MessageQubit(SQ2, 1j * SQ2)],
                                       samples, sample_rng(seed))
        chunks = [list(chunk) for chunk in chunks]
        coefficients = np.stack([split.coefficients for split in splits])
        reached = [sl for sl in splits[0].measured_slices if np.any(coefficients[..., sl])]
        assert [len(chunk) for chunk in chunks] == [len(reached)] * 2
        unitaries = _reference_unitaries(coefficients, splits[0].measured_basis,
                                         sample_rng(seed), samples)
        expected = np.stack([coefficients @ unitary for unitary in unitaries], axis=1)
        for k, sl in enumerate(reached):
            W, moduli, probs = (np.concatenate([chunk[k][i] for chunk in chunks], axis=1)
                                for i in range(3))
            assert np.max(np.abs(W - expected[..., sl])) <= 1e-14
            assert np.array_equal(moduli, np.abs(W))
            assert np.array_equal(probs, np.sum(np.abs(W) ** 2, axis=-2))


def test_stacked_draw_equals_per_sample_columns(basis2, basis4, catalog, monkeypatch):
    measured = [SplitState(catalog[name][direction], MessageQubit(0.6, 0.8)).measured_basis
                for name, direction in (("main-text", "ba"), ("appendix-d2-asymmetric", "ab"))]
    seed = 5
    for basis in (basis2, basis4, *measured):
        dims = [basis.sector_dim(g) for g in basis.model.charges if basis.sector_dim(g)]
        shapes = [(d, r) for d in dims for r in sorted({1, min(2, d), d})]
        width = sum(2 * d * r for d, r in shapes)
        for samples in (1, 7, 8, 9, 26):
            # one stacked draw, one row per sample, against sample-by-sample draws of one stream
            draws = sample_rng(seed).standard_normal((samples, width))
            direct = sample_rng(seed)
            for s in range(samples):
                rows, offset = haar_rows(shapes, direct), 0
                for (d, r), one in zip(shapes, rows):
                    stacked = teleport._haar_rows(draws[:, offset:offset + 2 * d * r], d, r)
                    assert np.array_equal(stacked[s], one)
                    offset += 2 * d * r

    # a sweep's sample s is the same whatever the chunking and however many are drawn
    def drawn(scenario, messages, samples):
        """The chunk sizes and, per reached sector, W, |W| and the probabilities
        of every sample."""
        _, chunks = sampled_sweep(scenario, messages, samples, sample_rng(seed))
        chunks = [list(chunk) for chunk in chunks]
        for chunk in chunks:
            for W, moduli, probs in chunk:
                assert np.array_equal(moduli, np.abs(W))
                assert np.array_equal(probs, np.sum(moduli ** 2, axis=-2))
        sizes = [chunk[0][2].shape[1] for chunk in chunks]
        return sizes, [[np.concatenate(parts, axis=1) for parts in zip(*sector)]
                       for sector in zip(*chunks)]

    def same_samples(sector_lists, whole, samples):
        assert len(sector_lists) == len(whole)
        for sector, sector_whole in zip(sector_lists, whole):
            assert all(np.array_equal(part, part_whole[:, :samples])
                       for part, part_whole in zip(sector, sector_whole))

    message_sets = [[MessageQubit(0.6, 0.8)], [MessageQubit(0.6, 0.8), MessageQubit(SQ2, 1j * SQ2)],
                    _verify_messages(4), _verify_messages(10)]
    for name, direction in (("main-text", "ba"), ("main-text", "ab"),
                            ("appendix-d2-asymmetric", "ab")):
        scenario = catalog[name][direction]
        for messages in message_sets:
            chunk = MESSAGE_SAMPLES // len(messages)  # 80, 40, 20 and 8 samples
            counts = (1, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk + 1)
            with monkeypatch.context() as patch:
                patch.setattr(teleport, "MESSAGE_SAMPLES", 10 ** 6)
                sizes, whole = drawn(scenario, messages, counts[-1])  # one draw
                assert sizes == [counts[-1]]
                patch.setattr(teleport, "MESSAGE_SAMPLES", 1)
                sizes, one_by_one = drawn(scenario, messages, counts[-1])  # one row a draw
                assert sizes == [1] * counts[-1]
            same_samples(one_by_one, whole, counts[-1])
            for samples in counts:
                sizes, chunked = drawn(scenario, messages, samples)
                full, rest = divmod(samples, chunk)
                assert sizes == [chunk] * full + [rest] * bool(rest)
                same_samples(chunked, whole, samples)


def _verify_messages(count):
    """The balanced messages of the teleportation suite's sweep and oracle."""
    return [MessageQubit(SQ2, np.exp(1j * th) * SQ2)
            for th in np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)]


def _reference_average_fidelity(split, unitary, target):
    W = split.coefficients @ unitary
    probs = np.sum(np.abs(W) ** 2, axis=0)
    kept = W[:, probs > PROB_TOL]
    rho = np.where(split.receiver_mask, kept @ kept.conj().T, 0.0)
    return float(np.real(target.conj() @ rho @ target))


@pytest.mark.parametrize("samples, message_count", [(25, 4), (100, 10)])
def test_oracle_excess_matches_per_sample_loop(catalog, samples, message_count):
    # the quick and full message counts of the teleportation suite: the closed
    # form equals every sampled rank-1 measurement's fidelity minus the bound
    for name, direction in (("main-text", "ba"), ("appendix-d2-asymmetric", "ab")):
        scenario = catalog[name][direction]
        messages = _verify_messages(message_count)
        splits = [SplitState(scenario, message) for message in messages]
        excesses = [oracle_excess(scenario, [message]) for message in messages]
        assert oracle_excess(scenario, messages) == max(excesses)
        for seed in (7, 42):
            # one measurement per sample for every message: B spans all of their blocks
            unitaries = _reference_unitaries(np.stack([split.coefficients for split in splits]),
                                             splits[0].measured_basis, sample_rng(seed),
                                             samples)
            for message, split, excess in zip(messages, splits, excesses):
                target = message.target_vector(split.receiver_basis, scenario.encoding)
                bound = diagonal_mixture_fidelity_bound(target, split.receiver_basis,
                                                        scenario.reachable)
                for unitary in unitaries:
                    fidelity = _reference_average_fidelity(split, unitary, target)
                    assert abs(fidelity - bound - excess) <= 1e-12


def test_oracle_excess_is_exact_for_random_messages_and_projectors_of_any_rank(catalog):
    # rank-1 and rank-2 projectors, and one projector per whole sector: no-signalling
    rng = sample_rng(11)
    messages = [MessageQubit(*verify._random_message(rng)) for _ in range(3)]
    for name, direction in (("main-text", "ba"), ("appendix-d2-asymmetric", "ab")):
        scenario = catalog[name][direction]
        for message in messages:
            split = SplitState(scenario, message)
            excess = oracle_excess(scenario, [(message.alpha, message.beta)])
            bound = diagonal_mixture_fidelity_bound(split.target, split.receiver_basis,
                                                    scenario.reachable)
            for unitary in _reference_unitaries(split.coefficients[None], split.measured_basis,
                                                rng, 5):
                for rank in (1, 2, split.measured_basis.dim):
                    projectors = [_sector_projector(unitary, sl, rank, start)
                                  for sl in split.measured_slices
                                  for start in range(sl.start, sl.stop, rank)]
                    assert sum(projectors) == pytest.approx(np.eye(split.measured_basis.dim),
                                                            abs=1e-12)
                    fidelity = _pvm_average_fidelity(split, projectors, split.target)
                    assert abs(fidelity - bound - excess) <= 1e-12


def _sector_projector(unitary, sector, rank, start):
    """The projector onto columns start .. start + rank of `unitary`, cut at the
    end of `sector`."""
    columns = unitary[:, start:min(start + rank, sector.stop)]
    return columns.conj() @ columns.T


def test_row_space_reproduces_every_sampled_block(catalog):
    # the reduced draw is exact only if C = C B B^dagger in every measured sector
    message_sets = [[MessageQubit(0.6, 0.8)], [MessageQubit(1.0, 0.0)], [MessageQubit(0.0, 1.0)],
                    _verify_messages(4), _verify_messages(10)]
    for directions in catalog.values():
        for scenario in directions.values():
            for messages in message_sets:
                splits = [SplitState(scenario, m) for m in messages]
                coefficients = np.stack([split.coefficients for split in splits])
                for sl in splits[0].measured_slices:
                    block = coefficients[..., sl]
                    basis = row_space(block)
                    if scenario.pvm is None:
                        # C(alpha, beta) = alpha C_0 + beta C_1, with rank-1 C_0 and C_1
                        assert basis.shape[1] <= min(2, len(messages))
                    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]),
                                               atol=1e-13)
                    assert np.max(np.abs(block - block @ basis @ basis.conj().T),
                                  initial=0.0) <= 1e-13


def test_zero_sector_has_no_sampled_outcomes(catalog):
    # main-text A->B leaves the measured e sector empty: r = 0, no draws, no outcomes
    scenario = dataclasses.replace(catalog["main-text"]["ab"], reachable=("e,e;e",))
    split = SplitState(scenario, MessageQubit(0.6, 0.8))
    e_block, tau_block = (split.coefficients[:, sl] for sl in split.measured_slices)
    assert row_space(e_block).shape == (13, 0) and row_space(tau_block).shape == (21, 2)
    report = receiver_reachability_check(scenario, [MessageQubit(0.6, 0.8)], pvm_samples=200,
                                         seed=4)
    assert report.conditionals == 200 * 21


def test_reduced_draw_matches_full_draw_in_distribution(catalog):
    # per sector: E[p_k] = ||C_g||_F^2 / d, E[p_k^2] and E[p_k(m1) p_k(m2)] of
    # the reduced sampler against full d x d sector-Haar unitaries, within 5 sigma
    scenario = catalog["main-text"]["ba"]
    samples = 2000
    splits, chunks = sampled_sweep(scenario, [MessageQubit(0.6, 0.8), MessageQubit(SQ2, 1j * SQ2)],
                                   samples, sample_rng(11))
    chunks = [list(chunk) for chunk in chunks]
    coefficients = np.stack([split.coefficients for split in splits])
    slices = splits[0].measured_slices
    reduced = [np.concatenate([chunk[k][2] for chunk in chunks], axis=1)
               for k in range(len(chunks[0]))]
    rng = np.random.default_rng(12)
    full = np.stack([np.sum(np.abs(coefficients @ sector_haar_unitary(splits[0].measured_basis,
                                                                      rng)) ** 2, axis=-2)
                     for _ in range(samples)], axis=1)
    assert len(reduced) == len(slices)
    for sl, probs in zip(slices, reduced):
        d = sl.stop - sl.start
        weight = np.sum(np.abs(coefficients[..., sl]) ** 2, axis=(-2, -1))
        # each sample's outcomes of a sector sum to the sector's weight
        np.testing.assert_allclose(probs.sum(axis=-1), weight[:, None] * np.ones(samples),
                                   rtol=1e-12)
        stats = []
        for p in (probs, full[..., sl]):
            # per sample: p_0, the mean p_k^2 and the mean p_k(m1) p_k(m2)
            per_sample = np.stack([p[0, :, 0], np.mean(p[0] ** 2, axis=-1),
                                   np.mean(p[0] * p[1], axis=-1)])
            mean = per_sample.mean(axis=1)
            stats.append((mean, per_sample.var(axis=1, ddof=1) / samples))
            assert abs(mean[0] - weight[0] / d) <= 5 * math.sqrt(stats[-1][1][0])
        (mean_r, var_r), (mean_f, var_f) = stats
        assert np.all(np.abs(mean_r - mean_f) <= 5 * np.sqrt(var_r + var_f))


def test_verify_suites_never_reuse_a_stream(monkeypatch):
    # every (seed, key) that seeds a generator in a run of all suites is distinct
    keys = []

    def recording(seed, *key):
        keys.append((seed, key))
        return sample_rng(seed, *key)

    monkeypatch.setattr(teleport, "sample_rng", recording)
    monkeypatch.setattr(verify, "sample_rng", recording)
    results = verify.run_suites(quick=True)
    assert all(result.passed for result in results)
    assert keys and len(set(keys)) == len(keys)


def test_reachability_sweep_memory_stays_bounded(catalog):
    scenario = catalog["main-text"]["ba"]
    messages = [MessageQubit(SQ2, np.exp(1j * th) * SQ2)
                for th in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)]
    receiver_reachability_check(scenario, messages, pvm_samples=1, seed=0)  # cache the layout
    tracemalloc.start()
    try:
        report = receiver_reachability_check(scenario, messages, pvm_samples=1000, seed=42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.conditionals == 340000
    assert peak < 1 << 20


def test_one_message_sweep_memory_stays_bounded(catalog):
    # one message draws the largest chunks: MESSAGE_SAMPLES samples at a time
    scenario = catalog["main-text"]["ba"]
    messages = [MessageQubit(0.6, 0.8)]
    receiver_reachability_check(scenario, messages, pvm_samples=1, seed=0)  # cache the layout
    tracemalloc.start()
    try:
        report = receiver_reachability_check(scenario, messages, pvm_samples=200, seed=42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.conditionals == 200 * 34
    # about 330 KiB; 467 KiB if a sector's arrays outlive their use
    assert peak < 400 << 10


def test_superselection_disabled_enables_reverse_teleport(model):
    scenario = superselection_violating_protocol(model)
    for alpha, beta in MESSAGE_GRID:
        outcome = run_protocol(scenario, MessageQubit(alpha, beta), enforce_superselection=False)
        assert outcome.average_fidelity == pytest.approx(1.0, abs=1e-10)
        for branch in outcome.branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(SuperselectionError):
        run_protocol(scenario, MessageQubit(0.6, 0.8), enforce_superselection=True)


def test_zero_probability_branch_reported_null(model, catalog):
    scenario = catalog["appendix-d2-asymmetric"]["ba"]
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    # a projector orthogonal to the composed state's measured support
    dead = BlockOperator.from_ket_bra(ket(g4, "(tau,tau),(tau,tau);e,e;e"))
    g2 = enumerate_basis(model, grouped_shape(1, 1))
    extended = dataclasses.replace(
        scenario, pvm=scenario.pvm + (dead,),
        corrections=scenario.corrections + (BlockOperator.identity(g2),))
    outcome = run_protocol(extended, MessageQubit(0.6, 0.8))
    assert outcome.branches[-1].probability == pytest.approx(0.0, abs=1e-12)
    assert outcome.branches[-1].receiver_state is None
    assert outcome.branches[-1].fidelity is None


def test_probability_conservation_random_messages(catalog, rng):
    runnable = [catalog["main-text"]["ab"], catalog["appendix-d1-symmetric"]["ba"],
                catalog["appendix-d2-asymmetric"]["ba"]]
    for scenario in runnable:
        for _ in range(10):
            vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vec /= np.linalg.norm(vec)
            outcome = run_protocol(scenario, MessageQubit(vec[0], vec[1]))
            assert outcome.total_probability() == pytest.approx(1.0, abs=1e-10)
            for branch in outcome.branches:
                if branch.fidelity is not None:
                    assert -1e-10 <= branch.fidelity <= 1 + 1e-10


def test_split_engine_matches_embedding_route(catalog):
    msg = MessageQubit(0.6, 0.8)
    for scenario in (catalog["main-text"]["ab"], catalog["appendix-d1-symmetric"]["ab"],
                     catalog["appendix-d2-asymmetric"]["ba"]):
        split_out = run_protocol(scenario, msg)
        embed_out = run_protocol_via_embedding(scenario, msg)
        for lhs, rhs in zip(split_out.branches + [split_out.no_click],
                            embed_out.branches + [embed_out.no_click]):
            assert lhs.probability == pytest.approx(rhs.probability, abs=1e-10)
            if lhs.receiver_state is not None and rhs.receiver_state is not None:
                np.testing.assert_allclose(lhs.receiver_state, rhs.receiver_state, atol=1e-10)


def test_regrouping_route_invariance(model, catalog):
    # reshaping directly or via the flat comb gives the same regrouped state
    scenario, message = catalog["main-text"]["ab"], MessageQubit(0.6, 0.8)
    composed = _reference_join(scenario, message)
    measured_grouping = join_shapes(grouped_shape(2, 2), grouped_shape(1, 1))
    direct = change_shape(model, composed, measured_grouping)
    detour = change_shape(model, change_shape(model, composed, left_comb(6)),
                          measured_grouping)
    np.testing.assert_allclose(direct.amplitudes, detour.amplitudes, atol=1e-12)
    np.testing.assert_allclose(SplitState(scenario, message).state.amplitudes, direct.amplitudes,
                               atol=1e-12)


def test_resource_marginals_match_catalog_claims(model, catalog):
    from fibanyon.states import bipartition, partial_trace, pure_density, spectrum

    part = bipartition(enumerate_basis(model, grouped_shape(2, 2)), 2)
    rho = pure_density(catalog["main-text"]["ab"].resource)
    spec_a = spectrum(partial_trace(rho, part, traced="B"))
    spec_b = spectrum(partial_trace(rho, part, traced="A"))
    np.testing.assert_allclose(spec_a, spec_b, atol=1e-12)  # identical marginal spectra


def test_message_qubit_validation():
    for alpha in (1.0, math.nan, complex(0.6, math.nan)):
        with pytest.raises(ValueError):
            MessageQubit(alpha, 0.8)
    msg = MessageQubit(0.6, 0.8)
    assert msg.alpha == 0.6


def test_scenario_without_pvm_refuses_run(catalog):
    with pytest.raises(ValueError):
        run_protocol(catalog["main-text"]["ba"], MessageQubit(0.6, 0.8))


@pytest.mark.parametrize("sweep", [receiver_reachability_check])
def test_reachability_rejects_empty_sweep(catalog, sweep):
    for samples in (0, -3):
        with pytest.raises(ValueError, match=f"^pvm_samples must be at least 1, got {samples}$"):
            sweep(catalog["main-text"]["ba"], [MessageQubit(0.6, 0.8)], samples, 0)


@pytest.mark.parametrize("sweep", [receiver_reachability_check, oracle_excess])
def test_sweeps_refuse_a_direction_with_a_catalog_pvm(catalog, sweep):
    # main-text ab has a PVM and no reachable set for either sweep to read
    extra = (5, 0) if sweep is receiver_reachability_check else ()
    with pytest.raises(ValueError, match="^scenario main-text/ab declares no reachable set$"):
        sweep(catalog["main-text"]["ab"], [MessageQubit(0.6, 0.8)], *extra)


@pytest.mark.parametrize("sweep", [receiver_reachability_check, oracle_excess])
def test_sweeps_reject_an_empty_message_list(catalog, sweep):
    # the sweep takes a sample count and a seed; the oracle samples nothing
    extra = (5, 0) if sweep is receiver_reachability_check else ()
    with pytest.raises(ValueError, match="^at least one message is required$"):
        sweep(catalog["main-text"]["ba"], [], *extra)


def test_counterfactual_runs_on_the_catalog_main_text_ba(model, catalog):
    scenario = superselection_violating_protocol(model)
    expected = catalog["main-text"]["ba"]
    for name in ("name", "direction", "channel", "encoding", "reachable"):
        assert getattr(scenario, name) == getattr(expected, name)
    assert scenario.resource.amplitudes.tobytes() == expected.resource.amplitudes.tobytes()
    # its own four cross-sector projectors and corrections, and a cache of its own
    assert expected.pvm is None and len(scenario.pvm) == len(scenario.corrections) == 4
    basis4 = enumerate_basis(model, grouped_shape(2, 2))
    report = validate_pvm(scenario.pvm, basis4)
    assert len(report) == 4 and all("cross-sector" in line for line in report)
    run_protocol(scenario, MessageQubit(0.6, 0.8), enforce_superselection=False)
    assert scenario._measurements is not expected._measurements
    assert list(scenario._measurements) == [False] and not expected._measurements


# --- the cached layout and measurement against a per-call reference


def _reference_join(scenario, message):
    """The message joined to the scenario's resource tree by tree, in its channel."""
    model = scenario.model
    g2 = enumerate_basis(model, grouped_shape(1, 1))
    msg = AnyonState(g2, message.target_vector(g2, MESSAGE_KETS))
    left, right = ((msg, scenario.resource) if scenario.direction == "ab"
                   else (scenario.resource, msg))
    shape = join_shapes(left.basis.shape, right.basis.shape)
    basis = enumerate_basis(model, shape)
    left_trees = reference(model, left.basis.shape).trees
    right_trees = reference(model, right.basis.shape).trees
    index = reference(model, shape).index
    amplitudes = np.zeros(basis.dim, dtype=complex)
    for i in np.nonzero(left.amplitudes)[0]:
        leaves_i, ints_i = left_trees[i]
        for j in np.nonzero(right.amplitudes)[0]:
            leaves_j, ints_j = right_trees[j]
            joined = (leaves_i + leaves_j, (scenario.channel,) + ints_i + ints_j)
            amplitudes[index[joined]] = left.amplitudes[i] * right.amplitudes[j]
    return AnyonState(basis, amplitudes)


def _reference_protocol(scenario, message, decohere=True):
    """One protocol run the long way, with every table rebuilt from the trees.

    Joins the message to the resource tree by tree, scatters the regrouped
    amplitudes index by index, and runs one branch per projector of the
    scenario's PVM; `decohere` keeps only the receiver's equal-charge matrix
    elements.
    """
    model = scenario.model
    if scenario.direction == "ab":
        measured_shape = join_shapes(grouped_shape(2, 2), grouped_shape(1, 1))
        part = bipartition(enumerate_basis(model, measured_shape), 4)
        recv_basis, meas_basis = part.b_basis, part.a_basis
        recv_idx, meas_idx = part.b_index, part.a_index
    else:
        measured_shape = join_shapes(grouped_shape(1, 1), grouped_shape(2, 2))
        part = bipartition(enumerate_basis(model, measured_shape), 2)
        recv_basis, meas_basis = part.a_basis, part.b_basis
        recv_idx, meas_idx = part.a_index, part.b_index
    regrouped = change_shape(model, _reference_join(scenario, message), measured_shape)
    C = np.zeros((recv_basis.dim, meas_basis.dim), dtype=complex)
    for i in np.nonzero(regrouped.amplitudes)[0]:
        C[recv_idx[i], meas_idx[i]] = regrouped.amplitudes[i]
    roots = [global_charge(t) for t in reference(model, recv_basis.shape).trees]
    mask = np.equal.outer(np.array(roots), np.array(roots))
    target = message.target_vector(recv_basis, scenario.encoding)

    def branch(projector):
        D = C @ projector.T
        p = float(np.sum(np.abs(D) ** 2))
        if p <= PROB_TOL:
            return max(p, 0.0), None
        rho = D @ D.conj().T / p
        return p, np.where(mask, rho, 0.0) if decohere else rho

    def fidelity(rho):
        return None if rho is None else float(np.real(target.conj() @ rho @ target))

    def full(op):
        return op.to_full() if isinstance(op, BlockOperator) else np.asarray(op, dtype=complex)

    mats = [full(op) for op in scenario.pvm]
    corrections = scenario.corrections
    branches = []
    for k, proj in enumerate(mats):
        p, rho = branch(proj)
        if rho is not None and corrections is not None:
            U = full(corrections[k])
            rho = U @ rho @ U.conj().T
        branches.append((p, rho, fidelity(rho)))
    p, rho = branch(np.eye(meas_basis.dim, dtype=complex) - sum(mats))
    no_click = (p, rho, fidelity(rho))
    avg = sum(p * f for p, _, f in branches if f is not None)
    if no_click[2] is not None:
        avg += no_click[0] * no_click[2]
    return branches, no_click, float(avg)


def _assert_matches_reference(scenario, message, enforce_superselection=True):
    outcome = run_protocol(scenario, message, enforce_superselection=enforce_superselection)
    branches, no_click, avg = _reference_protocol(scenario, message,
                                                  decohere=enforce_superselection)
    assert outcome.average_fidelity == avg
    for got, (p, rho, fid) in zip(outcome.branches + [outcome.no_click], branches + [no_click]):
        assert got.probability == p
        assert got.fidelity == fid
        assert (got.receiver_state is None) == (rho is None)
        if rho is not None:
            assert np.array_equal(got.receiver_state, rho)


def _catalog_runs(catalog):
    return [s for directions in catalog.values() for s in directions.values() if s.pvm is not None]


def test_run_protocol_equals_reference_on_grid(catalog):
    scenarios = _catalog_runs(catalog)
    assert len(scenarios) == 4
    for scenario in scenarios:
        for alpha, beta in MESSAGE_GRID:
            _assert_matches_reference(scenario, MessageQubit(alpha, beta))


def test_run_protocol_equals_reference_on_random_messages(catalog):
    rng = np.random.default_rng(2024)
    for _ in range(20):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec /= np.linalg.norm(vec)
        for scenario in _catalog_runs(catalog):
            _assert_matches_reference(scenario, MessageQubit(vec[0], vec[1]))


def test_run_protocol_equals_reference_on_d1_family(model, catalog):
    rng = np.random.default_rng(77)
    resources = []
    for _ in range(3):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec /= np.linalg.norm(vec)
        resources.append(d1_family_resource(model, vec[0], vec[1]))
    # one coefficient exactly 0: a support smaller than the catalog resource's
    resources.append(d1_family_resource(model, 0.0, 1.0))
    assert np.count_nonzero(resources[-1].amplitudes) == 1
    for resource in resources:
        for direction in ("ab", "ba"):
            scenario = catalog["appendix-d1-symmetric"][direction].with_resource(resource)
            for alpha, beta in MESSAGE_GRID:
                _assert_matches_reference(scenario, MessageQubit(alpha, beta))


def test_run_protocol_equals_reference_with_explicit_measurements(model, catalog):
    scenario = superselection_violating_protocol(model)
    for alpha, beta in MESSAGE_GRID:
        _assert_matches_reference(scenario, MessageQubit(alpha, beta),
                                  enforce_superselection=False)
    # a replaced PVM is built afresh, not read from the catalog scenario's cache
    for scenario in _catalog_runs(catalog):
        copy = dataclasses.replace(scenario, pvm=tuple(scenario.pvm))
        for alpha, beta in MESSAGE_GRID:
            _assert_matches_reference(copy, MessageQubit(alpha, beta))


def test_dense_measurements_check_memory_first(catalog, monkeypatch):
    # twelve 34 x 34 projectors: past the 256 KiB every machine has, over half of 512 KiB
    scenario = catalog["main-text"]["ab"]
    split = SplitState(scenario, MessageQubit(0.6, 0.8))
    m, r = split.measured_basis.dim, split.receiver_basis.dim
    pvm = [np.zeros((m, m))] * 12
    identities = [np.eye(r)] * 12
    available = f"{2**19 / 2**30:.3g} GiB available"
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**19)
    with pytest.raises(MemoryBudgetError, match=(
            f"^validating 12 projectors on a 34-dim basis needs ~{16 * 16 * m * m / 2**30:.3g}"
            f" GiB, {available}")):
        validate_pvm(pvm, split.measured_basis)
    dense = dataclasses.replace(scenario, pvm=tuple(pvm), corrections=tuple(identities))
    with pytest.raises(MemoryBudgetError, match=(
            f"^the stack of 13 34 x 34 projectors needs ~{32 * 13 * m * m / 2**30:.3g}"
            f" GiB, {available}")):
        run_protocol(dense, MessageQubit(0.6, 0.8), enforce_superselection=False)
    monkeypatch.setattr(errors, "_available_bytes", lambda: None)  # no meminfo: no guard
    assert validate_pvm(pvm, split.measured_basis) == []
    outcome = run_protocol(dense, MessageQubit(0.6, 0.8))
    assert outcome.probabilities() == [0.0] * 12
    assert outcome.no_click.probability == pytest.approx(1.0, abs=1e-12)


def _count_validations(monkeypatch):
    calls = []
    original = teleport.validate_pvm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(teleport, "validate_pvm", counting)
    return calls


def test_catalog_pvm_validated_once_per_scenario(model, monkeypatch):
    scenario = builtin_scenarios(model)["main-text"]["ab"]
    calls = _count_validations(monkeypatch)
    for alpha, beta in MESSAGE_GRID * 2:
        run_protocol(scenario, MessageQubit(alpha, beta))
    assert len(calls) == 1
    # a run without enforcement builds its own measurement and validates nothing
    unenforced = builtin_scenarios(model)["main-text"]["ab"]
    for alpha, beta in MESSAGE_GRID:
        run_protocol(unenforced, MessageQubit(alpha, beta), enforce_superselection=False)
    assert len(calls) == 1 and list(unenforced._measurements) == [False]


def test_with_resource_copies_share_layout(model, catalog):
    base = catalog["appendix-d1-symmetric"]["ab"]
    first = base.with_resource(d1_family_resource(model, 0.6, 0.8))
    second = base.with_resource(d1_family_resource(model, 0.8, -0.6j))
    SplitState(first, MessageQubit(0.6, 0.8))
    hits = teleport._cached_layout.cache_info().hits
    SplitState(second, MessageQubit(0.6, 0.8))
    assert teleport._cached_layout.cache_info().hits == hits + 1


def test_encodings_share_one_layout(catalog):
    base = catalog["main-text"]["ab"]
    other = dataclasses.replace(base, encoding=("e,e;e", "tau,tau;e"))
    message = MessageQubit(0.6, 0.8j)
    split = SplitState(base, message)
    hits = teleport._cached_layout.cache_info().hits
    other_split = SplitState(other, message)
    assert teleport._cached_layout.cache_info().hits == hits + 1
    assert np.array_equal(other_split.coefficients, split.coefficients)
    for scenario, target in ((base, split.target), (other, other_split.target)):
        basis = split.receiver_basis
        expected = np.zeros(basis.dim, dtype=complex)
        expected[basis.index_of_label(scenario.encoding[0])] = 0.6
        expected[basis.index_of_label(scenario.encoding[1])] = 0.8j
        assert np.array_equal(target, expected)
    assert not np.array_equal(split.target, other_split.target)


def test_non_unitary_correction_on_dead_branch_raises(model, catalog):
    scenario = catalog["appendix-d2-asymmetric"]["ba"]
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    g2 = enumerate_basis(model, grouped_shape(1, 1))
    dead = BlockOperator.from_ket_bra(ket(g4, "(tau,tau),(tau,tau);e,e;e"))
    extended = dataclasses.replace(
        scenario, pvm=scenario.pvm + (dead,),
        corrections=scenario.corrections + (BlockOperator.identity(g2) * 2.0,))
    with pytest.raises(ValueError, match="not unitary"):
        run_protocol(extended, MessageQubit(0.6, 0.8))


# --- the cached message -> C plan against the join -> regroup -> gather route


def _seeded_messages(seed, count):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return [MessageQubit(a, b) for a, b in vecs]


def _plan_scenarios(model, catalog):
    """Every catalog direction, d1 resource copies (one with a smaller
    support), the main-text A->B scenario in the tau channel, and seeded
    resources on a whole 4-anyon sector in the tau channel, where several
    terms add up to one C entry."""
    scenarios = _catalog_scenarios(catalog)
    for a, b in ((0.6, 0.8), (0.8, -0.6j), (0.0, 1.0)):
        resource = d1_family_resource(model, a, b)
        scenarios += [catalog["appendix-d1-symmetric"][d].with_resource(resource)
                      for d in ("ab", "ba")]
    scenarios.append(dataclasses.replace(catalog["main-text"]["ab"], channel="tau"))
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    rng = np.random.default_rng(31)
    for sector in ("e", "tau"):
        sl = g4.sector_slice(sector)
        amplitudes = np.zeros(g4.dim, dtype=complex)
        amplitudes[sl] = rng.standard_normal(sl.stop - sl.start) + 1j * rng.standard_normal(
            sl.stop - sl.start)
        resource = AnyonState(g4, amplitudes).normalized()
        scenarios += [dataclasses.replace(catalog["main-text"][d], channel="tau",
                                          resource=resource) for d in ("ab", "ba")]
    return scenarios


def test_plan_equals_regrouped_state_read_through_the_gather(model, catalog):
    messages = [MessageQubit(a, b) for a, b in MESSAGE_GRID] + _seeded_messages(19, 200)
    for scenario in _plan_scenarios(model, catalog):
        gather = scenario._layout().gather
        for message in messages:
            split = SplitState(scenario, message)
            expected = np.append(split.state.amplitudes, 0.0)[gather]
            assert np.array_equal(split.coefficients, expected)


def test_resources_with_one_support_share_a_plan(model, catalog):
    base = catalog["appendix-d1-symmetric"]["ab"]
    message = MessageQubit(0.6, 0.8)
    teleport._cached_plan.cache_clear()
    for a, b in ((0.6, 0.8), (0.8, -0.6j), (1.0, 1.0), (-0.28, 0.96)):
        SplitState(base.with_resource(d1_family_resource(model, a, b)), message)
    info = teleport._cached_plan.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    # one amplitude exactly 0: another support, another plan
    for a, b in ((0.0, 1.0), (0.0, -1.0j)):
        SplitState(base.with_resource(d1_family_resource(model, a, b)), message)
    info = teleport._cached_plan.cache_info()
    assert (info.hits, info.misses) == (4, 2)


def test_resource_cannot_move_off_the_scenario_support(model, catalog):
    # the plan is keyed on the support found when the scenario was built;
    # weight moved in place off that support used to give total probability 0
    base = catalog["main-text"]["ab"]
    amplitudes = base.resource.amplitudes.copy()
    scenario = base.with_resource(AnyonState(base.resource.basis, amplitudes))
    outside = next(i for i in range(len(amplitudes)) if i not in scenario._support
                   and base.resource.basis.sector_of(i) == base.resource.sector)
    amplitudes[outside], amplitudes[scenario._support[0]] = amplitudes[scenario._support[0]], 0.0
    with pytest.raises(ValueError, match="read-only"):
        scenario.resource.amplitudes[outside] = 1.0
    outcome = run_protocol(scenario, MessageQubit(0.6, 0.8))
    assert outcome.total_probability() == pytest.approx(1.0)
    assert outcome.average_fidelity == pytest.approx(1.0)


def test_scenario_support_follows_its_resource(model, catalog):
    # the plan's key is found once per scenario, and again for every new resource
    base = catalog["appendix-d1-symmetric"]["ab"]
    copies = [base, base.with_resource(d1_family_resource(model, 0.0, 1.0)),
              dataclasses.replace(base, resource=d1_family_resource(model, 1.0, 0.0)),
              superselection_violating_protocol(model), *_catalog_scenarios(catalog)]
    for scenario in copies:
        assert scenario._support == tuple(np.flatnonzero(scenario.resource.amplitudes).tolist())
    assert copies[1]._support != base._support != copies[2]._support
    assert copies[1] == dataclasses.replace(copies[1])  # not compared


def test_warm_round_never_applies_the_regrouping_map(catalog, monkeypatch):
    from fibanyon.recouple import BasisChange

    scenarios = _catalog_runs(catalog)
    for scenario in scenarios:
        run_protocol(scenario, MessageQubit(1.0, 0.0))

    def refuse(self, vec):
        raise AssertionError("BasisChange.apply called in a warm round")

    monkeypatch.setattr(BasisChange, "apply", refuse)
    for scenario in scenarios:
        for alpha, beta in MESSAGE_GRID:
            run_protocol(scenario, MessageQubit(alpha, beta))
    with pytest.raises(AssertionError, match="BasisChange.apply"):
        _ = SplitState(scenarios[0], MessageQubit(0.6, 0.8)).state  # the reference route


# --- corrections: a gather and a phase, or the dense stacks


def _dense_corrected(corrections, rho):
    out = rho.copy()
    for k, op in enumerate(corrections):
        U = op.to_full() if isinstance(op, BlockOperator) else np.asarray(op, dtype=complex)
        out[k] = U @ rho[k] @ U.conj().T
    return out


def test_phased_permutation_corrections_take_the_gather(model, catalog):
    counterfactual = superselection_violating_protocol(model)
    cases = [(scenario, True) for scenario in _catalog_runs(catalog)]
    cases.append((counterfactual, False))
    rng = np.random.default_rng(23)
    for scenario, enforce in cases:
        measurement = scenario._measurement(enforce)
        assert measurement.gather is not None and measurement.dense is None
        n, r = len(scenario.corrections) + 1, scenario._layout().receiver_basis.dim
        for _ in range(50):
            rho = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
            expected = _dense_corrected(scenario.corrections, rho)
            got = rho.copy()
            measurement.correct(got)
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("gate", [
    np.array([[1.0, 1.0], [1.0, -1.0]]) * SQ2,       # Hadamard: two nonzeros a row
    np.diag([1.0, np.exp(0.25j * math.pi)]),          # T: a phase that is not a unit
])
def test_other_block_diagonal_corrections_take_the_dense_path(model, catalog, gate):
    g2 = enumerate_basis(model, grouped_shape(1, 1))
    for scenario in _catalog_runs(catalog):
        pair = [g2.index_of_label(lbl) for lbl in scenario.encoding]
        unitary = np.eye(g2.dim, dtype=complex)
        unitary[np.ix_(pair, pair)] = gate
        corrections = (BlockOperator.from_full(unitary, g2),) + scenario.corrections[1:]
        copy = dataclasses.replace(scenario, corrections=corrections)
        measurement = copy._measurement(True)
        assert measurement.gather is None and measurement.dense is not None
        for alpha, beta in MESSAGE_GRID:
            message = MessageQubit(alpha, beta)
            split_out = run_protocol(copy, message)
            embed_out = run_protocol_via_embedding(copy, message)
            for lhs, rhs in zip(split_out.branches + [split_out.no_click],
                                embed_out.branches + [embed_out.no_click]):
                assert lhs.probability == pytest.approx(rhs.probability, abs=1e-10)
                if lhs.receiver_state is not None and rhs.receiver_state is not None:
                    np.testing.assert_allclose(lhs.receiver_state, rhs.receiver_state,
                                               atol=1e-10)
            assert split_out.average_fidelity == pytest.approx(embed_out.average_fidelity,
                                                               abs=1e-10)
