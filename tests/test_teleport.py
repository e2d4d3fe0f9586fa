import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fibanyon import teleport
from fibanyon.errors import FusionError, SuperselectionError
from fibanyon.recouple import change_shape
from fibanyon.states import AnyonState, BlockOperator, bipartition, ket, superpose
from fibanyon.teleport import (
    MESSAGE_GRID,
    MessageQubit,
    SplitState,
    builtin_scenarios,
    compose,
    d1_family_resource,
    PROB_TOL,
    SAMPLE_CHUNK,
    diagonal_mixture_fidelity_bound,
    random_sector_pvm,
    receiver_reachability_check,
    run_protocol,
    run_protocol_via_embedding,
    sample_rng,
    sector_haar_blocks,
    sector_haar_chunks,
    sector_haar_columns,
    superselection_violating_protocol,
    validate_pvm,
)
from fibanyon.trees import FusionTree, enumerate_basis, grouped_shape, join_shapes, left_comb
from fibanyon.verify import oracle_excess

SQ2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def catalog(model):
    return builtin_scenarios(model)


# --- composition


def test_compose_main_text_four_terms(model, catalog):
    message = MessageQubit(0.6, 0.8).as_state(model)
    resource = catalog["main-text"]["ab"].resource
    composed = compose(model, message, resource, side="A", channel="e")
    a, b = 0.6 * SQ2, 0.8 * SQ2
    expected = {
        "(tau,e),((e,e),(e,tau));tau,tau,e,tau;e": a,
        "(tau,e),((tau,e),(tau,e));tau,tau,tau,tau;e": a,
        "(e,tau),((e,e),(e,tau));tau,tau,e,tau;e": b,
        "(e,tau),((tau,e),(tau,e));tau,tau,tau,tau;e": b,
    }
    nonzero = {
        composed.basis.tree_at(i).label(): composed.amplitudes[i]
        for i in np.nonzero(composed.amplitudes)[0]
    }
    assert set(nonzero) == set(expected)
    for label, amp in expected.items():
        assert nonzero[label] == pytest.approx(amp)


def test_compose_resource_first_grouping(model, catalog):
    message = MessageQubit(0.6, 0.8).as_state(model)
    resource = catalog["main-text"]["ba"].resource
    composed = compose(model, message, resource, side="B", channel="e")
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


def test_trivial_fmoves_preserve_main_text_amplitudes(model, catalog):
    # global charge e makes every re-association coefficient 1, so the
    # regrouped state carries the same four coefficients unchanged.
    message = MessageQubit(0.6, 0.8).as_state(model)
    composed = compose(model, message, catalog["main-text"]["ab"].resource, "A", "e")
    measured_grouping = join_shapes(grouped_shape(2, 2), grouped_shape(1, 1))
    regrouped = change_shape(model, composed, measured_grouping)
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


def test_compose_channel_admissibility(model, catalog):
    message = MessageQubit(1.0, 0.0).as_state(model)
    resource_tau = catalog["main-text"]["ab"].resource
    # tau x tau contains tau, so the tau channel is allowed too
    composed = compose(model, message, resource_tau, "A", "tau")
    assert composed.sector == "tau"
    resource_e = catalog["appendix-d1-symmetric"]["ab"].resource
    with pytest.raises(FusionError):
        compose(model, message, resource_e, "A", "e")  # tau x e has no e channel


# --- PVM validation


def test_catalog_pvms_validate(model, catalog):
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    for name, directions in catalog.items():
        for scenario in directions.values():
            if scenario.pvm is None:
                continue
            assert validate_pvm(scenario.pvm, g4, 1e-10) == []


def test_cross_sector_projector_rejected(model, basis4):
    lam_plus, _ = superpose([
        (SQ2, ket(basis4, "(tau,e),(e,e);tau,e;tau")),
        (SQ2, ket(basis4, "(e,tau),(tau,e);tau,tau;tau")),
    ])
    vec = lam_plus.amplitudes * SQ2
    vec[basis4.index_of_label("(e,tau),(e,tau);tau,tau;e")] = SQ2
    bad = np.outer(vec, vec.conj())
    report = validate_pvm([bad], basis4, 1e-10)
    assert any("cross-sector" in line for line in report)


def test_d2_pvm_sum_below_identity(model, catalog, basis4):
    pvm = catalog["appendix-d2-asymmetric"]["ba"].pvm
    assert validate_pvm(pvm, basis4, 1e-10) == []
    total = sum(op.to_full() for op in pvm)
    eigvals = np.linalg.eigvalsh(total)
    assert eigvals.min() >= -1e-12
    assert eigvals.max() <= 1 + 1e-12
    assert np.trace(total).real == pytest.approx(4.0)  # rank-4 < dim 34


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
    for s in range(25):
        rng = np.random.default_rng(1000 + s)
        pvm = random_sector_pvm(split.measured_basis, rng)
        avg = 0.0
        for proj in pvm:
            p, rho = split.branch(proj, decohere=True)
            if rho is not None:
                avg += p * float(np.real(target.conj() @ rho @ target))
        assert avg <= bound + 1e-10
        blocks = sector_haar_blocks(split.measured_basis, [np.random.default_rng(1000 + s)])
        assert abs(split.average_fidelity(blocks, target)[0] - avg) <= 1e-14

    skewed = MessageQubit(0.6, 0.8)
    target = skewed.target_vector(split.receiver_basis, scenario.encoding)
    i_tau_e = split.receiver_basis.index_of_label("tau,e;tau")
    bound = diagonal_mixture_fidelity_bound(target, split.receiver_basis, scenario.reachable)
    assert bound == abs(target[i_tau_e]) ** 2


def _old_sector_pvm(basis, rng):
    """Reference: one outer product per column of the per-sector reference draw."""
    return [np.outer(col, col.conj()) for col in _reference_columns(basis, rng).T]


def test_sector_haar_columns_unitary_and_block_diagonal(model, basis4):
    columns = sector_haar_columns(basis4, np.random.default_rng(7))
    np.testing.assert_allclose(columns.conj().T @ columns, np.eye(basis4.dim), atol=1e-12)
    off_block = columns.copy()
    for g in model.charges:
        sl = basis4.sector_slice(g)
        off_block[sl, sl] = 0.0
    assert not np.any(off_block)


def test_random_sector_pvm_matches_per_sector_loop(basis2, basis4):
    for basis in (basis2, basis4):
        new = random_sector_pvm(basis, np.random.default_rng(17))
        old = _old_sector_pvm(basis, np.random.default_rng(17))
        assert len(new) == len(old) == basis.dim
        for lhs, rhs in zip(new, old):
            assert np.array_equal(lhs, rhs)


def test_reachability_matches_per_outcome_loop(catalog):
    # with only |e,e;e> reachable, the tau-sector receiver states leak
    scenario = dataclasses.replace(catalog["main-text"]["ba"], reachable=("e,e;e",))
    messages = [MessageQubit(0.6, 0.8), MessageQubit(SQ2, 1j * SQ2)]
    seed = 9
    splits = [SplitState(scenario, m) for m in messages]
    recv_basis, meas_basis = splits[0].receiver_basis, splits[0].measured_basis
    off_mask = np.ones((recv_basis.dim, recv_basis.dim), dtype=bool)
    i_ee = recv_basis.index_of_label("e,e;e")
    off_mask[i_ee, i_ee] = False
    # sample counts on both sides of chunk boundaries
    for samples in (SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 1, 30):
        report = receiver_reachability_check(scenario, messages, pvm_samples=samples, seed=seed)
        worst, conditionals = 0.0, 0
        for s in range(samples):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
            U = _reference_columns(meas_basis, rng)
            for split in splits:
                W = split.coefficients @ U.conj()
                probs = np.sum(np.abs(W) ** 2, axis=0)
                for k in np.nonzero(probs > PROB_TOL)[0]:
                    rho = np.outer(W[:, k], W[:, k].conj()) / probs[k]
                    rho = np.where(split.receiver_mask, rho, 0.0)
                    worst = max(worst, float(np.max(np.abs(rho[off_mask]))))
                    conditionals += 1
        assert report.conditionals == conditionals
        assert worst > 0.1
        assert abs(report.max_off_support - worst) <= 1e-15


def _reference_columns(basis, rng):
    """Reference draw: per sector in charge order, a real then an imaginary d x d
    Ginibre draw, one QR and the phase fix."""
    columns = np.zeros((basis.dim, basis.dim), dtype=complex)
    for g in basis.model.charges:
        sl = basis.sector_slice(g)
        d = sl.stop - sl.start
        if d == 0:
            continue
        gin = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(gin)
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        columns[sl, sl] = q * phases.conj()
    return columns


def test_stacked_draw_equals_per_sample_columns(basis2, basis4, catalog):
    measured = [SplitState(catalog[name][direction], MessageQubit(0.6, 0.8)).measured_basis
                for name, direction in (("main-text", "ba"), ("appendix-d2-asymmetric", "ab"))]
    seed = 5
    for basis in (basis2, basis4, *measured):
        slices = [basis.sector_slice(g) for g in basis.model.charges if basis.sector_dim(g)]
        for samples in (1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 2):
            chunks = list(sector_haar_chunks(basis, seed, samples))
            assert [len(chunk[0]) for chunk in chunks[:-1]] == [SAMPLE_CHUNK] * (len(chunks) - 1)
            stacks = [np.concatenate(parts) for parts in zip(*chunks)]
            assert [len(stack) for stack in stacks] == [samples] * len(slices)
            for s in range(samples):
                columns = sector_haar_columns(basis, sample_rng(seed, s))
                assert np.array_equal(columns, _reference_columns(basis, sample_rng(seed, s)))
                stacked = np.zeros_like(columns)
                for sl, stack in zip(slices, stacks):
                    stacked[sl, sl] = stack[s]
                assert np.array_equal(stacked, columns)
    # the 302 stream of the oracle is keyed the same way
    blocks = next(sector_haar_chunks(basis4, seed, 1, 302))
    direct = sector_haar_blocks(basis4, [sample_rng(seed, 302, 0)])
    assert np.array_equal(blocks[0][0], direct[0][0])


def _reference_average_fidelity(split, columns, target):
    W = split.coefficients @ columns.conj()
    probs = np.sum(np.abs(W) ** 2, axis=0)
    kept = W[:, probs > PROB_TOL]
    rho = np.where(split.receiver_mask, kept @ kept.conj().T, 0.0)
    return float(np.real(target.conj() @ rho @ target))


@pytest.mark.parametrize("samples, message_count", [(25, 4), (100, 10)])
def test_oracle_excess_matches_per_sample_loop(catalog, samples, message_count):
    # the quick and full counts of the teleportation suite
    scenario = catalog["main-text"]["ba"]
    messages = [MessageQubit(SQ2, np.exp(1j * th) * SQ2)
                for th in np.linspace(0.0, 2.0 * math.pi, message_count, endpoint=False)]
    seed = 42
    worst = -math.inf
    for message in messages:
        split = SplitState(scenario, message)
        target = message.target_vector(split.receiver_basis, scenario.encoding)
        bound = diagonal_mixture_fidelity_bound(target, split.receiver_basis, scenario.reachable)
        for s in range(samples):
            columns = sector_haar_columns(split.measured_basis, sample_rng(seed, 302, s))
            worst = max(worst, _reference_average_fidelity(split, columns, target) - bound)
    assert abs(oracle_excess(scenario, messages, samples, seed) - worst) <= 1e-14


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


def test_superselection_disabled_enables_reverse_teleport(model):
    scenario, pvm, corrections = superselection_violating_protocol(model)
    for alpha, beta in MESSAGE_GRID:
        outcome = run_protocol(
            scenario, MessageQubit(alpha, beta), pvm=pvm, corrections=corrections,
            enforce_superselection=False,
        )
        assert outcome.average_fidelity == pytest.approx(1.0, abs=1e-10)
        for branch in outcome.branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(SuperselectionError):
        run_protocol(scenario, MessageQubit(0.6, 0.8), pvm=pvm, corrections=corrections,
                     enforce_superselection=True)


def test_zero_probability_branch_reported_null(model, catalog):
    scenario = catalog["appendix-d2-asymmetric"]["ba"]
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    # a projector orthogonal to the composed state's measured support
    dead = BlockOperator.from_ket_bra(ket(g4, "(tau,tau),(tau,tau);e,e;e"))
    g2 = enumerate_basis(model, grouped_shape(1, 1))
    outcome = run_protocol(scenario, MessageQubit(0.6, 0.8),
                           pvm=tuple(scenario.pvm) + (dead,),
                           corrections=tuple(scenario.corrections)
                           + (BlockOperator.identity(g2),))
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
    message = MessageQubit(0.6, 0.8).as_state(model)
    composed = compose(model, message, catalog["main-text"]["ab"].resource, "A", "e")
    measured_grouping = join_shapes(grouped_shape(2, 2), grouped_shape(1, 1))
    direct = change_shape(model, composed, measured_grouping)
    detour = change_shape(model, change_shape(model, composed, left_comb(6)),
                          measured_grouping)
    np.testing.assert_allclose(direct.amplitudes, detour.amplitudes, atol=1e-12)


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


def test_reachability_rejects_empty_sweep(catalog):
    for samples in (0, -3):
        with pytest.raises(ValueError):
            receiver_reachability_check(catalog["main-text"]["ba"], [(0.6, 0.8)],
                                        pvm_samples=samples, seed=0)


# --- the cached layout and measurement against a per-call reference


def _reference_protocol(scenario, message):
    """One protocol run the long way, with every table rebuilt from the trees.

    Joins the message to the resource tree by tree, scatters the regrouped
    amplitudes index by index, and runs one branch per projector.
    """
    model = scenario.model
    msg = message.as_state(model)
    left, right = ((msg, scenario.resource) if scenario.direction == "ab"
                   else (scenario.resource, msg))
    shape = join_shapes(left.basis.shape, right.basis.shape)
    basis = enumerate_basis(model, shape)
    amplitudes = np.zeros(basis.dim, dtype=complex)
    for i in np.nonzero(left.amplitudes)[0]:
        ti = left.basis.tree_at(i)
        for j in np.nonzero(right.amplitudes)[0]:
            tj = right.basis.tree_at(j)
            joined = FusionTree(shape, ti.leaf_charges + tj.leaf_charges,
                                (scenario.channel,) + ti.internal_charges + tj.internal_charges)
            amplitudes[basis.index_of(joined)] = left.amplitudes[i] * right.amplitudes[j]
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
    regrouped = change_shape(model, AnyonState(basis, amplitudes), measured_shape)
    C = np.zeros((recv_basis.dim, meas_basis.dim), dtype=complex)
    for i in np.nonzero(regrouped.amplitudes)[0]:
        C[recv_idx[i], meas_idx[i]] = regrouped.amplitudes[i]
    roots = [t.global_charge for t in recv_basis.trees]
    mask = np.equal.outer(np.array(roots), np.array(roots))
    target = message.target_vector(recv_basis, scenario.encoding)

    def branch(projector):
        D = C @ projector.T
        p = float(np.sum(np.abs(D) ** 2))
        if p <= PROB_TOL:
            return max(p, 0.0), None
        return p, np.where(mask, D @ D.conj().T / p, 0.0)

    def fidelity(rho):
        return None if rho is None else float(np.real(target.conj() @ rho @ target))

    mats = [op.to_full() for op in scenario.pvm]
    branches = []
    for proj, corr in zip(mats, scenario.corrections):
        p, rho = branch(proj)
        if rho is not None:
            U = corr.to_full()
            rho = U @ rho @ U.conj().T
        branches.append((p, rho, fidelity(rho)))
    p, rho = branch(np.eye(meas_basis.dim, dtype=complex) - sum(mats))
    no_click = (p, rho, fidelity(rho))
    avg = sum(p * f for p, _, f in branches if f is not None)
    if no_click[2] is not None:
        avg += no_click[0] * no_click[2]
    return branches, no_click, float(avg)


def _assert_matches_reference(scenario, message):
    outcome = run_protocol(scenario, message)
    branches, no_click, avg = _reference_protocol(scenario, message)
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
    for _ in range(3):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec /= np.linalg.norm(vec)
        resource = d1_family_resource(model, vec[0], vec[1])
        for direction in ("ab", "ba"):
            scenario = catalog["appendix-d1-symmetric"][direction].with_resource(resource)
            for alpha, beta in MESSAGE_GRID:
                _assert_matches_reference(scenario, MessageQubit(alpha, beta))


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
    run_protocol(scenario, MessageQubit(0.6, 0.8), tol=1e-9)
    assert len(calls) == 2


def test_override_pvm_validated_on_every_call(model, monkeypatch):
    scenario = builtin_scenarios(model)["main-text"]["ab"]
    calls = _count_validations(monkeypatch)
    for _ in range(5):
        run_protocol(scenario, MessageQubit(0.6, 0.8))
        run_protocol(scenario, MessageQubit(0.6, 0.8), pvm=scenario.pvm)
    assert len(calls) == 1 + 5


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
    with pytest.raises(ValueError, match="not unitary"):
        run_protocol(scenario, MessageQubit(0.6, 0.8),
                     pvm=tuple(scenario.pvm) + (dead,),
                     corrections=tuple(scenario.corrections)
                     + (BlockOperator.identity(g2) * 2.0,))
