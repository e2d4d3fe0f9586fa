"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
All tolerances are pinned here; nothing is deferred to calibration.
"""

import math

import numpy as np

from fibanyon.correlations import is_uncorrelated, pure_max_violations
from fibanyon.model import pentagon_residual, validate_model
from fibanyon.recouple import shape_change
from fibanyon.states import (
    AnyonState,
    bipartition,
    embed_local,
    ket,
    mixture,
    partial_trace,
    pure_density,
    purity,
    random_density,
    random_observable,
    random_pure_state,
    random_pure_states,
    spectrum,
    trace,
)
from fibanyon.teleport import (
    MESSAGE_GRID,
    MessageQubit,
    builtin_scenarios,
    d1_family_resource,
    receiver_reachability_check,
    run_protocol,
    superselection_violating_protocol,
)
from fibanyon.trees import all_shapes, enumerate_basis, grouped_shape, left_comb
from fibanyon.verify import composed_changes

SEED = 42
SQ2 = 1.0 / math.sqrt(2.0)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(entropy=SEED, spawn_key=key))


def _report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_dimensions(model):
    expected = [2, 5, 13, 34, 89, 233, 610, 1597]
    dims = [enumerate_basis(model, left_comb(n)).dim for n in range(1, 9)]
    _report(1, "fusion-space dimensions F_{2N+1}", dims == expected, f"dims={dims}")


def test_criterion_02_model_and_recoupling_consistency(model):
    worst_f = 0.0
    for a in model.charges:
        for b in model.charges:
            for c in model.charges:
                for g in model.charges:
                    _, _, mat = model.f_matrix(a, b, c, g)
                    if mat.size and mat.shape[0] == mat.shape[1]:
                        worst_f = max(worst_f, float(np.max(np.abs(
                            mat.conj().T @ mat - np.eye(mat.shape[0])))))
    pent = pentagon_residual(model)
    worst_round = 0.0
    worst_path = 0.0
    for n in range(2, 6):
        shapes = all_shapes(n)
        dim = enumerate_basis(model, shapes[0]).dim
        # the route through the left comb against verify's fold through the right one
        right = composed_changes(model, shapes, "right")
        for i, src in enumerate(shapes):
            for j, tgt in enumerate(shapes):
                fwd = shape_change(model, src, tgt).matrix
                back = shape_change(model, tgt, src).matrix
                worst_round = max(worst_round, float(np.max(np.abs(
                    back @ fwd - np.eye(dim)))))
                alt = right[i][j].matrix
                worst_path = max(worst_path, float(np.max(np.abs(alt - fwd))))
    ok = (
        validate_model(model) == []
        and worst_f <= 1e-12
        and pent <= 1e-12
        and worst_round <= 1e-12
        and worst_path <= 1e-12
    )
    _report(2, "model and recoupling consistency",
            ok, f"F={worst_f:.1e} pentagon={pent:.1e} round={worst_round:.1e}"
                f" path={worst_path:.1e}")


def test_criterion_03_marginal_spectra_ambiguity(model, basis2, unequal_marginals_state):
    part = bipartition(basis2, 1)
    rho = pure_density(unequal_marginals_state)
    spec_a = spectrum(partial_trace(rho, part, traced="B"))
    spec_b = spectrum(partial_trace(rho, part, traced="A"))
    dev = max(float(np.max(np.abs(spec_a - [0.5, 0.5]))),
              float(np.max(np.abs(spec_b - [1.0, 0.0]))))
    mixed = mixture([(0.5, ket(basis2, "tau,tau;e")), (0.5, ket(basis2, "tau,tau;tau"))])
    pur_a = purity(partial_trace(mixed, part, traced="B"))
    pur_b = purity(partial_trace(mixed, part, traced="A"))
    pur_g = purity(mixed)
    ok = (dev <= 1e-12 and abs(pur_a - 1) <= 1e-10 and abs(pur_b - 1) <= 1e-10
          and abs(pur_g - 0.5) <= 1e-10)
    _report(3, "marginal-spectra ambiguity", ok,
            f"spectra dev={dev:.1e} purities=({pur_a:.12f},{pur_b:.12f},{pur_g:.12f})")


def test_criterion_04_partial_trace_consistency(model):
    worst = 0.0
    for n, n_a in ((4, 2), (6, 3)):
        basis = enumerate_basis(model, grouped_shape(n_a, n - n_a))
        part = bipartition(basis, n_a)
        rng = _rng(4, n)
        for _ in range(500):
            obs = random_observable(part.a_basis, rng)
            rho = random_density(basis, rng)
            lhs = trace(obs @ partial_trace(rho, part, traced="B"))
            rhs = trace(embed_local(obs, part, side="A") @ rho)
            worst = max(worst, abs(lhs - rhs))
    _report(4, "partial-trace consistency (500 pairs at N=4 and N=6)",
            worst <= 1e-10, f"max dev={worst:.2e}")


def test_criterion_05_pure_state_classification(model, basis2):
    part = bipartition(basis2, 1)
    mismatches = 0
    boundary = 0
    checked = 0
    for sector_key, sector in ((1, "e"), (2, "tau")):
        rng = _rng(5, sector_key)
        while checked < 5000 * sector_key:
            amplitudes = random_pure_states(basis2, sector, rng, 5000 * sector_key - checked)
            tops, labels = pure_max_violations(amplitudes, part)
            entangled = labels == "entangled"
            redrawn = entangled & (tops < 1e-6)  # degenerate near-boundary samples; redraw
            boundary += int(np.count_nonzero(redrawn))
            mismatches += int(np.count_nonzero(entangled[~redrawn] != (tops[~redrawn] > 1e-8)))
            checked += int(np.count_nonzero(~redrawn))
    # the two explicit uncorrelated families stay below the violation floor
    worst_family = 0.0
    rng = _rng(5, 3)
    for _ in range(200):
        c = math.sqrt(rng.uniform(0.02, 0.98))
        s = math.sqrt(1 - c * c)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        for labels in (("tau,e;tau", "tau,tau;tau"), ("e,tau;tau", "tau,tau;tau")):
            amps = np.zeros(basis2.dim, dtype=complex)
            amps[basis2.index_of_label(labels[0])] = c
            amps[basis2.index_of_label(labels[1])] = s * phase
            rep = is_uncorrelated(AnyonState(basis2, amps), part)
            worst_family = max(worst_family, rep.max_violation)
    ok = mismatches == 0 and checked == 10000 and worst_family <= 1e-12
    _report(5, "closed-form classification vs numeric verdict (10000 states)", ok,
            f"mismatches={mismatches} boundary={boundary} family max={worst_family:.1e}")


def test_criterion_06_main_text_forward_teleportation(model):
    scenario = builtin_scenarios(model)["main-text"]["ab"]
    worst_p = 0.0
    worst_f = 0.0
    for alpha, beta in MESSAGE_GRID:
        outcome = run_protocol(scenario, MessageQubit(alpha, beta))
        assert len(outcome.branches) == 4
        worst_p = max(worst_p, max(abs(b.probability - 0.25) for b in outcome.branches))
        worst_f = max(worst_f, max(abs(b.fidelity - 1.0) for b in outcome.branches))
    ok = worst_p <= 1e-12 and worst_f <= 1e-10
    _report(6, "main-text A->B perfect teleportation",
            ok, f"prob dev={worst_p:.1e} fid dev={worst_f:.1e}")


def test_criterion_07_main_text_reverse_blocked(model):
    scenario = builtin_scenarios(model)["main-text"]["ba"]
    messages = [MessageQubit(SQ2, SQ2 * np.exp(1j * th))
                for th in np.linspace(0.0, 2 * math.pi, 10, endpoint=False)]
    report = receiver_reachability_check(scenario, messages, pvm_samples=1000,
                                         seed=SEED, tol=1e-10)
    violating = superselection_violating_protocol(model)
    worst_fid = 0.0
    for alpha, beta in MESSAGE_GRID:
        outcome = run_protocol(violating, MessageQubit(alpha, beta),
                               enforce_superselection=False)
        worst_fid = max(worst_fid, abs(outcome.average_fidelity - 1.0))
    ok = report.max_off_support <= 1e-10 and worst_fid <= 1e-10
    _report(7, "main-text B->A support-confined; unblocked without superselection", ok,
            f"off-support={report.max_off_support:.1e} over {report.conditionals} states;"
            f" violating-PVM fid dev={worst_fid:.1e}")


def test_criterion_08_vacuum_resource_symmetry(model):
    catalog = builtin_scenarios(model)
    worst_fid = 0.0
    for direction in ("ab", "ba"):
        for alpha, beta in MESSAGE_GRID:
            outcome = run_protocol(catalog["appendix-d1-symmetric"][direction],
                                   MessageQubit(alpha, beta))
            worst_fid = max(worst_fid, abs(outcome.average_fidelity - 1.0))
    rng = _rng(8)
    worst_sym = 0.0
    for _ in range(10):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec /= np.linalg.norm(vec)
        resource = d1_family_resource(model, vec[0], vec[1])
        for alpha, beta in MESSAGE_GRID:
            msg = MessageQubit(alpha, beta)
            f_ab = run_protocol(catalog["appendix-d1-symmetric"]["ab"].with_resource(resource),
                                msg).average_fidelity
            f_ba = run_protocol(catalog["appendix-d1-symmetric"]["ba"].with_resource(resource),
                                msg).average_fidelity
            worst_sym = max(worst_sym, abs(f_ab - f_ba))
    ok = worst_fid <= 1e-10 and worst_sym <= 1e-10
    _report(8, "vacuum-sector resource: symmetric teleportation", ok,
            f"fid dev={worst_fid:.1e} direction asymmetry={worst_sym:.1e}")


def test_criterion_09_asymmetric_resource(model, basis4):
    catalog = builtin_scenarios(model)
    scenario_ba = catalog["appendix-d2-asymmetric"]["ba"]
    worst_p = worst_f = 0.0
    for alpha, beta in MESSAGE_GRID:
        outcome = run_protocol(scenario_ba, MessageQubit(alpha, beta))
        click = sum(b.probability for b in outcome.branches)
        worst_p = max(worst_p, abs(click - 0.5))
        worst_f = max(worst_f, max(abs(b.fidelity - 1.0) for b in outcome.branches))
    scenario_ab = catalog["appendix-d2-asymmetric"]["ab"]
    reach = receiver_reachability_check(
        scenario_ab, [MessageQubit(*m) for m in MESSAGE_GRID], pvm_samples=200,
        seed=SEED, tol=1e-10,
    )
    part = bipartition(basis4, 2)
    rho = pure_density(scenario_ba.resource)
    dev_a = float(np.max(np.abs(
        spectrum(partial_trace(rho, part, traced="B")) - [0.5, 0.25, 0.25, 0.0, 0.0])))
    dev_b = float(np.max(np.abs(
        spectrum(partial_trace(rho, part, traced="A")) - [0.75, 0.25, 0.0, 0.0, 0.0])))
    ok = (worst_p <= 1e-12 and worst_f <= 1e-10 and reach.max_off_support <= 1e-10
          and dev_a <= 1e-12 and dev_b <= 1e-12)
    _report(9, "asymmetric resource: half-rate B->A, classical A->B", ok,
            f"click dev={worst_p:.1e} fid dev={worst_f:.1e}"
            f" off-support={reach.max_off_support:.1e} spectra dev={max(dev_a, dev_b):.1e}")


def test_criterion_10_purity_of_pure_states(model):
    worst = 0.0
    for n in range(1, 5):
        basis = enumerate_basis(model, left_comb(n))
        for label in basis.labels:
            worst = max(worst, abs(purity(pure_density(ket(basis, label))) - 1.0))
    rng = _rng(10)
    tau_seen = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        basis = enumerate_basis(model, left_comb(n))
        sector = ("e", "tau")[int(rng.integers(0, 2))]
        tau_seen += sector == "tau"
        state = random_pure_state(basis, sector, rng)
        worst = max(worst, abs(purity(pure_density(state)) - 1.0))
    ok = worst <= 1e-10 and tau_seen > 0
    _report(10, "purity 1 for kets and sector-confined superpositions", ok,
            f"max dev={worst:.1e} tau samples={tau_seen}")


def test_criterion_11_cli_golden_files():
    from test_cli import GOLDEN, GOLDEN_CASES, golden_run

    failures = []
    for golden_name, argv in GOLDEN_CASES:
        code, out = golden_run(argv)
        if code != 0 or out != (GOLDEN / golden_name).read_bytes():
            failures.append(golden_name)
    _report(11, "CLI determinism against golden files", not failures,
            f"failures={failures}" if failures
            else f"{len(GOLDEN_CASES)} golden files byte-identical")
