"""Per-tree reference bases, built from the fusion rules alone.

A tree is a pair ``(leaves, internals)`` of tuples of charge names, the
internal charges in the shape's depth-first preorder (root first).  The
reference enumerates a shape's trees by recursion over Python tuples,
rendering each leaf grouping in the same recursion, and sorts them by
(global charge, leaves, internals) in the model's charge order.  It never reads a
:class:`~fibanyon.trees.SectorBasis`, so the tests can compare the
charge-table code against it.  One reference is built per (model, shape)
and shared by every test that compares against it.

The sampled-measurement references draw one sample at a time: the square
sector-Haar unitary, the top rows of Haar unitaries that the sweeps draw,
and the completion of such rows to a full unitary.

The correlation test's reference is the per-block route that the compiled
plan replaced (:func:`is_uncorrelated`, :func:`violation_table`), which
the plan must match bit for bit.  The verify suite's classification
sweep has its one-state-at-a-time loop here (:func:`classification_sweep`),
its uncorrelated-family check one ``is_uncorrelated`` call per state
(:func:`family_residual`), and random pure states their one-state draw
(:func:`random_pure_amplitudes`).
The algebra suite has its per-sample loop here (:func:`suite_algebra`), with
random operators drawn one sector block at a time, and the recoupling suite
its loop over dense matrices (:func:`suite_recoupling`).  The embedding has the
per-block loop that writes O_x (x) 1_y into each block (g, x, y) of the
result (:func:`embed_data`).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from fibanyon import correlations
from fibanyon.correlations import (_FIBONACCI_PAIR, ZERO_COEFF_TOL, CorrelationReport, _to_units,
                                   _units)
from fibanyon.errors import BasisMismatchError, require_memory
from fibanyon.states import (SPECTRAL_TOL, AnyonState, BlockOperator, _sector_views, bipartition,
                             embed_local, ket, partial_trace, pure_density, purity,
                             random_pure_state, sample_rng, spectrum, trace)
from fibanyon.trees import all_shapes, enumerate_basis, grouped_shape, left_comb
from fibanyon.verify import SuiteResult, composed_changes


class Reference(NamedTuple):
    trees: tuple  # (leaves, internals) pairs in basis order
    labels: tuple  # each tree's label, rendered recursively
    index: dict  # {tree: basis index}


def global_charge(tree) -> str:
    leaves, internals = tree
    return internals[0] if internals else leaves[0]


def _labelings(charges, outcomes, node) -> list:
    """All (root charge, leaves, preorder internals, leaf grouping) of a
    subtree; the grouping is rendered recursively, e.g. ``((tau,e),tau)``."""
    if isinstance(node, int):
        return [(c, (c,), (), c) for c in charges]
    left = _labelings(charges, outcomes, node[0])
    right = _labelings(charges, outcomes, node[1])
    out = []
    for cl, ll, il, tl in left:
        for cr, lr, ir, tr in right:
            for root in outcomes[cl, cr]:
                out.append((root, ll + lr, (root,) + il + ir, f"({tl},{tr})"))
    return out


def _label(grouping: str, internals: tuple) -> str:
    """The leaf grouping without its outer parentheses, then the non-root
    internal charges, then the global charge."""
    if not internals:
        return grouping
    if len(internals) > 1:
        return f"{grouping[1:-1]};{','.join(internals[1:])};{internals[0]}"
    return f"{grouping[1:-1]};{internals[0]}"


@functools.lru_cache(maxsize=256)
def reference(model, shape) -> Reference:
    order = {c: i for i, c in enumerate(model.charges)}
    outcomes = {(a, b): model.fusion_outcomes(a, b) for a in model.charges for b in model.charges}

    def sort_key(entry):
        root, leaves, internals, _ = entry
        return order[root], tuple(map(order.get, leaves)), tuple(map(order.get, internals))

    entries = sorted(_labelings(model.charges, outcomes, shape.structure), key=sort_key)
    trees = tuple((leaves, internals) for _, leaves, internals, _ in entries)
    return Reference(trees, tuple(_label(grouping, internals) for _, _, internals, grouping in entries),
                     {tree: i for i, tree in enumerate(trees)})


def _phase_fixed_q(ginibre):
    """Q of the QR of `ginibre`, each column times the conjugate phase of R's diagonal entry."""
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def sector_haar_unitary(basis, rng):
    """Block diagonal Haar unitary on `basis`: per nonempty sector in charge
    order, a real then an imaginary d x d Ginibre draw and its phase-fixed Q."""
    unitary = np.zeros((basis.dim, basis.dim), dtype=complex)
    for g in basis.model.charges:
        sl = basis.sector_slice(g)
        d = sl.stop - sl.start
        if d:
            unitary[sl, sl] = _phase_fixed_q(rng.standard_normal((d, d))
                                             + 1j * rng.standard_normal((d, d)))
    return unitary


def haar_rows(shapes, rng):
    """Per (d, r) in order, a real then an imaginary d x r Ginibre draw and the
    transpose of its phase-fixed Q: the top r rows of a Haar unitary."""
    return [_phase_fixed_q(rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))).T
            for d, r in shapes]


def complete_unitary(basis_columns, rows):
    """A d x d unitary U with B^dagger U = `rows` for B = `basis_columns` (d x r,
    orthonormal columns): B rows + B_perp Z, where B_perp and Z^dagger are
    orthonormal complements of B's columns and of the rows' conjugates."""
    d, r = basis_columns.shape
    if r == 0:
        return np.eye(d, dtype=complex)
    b_perp = np.linalg.qr(basis_columns, mode="complete")[0][:, r:]
    z = np.linalg.qr(rows.conj().T, mode="complete")[0][:, r:].conj().T
    return basis_columns @ rows + b_perp @ z


# ---------------------------------------------------------------------------
# The correlation test through per-block gathers: a normalized AnyonState,
# the pure marginals as dicts, a density's marginals one gather per block,
# one indexed add per charge block (g, x, y), and the spectra, their
# comparison, the witness and the 2-anyon class computed one block or one
# label at a time.


class CorrelationPlan(NamedTuple):
    units_a: object
    units_b: object
    mixed: list


@functools.lru_cache(maxsize=64)
def correlation_plan(part) -> CorrelationPlan:
    units_a, units_b = _units(part.a_basis), _units(part.b_basis)
    mixed = []
    for g, x, y, index in part.blocks:
        d_a, d_b = index.shape
        flat = index.ravel()
        mixed.append((g, part.a_basis.block_slices[x], part.b_basis.block_slices[y],
                      flat[:, None], flat[None, :],
                      (d_a, d_b, d_a, d_b), (d_a**2, d_b**2)))
    return CorrelationPlan(units_a, units_b, mixed)


def _violations(part, source):
    plan = correlation_plan(part)
    units_a, units_b = plan.units_a, plan.units_b
    require_memory(80 * part.a_basis.unit_count * part.b_basis.unit_count,
                   f"the correlation table of a {part.n_a}|{part.n_b} split")
    if isinstance(source, np.ndarray):
        realigned = source.take(units_a.row, 0).take(units_b.row, 1)
        realigned *= source.take(units_a.col, 0).take(units_b.col, 1).conj()
    else:
        if not source.basis.compatible(part.basis):
            raise BasisMismatchError("objects live on different bases")
        realigned = np.zeros((part.a_basis.unit_count, part.b_basis.unit_count), dtype=complex)
        for g, at_a, at_b, rows, cols, shape, square in plan.mixed:
            realigned[at_a, at_b] += (
                source.blocks[g][rows, cols].reshape(shape).transpose(0, 2, 1, 3).reshape(square)
            )
    lhs = _to_units(_to_units(realigned, units_a).T, units_b).T.real
    exp_a = lhs[:, units_b.diag].sum(axis=1)
    exp_b = lhs[units_a.diag].sum(axis=0)
    norm = float(exp_b[units_b.diag].sum())
    if abs(norm - 1.0) > SPECTRAL_TOL:
        raise ValueError(f"density operator has trace {norm!r}, not 1")
    return lhs - np.outer(exp_a, exp_b)


def violation_table(state_or_rho, part):
    if isinstance(state_or_rho, AnyonState):
        return _violations(part, part.amplitude_matrix(state_or_rho.normalized()))
    return _violations(part, state_or_rho)


def _marginal_blocks(C, part, traced):
    kept = part.kept_basis(traced)
    if traced == "A":
        C = C.T
    blocks = {}
    for c in kept.model.charges:
        rows = C[kept.sector_slice(c)]
        blocks[c] = rows @ rows.conj().T
    return blocks


def _partial_trace_blocks(rho, part, traced):
    """The kept marginal's blocks, per kept charge one broadcast gather per
    block (g, x, y), summed as reals term by term."""
    kept = part.kept_basis(traced)
    gathers = {c: [] for c in kept.model.charges}
    for g, keep, index in part.kept_blocks(traced):
        index = np.ascontiguousarray(index)
        gathers[keep].append((g, index[:, :, None], index[:, None, :]))
    blocks = {}
    for keep, per_block in gathers.items():
        if per_block:
            terms = np.concatenate([rho.blocks[g][rows, cols] for g, rows, cols in per_block])
            blocks[keep] = np.add.reduce(terms.view(float), axis=0, initial=0.0).view(complex)
        else:
            blocks[keep] = np.zeros((kept.sector_dim(keep),) * 2, dtype=complex)
    return blocks


def embed_data(data, part, side):
    """The data of ``embed_local``, block by block, for one operator's data or a
    stack of them (the last axis)."""
    traced = "B" if side == "A" else "A"
    out = np.zeros(data.shape[:-1] + (part.basis.unit_count,), dtype=complex)
    views = _sector_views(part.basis, out)
    blocks = _sector_views(part.kept_basis(traced), data)
    for g, keep, index in part.kept_blocks(traced):
        views[g][..., index[:, :, None], index[:, None, :]] = blocks[keep][..., None, :, :]
    return out


def _spectra(*parties):
    parties = [[b for b in blocks if len(b)] for blocks in parties]
    flat = [b for blocks in parties for b in blocks]
    vals = [b.real[0] for b in flat]
    for d in {len(b) for b in flat} - {1}:
        same = [k for k, b in enumerate(flat) if len(b) == d]
        for k, v in zip(same, np.linalg.eigvalsh(np.stack([flat[k] for k in same]))):
            vals[k] = v
    out, first = [], 0
    for blocks in parties:
        party = vals[first:first + len(blocks)] or [np.empty(0)]
        out.append(np.sort(np.concatenate(party))[::-1])
        first += len(blocks)
    return out


def _spectra_agree(spec_a, spec_b, tol):
    padded = np.zeros((2, max(len(spec_a), len(spec_b))))
    padded[0, : len(spec_a)] = spec_a
    padded[1, : len(spec_b)] = spec_b
    return bool(np.max(np.abs(padded[0] - padded[1])) <= tol)


def _witness(violations):
    top = violations.max()
    return int(np.argmax(violations >= top - 4 * np.spacing(top)))


def _pure_class(psi, tol):
    if psi.sector == psi.basis.model.vacuum:
        c_ee = abs(psi.amplitude("e,e;e"))
        c_tt = abs(psi.amplitude("tau,tau;e"))
        if c_tt <= tol:
            return "product-e-alpha"
        if c_ee <= tol:
            return "product-e-beta"
        return "entangled"
    c_te = abs(psi.amplitude("tau,e;tau"))
    c_et = abs(psi.amplitude("e,tau;tau"))
    if c_et <= tol:
        return "class-1-tau"
    if c_te <= tol:
        return "class-2-tau"
    return "entangled"


def is_uncorrelated(state_or_rho, part, tol=1e-10):
    pure = isinstance(state_or_rho, AnyonState)
    if pure:
        psi = state_or_rho.normalized()
        C = part.amplitude_matrix(psi)
        marginals = [_marginal_blocks(C, part, traced).values() for traced in ("B", "A")]
        violations = np.abs(_violations(part, C))
    else:
        if state_or_rho.basis is not part.basis and not state_or_rho.basis.compatible(part.basis):
            raise BasisMismatchError("objects live on different bases")
        marginals = [_partial_trace_blocks(state_or_rho, part, traced).values()
                     for traced in ("B", "A")]
        violations = np.abs(_violations(part, state_or_rho))
    top = float(violations.max())
    spec_a, spec_b = _spectra(*marginals)
    label = None
    if pure and part.basis.shape.n_leaves == 2 and part.basis.labels == _FIBONACCI_PAIR:
        label = _pure_class(psi, ZERO_COEFF_TOL)
    return CorrelationReport(
        is_uncorrelated=top <= tol,
        max_violation=top,
        witness=divmod(_witness(violations), violations.shape[1]),
        marginal_spectra=(spec_a, spec_b),
        spectra_symmetric=_spectra_agree(spec_a, spec_b, tol),
        tol=tol,
        pure_class=label,
    )


# ---------------------------------------------------------------------------
# Random pure states and the classification sweep, one state at a time.


def random_pure_amplitudes(basis, sector, rng):
    """A Haar random pure state of one sector: a real then an imaginary normal
    draw per tree, over ``np.linalg.norm``."""
    d = basis.sector_dim(sector)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vec /= np.linalg.norm(vec)
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[basis.sector_slice(sector)] = vec
    return amplitudes


def classification_sweep(part, sectors, rng, per_sector, class_tol, clear_margin):
    """(mismatches, boundary redraws, states checked), one draw and one
    ``is_uncorrelated`` call at a time."""
    mismatches = boundary = redraws = checked = 0
    for sector in sectors:
        done = 0
        while done < per_sector:
            psi = AnyonState(part.basis, random_pure_amplitudes(part.basis, sector, rng))
            report = correlations.is_uncorrelated(psi, part, tol=class_tol)
            label = report.pure_class
            if label == "entangled" and report.max_violation < clear_margin:
                boundary += 1
                redraws += 1
                if redraws > 10 * per_sector:
                    break
                continue
            if (label == "entangled") != (report.max_violation > class_tol):
                mismatches += 1
            done += 1
            checked += 1
    return mismatches, boundary, checked


def family_residual(model, seed):
    """The correlation suite's worst product-rule violation over its two
    uncorrelated tau families, one ``is_uncorrelated`` call per family state:
    50 (c1, c2) pairs, each placed on a family's two kets by ``MessageQubit``."""
    from fibanyon.teleport import MessageQubit

    basis = enumerate_basis(model, grouped_shape(1, 1))
    part = bipartition(basis, 1)
    worst_family = 0.0
    rng = sample_rng(seed, 202)
    families = [basis.index_of_labels((ket, "tau,tau;tau")) for ket in ("tau,e;tau", "e,tau;tau")]
    for _ in range(50):
        th = rng.uniform(0, 2 * math.pi, size=4)
        mag = math.sqrt(rng.uniform(0.05, 0.95))
        c1, c2 = mag * np.exp(1j * th[0]), math.sqrt(1 - mag**2) * np.exp(1j * th[1])
        pair = MessageQubit(c1, c2)  # c1 on the first ket, c2 on the second
        for kets in families:
            psi = AnyonState(basis, pair.target_vector(basis.dim, kets))
            report = correlations.is_uncorrelated(psi, part)
            worst_family = max(worst_family, report.max_violation)
    return worst_family


# ---------------------------------------------------------------------------
# The algebra suite, one sample at a time: the loop that verify's stacked
# checks replaced, with the random operators drawn one block at a time.


def random_density(basis, rng):
    """Random density operator: Ginibre block per sector, then normalized."""
    blocks = {}
    total = 0.0
    for g in basis.model.charges:
        d = basis.sector_dim(g)
        gin = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        block = gin @ gin.conj().T
        total += float(np.trace(block).real)
        blocks[g] = block
    return BlockOperator(basis, {g: b / total for g, b in blocks.items()})


def random_observable(basis, rng):
    """Random Hermitian block operator (a superselection-respecting observable)."""
    blocks = {}
    for g in basis.model.charges:
        d = basis.sector_dim(g)
        gin = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks[g] = (gin + gin.conj().T) / 2.0
    return BlockOperator(basis, blocks)


def is_density(op):
    if not all(np.max(np.abs(b - b.conj().T), initial=0.0) <= SPECTRAL_TOL
               for b in op.blocks.values()):
        return False
    if abs(trace(op) - 1.0) > SPECTRAL_TOL:
        return False
    return float(spectrum(op)[-1]) >= -SPECTRAL_TOL


def suite_algebra(model, seed, pairs):
    """(the suite's result, each check's per-sample values): the loop body as
    it was, plus one line per check that records each sample's value."""
    samples = {"consistency N=4": [], "consistency N=6": [], "densities": [], "spreads": [],
               "homomorphism": [], "purity": []}
    out = SuiteResult("algebra")
    tol = 1e-10
    # partial-trace consistency Tr(O_A Tr_B rho) == Tr(embed(O_A) rho)
    for n, n_a in ((4, 2), (6, 3)):
        basis = enumerate_basis(model, grouped_shape(n_a, n - n_a))
        part = bipartition(basis, n_a)
        rng = sample_rng(seed, n)
        worst = 0.0
        for _ in range(pairs):
            obs = random_observable(part.a_basis, rng)
            rho = random_density(basis, rng)
            lhs = trace(obs @ partial_trace(rho, part, traced="B"))
            rhs = trace(embed_local(obs, part, side="A") @ rho)
            worst = max(worst, abs(lhs - rhs))
            samples[f"consistency N={n}"].append(abs(lhs - rhs))
        out.add_residual(f"partial-trace consistency N={n} ({pairs} pairs)", worst, tol)

    basis4 = enumerate_basis(model, grouped_shape(2, 2))
    part4 = bipartition(basis4, 2)
    rng = sample_rng(seed, 104)
    density_ok = True
    spec_worst = 0.0
    for _ in range(50):
        rho = random_density(basis4, rng)
        for traced in ("A", "B"):
            reduced = partial_trace(rho, part4, traced=traced)
            density_ok = density_ok and is_density(reduced)
            vals = spectrum(reduced)
            spec_worst = max(
                spec_worst, max(0.0, -float(vals[-1])), max(0.0, float(vals[0]) - 1.0),
                abs(float(np.sum(vals)) - 1.0),
            )
            samples["densities"].append(is_density(reduced))
            samples["spreads"].append(max(max(0.0, -float(vals[-1])),
                                          max(0.0, float(vals[0]) - 1.0),
                                          abs(float(np.sum(vals)) - 1.0)))
    out.add("partial trace maps densities to densities", density_ok)
    out.add_residual("marginal spectra in [0,1], sum 1", spec_worst, tol)

    hom_worst = 0.0
    for _ in range(50):
        o1 = random_observable(part4.a_basis, rng)
        o2 = random_observable(part4.a_basis, rng)
        lhs = embed_local(o1 @ o2, part4, side="A").to_full()
        rhs = (embed_local(o1, part4, side="A") @ embed_local(o2, part4, side="A")).to_full()
        hom_worst = max(hom_worst, float(np.max(np.abs(lhs - rhs))))
        adj = embed_local(o1.adjoint(), part4, side="A").to_full()
        adj2 = embed_local(o1, part4, side="A").adjoint().to_full()
        hom_worst = max(hom_worst, float(np.max(np.abs(adj - adj2))))
        samples["homomorphism"].append(max(float(np.max(np.abs(lhs - rhs))),
                                           float(np.max(np.abs(adj - adj2)))))
    out.add_residual("embedding is an algebra homomorphism", hom_worst, 1e-12)

    purity_worst = 0.0
    for n in range(1, 5):
        basis = enumerate_basis(model, left_comb(n))
        for label in basis.labels:
            purity_worst = max(purity_worst, abs(purity(pure_density(ket(basis, label))) - 1.0))
            samples["purity"].append(abs(purity(pure_density(ket(basis, label))) - 1.0))
    rng = sample_rng(seed, 105)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        basis = enumerate_basis(model, left_comb(n))
        sector = model.charges[int(rng.integers(0, len(model.charges)))]
        if basis.sector_dim(sector) == 0:
            continue
        state = random_pure_state(basis, sector, rng)
        purity_worst = max(purity_worst, abs(purity(pure_density(state)) - 1.0))
        samples["purity"].append(abs(purity(pure_density(state)) - 1.0))
    out.add_residual("purity 1 for all kets and random sector states", purity_worst, tol)
    return out, samples


def suite_recoupling(model, max_n):
    """(the suite's result, each check's residual per shape pair): the loop
    over dense matrices as it was, plus one line per check that records each
    pair's residual.  It reads the maps that verify composes
    (:func:`fibanyon.verify.composed_changes`), so the two compare the same
    entries."""
    residuals = {"unitarity": [], "sector mixing": [], "round trip": [], "path": []}
    out = SuiteResult("recoupling")
    worst_unitary = 0.0
    worst_sector = 0.0
    worst_roundtrip = 0.0
    worst_path = 0.0
    pairs = 0
    for n in range(2, max_n + 1):
        shapes = all_shapes(n)
        table = composed_changes(model, shapes, "left")
        right = composed_changes(model, shapes, "right")
        for i, src in enumerate(shapes):
            basis = enumerate_basis(model, src)
            off_sector = ~basis.sector_mask
            for j in range(len(shapes)):
                pairs += 1
                u = table[i][j].matrix
                worst_unitary = max(
                    worst_unitary, float(np.max(np.abs(u.conj().T @ u - np.eye(basis.dim))))
                )
                worst_sector = max(worst_sector, float(np.max(np.abs(u[off_sector]), initial=0.0)))
                back = table[j][i]
                worst_roundtrip = max(
                    worst_roundtrip,
                    float(np.max(np.abs(back.matrix @ u - np.eye(basis.dim)))),
                )
                alt = right[i][j]
                worst_path = max(worst_path, float(np.max(np.abs(alt.matrix - u))))
                residuals["unitarity"].append(float(np.max(np.abs(u.conj().T @ u
                                                                  - np.eye(basis.dim)))))
                residuals["sector mixing"].append(float(np.max(np.abs(u[off_sector]),
                                                               initial=0.0)))
                residuals["round trip"].append(float(np.max(np.abs(back.matrix @ u
                                                                   - np.eye(basis.dim)))))
                residuals["path"].append(float(np.max(np.abs(alt.matrix - u))))
    out.add_residual(f"unitarity over {pairs} shape pairs (N<={max_n})", worst_unitary, 1e-12)
    out.add_residual("global-charge sectors never mix", worst_sector, 1e-12)
    out.add_residual("round-trips A->B->A = identity", worst_roundtrip, 1e-12)
    out.add_residual("path independence (left vs right comb)", worst_path, 1e-12)
    return out, residuals
