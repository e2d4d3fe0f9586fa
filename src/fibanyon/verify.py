"""Executable invariant suites, shared by the CLI and the test suite.

Each suite returns a :class:`SuiteResult` holding labeled checks with
numeric residuals; everything is seeded and deterministic, so the CLI
output is byte-stable for fixed (flags, seed) under a fixed OpenBLAS
kernel (``OPENBLAS_CORETYPE``) and BLAS thread count.  Either can move a
last digit: on ``tests/data/z3.model`` the algebra suite's
``partial-trace consistency N=6`` residual reads 1.388e-16 at one thread
and 1.110e-16 at four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FibonacciOnlyError, ModelFormatError, fibonacci_only, stack_slices
from .model import AnyonModel, fibonacci_model, validate_model, validation_refusal
from .recouple import BasisChange, _moves_to_comb, _sum_by_index, elementary_fmove
from .states import (
    BlockOperator,
    _normalized_rows,
    _sector_views,
    adjoint_data,
    bipartition,
    density_data,
    density_flags,
    embed_data,
    embed_local,
    ket,
    observable_data,
    partial_trace,
    partial_trace_data,
    pure_density,
    product_data,
    random_pure_state,
    random_pure_states,
    sample_rng,
    sector_states,
    spectra,
    superpose,
    trace,
    trace_data,
)
from .trees import SectorBasis, all_shapes, enumerate_basis, grouped_shape, left_comb


@dataclass
class Check:
    label: str
    ok: bool
    residual: float = 0.0


@dataclass
class SuiteResult:
    name: str
    checks: list[Check] = field(default_factory=list)
    skipped: str | None = None  # why a suite did not run on this model; no checks then

    def add(self, label: str, ok, residual: float = 0.0):
        self.checks.append(Check(label, bool(ok), float(residual)))

    def add_residual(self, label: str, residual: float, tol: float):
        self.checks.append(Check(label, bool(residual <= tol), float(residual)))

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


def suite_model(model: AnyonModel) -> SuiteResult:
    out = SuiteResult("model")
    report = validate_model(model)
    out.add("model constraints hold", not report)
    for item in report:
        out.add(f"violation: {item}", False)
    return out


def suite_dims(model: AnyonModel) -> SuiteResult:
    out = SuiteResult("dims")
    counts = dict.fromkeys(model.charges, 1)  # trees per root charge, from the fusion rules
    for n in range(1, 9):
        basis = enumerate_basis(model, left_comb(n))
        out.add(f"N={n} dim {basis.dim} (expect {sum(counts.values())})",
                all(basis.sector_dim(g) == counts[g] for g in model.charges))
        # the next leaf b takes root a to every c in a x b
        counts = {c: sum(counts[a] for a in model.charges for b in model.charges
                         if model.can_fuse(a, b, c)) for c in model.charges}
    for n in range(2, 6):
        dims = {
            tuple(enumerate_basis(model, s).sector_dim(g) for g in model.charges)
            for s in all_shapes(n)
        }
        out.add(f"N={n} sector dims shape-independent", len(dims) == 1)
    # enumerate_basis is cached: compare with a fresh enumeration, not with itself
    fresh = SectorBasis(model, left_comb(4)).labels
    out.add("enumeration deterministic", enumerate_basis(model, left_comb(4)).labels == fresh)
    return out


def suite_recoupling(model: AnyonModel, max_n: int = 5) -> SuiteResult:
    return _recoupling_checks(recoupling_residuals(model, max_n), max_n)


def _recoupling_checks(residuals: dict[str, np.ndarray], max_n: int) -> SuiteResult:
    out = SuiteResult("recoupling")
    out.add_residual(f"unitarity over {len(residuals['unitarity'])} shape pairs (N<={max_n})",
                     _worst(residuals["unitarity"]), 1e-12)
    out.add_residual("global-charge sectors never mix", _worst(residuals["sector mixing"]), 1e-12)
    out.add_residual("round-trips A->B->A = identity", _worst(residuals["round trip"]), 1e-12)
    out.add_residual("path independence (left vs right comb)", _worst(residuals["path"]), 1e-12)
    return out


def recoupling_residuals(model: AnyonModel, max_n: int) -> dict[str, np.ndarray]:
    """Each recoupling check's residual per ordered shape pair, for n = 2 to
    `max_n`, by source, then target, in :func:`all_shapes` order.

    A change is checked one global-charge block at a time: its entries inside
    the blocks, as operator data (every shape of n has the same sector slices,
    since sector dimensions do not depend on the shape), go through the
    products of :func:`product_data`, which give each entry what the dense
    product gives, its off-block zeros adding nothing.  Its entries outside
    every block are the sector-mixing residual.  Each n's left- and
    right-routed changes are composed once per pair, into two tables
    (:func:`composed_changes`); the round trip reads the reverse pair's
    change from the left one.
    """
    residuals = {"unitarity": [], "sector mixing": [], "round trip": [], "path": []}
    for n in range(2, max_n + 1):
        shapes = all_shapes(n)
        layout = enumerate_basis(model, shapes[0])
        sector = layout.charges[:, 0]  # each index's global charge, in every shape of n
        # in-block entry (r, c) is entry at[r] + c of the data
        at = np.concatenate([sl.start + d * np.arange(d) - layout.sector_slice(g).start
                             for g, sl, (d, _) in layout.block_layout])
        eye = BlockOperator.identity(layout).data

        def blocks(changes) -> np.ndarray:
            """The changes' in-block entries, as a stack of data on `layout`."""
            data = np.zeros((len(changes), layout.unit_count), dtype=complex)
            for out, change in zip(data, changes):
                inside = sector[change.rows] == sector[change.cols]
                out[at[change.rows[inside]] + change.cols[inside]] = change.coeffs[inside]
            return data

        table = composed_changes(model, shapes, "left")
        right = composed_changes(model, shapes, "right")
        residuals["sector mixing"].append(
            [np.max(np.abs(c.coeffs[sector[c.rows] != sector[c.cols]]), initial=0.0)
             for row in table for c in row])
        for i in range(len(shapes)):
            fwd = blocks(table[i])
            residuals["unitarity"].append(
                _gaps(product_data(layout, adjoint_data(layout, fwd), fwd), eye))
            residuals["round trip"].append(
                _gaps(product_data(layout, blocks([row[i] for row in table]), fwd), eye))
            residuals["path"].append(_gaps(blocks(right[i]), fwd))
    return {key: np.concatenate(values) for key, values in residuals.items()}


def _then(first: BasisChange, second: BasisChange) -> BasisChange:
    """`first` followed by `second`: joins on the middle index."""
    # pair entry i of first with every entry j of second where second.cols[j]
    # == first.rows[i]: `left` lists the i's, by i, `right` the matching j's
    order = np.argsort(second.cols, kind="stable")
    ordered = second.cols[order]
    starts = np.searchsorted(ordered, first.rows, side="left")
    counts = np.searchsorted(ordered, first.rows, side="right") - starts
    left = np.repeat(np.arange(len(first.rows)), counts)
    offsets = np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts, counts)
    right = order[np.repeat(starts, counts) + offsets]
    terms = second.coeffs[right] * first.coeffs[left]
    keys, slot = np.unique(second.rows[right] * first.source.dim + first.cols[left],
                           return_inverse=True)
    coeffs = _sum_by_index(slot, terms, len(keys))
    keep = coeffs != 0
    rows, cols = np.divmod(keys[keep], first.source.dim)
    return BasisChange(first.source, second.target, rows, cols, coeffs[keep])


def _identity(basis: SectorBasis) -> BasisChange:
    index = np.arange(basis.dim, dtype=np.intp)
    return BasisChange(basis, basis, index, index, np.ones(basis.dim, dtype=complex))


def _comb_fold(model: AnyonModel, shape, via: str) -> BasisChange:
    """The composed moves from the `shape` basis to the left (or right) comb
    basis, folded from the comb end: its inverse, used on the target side of
    a shape change, then associates like undoing the moves one at a time."""
    steps = []
    for vertex, direction in _moves_to_comb(shape, via):
        steps.append(elementary_fmove(model, shape, vertex, direction))
        shape = steps[-1].target.shape
    change = _identity(enumerate_basis(model, shape))
    for step in reversed(steps):
        change = _then(step, change)
    return change


def composed_changes(model: AnyonModel, shapes, via: str) -> list[list[BasisChange]]:
    """The composed change between every ordered pair of `shapes` (one leaf
    count), by source, then target: the source's fold to the left (or right)
    comb followed by the inverse of the target's, and the identity from a
    shape to itself.  Each shape's fold is built once.

    These are the maps the recoupling suite checks; the library regroups
    along the route instead (:func:`fibanyon.recouple.shape_change`).
    """
    folds = [_comb_fold(model, shape, via) for shape in shapes]
    return [[_identity(f.source) if f is g else
             _then(f, BasisChange(g.target, g.source, g.cols, g.rows, g.coeffs.conj()))
             for g in folds] for f in folds]


def _gaps(data: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The largest |entry| of ``data - other`` for each operator of a stack of
    data; overwrites `data`."""
    return np.max(np.abs(np.subtract(data, other, out=data)), axis=-1, initial=0.0)


def suite_algebra(model: AnyonModel, seed: int = 42, pairs: int = 500) -> SuiteResult:
    return _algebra_checks(algebra_samples(model, seed, pairs), pairs)


def _algebra_checks(samples: dict[str, np.ndarray], pairs: int) -> SuiteResult:
    out = SuiteResult("algebra")
    tol = 1e-10
    for n in (4, 6):
        out.add_residual(f"partial-trace consistency N={n} ({pairs} pairs)",
                         _worst(samples[f"consistency N={n}"]), tol)
    out.add("partial trace maps densities to densities", samples["densities"].all())
    out.add_residual("marginal spectra in [0,1], sum 1", _worst(samples["spreads"]), tol)
    out.add_residual("embedding is an algebra homomorphism", _worst(samples["homomorphism"]),
                     1e-12)
    out.add_residual("purity 1 for all kets and random sector states", _worst(samples["purity"]),
                     tol)
    return out


def algebra_samples(model: AnyonModel, seed: int, pairs: int) -> dict[str, np.ndarray]:
    """Each algebra check's value per sample, drawn as :func:`suite_algebra`
    draws them."""
    samples = {}
    # partial-trace consistency Tr(O_A Tr_B rho) == Tr(embed(O_A) rho)
    for n, n_a in ((4, 2), (6, 3)):
        part = bipartition(enumerate_basis(model, grouped_shape(n_a, n - n_a)), n_a)
        samples[f"consistency N={n}"] = consistency_gaps(part, sample_rng(seed, n), pairs)
    part4 = bipartition(enumerate_basis(model, grouped_shape(2, 2)), 2)
    rng = sample_rng(seed, 104)
    samples["densities"], samples["spreads"] = marginal_checks(part4, rng, 50)
    samples["homomorphism"] = homomorphism_gaps(part4, rng, 50)
    samples["purity"] = purity_gaps(model, sample_rng(seed, 105), 1000)
    return samples


# The algebra checks draw their samples in the order that one draw per
# operator or state, one sample after another, would take, and evaluate
# them as stacks along a leading axis (see the data functions of
# fibanyon.states): every value is bit for bit what one sample at a time
# gives.  A stack of operators on the split's whole basis is one stack of
# fibanyon.errors.stack_slices at 16 bytes a complex entry: 13 samples on
# the Fibonacci 2|2 basis (610 entries), but one N=6 consistency pair at a
# time, since a 3|3 density alone holds 28 657.
def _stacks(rng, count: int, units: int, draws: tuple):
    """The normal draws of `count` samples, each of shape `draws` and held
    as operators of `units` complex entries, in stacks drawn one at a time
    as the caller asks for them."""
    for stack in stack_slices(count, 16 * units):
        yield rng.standard_normal((stack.stop - stack.start,) + draws)


def consistency_gaps(part, rng, pairs: int) -> np.ndarray:
    """|Tr(O_A Tr_B rho) - Tr(embed(O_A) rho)| for `pairs` pairs of a random
    observable O_A on A and a random density rho, drawn in that order."""
    a, full = part.a_basis, part.basis
    gaps = []
    for normals in _stacks(rng, pairs, full.unit_count, (2 * (a.unit_count + full.unit_count),)):
        obs = observable_data(a, normals[:, :2 * a.unit_count])
        rho = density_data(full, normals[:, 2 * a.unit_count:])
        lhs = trace_data(a, product_data(a, obs, partial_trace_data(rho, part, "B")))
        rhs = trace_data(full, product_data(full, embed_data(obs, part, "A"), rho))
        gaps.extend(abs(z) for z in (lhs - rhs).tolist())  # Python's complex abs
    return np.array(gaps)


def marginal_checks(part, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """For both marginals (traced A, then B) of `count` random densities, each
    a (count, 2) array: whether it is a density, and how far its spectrum
    strays from [0, 1] or its sum from 1."""
    units = part.basis.unit_count
    densities, spreads = ([], []), ([], [])
    for normals in _stacks(rng, count, units, (2 * units,)):
        rho = density_data(part.basis, normals)
        for side, traced in enumerate("AB"):
            kept = part.kept_basis(traced)
            reduced = partial_trace_data(rho, part, traced)
            densities[side].extend(density_flags(kept, reduced).tolist())
            spreads[side].extend(max(0.0, -float(vals[-1]), float(vals[0]) - 1.0,
                                     abs(float(np.sum(vals)) - 1.0))
                                 for vals in spectra(*zip(*_sector_views(kept, reduced).values())))
    return np.array(densities).T, np.array(spreads).T


def homomorphism_gaps(part, rng, count: int) -> np.ndarray:
    """For `count` pairs of random observables O1, O2 on A, drawn in that
    order, the larger entry gap of embed(O1 O2) against embed(O1) embed(O2)
    and of embed(O1^dagger) against embed(O1)^dagger."""
    a, full = part.a_basis, part.basis
    gaps = []
    for normals in _stacks(rng, count, full.unit_count, (2, 2 * a.unit_count)):
        o1, o2 = observable_data(a, normals[:, 0]), observable_data(a, normals[:, 1])
        e1, e2 = embed_data(o1, part, "A"), embed_data(o2, part, "A")
        product = embed_data(product_data(a, o1, o2), part, "A") - product_data(full, e1, e2)
        adjoint = embed_data(adjoint_data(a, o1), part, "A") - adjoint_data(full, e1)
        gaps.append(np.maximum(np.max(np.abs(product), axis=-1, initial=0.0),
                               np.max(np.abs(adjoint), axis=-1, initial=0.0)))
    return np.concatenate(gaps)


def purity_gaps(model: AnyonModel, rng, draws: int) -> np.ndarray:
    """|Tr(rho^2) - 1| for the pure density of every ket of 1 to 4 anyons, in
    basis order, then of Haar random states: each of `draws` draws picks N,
    then a sector, then (if the sector is not empty) a state."""
    bases = {n: enumerate_basis(model, left_comb(n)) for n in range(1, 5)}
    gaps = []
    for basis in bases.values():
        kets = np.eye(basis.dim, dtype=complex)
        for g in model.charges:
            if basis.sector_dim(g):
                gaps.extend(_purity_gaps(basis, g, kets[basis.sector_slice(g)]))
    groups, order = {}, []
    for _ in range(draws):
        n = int(rng.integers(1, 5))
        sector = model.charges[int(rng.integers(0, len(model.charges)))]
        d = bases[n].sector_dim(sector)
        if d:
            groups.setdefault((n, sector), []).append(rng.standard_normal((2, d)))
            order.append((n, sector))
    drawn = {(n, g): iter(_purity_gaps(bases[n], g, sector_states(bases[n], g, np.array(normals))))
             for (n, g), normals in groups.items()}
    gaps.extend(next(drawn[key]) for key in order)
    return np.array(gaps)


def _purity_gaps(basis, sector, amplitudes: np.ndarray) -> list:
    """``abs(purity(pure_density(psi)) - 1.0)`` for each row of a stack of
    amplitudes of charge `sector`, bit for bit: the whole row normalised, then
    one product of the sector block with itself per state (the other blocks
    are 0)."""
    unit = _normalized_rows(amplitudes)
    kets = unit[:, basis.sector_slice(sector)]
    blocks = kets[:, :, None] * np.conjugate(kets)[:, None, :]  # np.outer, as from_ket_bra
    return [abs(float(np.einsum("ij,ji->", b, b).real) - 1.0) for b in blocks]


def _worst(residuals) -> float:
    return float(np.max(residuals, initial=0.0))


@fibonacci_only("the 2-anyon correlations suite")
def suite_correlations(model: AnyonModel, seed: int = 42, samples: int = 10000,
                       random_pairs: int = 1000) -> SuiteResult:
    from .correlations import local_observable_basis, pure_max_violations, violation_table

    out = SuiteResult("correlations")
    basis = enumerate_basis(model, grouped_shape(1, 1))
    part = bipartition(basis, 1)
    for charge in ("e", "tau"):
        model.charge_index(charge)  # another model raises FusionError here, before any draw
    sectors = [c for c in model.charges if basis.sector_dim(c) > 0]

    mismatches, boundary, n_checked = classification_sweep(
        part, sectors, sample_rng(seed, 201), samples // len(sectors), 1e-8, 1e-6)
    out.add(
        f"classification agrees with numeric verdict on {n_checked} samples"
        f" ({boundary} boundary redraws)",
        mismatches == 0,
        float(mismatches),
    )

    # the two explicit uncorrelated families satisfy the product condition: 50
    # (c1, c2) pairs, c1 on a family's first ket and c2 on its second, scored
    # in one stack whose row tops are is_uncorrelated's max_violation bit for bit
    rng = sample_rng(seed, 202)
    families = [basis.index_of_labels((ket, "tau,tau;tau")) for ket in ("tau,e;tau", "e,tau;tau")]
    pairs = np.empty((50, 2), dtype=complex)
    for k in range(50):
        th = rng.uniform(0, 2 * math.pi, size=4)
        mag = math.sqrt(rng.uniform(0.05, 0.95))
        pairs[k] = mag * np.exp(1j * th[0]), math.sqrt(1 - mag**2) * np.exp(1j * th[1])
    if not (abs((abs(pairs) ** 2).sum(axis=1) - 1.0) <= 1e-10).all():  # NaN fails
        raise ValueError("message amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    rows = np.zeros((len(families), len(pairs), basis.dim), dtype=complex)
    for family, kets in zip(rows, families):
        family[:, kets] = pairs
    tops, _ = pure_max_violations(rows.reshape(-1, basis.dim), part)
    out.add_residual("both uncorrelated families satisfy the product rule",
                     max(0.0, *tops.tolist()), 1e-12)

    # bilinearity: spanning-set violations reproduce random-observable ones
    ops_a = local_observable_basis(part.a_basis)
    ops_b = local_observable_basis(part.b_basis)
    rng = sample_rng(seed, 203)
    worst_recon = worst_excess = 0.0
    for sector in (None, "tau", "e"):  # the unequal-marginals state, then two random ones
        psi = random_pure_state(basis, sector, rng) if sector else _unequal_marginals_state(model)
        table = violation_table(psi, part)
        rho = pure_density(psi)
        rho_a = partial_trace(rho, part, traced="B")
        rho_b = partial_trace(rho, part, traced="A")
        rho_full = rho.to_full()
        emb_a = [embed_local(o, part, side="A").to_full() for o in ops_a]
        emb_b = [embed_local(o, part, side="B").to_full() for o in ops_b]
        ea = np.array([trace(o @ rho_a).real for o in ops_a])
        eb = np.array([trace(o @ rho_b).real for o in ops_b])
        span_max = float(np.max(np.abs(table)))
        for _ in range(random_pairs // 3):
            ca = rng.standard_normal(len(ops_a))
            cb = rng.standard_normal(len(ops_b))
            ca /= np.sum(np.abs(ca))
            cb /= np.sum(np.abs(cb))
            direct_a = sum(float(w) * mat for w, mat in zip(ca, emb_a))
            direct_b = sum(float(w) * mat for w, mat in zip(cb, emb_b))
            lhs = np.einsum("ij,ji->", direct_b, direct_a @ rho_full).real
            rhs = float(ca @ ea) * float(cb @ eb)
            violation = abs(lhs - rhs)
            reconstructed = abs(float(ca @ table @ cb))
            worst_recon = max(worst_recon, abs(violation - reconstructed))
            worst_excess = max(worst_excess, violation - span_max)
    out.add_residual("random-observable violations reconstruct bilinearly", worst_recon, 1e-10)
    out.add_residual("sampled violations never exceed the spanning-set maximum",
                     max(worst_excess, 0.0), 1e-10)
    return out


def classification_sweep(part, sectors, rng, per_sector: int, class_tol: float,
                         clear_margin: float) -> tuple[int, int, int]:
    """(mismatches, boundary redraws, states checked) of the closed-form class
    against the numeric verdict, on `per_sector` Haar draws per sector.

    An entangled draw whose violation is under `clear_margin` is degenerate,
    near the boundary: it is redrawn, and once redraws pass 10 * `per_sector`
    in all, a sector ends at its next one.  Draws come in stacks that stop
    where drawing one state at a time would: a stack holds no more states
    than are still owed, nor more than one redraw past the cap, so `rng`
    ends where one-at-a-time draws leave it.
    """
    from .correlations import pure_max_violations

    mismatches = boundary = checked = 0
    cap = 10 * per_sector
    for sector in sectors:
        done = 0
        while done < per_sector:
            count = min(per_sector - done, max(cap - boundary, 0) + 1)
            tops, labels = pure_max_violations(
                random_pure_states(part.basis, sector, rng, count), part)
            entangled = labels == "entangled"
            redrawn = entangled & (tops < clear_margin)
            mismatches += int(np.count_nonzero((entangled != (tops > class_tol)) & ~redrawn))
            boundary += int(np.count_nonzero(redrawn))
            done += count - int(np.count_nonzero(redrawn))
            if boundary > cap:
                break
        checked += done
    return mismatches, boundary, checked


def _unequal_marginals_state(model: AnyonModel):
    """(|e,tau;tau> + |tau,tau;tau>)/sqrt(2): unequal marginal spectra."""
    basis = enumerate_basis(model, grouped_shape(1, 1))
    return superpose([(1.0, ket(basis, "e,tau;tau")), (1.0, ket(basis, "tau,tau;tau"))])[0]


def suite_teleportation(model: AnyonModel, seed: int = 42, pvm_samples: int = 1000,
                        message_count: int = 10) -> SuiteResult:
    from .teleport import (
        MESSAGE_GRID,
        MessageQubit,
        builtin_scenarios,
        d1_family_resource,
        receiver_reachability_check,
        run_protocol,
        run_protocol_via_embedding,
        superselection_violating_protocol,
    )

    out = SuiteResult("teleportation")
    tol = 1e-10
    catalog = builtin_scenarios(model)
    rng = sample_rng(seed, 301)

    # probability conservation + fidelity bounds over random messages
    worst_prob = worst_fid = 0.0
    runnable = [s for directions in catalog.values() for s in directions.values()
                if s.pvm is not None]
    for scenario in runnable:
        for _ in range(25):
            alpha, beta = _random_message(rng)
            outcome = run_protocol(scenario, MessageQubit(alpha, beta))
            worst_prob = max(worst_prob, abs(outcome.total_probability() - 1.0))
            for br in outcome.branches + [outcome.no_click]:
                if br.fidelity is not None:
                    worst_fid = max(worst_fid, -br.fidelity, br.fidelity - 1.0)
    out.add_residual("probabilities sum to 1 (100 random messages)", worst_prob, tol)
    out.add_residual("fidelities within [0, 1]", max(worst_fid, 0.0), tol)

    # headline asymmetry: perfect A->B ...
    worst = 0.0
    for alpha, beta in MESSAGE_GRID:
        outcome = run_protocol(catalog["main-text"]["ab"], MessageQubit(alpha, beta))
        worst = max(worst, abs(outcome.average_fidelity - 1.0))
        worst = max(worst, max(abs(b.probability - 0.25) for b in outcome.branches))
    out.add_residual("main-text A->B perfect on the message grid", worst, tol)

    # ... while B->A cannot beat the classical diagonal bound
    scenario_ba = catalog["main-text"]["ba"]
    messages = [
        MessageQubit(1 / math.sqrt(2), np.exp(1j * th) / math.sqrt(2))
        for th in np.linspace(0.0, 2.0 * math.pi, message_count, endpoint=False)
    ]
    reach = receiver_reachability_check(
        scenario_ba, messages, pvm_samples=pvm_samples, seed=seed, tol=tol
    )
    out.add_residual(
        f"B->A receiver support confined ({reach.conditionals} conditionals)",
        reach.max_off_support,
        tol,
    )
    out.add_residual("B->A average fidelity never beats the diagonal-mixture oracle",
                     max(oracle_excess(scenario_ba, messages), 0.0), tol)

    # superselection disabled: the forbidden direction becomes perfect
    outcome = run_protocol(superselection_violating_protocol(model), MessageQubit(0.6, 0.8),
                           enforce_superselection=False)
    out.add_residual(
        "superselection off: constructed PVM teleports B->A perfectly",
        abs(outcome.average_fidelity - 1.0),
        tol,
    )

    # direction symmetry for the vacuum-sector resource family
    worst_sym = 0.0
    rng = sample_rng(seed, 303)
    for _ in range(10):
        resource = d1_family_resource(model, *_random_message(rng))
        d1_ab, d1_ba = (catalog["appendix-d1-symmetric"][d].with_resource(resource)
                        for d in ("ab", "ba"))
        for alpha, beta in MESSAGE_GRID:
            f_ab = run_protocol(d1_ab, MessageQubit(alpha, beta)).average_fidelity
            f_ba = run_protocol(d1_ba, MessageQubit(alpha, beta)).average_fidelity
            worst_sym = max(worst_sym, abs(f_ab - f_ba))
    out.add_residual("vacuum-sector resources teleport symmetrically", worst_sym, tol)

    # split-form engine agrees with the embedding route
    worst_agree = 0.0
    for scenario in runnable:
        outcome_a = run_protocol(scenario, MessageQubit(0.6, 0.8))
        outcome_b = run_protocol_via_embedding(scenario, MessageQubit(0.6, 0.8))
        for ba, bb in zip(outcome_a.branches + [outcome_a.no_click],
                          outcome_b.branches + [outcome_b.no_click]):
            worst_agree = max(worst_agree, abs(ba.probability - bb.probability))
            if ba.receiver_state is not None and bb.receiver_state is not None:
                worst_agree = max(worst_agree,
                                  float(np.max(np.abs(ba.receiver_state - bb.receiver_state))))
    out.add_residual("split engine matches global embedding route", worst_agree, tol)
    return out


def oracle_excess(scenario, messages) -> float:
    """Largest uncorrected average fidelity minus the diagonal-mixture bound,
    over `messages`, unclipped: exact for every complete sector-respecting PVM.

    Outcome k of a PVM {P_k} leaves the receiver mask(D_k D_k^dagger), with
    D_k = C P_k^T, weighted by its probability, so the average fidelity is
    sum_k <t|mask(C P_k^T C^dagger)|t> = <t|mask(C C^dagger)|t>, because the
    P_k sum to the identity: by no-signalling, the same for every such PVM,
    of any rank.
    """
    from .teleport import diagonal_mixture_fidelity_bound, split_states

    reachable = scenario.reachable_index()
    worst = -math.inf
    for split in split_states(scenario, messages):
        C, target = split.coefficients, split.target
        rho = np.where(split.receiver_mask, C @ C.conj().T, 0.0)
        bound = diagonal_mixture_fidelity_bound(target, reachable)
        worst = max(worst, float((target.conj() @ rho @ target).real) - bound)
    return worst


def _random_message(rng) -> tuple[complex, complex]:
    vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec /= np.linalg.norm(vec)
    return complex(vec[0]), complex(vec[1])


# name -> (suite, whether it takes the seed, its --quick keyword arguments);
# the full sample counts are the suites' defaults
SUITES = {
    "model": (suite_model, False, {}),
    "dims": (suite_dims, False, {}),
    "recoupling": (suite_recoupling, False, {"max_n": 4}),
    "algebra": (suite_algebra, True, {"pairs": 50}),
    "correlations": (suite_correlations, True, {"samples": 1000, "random_pairs": 100}),
    "teleportation": (suite_teleportation, True, {"pvm_samples": 100, "message_count": 4}),
}


def run_suites(
    model: AnyonModel | None = None,
    names=None,
    seed: int = 42,
    quick: bool = False,
) -> list[SuiteResult]:
    """Run the named suites (all by default).  `quick` shrinks sample counts.

    Every suite but "model" needs a model that passes :func:`validate_model`.
    In a run of all suites, a suite that cannot run on the model is returned
    as skipped; a suite named explicitly raises instead.
    """
    model = model or fibonacci_model()
    run_all = names is None
    names = list(SUITES) if run_all else list(names)
    refusal = validation_refusal(model)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
        if refusal and name != "model":
            if not run_all:
                raise ModelFormatError(refusal)
            results.append(SuiteResult(name, skipped=refusal))
            continue
        suite, seeded, reduced = SUITES[name]
        kwargs = reduced if quick else {}
        try:
            results.append(suite(model, seed=seed, **kwargs) if seeded else suite(model, **kwargs))
        except FibonacciOnlyError as exc:
            if not run_all:
                raise
            results.append(SuiteResult(name, skipped=str(exc)))
    return results
