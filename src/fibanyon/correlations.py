"""Correlation diagnostics for bipartite anyonic states.

A bipartite state rho_AB is uncorrelated when

    Tr(O_A O_B rho_AB) = Tr(O_A rho_A) Tr(O_B rho_B)

for every pair of local observables.  Both sides are bilinear in
(O_A, O_B), so testing a Hermitian spanning set of each local observable
algebra decides the universally quantified statement; the largest
violation over the spanning set is reported as the witness.

The whole table of violations is one sparse contraction.  Each party's
spanning set is kept, embedded, as (operator, row, col, coeff) entries in
the joint basis, built once per :class:`Bipartition` from its partial-trace
families.  Joining the B entries' columns with the A entries' rows gives
every nonzero term of Tr(O_B O_A rho) = sum B[p, q] A[q, r] rho[r, p]; the
terms are weighted by rho[r, p] (for a pure state psi_r conj(psi_p), read
from the amplitudes) and summed into their (O_A, O_B) slot with one
``np.bincount``.  The single-party expectations come from the same entries.
No dense matrix of the joint basis is formed.

For two anyons this has a closed form.  Pure states split per sector as

    vacuum sector:  c_ee |e,e;e> + c_tt |tau,tau;e>
    tau sector:     c_te |tau,e;tau> + c_et |e,tau;tau> + c_tt |tau,tau;tau>

and a state is uncorrelated iff (vacuum sector) one of the two
coefficients vanishes, or (tau sector) c_te = 0 or c_et = 0.  The two tau
families intersect only in |tau,tau;tau> itself, which is reported
deterministically as the first class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .states import (
    AnyonState,
    Bipartition,
    BlockOperator,
    _join,
    bipartition,
    embed_local,
    hermitian_units,
    partial_trace,
    pure_marginal,
    spectra_agree,
    spectrum,
)
from .trees import SectorBasis, enumerate_basis, grouped_shape

DEFAULT_TOL = 1e-10
ZERO_COEFF_TOL = 1e-10  # classification threshold on amplitude moduli


@dataclass
class CorrelationReport:
    """Outcome of the uncorrelated-state test on one bipartite state."""

    is_uncorrelated: bool
    max_violation: float
    witness: tuple[int, int]
    marginal_spectra: tuple[np.ndarray, np.ndarray]
    spectra_symmetric: bool
    tol: float
    pure_class: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "uncorrelated": self.is_uncorrelated,
            "max_violation": self.max_violation,
            "witness_a": self.witness[0],
            "witness_b": self.witness[1],
            "spectrum_a": [float(x) for x in self.marginal_spectra[0]],
            "spectrum_b": [float(x) for x in self.marginal_spectra[1]],
            "class": self.pure_class,
        }


def local_observable_basis(basis: SectorBasis) -> list[BlockOperator]:
    """The operators of :func:`~fibanyon.states.hermitian_units`, one per block operator.

    Per sector of dimension d: d diagonal units, and for every pair k < l
    the symmetric and antisymmetric Hermitian units - d^2 operators, all
    superselection-respecting by construction.
    """
    units = hermitian_units(basis)
    bounds = np.searchsorted(units.op, np.arange(units.count + 1))
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows, cols = units.row[lo:hi], units.col[lo:hi]
        g = basis.sector_of(rows[0])
        start = basis.sector_slice(g).start
        d = basis.sector_dim(g)
        block = np.zeros((d, d), dtype=complex)
        block[rows - start, cols - start] = units.coeff[lo:hi]
        out.append(BlockOperator(basis, {g: block}))
    return out


def _density_at(state_or_rho, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rho[rows[k], cols[k]]; for a pure state psi[rows] * conj(psi[cols])."""
    if isinstance(state_or_rho, AnyonState):
        amps = state_or_rho.amplitudes
        return amps[rows] * amps[cols].conj()
    return state_or_rho.at(rows, cols)


def violation_table(state_or_rho, part: Bipartition) -> np.ndarray:
    """T[i, j] = Tr(O_A^i O_B^j rho) - Tr(O_A^i rho_A) Tr(O_B^j rho_B).

    O_A^i and O_B^j run over :func:`local_observable_basis` of the two
    parties.  `state_or_rho` is a normalized :class:`AnyonState` or a
    density :class:`BlockOperator` in the grouped shape of `part`.
    """
    a = part.spanning_entries("A")
    b = part.spanning_entries("B")
    exp_a = np.bincount(a.op, (a.coeff * _density_at(state_or_rho, a.col, a.row)).real,
                        minlength=a.count)
    exp_b = np.bincount(b.op, (b.coeff * _density_at(state_or_rho, b.col, b.row)).real,
                        minlength=b.count)
    # Tr(O_B O_A rho) = sum B[p, q] A[q, r] rho[r, p]: B's column q meets A's row q
    in_b, in_a = _join(b.col, a.row)
    terms = b.coeff[in_b] * a.coeff[in_a] * _density_at(state_or_rho, a.col[in_a], b.row[in_b])
    lhs = np.bincount(a.op[in_a] * b.count + b.op[in_b], terms.real,
                      minlength=a.count * b.count)
    return lhs.reshape(a.count, b.count) - np.outer(exp_a, exp_b)


def is_uncorrelated(
    state_or_rho,
    part: Bipartition,
    tol: float = DEFAULT_TOL,
    classify: bool = True,
) -> CorrelationReport:
    """Evaluate the uncorrelated-state condition over spanning observable sets.

    Accepts a pure :class:`AnyonState` or a density :class:`BlockOperator`
    already in the grouped shape of `part`.  The witness is the first
    (row-major) spanning pair of largest violation.
    """
    if isinstance(state_or_rho, AnyonState):
        psi = state_or_rho.normalized()
        rho_a = pure_marginal(psi, part, traced="B")
        rho_b = pure_marginal(psi, part, traced="A")
        table = violation_table(psi, part)
    else:
        psi = None
        rho_a = partial_trace(state_or_rho, part, traced="B")
        rho_b = partial_trace(state_or_rho, part, traced="A")
        table = violation_table(state_or_rho, part)
    violations = np.abs(table)
    worst = int(np.argmax(violations))

    spec_a = spectrum(rho_a)
    spec_b = spectrum(rho_b)
    label = None
    if classify and psi is not None and part.basis.shape.n_leaves == 2:
        label = classify_pure_2anyon(psi)
    return CorrelationReport(
        is_uncorrelated=bool(violations.flat[worst] <= tol),
        max_violation=float(violations.flat[worst]),
        witness=divmod(worst, table.shape[1]),
        marginal_spectra=(spec_a, spec_b),
        spectra_symmetric=spectra_agree(spec_a, spec_b, tol),
        tol=tol,
        pure_class=label,
    )


# Class labels for pure 2-anyon states.  The vacuum-sector products keep
# either |e,e;e> or |tau,tau;e>; the two tau-sector families are
#   class-1-tau: no |e,tau;tau> component (spans |tau,e;tau>, |tau,tau;tau>)
#   class-2-tau: no |tau,e;tau> component (spans |e,tau;tau>, |tau,tau;tau>)
PURE_CLASSES = ("product-e-alpha", "product-e-beta", "class-1-tau", "class-2-tau", "entangled")


def classify_pure_2anyon(psi: AnyonState, tol: float = ZERO_COEFF_TOL) -> str:
    """Closed-form class of a pure 2-anyon state from its coefficient support.

    Coefficients below `tol` in modulus count as zero; the state carried
    by |tau,tau;tau> alone sits in both tau families and is assigned
    class-1-tau deterministically.
    """
    basis = psi.basis
    if basis.shape.n_leaves != 2:
        raise ShapeError("classification applies to 2-anyon states")
    psi = psi.normalized()
    sector = psi.sector
    if sector == basis.model.vacuum:
        c_ee = abs(psi.amplitude("e,e;e"))
        c_tt = abs(psi.amplitude("tau,tau;e"))
        if c_tt <= tol:
            return "product-e-alpha"
        if c_ee <= tol:
            return "product-e-beta"
        return "entangled"
    c_te = abs(psi.amplitude("tau,e;tau"))  # tau on side A
    c_et = abs(psi.amplitude("e,tau;tau"))  # tau on side B
    if c_et <= tol:
        return "class-1-tau"
    if c_te <= tol:
        return "class-2-tau"
    return "entangled"


def is_maximally_entangled_2anyon(
    psi: AnyonState, tol: float = DEFAULT_TOL
) -> tuple[bool, float | None]:
    """True iff both 1-anyon marginals are maximally mixed (diag(1/2, 1/2)).

    When the state matches the tau-sector family
    (|e,tau;tau> + e^{i phi} |tau,e;tau>)/sqrt(2) the relative phase phi is
    returned; otherwise the phase slot is None.
    """
    basis = psi.basis
    if basis.shape.n_leaves != 2:
        raise ShapeError("maximal-entanglement test applies to 2-anyon states")
    psi = psi.normalized()
    part = bipartition(basis, 1)
    target = np.array([0.5, 0.5])
    for traced in ("B", "A"):
        marg = pure_marginal(psi, part, traced=traced)
        if np.max(np.abs(spectrum(marg) - target)) > tol:
            return False, None
    c_et = psi.amplitude("e,tau;tau")
    c_te = psi.amplitude("tau,e;tau")
    if abs(abs(c_et) - 1 / math.sqrt(2)) <= tol and abs(abs(c_te) - 1 / math.sqrt(2)) <= tol:
        return True, float(np.angle(c_te / c_et))
    return True, None


def local_unitary_orbit_check(
    psi: AnyonState, samples: int = 100, seed: int = 0, tol: float = 1e-12
) -> bool:
    """Products of local unitaries only re-phase the coefficients.

    One-anyon unitaries respecting the superselection rule are diagonal
    phase pairs, so U_A V_B embedded leaves every amplitude modulus of a
    2-anyon state fixed; verified here on `samples` random phase draws.
    """
    basis = psi.basis
    if basis.shape.n_leaves != 2:
        raise ShapeError("orbit check applies to 2-anyon states")
    part = bipartition(basis, 1)
    one_anyon = part.a_basis
    rng = np.random.default_rng(seed)
    moduli = np.abs(psi.amplitudes)
    for _ in range(samples):
        th = rng.uniform(0.0, 2.0 * math.pi, size=4)
        u_a = BlockOperator(
            one_anyon, {"e": [[np.exp(1j * th[0])]], "tau": [[np.exp(1j * th[1])]]}
        )
        v_b = BlockOperator(
            one_anyon, {"e": [[np.exp(1j * th[2])]], "tau": [[np.exp(1j * th[3])]]}
        )
        product = embed_local(u_a, part, side="A") @ embed_local(v_b, part, side="B")
        moved = product.apply(psi)
        if np.max(np.abs(np.abs(moved.amplitudes) - moduli)) > tol:
            return False
    return True


def random_pure_2anyon(model, sector, rng) -> AnyonState:
    """Uniform random pure 2-anyon state in one sector (standard shape)."""
    from .states import random_pure_state

    basis = enumerate_basis(model, grouped_shape(1, 1))
    return random_pure_state(basis, sector, rng)
