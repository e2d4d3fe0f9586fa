"""Correlation diagnostics for bipartite anyonic states.

A bipartite state rho_AB is uncorrelated when

    Tr(O_A O_B rho_AB) = Tr(O_A rho_A) Tr(O_B rho_B)

for every pair of local observables.  Both sides are bilinear in
(O_A, O_B), so testing a Hermitian spanning set of each local observable
algebra decides the universally quantified statement; the largest
violation over the spanning set is reported as the witness.

The table of violations is read off the bipartition's charge blocks.
Realigning each block (g, x, y) of rho_g as
R[(a, a'), (b, b')] = rho[(a, b), (a', b')] gives
Tr((|a'><a| (x) |b'><b|) rho) for every pair of matrix units at once,
and each Hermitian unit is a fixed combination of matrix units: (k, k);
(k, l) + (l, k); i (k, l) - i (l, k).  So the table is R with one gather on its rows and
one on its columns.  The diagonal units sum to each party's identity, so
the single-party expectations are sums of the table's own entries.  No
dense matrix of the joint basis is formed.  A pure state's R is
C[a, b] conj(C[a', b']) with C its amplitude matrix: two gathers and one
product.  Everything that depends only on the split is built once per
bipartition, on first use (:func:`_plan`).

For two anyons this has a closed form.  Pure states split per sector as

    vacuum sector:  c_ee |e,e;e> + c_tt |tau,tau;e>
    tau sector:     c_te |tau,e;tau> + c_et |e,tau;tau> + c_tt |tau,tau;tau>

and a state is uncorrelated iff (vacuum sector) one of the two
coefficients vanishes, or (tau sector) c_te = 0 or c_et = 0.  The two tau
families intersect only in |tau,tau;tau> itself, which is reported
deterministically as the first class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BasisMismatchError, ShapeError, require_memory
from .states import (
    SPECTRAL_TOL,
    AnyonState,
    Bipartition,
    BlockOperator,
    marginal_blocks,
    partial_trace,
    spectra,
    spectra_agree,
)
from .trees import SectorBasis

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


class _Units(NamedTuple):
    """Gathers from matrix-unit positions to :func:`local_observable_basis` coordinates.

    A position is an entry (k, l) of one sector block, with the blocks
    raveled and concatenated in charge order; ``block[g]`` is the slice of
    sector g's positions, and ``row``/``col`` hold each position's k and l
    as basis indices.  ``diag``, ``sym`` and ``anti`` number the diagonal,
    symmetric and antisymmetric units (each antisymmetric unit follows its
    symmetric one), which read the positions ``at_kk`` and ``at_kl``/``at_lk``.
    """

    count: int
    block: dict
    row: np.ndarray
    col: np.ndarray
    diag: np.ndarray
    sym: np.ndarray
    anti: np.ndarray
    at_kk: np.ndarray
    at_kl: np.ndarray
    at_lk: np.ndarray


@functools.lru_cache(maxsize=256)
def _units(basis: SectorBasis) -> _Units:
    block, row, col, diag, sym, at_kk, at_kl, at_lk = {}, [], [], [], [], [], [], []
    first = 0  # the sector's first unit, and its first position
    for g in basis.model.charges:
        sector = basis.sector_slice(g)
        d = sector.stop - sector.start
        k, l = np.triu_indices(d, 1)
        block[g] = slice(first, first + d * d)
        row.append(np.repeat(np.arange(sector.start, sector.stop), d))
        col.append(np.tile(np.arange(sector.start, sector.stop), d))
        diag.append(first + np.arange(d))
        sym.append(first + d + 2 * np.arange(len(k)))
        at_kk.append(first + np.arange(d) * (d + 1))
        at_kl.append(first + k * d + l)
        at_lk.append(first + l * d + k)
        first += d * d
    row, col, diag, sym, at_kk, at_kl, at_lk = (
        np.concatenate(x) for x in (row, col, diag, sym, at_kk, at_kl, at_lk))
    return _Units(first, block, row, col, diag, sym, sym + 1, at_kk, at_kl, at_lk)


class _Plan(NamedTuple):
    """What every correlation test on one bipartition reuses: both parties'
    units and, per charge block (g, x, y) in order, the positions of A and B
    it fills and the gather from rho_g that realigns it.  All of it is
    O(units + blocks); nothing is the size of the table."""

    units_a: _Units
    units_b: _Units
    mixed: list


@functools.lru_cache(maxsize=256)
def _plan(part: Bipartition) -> _Plan:
    units_a, units_b = _units(part.a_basis), _units(part.b_basis)
    mixed = []
    for g, x, y, index in part.blocks:
        d_a, d_b = index.shape
        flat = index.ravel()
        mixed.append((g, units_a.block[x], units_b.block[y], flat[:, None], flat[None, :],
                      (d_a, d_b, d_a, d_b), (d_a**2, d_b**2)))
    return _Plan(units_a, units_b, mixed)


def _to_units(flat: np.ndarray, units: _Units) -> np.ndarray:
    """Rows of `flat`, indexed by position, in unit coordinates.

    Tr(O rho) = sum O[k, l] rho[l, k], so a diagonal unit reads rho at
    (k, k), a symmetric one (k, l) + (l, k) and an antisymmetric one
    i (k, l) - i (l, k).
    """
    out = np.empty(flat.shape, dtype=complex)
    out[units.diag] = flat[units.at_kk]
    if len(units.sym):
        kl, lk = flat[units.at_kl], flat[units.at_lk]
        out[units.sym] = kl + lk
        out[units.anti] = 1j * (kl - lk)
    return out


def local_observable_basis(basis: SectorBasis) -> list[BlockOperator]:
    """Hermitian spanning set of the block-diagonal operator algebra.

    Per sector of dimension d, in charge order: d diagonal units, then for
    every pair k < l the symmetric unit (1 at (k, l) and (l, k)) followed
    by the antisymmetric one (-i at (k, l), i at (l, k)) - d^2 operators,
    all superselection-respecting by construction.
    """
    units = _units(basis)
    # the identity, its unit coordinates and their conjugate: four count^2 arrays
    require_memory(64 * units.count ** 2,
                   f"the {units.count} local observables of a {basis.dim}-dim basis")
    # row i of the map to unit coordinates is unit i transposed: its conjugate
    rows = _to_units(np.eye(units.count), units).conj()
    return [
        BlockOperator(basis, {g: row[units.block[g]].reshape((basis.sector_dim(g),) * 2)
                              for g in basis.model.charges})
        for row in rows
    ]


def violation_table(state_or_rho, part: Bipartition) -> np.ndarray:
    """T[i, j] = Tr(O_A^i O_B^j rho) - Tr(O_A^i rho_A) Tr(O_B^j rho_B).

    O_A^i and O_B^j run over :func:`local_observable_basis` of the two
    parties.  `state_or_rho` is an :class:`AnyonState` (normalized first)
    or a density :class:`BlockOperator` in the grouped shape of `part`,
    whose trace must be 1 within ``SPECTRAL_TOL``.
    """
    if isinstance(state_or_rho, AnyonState):
        return _violations(part, part.amplitude_matrix(state_or_rho.normalized()))
    return _violations(part, state_or_rho)


def _violations(part: Bipartition, source) -> np.ndarray:
    """The violation table of a density :class:`BlockOperator`, or of the
    normalized pure state with amplitude matrix `source`."""
    plan = _plan(part)
    units_a, units_b = plan.units_a, plan.units_b
    # the table and its temporaries peak near five complex arrays of its size
    require_memory(80 * units_a.count * units_b.count,
                   f"the correlation table of a {part.n_a}|{part.n_b} split")
    # realigned[(a, a'), (b, b')] = sum_g rho_g[(a, b), (a', b')] on each block (g, x, y)
    if isinstance(source, np.ndarray):
        # C[a, b] conj(C[a', b']): C is 0 off the state's blocks, and so is the product
        realigned = source.take(units_a.row, 0).take(units_b.row, 1)
        realigned *= source.take(units_a.col, 0).take(units_b.col, 1).conj()
    else:
        if not source.basis.compatible(part.basis):  # same sector sizes would go unnoticed
            raise BasisMismatchError("objects live on different bases")
        realigned = np.zeros((units_a.count, units_b.count), dtype=complex)
        for g, at_a, at_b, rows, cols, shape, square in plan.mixed:
            realigned[at_a, at_b] += (
                source.blocks[g][rows, cols].reshape(shape).transpose(0, 2, 1, 3).reshape(square)
            )
    lhs = _to_units(_to_units(realigned, units_a).T, units_b).T.real
    # The diagonal units sum to the identity, so Tr(O_A^i rho_A) is the sum
    # of row i over B's diagonal units.  Read from the table, not from
    # separately rounded marginals, both terms of T use the same products.
    exp_a = lhs[:, units_b.diag].sum(axis=1)
    exp_b = lhs[units_a.diag].sum(axis=0)
    norm = float(exp_b[units_b.diag].sum())  # Tr rho
    if abs(norm - 1.0) > SPECTRAL_TOL:
        raise ValueError(f"density operator has trace {norm!r}, not 1")
    return lhs - np.outer(exp_a, exp_b)


def _witness(violations: np.ndarray) -> int:
    """Flat index of the first entry within 4 ulps of the largest.

    Exact ties are common (a one-anyon party's P_e and P_tau sum to 1), so
    the first of them wins whatever the rounding of the last digit.
    """
    top = violations.max()
    return int(np.argmax(violations >= top - 4 * np.spacing(top)))


def is_uncorrelated(
    state_or_rho,
    part: Bipartition,
    tol: float = DEFAULT_TOL,
) -> CorrelationReport:
    """Evaluate the uncorrelated-state condition over spanning observable sets.

    Accepts a pure :class:`AnyonState` or a density :class:`BlockOperator`
    already in the grouped shape of `part`.  The witness is the first
    (row-major) spanning pair within 4 ulps of the largest violation.  A
    pure state on the Fibonacci 2-anyon basis also gets its
    :func:`classify_pure_2anyon` class.
    """
    pure = isinstance(state_or_rho, AnyonState)
    if pure:
        # normalized once: the marginals, the table and the class read the same vector
        psi = state_or_rho.normalized()
        C = part.amplitude_matrix(psi)
        marginals = [marginal_blocks(C, part, traced).values() for traced in ("B", "A")]
        violations = np.abs(_violations(part, C))
    else:
        marginals = [partial_trace(state_or_rho, part, traced).blocks.values()
                     for traced in ("B", "A")]
        violations = np.abs(_violations(part, state_or_rho))
    top = float(violations.max())

    spec_a, spec_b = spectra(*marginals)
    label = None
    if pure and part.basis.shape.n_leaves == 2 and part.basis.labels == _FIBONACCI_PAIR:
        label = _pure_class(psi, ZERO_COEFF_TOL)
    return CorrelationReport(
        is_uncorrelated=top <= tol,
        max_violation=top,
        witness=divmod(_witness(violations), violations.shape[1]),
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

# The Fibonacci 2-anyon basis, in basis order: the one the classes are stated on.
_FIBONACCI_PAIR = ("e,e;e", "tau,tau;e", "e,tau;tau", "tau,e;tau", "tau,tau;tau")


def classify_pure_2anyon(psi: AnyonState, tol: float = ZERO_COEFF_TOL) -> str:
    """Closed-form class of a pure 2-anyon state from its coefficient support.

    Coefficients below `tol` in modulus count as zero; the state carried
    by |tau,tau;tau> alone sits in both tau families and is assigned
    class-1-tau deterministically.
    """
    if psi.basis.shape.n_leaves != 2:
        raise ShapeError("classification applies to 2-anyon states")
    return _pure_class(psi.normalized(), tol)


def _pure_class(psi: AnyonState, tol: float) -> str:
    """:func:`classify_pure_2anyon` of a normalized 2-anyon state."""
    if psi.sector == psi.basis.model.vacuum:
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
