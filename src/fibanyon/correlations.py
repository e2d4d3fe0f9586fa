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

from .errors import (BasisMismatchError, ShapeError, SuperselectionError, fibonacci_only,
                     require_memory)
from .states import (
    SPECTRAL_TOL,
    AnyonState,
    Bipartition,
    BlockOperator,
    _require_same_basis,
    _row_norms,
    marginal_blocks,
    normalized_amplitudes,
    partial_trace_blocks,
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

    A position is an entry (k, l) of one sector block, in an operator's
    :attr:`~fibanyon.states.BlockOperator.data` layout
    (:attr:`~fibanyon.trees.SectorBasis.block_slices`); ``row``/``col``
    hold each position's k and l as basis indices.  ``diag``, ``sym`` and
    ``anti`` number the diagonal, symmetric and antisymmetric units (each
    antisymmetric unit follows its symmetric one), which read the
    positions ``at_kk`` and ``at_kl``/``at_lk``.
    ``flat`` says every sector is one-dimensional: then every position is a
    diagonal unit and a basis index, and all these gathers are the identity.
    """

    row: np.ndarray
    col: np.ndarray
    diag: np.ndarray
    sym: np.ndarray
    anti: np.ndarray
    at_kk: np.ndarray
    at_kl: np.ndarray
    at_lk: np.ndarray
    flat: bool


@functools.lru_cache(maxsize=256)
def _units(basis: SectorBasis) -> _Units:
    row, col, diag, sym, at_kk, at_kl, at_lk = [], [], [], [], [], [], []
    for g in basis.model.charges:
        sector = basis.sector_slice(g)
        first = basis.block_slices[g].start  # the sector's first unit, and its first position
        d = sector.stop - sector.start
        k, l = np.triu_indices(d, 1)
        row.append(np.repeat(np.arange(sector.start, sector.stop), d))
        col.append(np.tile(np.arange(sector.start, sector.stop), d))
        diag.append(first + np.arange(d))
        sym.append(first + d + 2 * np.arange(len(k)))
        at_kk.append(first + np.arange(d) * (d + 1))
        at_kl.append(first + k * d + l)
        at_lk.append(first + l * d + k)
    row, col, diag, sym, at_kk, at_kl, at_lk = (
        np.concatenate(x) for x in (row, col, diag, sym, at_kk, at_kl, at_lk))
    return _Units(row, col, diag, sym, sym + 1, at_kk, at_kl, at_lk,
                  basis.unit_count == basis.dim)


def _to_units(flat: np.ndarray, units: _Units) -> np.ndarray:
    """Rows of `flat` (its second-to-last axis), indexed by position, in unit
    coordinates.

    Tr(O rho) = sum O[k, l] rho[l, k], so a diagonal unit reads rho at
    (k, k), a symmetric one (k, l) + (l, k) and an antisymmetric one
    i (k, l) - i (l, k).
    """
    out = np.empty(flat.shape, dtype=complex)
    out[..., units.diag, :] = flat[..., units.at_kk, :]
    if len(units.sym):
        kl, lk = flat[..., units.at_kl, :], flat[..., units.at_lk, :]
        out[..., units.sym, :] = kl + lk
        out[..., units.anti, :] = 1j * (kl - lk)
    return out


def _require_table_memory(part: Bipartition, count: int = 1):
    """`count` tables and their temporaries peak near five complex arrays of
    their size; checked from the sector dimensions, before anything is built."""
    tables = "the correlation table" if count == 1 else f"{count} correlation tables"
    require_memory(80 * count * part.a_basis.unit_count * part.b_basis.unit_count,
                   f"{tables} of a {part.n_a}|{part.n_b} split")


def local_observable_basis(basis: SectorBasis) -> list[BlockOperator]:
    """Hermitian spanning set of the block-diagonal operator algebra.

    Per sector of dimension d, in charge order: d diagonal units, then for
    every pair k < l the symmetric unit (1 at (k, l) and (l, k)) followed
    by the antisymmetric one (-i at (k, l), i at (l, k)) - d^2 operators,
    all superselection-respecting by construction.
    """
    count = basis.unit_count
    # the identity, its unit coordinates and their conjugate: four count^2 arrays
    require_memory(64 * count ** 2, f"the {count} local observables of a {basis.dim}-dim basis")
    # row i of the map to unit coordinates is unit i transposed: its conjugate
    rows = _to_units(np.eye(count), _units(basis)).conj()
    return [BlockOperator._of(basis, row) for row in rows]


class _Plan:
    """The correlation test compiled for one bipartition, built on its first
    call and cached with it (:func:`_plan`, 256 bipartitions, like
    :func:`~fibanyon.states.bipartition`).

    It holds both parties' :class:`_Units`, whether the split is the
    Fibonacci 2-anyon basis (whose pure states get a class), and, built on
    the first density, :attr:`fills`: per global charge, where each entry
    of rho_g lands in the realigned table.  A pure state's amplitude matrix
    is gathered through the bipartition's cached tables, whose -1 entries
    read an appended zero.  A one-dimensional-sector party's unit
    coordinates are its positions, so its gathers and unit conversions are
    skipped.  The memory guard runs on every call, from the sector
    dimensions alone, before the plan or any marginal is built.  Every
    report field and every table is bit for bit what the per-block route
    it replaced computed.  The pure route also takes a stack of amplitude
    matrices (leading axes) and gives each one's table, bit for bit as
    one at a time.
    """

    def __init__(self, part: Bipartition):
        self.part = part
        self.units_a, self.units_b = _units(part.a_basis), _units(part.b_basis)
        basis = part.basis
        self.fibonacci_pair = basis.shape.n_leaves == 2 and basis.labels == _FIBONACCI_PAIR

    @functools.cached_property
    def fills(self) -> list:
        """Per nonempty global charge g, in charge order: the flat table
        positions of its blocks (g, x, y) and the positions in rho's
        :attr:`~fibanyon.states.BlockOperator.data` they read.  Block (g, x, y)
        puts rho_g[(a, b), (a', b')] at row (a, a') of x's positions and
        column (b, b') of y's.  The blocks of one charge
        fill disjoint positions, so one indexed add per charge adds each
        entry in the per-block order."""
        part = self.part
        at, src = {}, {}
        for g, x, y, index in part.blocks:
            d_a, d_b = index.shape
            rows = part.a_basis.block_slices[x].start + np.arange(d_a * d_a)
            cols = part.b_basis.block_slices[y].start + np.arange(d_b * d_b)
            at.setdefault(g, []).append((rows[:, None] * part.b_basis.unit_count + cols).ravel())
            row = part.basis.block_slices[g].start + index * part.basis.sector_dim(g)
            src.setdefault(g, []).append((row[:, None, :, None] + index[None, :, None, :]).ravel())
        return [(np.concatenate(at[g]), np.concatenate(src[g])) for g in at]

    def realigned_pure(self, C: np.ndarray) -> np.ndarray:
        """C[..., a, b] conj(C[..., a', b']) for the normalized pure states with
        amplitude matrices C; C is 0 off a state's blocks, and so is the product."""
        units_a, units_b = self.units_a, self.units_b
        rows, cols = C, C
        if not units_a.flat:
            rows, cols = C.take(units_a.row, -2), C.take(units_a.col, -2)
        realigned = rows.copy() if units_b.flat else rows.take(units_b.row, -1)
        realigned *= (cols if units_b.flat else cols.take(units_b.col, -1)).conj()
        return realigned

    def realigned_mixed(self, data: np.ndarray) -> np.ndarray:
        """sum_g rho_g[(a, b), (a', b')] on each block (g, x, y), from rho's
        :attr:`~fibanyon.states.BlockOperator.data`."""
        shape = (self.part.a_basis.unit_count, self.part.b_basis.unit_count)
        realigned = np.zeros(shape[0] * shape[1], dtype=complex)
        for at, src in self.fills:
            realigned[at] += data.take(src)
        return realigned.reshape(shape)

    def violations(self, realigned: np.ndarray) -> np.ndarray:
        """The violation table from the realigned table, or a stack of them
        (leading axes) from a stack of realigned tables."""
        units_a, units_b = self.units_a, self.units_b
        # unit coordinates of A's rows, then of B's columns (a C-ordered copy when flat)
        table = realigned if units_a.flat else _to_units(realigned, units_a)
        table = table.swapaxes(-1, -2)
        table = table.copy() if units_b.flat else _to_units(table, units_b)
        lhs = table.swapaxes(-1, -2).real
        # The diagonal units sum to the identity, so Tr(O_A^i rho_A) is the sum
        # of row i over B's diagonal units.  Read from the table, not from
        # separately rounded marginals, both terms of T use the same products.
        exp_a = np.add.reduce(lhs[..., units_b.diag], -1)
        exp_b = np.add.reduce(lhs[..., units_a.diag, :], -2)
        if realigned.ndim == 2:  # a stack is of normalized pure states; one may be a density
            norm = float(np.add.reduce(exp_b[units_b.diag]))  # Tr rho
            if abs(norm - 1.0) > SPECTRAL_TOL:
                raise ValueError(f"density operator has trace {norm!r}, not 1")
        return lhs - exp_a[..., :, None] * exp_b[..., None, :]


_plan = functools.lru_cache(maxsize=256)(_Plan)


def _checked_plan(state_or_rho, part: Bipartition) -> _Plan:
    """The plan of `part`, after the basis and memory checks."""
    _require_same_basis(state_or_rho.basis, part.basis)
    _require_table_memory(part)
    return _plan(part)


def _pure(psi: AnyonState, part: Bipartition):
    """(plan, normalized amplitudes, charge, amplitude matrix) of a pure
    state, after the zero-state, basis and memory checks."""
    amplitudes = normalized_amplitudes(psi.amplitudes)
    plan = _checked_plan(psi, part)
    g = part.basis.sector_of(amplitudes.nonzero()[0][0])
    return plan, amplitudes, g, part.gather(amplitudes, g)


def violation_table(state_or_rho, part: Bipartition) -> np.ndarray:
    """T[i, j] = Tr(O_A^i O_B^j rho) - Tr(O_A^i rho_A) Tr(O_B^j rho_B).

    O_A^i and O_B^j run over :func:`local_observable_basis` of the two
    parties.  `state_or_rho` is an :class:`AnyonState` (normalized first)
    or a density :class:`BlockOperator` in the grouped shape of `part`,
    whose trace must be 1 within ``SPECTRAL_TOL``.
    """
    if isinstance(state_or_rho, AnyonState):
        plan, _, _, C = _pure(state_or_rho, part)
        return plan.violations(plan.realigned_pure(C))
    plan = _checked_plan(state_or_rho, part)
    return plan.violations(plan.realigned_mixed(state_or_rho.data))


def _witness(violations: np.ndarray, top: float) -> int:
    """Flat index of the first entry within 4 ulps of the largest, `top`.

    Exact ties are common (a one-anyon party's P_e and P_tau sum to 1), so
    the first of them wins whatever the rounding of the last digit.
    """
    return int((violations >= top - 4 * np.spacing(top)).argmax())


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
    label = None
    if isinstance(state_or_rho, AnyonState):
        plan, amplitudes, g, C = _pure(state_or_rho, part)
        marginals = [marginal_blocks(C, part, traced, None) for traced in ("B", "A")]
        realigned = plan.realigned_pure(C)
        if plan.fibonacci_pair:
            label = _pure_class(g == part.basis.model.vacuum, amplitudes)
    else:
        plan = _checked_plan(state_or_rho, part)
        marginals = [partial_trace_blocks(state_or_rho.data, part, traced, None)
                     for traced in ("B", "A")]
        realigned = plan.realigned_mixed(state_or_rho.data)
    violations = np.abs(plan.violations(realigned))
    top = float(np.maximum.reduce(violations, axis=None))
    spec_a, spec_b = spectra(*marginals)
    return CorrelationReport(
        is_uncorrelated=top <= tol,
        max_violation=top,
        witness=divmod(_witness(violations, top), violations.shape[1]),
        marginal_spectra=(spec_a, spec_b),
        spectra_symmetric=spectra_agree(spec_a, spec_b, tol),
        tol=tol,
        pure_class=label,
    )


def pure_max_violations(amplitudes: np.ndarray, part: Bipartition):
    """The largest |T| of each pure state in a stack, and its 2-anyon class.

    Each row of `amplitudes` is a pure state (normalized first) in one
    global-charge sector of the grouped shape of `part`.  Returns the rows'
    maxima and their :data:`PURE_CLASSES` labels (None off the Fibonacci
    2-anyon basis), bit for bit the ``max_violation`` and ``pure_class``
    that :func:`is_uncorrelated` gives each row, from one stacked pass of
    the plan per sector.  The memory guard counts every row's table.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    basis = part.basis
    if amplitudes.ndim != 2 or amplitudes.shape[1] != basis.dim:
        raise BasisMismatchError(
            f"amplitude rows have shape {amplitudes.shape}, basis dim {basis.dim}")
    _require_table_memory(part, len(amplitudes))
    norms = _row_norms(amplitudes)
    if not norms.all():
        raise ValueError("cannot normalize the zero state")
    amplitudes = amplitudes / norms[:, None]
    support = amplitudes != 0
    charge = basis.charges[:, 0]  # each tree's global charge, as an index
    sectors = charge[support.argmax(axis=1)]
    if (support & (charge != sectors[:, None])).any():
        raise SuperselectionError("a row has support in several global-charge sectors")
    plan = _plan(part)
    tops = np.empty(len(amplitudes))
    labels = np.empty(len(amplitudes), dtype=object) if plan.fibonacci_pair else None
    for k, g in enumerate(basis.model.charges):
        rows = sectors == k
        if rows.any():
            C = part.gather(amplitudes[rows], g)
            tops[rows] = np.abs(plan.violations(plan.realigned_pure(C))).max(axis=(-2, -1))
            if labels is not None:
                labels[rows] = _pure_classes(g == basis.model.vacuum, amplitudes[rows])
    return tops, labels


# Class labels for pure 2-anyon states.  The vacuum-sector products keep
# either |e,e;e> or |tau,tau;e>; the two tau-sector families are
#   class-1-tau: no |e,tau;tau> component (spans |tau,e;tau>, |tau,tau;tau>)
#   class-2-tau: no |tau,e;tau> component (spans |e,tau;tau>, |tau,tau;tau>)
PURE_CLASSES = ("product-e-alpha", "product-e-beta", "class-1-tau", "class-2-tau", "entangled")

# The Fibonacci 2-anyon basis, in basis order: the one the classes are stated on.
_FIBONACCI_PAIR = ("e,e;e", "tau,tau;e", "e,tau;tau", "tau,e;tau", "tau,tau;tau")

# Per sector (vacuum or not): the positions in _FIBONACCI_PAIR of the two
# coefficients whose vanishing puts a pure state in a product family, and the
# classes: entangled, the first family's (which wins where both vanish) and
# the second's.
_FAMILIES = {
    True: ((1, 0), ("entangled", "product-e-alpha", "product-e-beta")),
    False: ((2, 3), ("entangled", "class-1-tau", "class-2-tau")),
}


@fibonacci_only("the pure 2-anyon classification")
def classify_pure_2anyon(psi: AnyonState) -> str:
    """Closed-form class of a pure 2-anyon state from its coefficient support.

    Coefficients below ``ZERO_COEFF_TOL`` in modulus count as zero; the
    state carried by |tau,tau;tau> alone sits in both tau families and is
    assigned class-1-tau deterministically.
    """
    if psi.basis.shape.n_leaves != 2:
        raise ShapeError("classification applies to 2-anyon states")
    psi = psi.normalized()
    amplitudes = [psi.amplitude(label) for label in _FIBONACCI_PAIR[:4]]
    return _pure_class(psi.sector == psi.basis.model.vacuum, amplitudes)


def _pure_class(vacuum: bool, amplitudes) -> str:
    """:func:`classify_pure_2anyon` from the normalized amplitudes of the
    first four trees of ``_FIBONACCI_PAIR``."""
    (first, second), (entangled, first_family, second_family) = _FAMILIES[vacuum]
    if abs(amplitudes[first]) <= ZERO_COEFF_TOL:
        return first_family
    if abs(amplitudes[second]) <= ZERO_COEFF_TOL:
        return second_family
    return entangled


def _pure_classes(vacuum: bool, amplitudes: np.ndarray) -> np.ndarray:
    """:func:`_pure_class` of each row of normalized amplitudes; ``np.hypot``
    rounds each modulus as ``abs`` of one complex number does."""
    (first, second), classes = _FAMILIES[vacuum]
    zero = np.hypot(amplitudes.real, amplitudes.imag) <= ZERO_COEFF_TOL
    return np.array(classes, dtype=object)[np.where(zero[:, first], 1, 2 * zero[:, second])]
