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
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (BasisMismatchError, ShapeError, SuperselectionError, fibonacci_only,
                     require_memory, stack_slices)
from .states import (
    SPECTRAL_TOL,
    AnyonState,
    Bipartition,
    BlockOperator,
    _normalized_rows,
    _require_same_basis,
    buffer_spectra,
    gathered_sums,
    marginal_into,
    normalized_amplitudes,
    spectra_agree,
    spectra_layout,
    summed_gather,
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


def _to_units(flat: np.ndarray, units: _Units, axis: int = -2) -> np.ndarray:
    """`flat` in unit coordinates along `axis`, its rows (-2) or its columns
    (-1), which are indexed by position.

    Tr(O rho) = sum O[k, l] rho[l, k], so a diagonal unit reads rho at
    (k, k), a symmetric one (k, l) + (l, k) and an antisymmetric one
    i (k, l) - i (l, k).
    """
    def at(index):
        return (Ellipsis, index) if axis == -1 else (Ellipsis, index, slice(None))

    out = np.empty(flat.shape, dtype=complex)
    out[at(units.diag)] = flat[at(units.at_kk)]
    if len(units.sym):
        kl, lk = flat[at(units.at_kl)], flat[at(units.at_lk)]
        out[at(units.sym)] = kl + lk
        out[at(units.anti)] = 1j * (kl - lk)
    return out


def _require_table_memory(part: Bipartition) -> int:
    """The bytes of one table and its temporaries, which peak near five
    complex arrays of its size, after checking that they fit; from the
    sector dimensions, before anything is built."""
    nbytes = 80 * part.a_basis.unit_count * part.b_basis.unit_count
    require_memory(nbytes, "the correlation table of a %d|%d split", part.n_a, part.n_b)
    return nbytes


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

    It holds both parties' :class:`_Units`, built here (one set when both
    parties have one basis); whether the split is the Fibonacci 2-anyon
    basis (whose pure states get a class); where the marginals buffer, A's
    marginal data followed by B's, splits and how its spectra are read
    (:func:`~fibanyon.states.spectra_layout`); and, built on the first
    density, the gathers that sum a density's entries into the realigned
    table (:attr:`fills`) and into the marginals buffer (:attr:`traces`).
    A pure state's amplitude matrix is gathered through the bipartition's
    cached tables.  A one-anyon party's unit coordinates are its positions
    (``flat``), so its gathers and unit conversions are skipped.  The
    memory guard runs on every call, from the sector dimensions alone,
    before the plan or any marginal is built; a density's trace is checked
    on its A marginal (:func:`_density`).  Every report field and every
    table is bit for bit what the per-block route it replaced computed.
    The pure route also takes a stack of amplitude matrices (leading axes)
    and gives each one's table, bit for bit as one at a time.
    """

    def __init__(self, part: Bipartition):
        self.part = part
        self.units_a = _units(part.a_basis)
        # one set for both parties keeps a warm call's working set small
        self.units_b = self.units_a if part.b_basis is part.a_basis else _units(part.b_basis)
        basis = part.basis
        self.fibonacci_pair = basis.shape.n_leaves == 2 and basis.labels == _FIBONACCI_PAIR
        self.split = part.a_basis.unit_count
        self.spectra = spectra_layout(tuple(tuple(d for _, _, (d, _) in party.block_layout if d)
                                            for party in (part.a_basis, part.b_basis)))

    @functools.cached_property
    def fills(self) -> tuple[np.ndarray, tuple]:
        """A :func:`~fibanyon.states.summed_gather` of rho's
        :attr:`~fibanyon.states.BlockOperator.data` into the flat realigned
        table.  Block (g, x, y) puts rho_g[(a, b), (a', b')] at row (a, a') of
        x's positions and column (b, b') of y's; a column lists its entries in
        global-charge order, the order in which one add per charge summed
        them."""
        part = self.part
        columns = [[] for _ in range(self.split * part.b_basis.unit_count)]
        for g, x, y, index in part.blocks:  # in global-charge order
            d_a, d_b = index.shape
            rows = part.a_basis.block_slices[x].start + np.arange(d_a * d_a)
            cols = part.b_basis.block_slices[y].start + np.arange(d_b * d_b)
            at = (rows[:, None] * part.b_basis.unit_count + cols).ravel()
            row = part.basis.block_slices[g].start + index * part.basis.sector_dim(g)
            src = (row[:, None, :, None] + index[None, :, None, :]).ravel()
            for p, q in zip(at.tolist(), src.tolist()):
                columns[p].append(q)
        return summed_gather(columns, part.basis.unit_count)

    @functools.cached_property
    def traces(self) -> tuple[np.ndarray, tuple]:
        """Both partial traces, A's marginal (traced B) first, as one
        :func:`~fibanyon.states.summed_gather` of rho's data into the
        marginals buffer (:meth:`~fibanyon.states.Bipartition.trace_columns`)."""
        part = self.part
        return summed_gather(part.trace_columns("B") + part.trace_columns("A"),
                             part.basis.unit_count)

    def pure_marginals(self, C: np.ndarray, conj: np.ndarray) -> np.ndarray:
        """The marginals buffer of the normalized pure state with amplitude
        matrix C, and ``conj = C.conj()``."""
        out = np.empty(self.split + self.part.b_basis.unit_count, dtype=complex)
        marginal_into(C, conj, self.part, "B", out[:self.split])
        marginal_into(C, conj, self.part, "A", out[self.split:])
        return out

    def mixed_marginals(self, data: np.ndarray) -> np.ndarray:
        """The marginals buffer of the density with :attr:`~fibanyon.states.BlockOperator.data`
        `data`."""
        out = np.empty(self.split + self.part.b_basis.unit_count, dtype=complex)
        gathered_sums(data, self.traces, out)
        return out

    def realigned_pure(self, C: np.ndarray, conj: np.ndarray) -> np.ndarray:
        """C[..., a, b] conj(C[..., a', b']) for the normalized pure states with
        amplitude matrices C, and ``conj = C.conj()``; C is 0 off a state's
        blocks, and so is the product."""
        units_a, units_b = self.units_a, self.units_b
        rows, cols = C, conj
        if not units_a.flat:
            rows, cols = C.take(units_a.row, -2), conj.take(units_a.col, -2)
        if units_b.flat:
            return rows * cols
        return rows.take(units_b.row, -1) * cols.take(units_b.col, -1)

    def realigned_mixed(self, data: np.ndarray) -> np.ndarray:
        """sum_g rho_g[(a, b), (a', b')] on each block (g, x, y), from rho's
        :attr:`~fibanyon.states.BlockOperator.data`."""
        out = np.empty((self.split, self.part.b_basis.unit_count), dtype=complex)
        gathered_sums(data, self.fills, out.reshape(-1))
        return out

    def violations(self, realigned: np.ndarray) -> np.ndarray:
        """The violation table from the realigned table, or a stack of them
        (leading axes) from a stack of realigned tables."""
        units_a, units_b = self.units_a, self.units_b
        # unit coordinates of A's rows, then of B's columns
        table = realigned if units_a.flat else _to_units(realigned, units_a)
        lhs = (table if units_b.flat else _to_units(table, units_b, -1)).real
        # The diagonal units sum to the identity, so Tr(O_A^i rho_A) is the sum
        # of row i over B's diagonal units.  Read from the table, not from
        # separately rounded marginals, both terms of T use the same products.
        # (kept as a column and a row, so that they broadcast to the table)
        exp_a = np.add.reduce(lhs if units_b.flat else lhs[..., units_b.diag], -1, keepdims=True)
        exp_b = np.add.reduce(lhs if units_a.flat else lhs[..., units_a.diag, :], -2, keepdims=True)
        return lhs - exp_a * exp_b


_plan = functools.lru_cache(maxsize=256)(_Plan)


def _checked_plan(state_or_rho, part: Bipartition) -> _Plan:
    """The plan of `part`, after the basis and memory checks."""
    _require_same_basis(state_or_rho.basis, part.basis)
    _require_table_memory(part)
    return _plan(part)


def _density(rho: BlockOperator, part: Bipartition):
    """(plan, marginals buffer) of a density, after the basis, memory and
    trace checks; its trace is read off A's marginal."""
    plan = _checked_plan(rho, part)
    marginals = plan.mixed_marginals(rho.data)
    norm = float(np.add.reduce(marginals.real.take(plan.units_a.at_kk)))
    if abs(norm - 1.0) > SPECTRAL_TOL:
        raise ValueError(f"density operator has trace {norm!r}, not 1")
    return plan, marginals


def _pure(psi: AnyonState, part: Bipartition):
    """(plan, normalized amplitudes, charge, amplitude matrix) of a pure
    state, after the zero-state, basis and memory checks."""
    amplitudes = normalized_amplitudes(psi.amplitudes)
    plan = _checked_plan(psi, part)
    return plan, amplitudes, psi.sector, part.gather(amplitudes, psi.sector)


def violation_table(state_or_rho, part: Bipartition) -> np.ndarray:
    """T[i, j] = Tr(O_A^i O_B^j rho) - Tr(O_A^i rho_A) Tr(O_B^j rho_B).

    O_A^i and O_B^j run over :func:`local_observable_basis` of the two
    parties.  `state_or_rho` is an :class:`AnyonState` (normalized first)
    or a density :class:`BlockOperator` in the grouped shape of `part`,
    whose trace must be 1 within ``SPECTRAL_TOL``.
    """
    if isinstance(state_or_rho, AnyonState):
        plan, _, _, C = _pure(state_or_rho, part)
        return plan.violations(plan.realigned_pure(C, C.conj()))
    plan, _ = _density(state_or_rho, part)
    return plan.violations(plan.realigned_mixed(state_or_rho.data))


def _witness(violations: np.ndarray, top: float) -> int:
    """Flat index of the first entry within 4 ulps of the largest, `top`.

    Exact ties are common (a one-anyon party's P_e and P_tau sum to 1), so
    the first of them wins whatever the rounding of the last digit.
    """
    return int((violations >= top - 4 * math.ulp(top)).argmax())


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

    One pass per call: the amplitude matrix (or gathers of the density),
    both marginals into one buffer, the realigned and the violation table,
    |T| with its top and witness, and the spectra read off the buffer.
    """
    label = None
    if isinstance(state_or_rho, AnyonState):
        plan, amplitudes, g, C = _pure(state_or_rho, part)
        conj = C.conj()
        marginals = plan.pure_marginals(C, conj)
        realigned = plan.realigned_pure(C, conj)
        if plan.fibonacci_pair:
            label = _pure_class(g == part.basis.model.vacuum, amplitudes)
    else:
        plan, marginals = _density(state_or_rho, part)
        realigned = plan.realigned_mixed(state_or_rho.data)
    violations = plan.violations(realigned)
    np.abs(violations, out=violations)
    top = float(np.maximum.reduce(violations, axis=None))
    spec_a, spec_b = buffer_spectra(plan.spectra, marginals)
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
    that :func:`is_uncorrelated` gives each row, from stacked passes of the
    plan, each sector's rows a stack of :func:`~fibanyon.errors.stack_slices`
    at a time; a row it refuses to normalize is refused alike.  The memory
    guard checks one table, so the rows' count is not bounded.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    basis = part.basis
    if amplitudes.ndim != 2 or amplitudes.shape[1] != basis.dim:
        raise BasisMismatchError(
            f"amplitude rows have shape {amplitudes.shape}, basis dim {basis.dim}")
    table_bytes = _require_table_memory(part)
    amplitudes = _normalized_rows(amplitudes)
    support = amplitudes != 0
    charge = basis.charges[:, 0]  # each tree's global charge, as an index
    sectors = charge[support.argmax(axis=1)]
    if (support & (charge != sectors[:, None])).any():
        raise SuperselectionError("a row has support in several global-charge sectors")
    plan = _plan(part)
    tops = np.empty(len(amplitudes))
    labels = np.empty(len(amplitudes), dtype=object) if plan.fibonacci_pair else None
    for k, g in enumerate(basis.model.charges):
        rows = np.flatnonzero(sectors == k)
        for stack in stack_slices(len(rows), table_bytes):
            C = part.gather(amplitudes[rows[stack]], g)
            violations = plan.violations(plan.realigned_pure(C, C.conj()))
            tops[rows[stack]] = np.abs(violations, out=violations).max(axis=(-2, -1))
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
    amplitudes = psi.amplitudes[_pair_index(psi.basis)].tolist()
    return _pure_class(psi.sector == psi.basis.model.vacuum, amplitudes)


# the indices of the first four trees of _FIBONACCI_PAIR, looked up once per basis
_pair_index = functools.lru_cache(maxsize=256)(lambda b: b.index_of_labels(_FIBONACCI_PAIR[:4]))


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
