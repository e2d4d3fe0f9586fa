"""States, block operators, anyonic partial trace and local embedding.

Physical states of N anyons obey the charge superselection rule: all
amplitude support lies in a single global-charge sector, and every
observable, unitary or density operator is block diagonal across sectors.
:class:`AnyonState` and :class:`BlockOperator` make those constraints
structural - cross-sector objects cannot be built without raising
:class:`~fibanyon.errors.SuperselectionError`.

The partial trace implemented here is the anyonic one.  For a bipartite
grouped shape with subsystem labelings (avec, bvec) under a common global
charge g,

    Tr_B |avec, bvec; g><avec', bvec'; g|
        = delta(bvec, bvec') * delta(a0, a0') * |avec><avec'|

where a0 is the root charge of the kept subtree.  The extra root-charge
delta (absent for qudits) is forced by the superselection rule; it is
exactly what makes marginals of pure states disagree in spectrum.
Local-operator embedding is the adjoint map, so the defining consistency
condition  Tr(O_A . Tr_B rho) = Tr(embed(O_A) . rho)  holds by
construction (and is property-tested).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import BasisMismatchError, ModelFormatError, ShapeError, SuperselectionError
from .model import Charge
from .trees import (
    FusionTree,
    SectorBasis,
    TreeShape,
    _leaves,
    enumerate_basis,
    parse_tree_label,
    subtree_shape,
)

STRUCT_TOL = 1e-12  # structural checks (unitarity, hermiticity)
SPECTRAL_TOL = 1e-10  # positivity / normalization checks


class AnyonState:
    """Complex amplitudes over a fusion-tree basis, confined to one sector.

    Unnormalized intermediates are allowed; use :meth:`is_normalized` /
    :meth:`normalized` when a physical state is required.
    """

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis: SectorBasis, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (basis.dim,):
            raise BasisMismatchError(
                f"amplitude vector has length {amplitudes.shape}, basis dim {basis.dim}"
            )
        support = {basis.sector_of(i) for i in np.nonzero(amplitudes)[0]}
        if len(support) > 1:
            raise SuperselectionError(
                f"state has support in several global-charge sectors: {sorted(support)}"
            )
        self.basis = basis
        self.amplitudes = amplitudes

    @property
    def sector(self) -> Charge | None:
        """Global charge of the support; None for the zero vector."""
        nz = np.nonzero(self.amplitudes)[0]
        return self.basis.sector_of(nz[0]) if len(nz) else None

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = SPECTRAL_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def normalized(self) -> "AnyonState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return AnyonState(self.basis, self.amplitudes / n)

    def inner(self, other: "AnyonState") -> complex:
        _require_same_basis(self.basis, other.basis)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def amplitude(self, tree_or_label) -> complex:
        index = _resolve_index(self.basis, tree_or_label)
        return complex(self.amplitudes[index])

    def __repr__(self):
        nz = np.nonzero(self.amplitudes)[0]
        terms = ", ".join(
            f"{self.amplitudes[i]:.4g}|{self.basis.tree_at(i).label()}>" for i in nz[:4]
        )
        more = "" if len(nz) <= 4 else f" +{len(nz) - 4} terms"
        return f"AnyonState({terms}{more})"


def _resolve_index(basis: SectorBasis, tree_or_label) -> int:
    if isinstance(tree_or_label, FusionTree):
        return basis.index_of(tree_or_label)
    return basis.index_of_label(str(tree_or_label))


def _require_same_basis(a: SectorBasis, b: SectorBasis):
    if a is not b and not a.compatible(b):
        raise BasisMismatchError("objects live on different bases")


def ket(basis: SectorBasis, tree_or_label) -> AnyonState:
    """Unit basis vector for one fusion tree (by tree or by label string)."""
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[_resolve_index(basis, tree_or_label)] = 1.0
    return AnyonState(basis, amplitudes)


def superpose(terms) -> tuple[AnyonState, float]:
    """Weighted superposition of states sharing one global-charge sector.

    Returns the normalized state together with the pre-normalization norm.
    Mixing sectors raises SuperselectionError: such superpositions are
    unphysical, not merely unnormalized.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("superpose needs at least one term")
    basis = terms[0][1].basis
    sectors = set()
    acc = np.zeros(basis.dim, dtype=complex)
    for weight, state in terms:
        _require_same_basis(basis, state.basis)
        if state.sector is not None:
            sectors.add(state.sector)
        acc += complex(weight) * state.amplitudes
    if len(sectors) > 1:
        raise SuperselectionError(
            f"superposition across global-charge sectors {sorted(sectors)} is unphysical"
        )
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        raise ValueError("superposition vanished; cannot normalize")
    return AnyonState(basis, acc / norm), norm


class BlockOperator:
    """Operator that is block diagonal across global-charge sectors."""

    __slots__ = ("basis", "blocks")

    def __init__(self, basis: SectorBasis, blocks: dict[Charge, np.ndarray]):
        self.basis = basis
        self.blocks = {}
        for g in basis.model.charges:
            d = basis.sector_dim(g)
            block = blocks.get(g)
            if block is None:
                block = np.zeros((d, d), dtype=complex)
            else:
                block = np.asarray(block, dtype=complex)
                if block.shape != (d, d):
                    raise BasisMismatchError(
                        f"sector {g} block has shape {block.shape}, expected {(d, d)}"
                    )
            self.blocks[g] = block

    @classmethod
    def identity(cls, basis: SectorBasis) -> "BlockOperator":
        return cls(basis, {g: np.eye(basis.sector_dim(g)) for g in basis.model.charges})

    @classmethod
    def from_full(cls, matrix, basis: SectorBasis, tol: float = 0.0) -> "BlockOperator":
        """Split a full matrix into sector blocks; off-block mass must be <= tol."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (basis.dim, basis.dim):
            raise BasisMismatchError(f"matrix shape {matrix.shape} != basis dim {basis.dim}")
        leak = _off_block_mass(matrix, basis)
        if leak > tol:
            raise SuperselectionError(
                f"matrix has cross-sector entries (max {leak:.3e} > tol {tol:.1e})"
            )
        blocks = {}
        for g in basis.model.charges:
            sl = basis.sector_slice(g)
            blocks[g] = matrix[sl, sl].copy()
        return cls(basis, blocks)

    @classmethod
    def from_ket_bra(cls, ket_state: AnyonState, bra_state: AnyonState | None = None):
        """|ket><bra| as a block operator; the two sectors must agree."""
        bra_state = ket_state if bra_state is None else bra_state
        _require_same_basis(ket_state.basis, bra_state.basis)
        sk, sb = ket_state.sector, bra_state.sector
        if sk is not None and sb is not None and sk != sb:
            raise SuperselectionError(
                f"|{sk}><{sb}| mixes global-charge sectors and is not a physical operator"
            )
        basis = ket_state.basis
        blocks = {}
        for g in basis.model.charges:
            sl = basis.sector_slice(g)
            blocks[g] = np.outer(ket_state.amplitudes[sl], bra_state.amplitudes[sl].conj())
        return cls(basis, blocks)

    def to_full(self) -> np.ndarray:
        out = np.zeros((self.basis.dim, self.basis.dim), dtype=complex)
        for g, block in self.blocks.items():
            sl = self.basis.sector_slice(g)
            out[sl, sl] = block
        return out

    def block(self, g: Charge) -> np.ndarray:
        return self.blocks[g]

    @classmethod
    def from_entries(cls, basis: SectorBasis, rows, cols, values) -> "BlockOperator":
        """Operator whose entry (rows[k], cols[k]) sums values[k], added in order."""
        flat = _sum_by_index(_block_positions(basis, rows, cols), values,
                             sum(basis.sector_dim(g) ** 2 for g in basis.model.charges))
        blocks, offset = {}, 0
        for g in basis.model.charges:
            d = basis.sector_dim(g)
            blocks[g] = flat[offset : offset + d * d].reshape(d, d)
            offset += d * d
        return cls(basis, blocks)

    def at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Full-matrix entries ``[rows[k], cols[k]]``, read from the sector blocks."""
        flat = np.concatenate([self.blocks[g].ravel() for g in self.basis.model.charges])
        return flat[_block_positions(self.basis, rows, cols)]

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(self.basis, {g: b.conj().T for g, b in self.blocks.items()})

    def apply(self, state: AnyonState) -> AnyonState:
        _require_same_basis(self.basis, state.basis)
        out = np.zeros(self.basis.dim, dtype=complex)
        for g, block in self.blocks.items():
            sl = self.basis.sector_slice(g)
            out[sl] = block @ state.amplitudes[sl]
        return AnyonState(state.basis, out)

    def expectation(self, state: AnyonState) -> complex:
        _require_same_basis(self.basis, state.basis)
        return complex(np.vdot(state.amplitudes, self.apply(state).amplitudes))

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        _require_same_basis(self.basis, other.basis)
        return BlockOperator(
            self.basis, {g: self.blocks[g] @ other.blocks[g] for g in self.blocks}
        )

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        _require_same_basis(self.basis, other.basis)
        return BlockOperator(
            self.basis, {g: self.blocks[g] + other.blocks[g] for g in self.blocks}
        )

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        _require_same_basis(self.basis, other.basis)
        return BlockOperator(
            self.basis, {g: self.blocks[g] - other.blocks[g] for g in self.blocks}
        )

    def __mul__(self, scalar) -> "BlockOperator":
        return BlockOperator(self.basis, {g: complex(scalar) * b for g, b in self.blocks.items()})

    __rmul__ = __mul__

    def is_hermitian(self, tol: float = SPECTRAL_TOL) -> bool:
        return all(np.max(np.abs(b - b.conj().T), initial=0.0) <= tol for b in self.blocks.values())

    def __repr__(self):
        dims = {g: b.shape[0] for g, b in self.blocks.items()}
        return f"BlockOperator(shape={self.basis.shape}, sector_dims={dims})"


def _block_positions(basis: SectorBasis, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat positions of entries (rows[k], cols[k]) in the sector blocks.

    The blocks are raveled and concatenated in charge order.  Raises if a
    pair crosses sectors.
    """
    start = np.empty(basis.dim, dtype=np.intp)
    base = np.empty(basis.dim, dtype=np.intp)
    width = np.empty(basis.dim, dtype=np.intp)
    offset = 0
    for g in basis.model.charges:
        sl = basis.sector_slice(g)
        d = sl.stop - sl.start
        start[sl], base[sl], width[sl] = sl.start, offset, d
        offset += d * d
    row_start = start[rows]
    if np.any(row_start != start[cols]):
        raise SuperselectionError("entries cross global-charge sectors")
    return base[rows] + (rows - row_start) * width[rows] + (cols - row_start)


def _sum_by_index(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[k] = sum of values[i] with index[i] == k, added in array order."""
    return (np.bincount(index, weights=values.real, minlength=size)
            + 1j * np.bincount(index, weights=values.imag, minlength=size))


def _off_block_mass(matrix: np.ndarray, basis: SectorBasis) -> float:
    mask = np.ones_like(matrix, dtype=bool)
    for g in basis.model.charges:
        sl = basis.sector_slice(g)
        mask[sl, sl] = False
    return float(np.max(np.abs(matrix[mask]), initial=0.0))


def validate_cssr(op, basis: SectorBasis | None = None, tol: float = STRUCT_TOL) -> bool:
    """True iff all cross-sector matrix entries vanish within tol.

    BlockOperator instances respect the rule by construction; this checks
    imported full matrices.
    """
    if isinstance(op, BlockOperator):
        return True
    if basis is None:
        raise ValueError("a basis is required to validate a raw matrix")
    return _off_block_mass(np.asarray(op, dtype=complex), basis) <= tol


def pure_density(state: AnyonState) -> BlockOperator:
    return BlockOperator.from_ket_bra(state.normalized())


def mixture(terms) -> BlockOperator:
    """Probabilistic mixture sum_k w_k rho_k of states/operators."""
    terms = list(terms)
    if not terms:
        raise ValueError("mixture needs at least one term")
    ops = []
    for weight, item in terms:
        op = pure_density(item) if isinstance(item, AnyonState) else item
        ops.append(float(weight) * op)
    acc = ops[0]
    for op in ops[1:]:
        acc = acc + op
    return acc


def trace(op: BlockOperator) -> complex:
    return complex(sum(np.trace(b) for b in op.blocks.values()))


def purity(rho: BlockOperator) -> float:
    """Tr(rho^2); equals 1 exactly for projectors onto single kets."""
    return float(sum(np.einsum("ij,ji->", b, b).real for b in rho.blocks.values()))


def spectrum(rho: BlockOperator) -> np.ndarray:
    """Eigenvalues merged over sectors, sorted descending."""
    vals = np.concatenate(
        [np.linalg.eigvalsh(b) if b.size else np.empty(0) for b in rho.blocks.values()]
    )
    return np.sort(vals)[::-1]


def spectra_agree(spec_a: np.ndarray, spec_b: np.ndarray, tol: float) -> bool:
    """True iff two descending spectra agree within tol, the shorter padded with zeros."""
    padded = np.zeros((2, max(len(spec_a), len(spec_b))))
    padded[0, : len(spec_a)] = spec_a
    padded[1, : len(spec_b)] = spec_b
    return bool(np.max(np.abs(padded[0] - padded[1])) <= tol)


def fidelity(psi: AnyonState, rho: BlockOperator | AnyonState) -> float:
    """<psi|rho|psi> for a pure target psi (normalized first)."""
    psi = psi.normalized()
    if isinstance(rho, AnyonState):
        rho = pure_density(rho)
    _require_same_basis(psi.basis, rho.basis)
    return float(rho.expectation(psi).real)


def is_density(op: BlockOperator, tol: float = SPECTRAL_TOL) -> bool:
    if not op.is_hermitian(tol):
        return False
    if abs(trace(op) - 1.0) > tol:
        return False
    return float(spectrum(op)[-1]) >= -tol


class FamilyPairs(NamedTuple):
    """Every (i, j) pair of full indices within one partial-trace family.

    ``kept_row``/``kept_col`` are the kept-party indices of ``row``/``col``;
    pairs run over the families in order, each family row-major.
    """

    row: np.ndarray
    col: np.ndarray
    kept_row: np.ndarray
    kept_col: np.ndarray


class OperatorEntries(NamedTuple):
    """A numbered set of operators as sparse entries.

    Operator ``op[k]`` has matrix element ``coeff[k]`` at ``(row[k], col[k])``
    in the full basis; ``count`` is the number of operators.
    """

    count: int
    op: np.ndarray
    row: np.ndarray
    col: np.ndarray
    coeff: np.ndarray


def hermitian_units(basis: SectorBasis) -> OperatorEntries:
    """Hermitian spanning set of the block-diagonal operator algebra.

    Per sector of dimension d, in charge order: d diagonal units, then for
    every pair k < l the symmetric unit (1 at (k, l) and (l, k)) followed
    by the antisymmetric one (-i at (k, l), i at (l, k)) - d^2 operators,
    all superselection-respecting by construction.  Entries are sorted by
    operator.
    """
    ops, rows, cols, coeffs = [], [], [], []
    first = 0
    for g in basis.model.charges:
        d = basis.sector_dim(g)
        start = basis.sector_slice(g).start
        diag = np.arange(d)
        k, l = np.triu_indices(d, 1)
        sym = first + d + 2 * np.arange(len(k))
        ops += [first + diag, np.stack([sym, sym, sym + 1, sym + 1], axis=1).ravel()]
        rows += [start + diag, start + np.stack([k, l, k, l], axis=1).ravel()]
        cols += [start + diag, start + np.stack([l, k, l, k], axis=1).ravel()]
        coeffs += [np.ones(d, dtype=complex), np.tile(np.array([1, 1, -1j, 1j]), len(k))]
        first += d * d
    return OperatorEntries(first, *(np.concatenate(x) for x in (ops, rows, cols, coeffs)))


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (i, j) with left[i] == right[j], by i, then by j."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    starts = np.searchsorted(ordered, left, side="left")
    counts = np.searchsorted(ordered, left, side="right") - starts
    i = np.repeat(np.arange(len(left)), counts)
    offsets = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return i, order[np.repeat(starts, counts) + offsets]


class Bipartition:
    """Contiguous A|B split of a grouped shape, with index tables.

    The shape's root must join the A subtree (leaves 0..n_a-1) to the B
    subtree (the rest).  Tables map every full-basis index to its A- and
    B-subsystem labelings, which drive the partial trace and embedding.
    """

    def __init__(self, basis: SectorBasis, n_a: int):
        struct = basis.shape.structure
        if isinstance(struct, int):
            raise ShapeError("cannot bipartition a single anyon")
        left_node, right_node = struct
        n_left = len(_leaves(left_node))
        if n_left != n_a:
            raise ShapeError(
                f"shape {basis.shape} splits {n_left}|{basis.shape.n_leaves - n_left} at the "
                f"root, not {n_a}|{basis.shape.n_leaves - n_a}; use change_shape to regroup"
            )
        self.basis = basis
        self.n_a = n_a
        self.n_b = basis.shape.n_leaves - n_a
        model = basis.model
        self.a_basis = enumerate_basis(model, subtree_shape(left_node))
        self.b_basis = enumerate_basis(model, subtree_shape(right_node))

        n_int_a = self.a_basis.shape.n_internal
        a_idx = np.empty(basis.dim, dtype=np.intp)
        b_idx = np.empty(basis.dim, dtype=np.intp)
        for i, tree in enumerate(basis.trees):
            ints = tree.internal_charges
            a_tree = FusionTree(
                self.a_basis.shape, tree.leaf_charges[:n_a], ints[1 : 1 + n_int_a]
            )
            b_tree = FusionTree(
                self.b_basis.shape, tree.leaf_charges[n_a:], ints[1 + n_int_a :]
            )
            a_idx[i] = self.a_basis.index_of(a_tree)
            b_idx[i] = self.b_basis.index_of(b_tree)
        self.a_index = a_idx
        self.b_index = b_idx
        self.a_root = tuple(t.global_charge for t in self.a_basis.trees)
        self.b_root = tuple(t.global_charge for t in self.b_basis.trees)
        self._groups: dict[str, list] = {}
        self._families: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._spanning: dict[str, OperatorEntries] = {}

    def groups(self, traced: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """Families of full indices that the partial trace pairs up.

        For traced="B": full indices sharing (B labeling, sector g, A root
        charge); the second array holds the matching A-subsystem indices.
        Within one family every (i, j) pair contributes rho[i, j] to
        out[a_i, a_j]; across families nothing contributes.
        """
        if traced not in ("A", "B"):
            raise ValueError("traced side must be 'A' or 'B'")
        if traced in self._groups:
            return self._groups[traced]
        keep_idx = self.a_index if traced == "B" else self.b_index
        other_idx = self.b_index if traced == "B" else self.a_index
        keep_root = self.a_root if traced == "B" else self.b_root
        buckets: dict[tuple, list[int]] = {}
        for i in range(self.basis.dim):
            key = (other_idx[i], self.basis.sector_of(i), keep_root[keep_idx[i]])
            buckets.setdefault(key, []).append(i)
        out = [
            (np.asarray(members, dtype=np.intp), keep_idx[np.asarray(members, dtype=np.intp)])
            for members in buckets.values()
        ]
        self._groups[traced] = out
        return out

    def kept_basis(self, traced: str) -> SectorBasis:
        return self.a_basis if traced == "B" else self.b_basis

    def pairs(self, traced: str) -> FamilyPairs:
        """Every (i, j) pair within one family of :meth:`groups`.

        Families come in order, each row-major.  The partial trace, the
        embedding and the spanning entries all walk this table; it is
        rebuilt on each call from the members listed family by family, so
        only O(dim) indices stay cached.
        """
        if traced not in self._families:
            families = self.groups(traced)
            self._families[traced] = (
                np.concatenate([members for members, _ in families]),
                np.repeat(np.arange(len(families)), [len(members) for members, _ in families]),
            )
        members, family = self._families[traced]
        first, second = _join(family, family)
        row, col = members[first], members[second]
        keep_idx = self.a_index if traced == "B" else self.b_index
        return FamilyPairs(row, col, keep_idx[row], keep_idx[col])

    def spanning_entries(self, side: str) -> OperatorEntries:
        """One party's :func:`hermitian_units`, embedded into the joint basis.

        Operator k equals ``embed_local`` of the party's unit k: the
        entries join the :meth:`pairs` table with the units on the
        party-basis (row, col), once per side.
        """
        if side not in ("A", "B"):
            raise ValueError("side must be 'A' or 'B'")
        if side not in self._spanning:
            pairs = self.pairs("B" if side == "A" else "A")
            sub = self.a_basis if side == "A" else self.b_basis
            units = hermitian_units(sub)
            pair, unit = _join(pairs.kept_row * sub.dim + pairs.kept_col,
                               units.row * sub.dim + units.col)
            self._spanning[side] = OperatorEntries(
                units.count, units.op[unit], pairs.row[pair], pairs.col[pair], units.coeff[unit]
            )
        return self._spanning[side]


@functools.lru_cache(maxsize=256)
def bipartition(basis: SectorBasis, n_a: int) -> Bipartition:
    """Cached Bipartition; bases are interned so the tables are built once."""
    return Bipartition(basis, n_a)


def partial_trace(rho: BlockOperator, bipartition: Bipartition, traced: str = "B") -> BlockOperator:
    """Anyonic partial trace onto the kept subsystem.

    Keeps matrix elements with identical traced-side labelings *and*
    identical kept-side root charges; see the module docstring.  Maps
    density operators to density operators and satisfies the consistency
    condition with :func:`embed_local`.
    """
    _require_same_basis(rho.basis, bipartition.basis)
    pairs = bipartition.pairs(traced)
    return BlockOperator.from_entries(
        bipartition.kept_basis(traced), pairs.kept_row, pairs.kept_col,
        rho.at(pairs.row, pairs.col),
    )


def pure_marginal(state: AnyonState, bipartition: Bipartition, traced: str = "B") -> BlockOperator:
    """``partial_trace(pure_density(state), ...)`` without forming the density.

    Reads rho[i, j] = psi_i conj(psi_j) of the normalized state straight
    from its amplitudes and adds the terms in the same order, so the
    result is bit-identical.
    """
    _require_same_basis(state.basis, bipartition.basis)
    psi = state.normalized().amplitudes
    pairs = bipartition.pairs(traced)
    return BlockOperator.from_entries(
        bipartition.kept_basis(traced), pairs.kept_row, pairs.kept_col,
        psi[pairs.row] * psi[pairs.col].conj(),
    )


def embed_local(op: BlockOperator, bipartition: Bipartition, side: str = "A") -> BlockOperator:
    """Extend a subsystem operator to the whole system.

    A subsystem matrix element |avec><avec'| (with equal subsystem root
    charges, which BlockOperator enforces) is summed over all compatible
    labelings of the other side and all admissible global charges.  The
    embedding is an algebra homomorphism and the adjoint of the partial
    trace: it walks the same pair table, and each joint entry is one pair.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    traced = "B" if side == "A" else "A"
    _require_same_basis(op.basis, bipartition.kept_basis(traced))
    pairs = bipartition.pairs(traced)
    return BlockOperator.from_entries(
        bipartition.basis, pairs.row, pairs.col, op.at(pairs.kept_row, pairs.kept_col)
    )


# ---------------------------------------------------------------------------
# random objects (seeded); used by the verification suites and tests


def random_pure_state(basis: SectorBasis, sector: Charge, rng: np.random.Generator) -> AnyonState:
    """Uniform (Haar) random pure state within one global-charge sector."""
    d = basis.sector_dim(sector)
    if d == 0:
        raise ValueError(f"sector {sector!r} is empty")
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vec /= np.linalg.norm(vec)
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[basis.sector_slice(sector)] = vec
    return AnyonState(basis, amplitudes)


def random_density(basis: SectorBasis, rng: np.random.Generator) -> BlockOperator:
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


def random_observable(basis: SectorBasis, rng: np.random.Generator) -> BlockOperator:
    """Random Hermitian block operator (a superselection-respecting observable)."""
    blocks = {}
    for g in basis.model.charges:
        d = basis.sector_dim(g)
        gin = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks[g] = (gin + gin.conj().T) / 2.0
    return BlockOperator(basis, blocks)


# ---------------------------------------------------------------------------
# text file formats


def format_state_text(state: AnyonState) -> str:
    """State file: a shape header plus one line per nonzero amplitude."""
    lines = [f"shape: {state.basis.shape.serialize()}"]
    labels = state.basis.labels
    for i in np.nonzero(state.amplitudes)[0]:
        amp = state.amplitudes[i]
        lines.append(f"{labels[i]} : {float(amp.real)!r} {float(amp.imag)!r}")
    return "\n".join(lines) + "\n"


def parse_state_text(model, text: str) -> AnyonState:
    shape, entries = _parse_entry_file(text)
    basis = enumerate_basis(model, shape)
    amplitudes = np.zeros(basis.dim, dtype=complex)
    for labels, value in entries:
        if len(labels) != 1:
            raise ModelFormatError("state lines must contain a single basis label")
        amplitudes[basis.index_of(parse_tree_label(shape, labels[0]))] += value
    return AnyonState(basis, amplitudes)


def format_operator_text(op: BlockOperator) -> str:
    """Operator file: lines ``<bra label> | <ket label> : re im`` per entry."""
    lines = [f"shape: {op.basis.shape.serialize()}"]
    labels = op.basis.labels
    full = op.to_full()
    rows, cols = np.nonzero(full)
    for r, c in zip(rows, cols):
        val = full[r, c]
        lines.append(f"{labels[r]} | {labels[c]} : {float(val.real)!r} {float(val.imag)!r}")
    return "\n".join(lines) + "\n"


def parse_operator_text(model, text: str) -> BlockOperator:
    shape, entries = _parse_entry_file(text)
    basis = enumerate_basis(model, shape)
    full = np.zeros((basis.dim, basis.dim), dtype=complex)
    for labels, value in entries:
        if len(labels) != 2:
            raise ModelFormatError("operator lines must contain '<bra> | <ket>'")
        r = basis.index_of(parse_tree_label(shape, labels[0]))
        c = basis.index_of(parse_tree_label(shape, labels[1]))
        full[r, c] += value
    return BlockOperator.from_full(full, basis)


def _parse_entry_file(text: str):
    shape = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("shape:"):
            shape = TreeShape.parse(line[len("shape:") :].strip())
            continue
        if shape is None:
            raise ModelFormatError(f"line {lineno}: 'shape:' header must come first")
        try:
            label_part, value_part = line.rsplit(":", 1)
            re_s, im_s = value_part.split()
            labels = [seg.strip() for seg in label_part.split("|")]
            entries.append((labels, complex(float(re_s), float(im_s))))
        except ValueError:
            raise ModelFormatError(f"line {lineno}: cannot parse entry {line!r}") from None
    if shape is None:
        raise ModelFormatError("missing 'shape:' header")
    return shape, entries
