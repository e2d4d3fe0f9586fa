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

Every bipartite operation reads one structure, the charge-block tables of
a :class:`Bipartition`: for each global charge g, the joint index of
every (A tree, B tree) pair.  Its sub-block of A root x and B root y is
dense when g is in x * y, so a pure state is a set of matrices C_xyg and

    rho_A^x = sum_{y,g} C_xyg C_xyg^dagger,    rho_B^y = sum_{x,g} C_xyg^T conj(C_xyg).

The partial trace of a mixed state traces the (x, y, g) sub-blocks of
rho_g over the traced index, and the embedding writes O_x (x) 1_y into
each of them.  No dense joint-basis matrix is formed.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys

import numpy as np

from .errors import (
    BasisMismatchError,
    FusionError,
    ModelFormatError,
    ShapeError,
    SuperselectionError,
    require_memory,
)
from .model import Charge
from .trees import SectorBasis, TreeShape, enumerate_basis, subtree_shape

STRUCT_TOL = 1e-12  # structural checks (unitarity, hermiticity)
SPECTRAL_TOL = 1e-10  # positivity / normalization checks


class AnyonState:
    """Complex amplitudes over a fusion-tree basis, confined to one sector.

    Unnormalized intermediates are allowed; use :meth:`normalized` when a
    physical state is required.  A non-finite amplitude is refused.
    :attr:`sector` is the global charge of the support, found by the
    constructor's superselection check; None for the zero vector.
    """

    __slots__ = ("basis", "amplitudes", "sector")

    def __init__(self, basis: SectorBasis, amplitudes):
        amplitudes = _frozen(amplitudes)
        if amplitudes.shape != (basis.dim,):
            raise BasisMismatchError(
                f"amplitude vector has length {amplitudes.shape}, basis dim {basis.dim}"
            )
        if not np.isfinite(amplitudes).all():
            raise ValueError("state has a non-finite amplitude")
        support = [g for g in basis.model.charges if np.any(amplitudes[basis.sector_slice(g)])]
        if len(support) > 1:
            raise SuperselectionError(
                f"state has support in several global-charge sectors: {sorted(support)}"
            )
        self.basis = basis
        self.amplitudes = amplitudes
        self.sector = support[0] if support else None

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.amplitudes))

    def normalized(self) -> "AnyonState":
        # scaling cannot widen the support, so the sector check is not repeated
        out = object.__new__(AnyonState)
        out.basis, out.amplitudes = self.basis, normalized_amplitudes(self.amplitudes)
        out.sector = self.sector
        out.amplitudes.setflags(write=False)
        return out

    def inner(self, other: "AnyonState") -> complex:
        _require_same_basis(self.basis, other.basis)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.basis.index_of_label(label)])

    def __repr__(self):
        nz = np.nonzero(self.amplitudes)[0]
        terms = ", ".join(f"{self.amplitudes[i]:.4g}|{self.basis.labels[i]}>" for i in nz[:4])
        more = "" if len(nz) <= 4 else f" +{len(nz) - 4} terms"
        return f"AnyonState({terms}{more})"


def _frozen(values) -> np.ndarray:
    """A read-only complex copy of `values`: a caller's later write cannot
    reach a state or operator after its checks have passed."""
    out = np.array(values, dtype=complex)
    out.setflags(write=False)
    return out


def _squared_norm(amplitudes: np.ndarray) -> float:
    """The square of ``np.linalg.norm`` of a complex vector, by its formula (the
    real and the imaginary part's dot products) without its dispatch: its
    square root is that norm bit for bit."""
    flat = amplitudes.ravel(order="K")
    re, im = flat.real, flat.imag
    return float(re.dot(re) + im.dot(im))


def _normalized_rows(rows: np.ndarray) -> np.ndarray:
    """Each row (the last axis) of a stack of complex vectors over its norm,
    bit for bit :func:`normalized_amplitudes` of the row, and refused as it
    refuses the row: a one-row product of each part with itself makes the
    same strided BLAS dot call as :func:`_squared_norm`."""
    re, im = rows.real[..., None, :], rows.imag[..., None, :]
    with np.errstate(over="ignore"):  # an overflow is refused below
        squared = (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
    # norm_problem refuses exactly the squares outside [smallest normal, inf)
    if not ((squared >= sys.float_info.min) & (squared < math.inf)).all():
        for row, value in zip(rows.reshape(-1, rows.shape[-1]), squared.ravel().tolist()):
            _refuse_norm(row, value)
    return rows / np.sqrt(squared)[..., None]


def normalized_amplitudes(amplitudes: np.ndarray) -> np.ndarray:
    """The amplitudes over their norm; ValueError for the zero vector, or for
    a squared norm that :func:`norm_problem` refuses."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        squared = _squared_norm(amplitudes)
    _refuse_norm(amplitudes, squared)
    return amplitudes / math.sqrt(squared)


def _refuse_norm(amplitudes: np.ndarray, squared: float):
    """ValueError if :func:`norm_problem` refuses `squared`, the squared norm of `amplitudes`."""
    problem = norm_problem(squared)
    if problem:
        raise ValueError(f"cannot normalize: the norm of the amplitudes {problem}"
                         if amplitudes.any() else "cannot normalize the zero state")


def norm_problem(squared: float) -> str | None:
    """Why a vector whose sum of squared moduli is `squared` has no usable norm,
    or None.  A subnormal sum (below ``sys.float_info.min``) has lost digits,
    so its norm is refused too."""
    if squared == 0.0:
        return "underflows to 0"
    if squared < sys.float_info.min:
        return "underflows (its square is subnormal)"
    return None if squared < math.inf else "overflows"  # NaN overflows too


def rounded_product(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise complex ``lhs * rhs``, rounded like a scalar complex product:
    numpy's vectorized complex multiply may fuse multiply-adds, which moves
    the last bit."""
    out = np.empty(np.broadcast(lhs, rhs).shape, dtype=complex)
    out.real = lhs.real * rhs.real - lhs.imag * rhs.imag
    out.imag = lhs.real * rhs.imag + lhs.imag * rhs.real
    return out


def rounded_outer(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The outer product ``lhs[:, None] * rhs[None, :]`` of two contiguous
    complex vectors, rounded as :func:`rounded_product` rounds it: one
    ``np.multiply.outer`` of their float views, then one subtract and one
    add into the output's float view."""
    parts = np.multiply.outer(lhs.view(float), rhs.view(float))
    out = np.empty((len(lhs), len(rhs)), dtype=complex)
    view = out.view(float)
    np.subtract(parts[0::2, 0::2], parts[1::2, 1::2], out=view[:, 0::2])
    np.add(parts[0::2, 1::2], parts[1::2, 0::2], out=view[:, 1::2])
    return out


def _require_same_basis(a: SectorBasis, b: SectorBasis):
    if a is not b and not a.compatible(b):
        raise BasisMismatchError("objects live on different bases")


def ket(basis: SectorBasis, tree: str | int) -> AnyonState:
    """Unit basis vector for one fusion tree, by label or by index."""
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[basis.index_of_label(tree) if isinstance(tree, str) else tree] = 1.0
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
    with np.errstate(over="ignore"):  # an overflow shows in the norm, checked below
        for weight, state in terms:
            _require_same_basis(basis, state.basis)
            if state.sector is not None:
                sectors.add(state.sector)
            acc += complex(weight) * state.amplitudes
        squared = _squared_norm(acc)
    if len(sectors) > 1:
        raise SuperselectionError(
            f"superposition across global-charge sectors {sorted(sectors)} is unphysical"
        )
    problem = norm_problem(squared)
    if problem:
        raise ValueError(f"cannot normalize the superposition: its norm {problem}"
                         if acc.any() else "superposition vanished; cannot normalize")
    norm = math.sqrt(squared)
    return AnyonState(basis, acc / norm), norm


class BlockOperator:
    """Operator that is block diagonal across global-charge sectors.

    It is one read-only complex array, :attr:`data`, laid out as
    :attr:`SectorBasis.block_slices` says, and :attr:`blocks` holds each
    sector's block as a read-only square view of it.  The constructor
    copies the blocks it is given (a missing one is zero), and refuses a
    block with a non-finite entry.
    """

    __slots__ = ("basis", "data", "blocks")

    def __init__(self, basis: SectorBasis, blocks: dict[Charge, np.ndarray]):
        unknown = blocks.keys() - basis.model.charges
        if unknown:
            raise BasisMismatchError(
                f"block keys {', '.join(sorted(map(repr, unknown)))} are not charges"
                f" of model {basis.model.name}"
            )
        data = np.zeros(basis.unit_count, dtype=complex)
        for g, block in blocks.items():
            d = basis.sector_dim(g)
            block = np.asarray(block, dtype=complex)
            if block.shape != (d, d):
                raise BasisMismatchError(
                    f"sector {g} block has shape {block.shape}, expected {(d, d)}"
                )
            if not np.isfinite(block).all():
                raise ValueError(f"sector {g} block has a non-finite entry")
            data[basis.block_slices[g]] = block.ravel()
        data.setflags(write=False)
        self.basis, self.data, self.blocks = basis, data, _sector_views(basis, data)

    @classmethod
    def _of(cls, basis: SectorBasis, data: np.ndarray) -> "BlockOperator":
        """The operator whose :attr:`data` is `data`, a fresh complex array its
        producer laid out on `basis`: taken as it is, not copied."""
        op = object.__new__(cls)
        data.setflags(write=False)
        op.basis, op.data, op.blocks = basis, data, _sector_views(basis, data)
        return op

    @classmethod
    def identity(cls, basis: SectorBasis) -> "BlockOperator":
        return cls(basis, {g: np.eye(basis.sector_dim(g)) for g in basis.model.charges})

    @classmethod
    def from_full(cls, matrix, basis: SectorBasis) -> "BlockOperator":
        """Split a full matrix into sector blocks; every off-block entry must be 0."""
        matrix = np.asarray(matrix, dtype=complex)
        leak = _off_block_mass(matrix, basis)
        if leak != 0.0:  # also NaN
            raise SuperselectionError(f"matrix has cross-sector entries (max {leak:.3e})")
        blocks = {}
        for g in basis.model.charges:
            sl = basis.sector_slice(g)
            blocks[g] = matrix[sl, sl]
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
        require_memory(16 * basis.unit_count, f"the ket-bra of a {basis.dim}-dim state")
        data = np.empty(basis.unit_count, dtype=complex)
        for g, block in _sector_views(basis, data).items():
            sl = basis.sector_slice(g)
            np.outer(ket_state.amplitudes[sl], bra_state.amplitudes[sl].conj(), out=block)
        return cls._of(basis, data)

    def to_full(self) -> np.ndarray:
        dim = self.basis.dim
        require_memory(16 * dim * dim, f"the dense {dim} x {dim} operator")
        out = np.zeros((dim, dim), dtype=complex)
        for g, block in self.blocks.items():
            sl = self.basis.sector_slice(g)
            out[sl, sl] = block
        return out

    def block(self, g: Charge) -> np.ndarray:
        return self.blocks[g]

    def adjoint(self) -> "BlockOperator":
        return BlockOperator._of(self.basis, adjoint_data(self.basis, self.data))

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
        return BlockOperator._of(self.basis, product_data(self.basis, self.data, other.data))

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        _require_same_basis(self.basis, other.basis)
        return BlockOperator._of(self.basis, self.data + other.data)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        _require_same_basis(self.basis, other.basis)
        return BlockOperator._of(self.basis, self.data - other.data)

    def __mul__(self, scalar) -> "BlockOperator":
        return BlockOperator._of(self.basis, complex(scalar) * self.data)

    __rmul__ = __mul__

    def __repr__(self):
        dims = {g: b.shape[0] for g, b in self.blocks.items()}
        return f"BlockOperator(shape={self.basis.shape}, sector_dims={dims})"


def _sector_views(basis: SectorBasis, data: np.ndarray) -> dict:
    """Each sector's block of `data`, an operator's array on `basis`, as a square
    view; for a stack of such arrays (the last axis), a stack of blocks."""
    lead = data.shape[:-1]
    return {g: data[..., sl].reshape(lead + shape) for g, sl, shape in basis.block_layout}


# Operator data with a stack axis.  The ``*_data`` functions of this module
# and :func:`density_flags` take the :attr:`BlockOperator.data` of one
# operator, or a stack of them along the leading axes, unchecked, and make a
# fresh array.  A stack gives, bit for bit, what one call per operator gives:
# every sector block goes through the same BLAS or LAPACK call, and every
# elementwise or reduced entry through the same operations in the same order.


def product_data(basis: SectorBasis, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The data of ``lhs @ rhs``: one matrix product per sector block."""
    out = np.empty(lhs.shape, dtype=complex)
    for view, a, b in zip(_sector_views(basis, out).values(), _sector_views(basis, lhs).values(),
                          _sector_views(basis, rhs).values()):
        np.matmul(a, b, out=view)
    return out


def adjoint_data(basis: SectorBasis, data: np.ndarray) -> np.ndarray:
    """The data of the adjoint: each sector block conjugated and transposed."""
    out = np.empty(data.shape, dtype=complex)
    for view, block in zip(_sector_views(basis, out).values(), _sector_views(basis, data).values()):
        np.conjugate(block.swapaxes(-1, -2), out=view)
    return out


def trace_data(basis: SectorBasis, data: np.ndarray):
    """The trace: each sector block's, summed in charge order."""
    return sum(np.trace(b, axis1=-2, axis2=-1) for b in _sector_views(basis, data).values())


def _off_block_mass(matrix: np.ndarray, basis: SectorBasis) -> float:
    if matrix.shape != (basis.dim, basis.dim):
        raise BasisMismatchError(f"matrix shape {matrix.shape} != basis dim {basis.dim}")
    return float(np.max(np.abs(matrix[~basis.sector_mask]), initial=0.0))


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
    """Probabilistic mixture sum_k w_k rho_k of states/operators; every weight
    must be finite and >= 0."""
    terms = list(terms)
    if not terms:
        raise ValueError("mixture needs at least one term")
    ops = []
    for weight, item in terms:
        weight = float(weight)
        if not 0.0 <= weight < np.inf:  # NaN fails
            raise ValueError(f"mixture weight {weight!r} is not a finite number >= 0")
        op = pure_density(item) if isinstance(item, AnyonState) else item
        ops.append(weight * op)
    acc = ops[0]
    for op in ops[1:]:
        acc = acc + op
    return acc


def trace(op: BlockOperator) -> complex:
    return complex(trace_data(op.basis, op.data))


def purity(rho: BlockOperator) -> float:
    """Tr(rho^2); equals 1 exactly for projectors onto single kets."""
    return float(sum(np.einsum("ij,ji->", b, b).real for b in rho.blocks.values()))


def spectrum(rho: BlockOperator) -> np.ndarray:
    """Eigenvalues merged over sectors, sorted descending."""
    return spectra(rho.blocks.values())[0]


def spectra(*parties) -> list[np.ndarray]:
    """The spectrum of each party, given as its Hermitian sector blocks.

    Bit for bit what per-block ``np.linalg.eigvalsh``, concatenated in block
    order and sorted descending, gives, as :func:`buffer_spectra` computes it.
    """
    parties = [[b for b in blocks if len(b)] for blocks in parties]
    flat = list(itertools.chain.from_iterable(parties))
    ones = np.array([b[0, 0].real for b in flat if len(b) == 1], dtype=float)
    eigenvalues = [np.linalg.eigvalsh(np.stack([b for b in flat if len(b) == d])).ravel()
                   for d in sorted({len(b) for b in flat} - {1})]
    order = _value_order(tuple(tuple(len(b) for b in blocks) for blocks in parties))
    return _party_spectra(order, ones, eigenvalues)


@functools.lru_cache(maxsize=256)
def _value_order(dims: tuple) -> tuple[np.ndarray | None, tuple]:
    """For parties whose nonzero block sizes are `dims`: the positions of
    each party's eigenvalues, block by block, among the 1 x 1 blocks' values
    followed by each size's stacked eigenvalues, sizes ascending (None when
    every block is 1 x 1: they are in that order already), and each party's
    (start, stop) in that order."""
    flat = list(itertools.chain.from_iterable(dims))
    reads = sorted(range(len(flat)), key=flat.__getitem__)  # the 1 x 1 blocks, then each stack
    value = dict(zip(reads, np.cumsum([0] + [flat[k] for k in reads]).tolist()))
    order = np.array([value[k] + i for k, d in enumerate(flat) for i in range(d)], dtype=np.intp)
    bounds = np.cumsum([0] + [sum(party) for party in dims]).tolist()
    return order if max(flat, default=1) > 1 else None, tuple(zip(bounds, bounds[1:]))


def spectra_layout(dims: tuple) -> tuple:
    """Where :func:`buffer_spectra` reads Hermitian blocks raveled one after
    another into one buffer, in party order and within a party in block
    order; `dims` holds each party's block sizes, all nonzero.  It is the
    buffer position of every 1 x 1 block, one (count, d, d) table of
    positions per block size d > 1, sizes ascending, and the parties'
    :func:`_value_order`."""
    flat = list(itertools.chain.from_iterable(dims))
    starts = np.cumsum([0] + [d * d for d in flat]).tolist()
    ones = np.array([starts[k] for k, d in enumerate(flat) if d == 1], dtype=np.intp)
    stacks = tuple(np.array([starts[k] + np.arange(d * d) for k, e in enumerate(flat) if e == d])
                   .reshape(-1, d, d) for d in sorted(set(flat) - {1}))
    return ones, stacks, _value_order(dims)


def buffer_spectra(layout: tuple, buffer: np.ndarray) -> list[np.ndarray]:
    """Each party's spectrum, sorted descending, from its blocks in `buffer`.

    A 1 x 1 block's eigenvalue is read off as its real entry, which is all
    LAPACK's ``heevd`` returns for one row, and the same-size blocks of all
    parties go through one stacked ``eigvalsh`` call, which runs LAPACK on
    each matrix in turn; each party's values are sorted in block order.
    """
    ones, stacks, order = layout
    # with no stack, every block is 1 x 1 and the buffer holds them in order
    ones = buffer.real.take(ones) if stacks else buffer.real
    eigenvalues = [np.linalg.eigvalsh(buffer.take(at)).ravel() for at in stacks]
    return _party_spectra(order, ones, eigenvalues)


def _party_spectra(order: tuple, ones: np.ndarray, eigenvalues: list) -> list[np.ndarray]:
    """Each party's sorted spectrum from the 1 x 1 blocks' values and each
    stack's eigenvalues, sizes ascending (each stack is freed once solved)."""
    at, bounds = order
    values = ones if at is None else np.concatenate([ones] + eigenvalues).take(at)
    out = []
    for lo, hi in bounds:
        vals = values[lo:hi].copy()
        vals.sort()
        out.append(vals[::-1])
    return out


def spectra_agree(spec_a: np.ndarray, spec_b: np.ndarray, tol: float) -> bool:
    """True iff two descending spectra agree within tol, the shorter padded with zeros."""
    for a, b in itertools.zip_longest(spec_a.tolist(), spec_b.tolist(), fillvalue=0.0):
        if not abs(a - b) <= tol:  # a NaN disagrees
            return False
    return True


def fidelity(psi: AnyonState, rho: BlockOperator | AnyonState) -> float:
    """<psi|rho|psi> for a pure target psi (normalized first)."""
    psi = psi.normalized()
    if isinstance(rho, AnyonState):
        rho = pure_density(rho)
    _require_same_basis(psi.basis, rho.basis)
    return float(rho.expectation(psi).real)


def density_flags(basis: SectorBasis, data: np.ndarray) -> np.ndarray:
    """Whether each operator of a stack of operator data on `basis` (one per
    row) is a density operator: Hermitian, of trace 1 and with no eigenvalue
    below 0, each within SPECTRAL_TOL."""
    blocks = _sector_views(basis, data).values()
    flags = np.abs(trace_data(basis, data) - 1.0) <= SPECTRAL_TOL
    for b in blocks:
        skew = np.abs(b - np.conjugate(b.swapaxes(-1, -2)))
        flags &= np.max(skew, axis=(-2, -1), initial=0.0) <= SPECTRAL_TOL
    lowest = np.array([vals[-1] for vals in spectra(*zip(*blocks))])
    return flags & (lowest >= -SPECTRAL_TOL)


class Bipartition:
    """Contiguous A|B split of a grouped shape, as charge-block tables.

    The shape's root must join the A subtree (leaves 0..n_a-1) to the B
    subtree (the rest), so every joint tree is a triple (A tree a, B tree b,
    global charge g).  For each nonempty sector g, :meth:`table` holds the
    joint index of every (a, b), or -1 where a and b cannot fuse to g.  The
    party bases are grouped by root charge, so the table splits into
    sub-blocks (x, y): A trees of root x against B trees of root y.  Each is
    all -1 unless g is in x * y, and then it is dense; :attr:`blocks` lists
    those admissible (g, x, y) with their indices local to sector g.
    """

    def __init__(self, basis: SectorBasis, n_a: int):
        struct = basis.shape.structure
        if isinstance(struct, int):
            raise ShapeError("cannot bipartition a single anyon")
        left_node, right_node = struct
        a_shape, b_shape = subtree_shape(left_node), subtree_shape(right_node)
        if a_shape.n_leaves != n_a:
            raise ShapeError(
                f"shape {basis.shape} splits {a_shape.n_leaves}|{b_shape.n_leaves} at the "
                f"root, not {n_a}|{basis.shape.n_leaves - n_a}; use change_shape to regroup"
            )
        self.basis = basis
        self.n_a = n_a
        self.n_b = b_shape.n_leaves
        model = basis.model
        self.a_basis = enumerate_basis(model, a_shape)
        self.b_basis = enumerate_basis(model, b_shape)
        # each party's subtree is a run of joint-table columns, laid out as its own table
        self.a_index = self.a_basis.index_of_rows(basis.charges[:, basis.shape.span(left_node)])
        self.b_index = self.b_basis.index_of_rows(basis.charges[:, basis.shape.span(right_node)])

        self._tables: dict[Charge, np.ndarray] = {}
        self.blocks: list[tuple[Charge, Charge, Charge, np.ndarray]] = []
        for g in model.charges:
            sector = basis.sector_slice(g)
            if sector.stop == sector.start:
                continue
            table = np.full((self.a_basis.dim, self.b_basis.dim), -1, dtype=np.intp)
            table[self.a_index[sector], self.b_index[sector]] = np.arange(sector.start, sector.stop)
            table.setflags(write=False)
            self._tables[g] = table
            for x in model.charges:
                for y in model.charges:
                    index = table[self.a_basis.sector_slice(x), self.b_basis.sector_slice(y)]
                    if index.size and model.can_fuse(x, y, g):
                        self.blocks.append((g, x, y, index - sector.start))

    def table(self, g: Charge) -> np.ndarray:
        """d_A x d_B joint indices of (A tree, B tree) at global charge g, or -1."""
        if g not in self._tables:
            raise FusionError(f"no tree of shape {self.basis.shape} has global charge {g!r}")
        return self._tables[g]

    def amplitude_matrix(self, psi: AnyonState) -> np.ndarray:
        """C[a, b] = psi's amplitude on (A tree a, B tree b) at psi's charge, or 0
        where a and b cannot fuse to it; psi is taken as given, not normalized."""
        _require_same_basis(psi.basis, self.basis)
        return self.gather(psi.amplitudes, psi.sector)

    def gather(self, amplitudes: np.ndarray, g: Charge) -> np.ndarray:
        """:meth:`amplitude_matrix` of the amplitudes of a state of charge g, or
        one matrix per row of a stack of such amplitudes."""
        padded = np.zeros(amplitudes.shape[:-1] + (self.basis.dim + 1,), dtype=complex)
        padded[..., :-1] = amplitudes  # the last entry, 0, is where -1 entries read
        return padded.take(self.table(g), axis=-1)

    def kept_basis(self, traced: str) -> SectorBasis:
        if traced not in ("A", "B"):
            raise ValueError("traced side must be 'A' or 'B'")
        return self.a_basis if traced == "B" else self.b_basis

    def kept_blocks(self, traced: str) -> list[tuple[Charge, Charge, np.ndarray]]:
        """(g, kept root charge, index) per block; index rows run over the traced trees."""
        if traced == "B":
            return [(g, x, index.T) for g, x, _, index in self.blocks]
        return [(g, y, index) for g, _, y, index in self.blocks]

    def trace_columns(self, traced: str) -> list[list[int]]:
        """What each entry p of the kept operator's :attr:`BlockOperator.data`
        sums: one position in rho's per traced tree of every block that
        reaches p's charge, in block order.  Each entry of rho is listed
        once."""
        kept = self.kept_basis(traced)
        stacks = {c: [] for c in self.basis.model.charges}
        for g, keep, index in self.kept_blocks(traced):
            at = self.basis.block_slices[g].start + index * self.basis.sector_dim(g)
            stacks[keep].append((at[:, :, None] + index[:, None, :]).reshape(len(index), -1))
        columns = [[] for _ in range(kept.unit_count)]
        for c, stack in stacks.items():
            if stack:
                columns[kept.block_slices[c]] = np.concatenate(stack).T.tolist()
        return columns

    @functools.cached_property
    def trace_gathers(self) -> dict[str, tuple[np.ndarray, tuple]]:
        """Per traced side, the :func:`summed_gather` of :meth:`trace_columns`."""
        return {traced: summed_gather(self.trace_columns(traced), self.basis.unit_count)
                for traced in ("A", "B")}


@functools.lru_cache(maxsize=256)
def bipartition(basis: SectorBasis, n_a: int) -> Bipartition:
    """Cached Bipartition; bases are interned so the tables are built once."""
    return Bipartition(basis, n_a)


def summed_gather(columns, size: int) -> tuple[np.ndarray, tuple]:
    """The (terms, len(columns)) table of the positions, in an array of
    `size` entries, that each column lists, in order, and the (row, column)
    indices of the table's padding: a shorter column is filled with `size`,
    which :func:`gathered_sums` reads as 0 and :func:`embed_data` writes
    past the end."""
    terms = max(map(len, columns), default=0)
    table = np.full((terms, len(columns)), size)
    for p, column in enumerate(columns):
        table[:len(column), p] = column
    return table, np.nonzero(table == size)


def gathered_sums(data: np.ndarray, gather: tuple[np.ndarray, tuple], out: np.ndarray):
    """Write into `out` each column's sum of the entries of `data` (the last
    axis) that a :func:`summed_gather` lists, summed as reals, each term in
    turn from +0.0 as a per-term ``+=`` would (a complex sum of one-entry
    terms would be pairwise).  The padding reads +0.0, which adds exactly
    nothing: a sum begun at +0.0 is never -0.0."""
    table, (rows, cols) = gather
    terms = data.take(table, axis=-1, mode="clip")
    terms[..., rows, cols] = 0.0
    np.add.reduce(terms.view(float), axis=-2, initial=0.0, out=out.view(float))


def partial_trace(rho: BlockOperator, bipartition: Bipartition, traced: str = "B") -> BlockOperator:
    """Anyonic partial trace onto the kept subsystem.

    Keeps matrix elements with identical traced-side labelings *and*
    identical kept-side root charges; see the module docstring.  Maps
    density operators to density operators and satisfies the consistency
    condition with :func:`embed_local`.
    """
    _require_same_basis(rho.basis, bipartition.basis)
    return BlockOperator._of(bipartition.kept_basis(traced),
                             partial_trace_data(rho.data, bipartition, traced))


def partial_trace_data(data: np.ndarray, bipartition: Bipartition, traced: str) -> np.ndarray:
    """The :attr:`BlockOperator.data` of :func:`partial_trace` from rho's
    (unchecked), or of each operator of a stack of them (the last axis).

    Each block (g, x, y) of rho_g adds one kept-party matrix per traced
    tree, in global-charge and then traced-basis order
    (:attr:`Bipartition.trace_gathers`).
    """
    out = np.empty(data.shape[:-1] + (bipartition.kept_basis(traced).unit_count,), dtype=complex)
    gathered_sums(data, bipartition.trace_gathers[traced], out)
    return out


def pure_marginal(state: AnyonState, bipartition: Bipartition, traced: str = "B") -> BlockOperator:
    """``partial_trace(pure_density(state), ...)`` without forming the density.

    Equal to the partial trace up to summation order; see
    :func:`marginal_into`.
    """
    kept = bipartition.kept_basis(traced)
    # the marginal's data, and as much again as a margin for its products' temporaries
    require_memory(32 * kept.unit_count, f"the marginal on a {kept.dim}-dim basis")
    C = bipartition.amplitude_matrix(state.normalized())
    data = np.empty(kept.unit_count, dtype=complex)
    marginal_into(C, C.conj(), bipartition, traced, data)
    return BlockOperator._of(kept, data)


def marginal_into(C: np.ndarray, conj: np.ndarray, bipartition: Bipartition, traced: str,
                  out: np.ndarray):
    """Write the kept marginal's :attr:`BlockOperator.data` into `out` for the
    pure state with ``C = bipartition.amplitude_matrix(psi)`` and ``conj =
    C.conj()``: C_x C_x^dagger for each root charge x of A (traced B), or
    C_y^T conj(C_y) for each root charge y of B (traced A)."""
    kept = bipartition.kept_basis(traced)
    if traced == "A":
        C, conj = C.T, conj.T
    if kept.shape.n_leaves == 1:  # one anyon, one 1 x 1 block per charge: one stacked product
        np.matmul(C[:, None, :], np.ascontiguousarray(conj)[:, :, None], out=out.reshape(-1, 1, 1))
        return
    for c, sl, shape in kept.block_layout:
        at = kept.sector_slice(c)
        np.matmul(C[at], conj[at].T, out=out[sl].reshape(shape))


def embed_local(op: BlockOperator, bipartition: Bipartition, side: str = "A") -> BlockOperator:
    """Extend a subsystem operator to the whole system.

    A subsystem matrix element |avec><avec'| (with equal subsystem root
    charges, which BlockOperator enforces) is summed over all compatible
    labelings of the other side and all admissible global charges: each
    block (g, x, y) of the result is O_x (x) 1_y for side A, 1_x (x) O_y
    for side B.  The embedding is an algebra homomorphism and the adjoint
    of the partial trace.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    _require_same_basis(op.basis, bipartition.kept_basis("B" if side == "A" else "A"))
    return BlockOperator._of(bipartition.basis, embed_data(op.data, bipartition, side))


def embed_data(data: np.ndarray, bipartition: Bipartition, side: str) -> np.ndarray:
    """The :attr:`BlockOperator.data` of :func:`embed_local` from the subsystem
    operator's (unchecked), or of each operator of a stack of them (the last
    axis).  Each entry is written, once per traced tree, at the positions
    :func:`partial_trace` sums for it (:attr:`Bipartition.trace_gathers`),
    so the two maps are adjoint by construction; what the table's padding
    writes lands on an appended entry, which is dropped."""
    traced = "B" if side == "A" else "A"
    out = np.zeros(data.shape[:-1] + (bipartition.basis.unit_count + 1,), dtype=complex)
    out[..., bipartition.trace_gathers[traced][0]] = data[..., None, :]
    return out[..., :-1]


# ---------------------------------------------------------------------------
# random objects (seeded); used by the verification suites and tests


def sample_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent seeded stream per (seed, key): ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def random_pure_state(basis: SectorBasis, sector: Charge, rng: np.random.Generator) -> AnyonState:
    """Uniform (Haar) random pure state within one global-charge sector."""
    return AnyonState(basis, random_pure_states(basis, sector, rng, 1)[0])


def random_pure_states(basis: SectorBasis, sector: Charge, rng: np.random.Generator,
                       count: int) -> np.ndarray:
    """The amplitudes of `count` Haar random pure states in one global-charge
    sector, one per row.  Each takes a real then an imaginary normal draw per
    tree of the sector, so the rows are, bit for bit, `count` calls of
    :func:`random_pure_state` in turn, and leave `rng` where they would."""
    d = basis.sector_dim(sector)
    if d == 0:
        raise ValueError(f"sector {sector!r} is empty")
    return sector_states(basis, sector, rng.standard_normal((count, 2, d)))


def sector_states(basis: SectorBasis, sector: Charge, draws: np.ndarray) -> np.ndarray:
    """:func:`random_pure_states` from its normal draws, (count, 2, sector dim)."""
    vecs = draws[:, 0] + 1j * draws[:, 1]
    amplitudes = np.zeros((len(draws), basis.dim), dtype=complex)
    amplitudes[:, basis.sector_slice(sector)] = _normalized_rows(vecs)
    return amplitudes


def random_density(basis: SectorBasis, rng: np.random.Generator) -> BlockOperator:
    """Random density operator: Ginibre block per sector, then normalized."""
    return BlockOperator._of(basis, density_data(basis, rng.standard_normal(2 * basis.unit_count)))


def random_observable(basis: SectorBasis, rng: np.random.Generator) -> BlockOperator:
    """Random Hermitian block operator (a superselection-respecting observable)."""
    normals = rng.standard_normal(2 * basis.unit_count)
    return BlockOperator._of(basis, observable_data(basis, normals))


def density_data(basis: SectorBasis, normals: np.ndarray) -> np.ndarray:
    """:func:`random_density`'s data from its normal draws (the last axis, 2 *
    unit_count long), or one operator's per row of a stack of draws: G G^dagger
    for each sector's Ginibre block G, over the sum of their traces."""
    gin = _ginibre(basis, normals)
    out = np.empty(gin.shape, dtype=complex)
    total = 0.0
    for block, view in zip(_sector_views(basis, gin).values(), _sector_views(basis, out).values()):
        np.matmul(block, np.conjugate(block).swapaxes(-1, -2), out=view)
        total = total + np.trace(view, axis1=-2, axis2=-1).real
    out /= np.asarray(total)[..., None]
    return out


def observable_data(basis: SectorBasis, normals: np.ndarray) -> np.ndarray:
    """:func:`random_observable`'s data from its normal draws, as
    :func:`density_data` takes them: (G + G^dagger) / 2 per sector."""
    gin = _ginibre(basis, normals)
    out = np.empty(gin.shape, dtype=complex)
    for block, view in zip(_sector_views(basis, gin).values(), _sector_views(basis, out).values()):
        np.add(block, np.conjugate(block).swapaxes(-1, -2), out=view)
    out /= 2.0
    return out


def _ginibre(basis: SectorBasis, normals: np.ndarray) -> np.ndarray:
    """Operator data whose sector blocks are Ginibre matrices: in charge order,
    each sector's d * d real parts and then its d * d imaginary parts are the
    next 2 * d * d entries of the last axis of `normals`, as the draws of one
    d x d real and then one d x d imaginary matrix per sector would be."""
    out = np.empty(normals.shape[:-1] + (basis.unit_count,), dtype=complex)
    for sl in basis.block_slices.values():
        size = sl.stop - sl.start
        out.real[..., sl] = normals[..., 2 * sl.start:2 * sl.start + size]
        out.imag[..., sl] = normals[..., 2 * sl.start + size:2 * sl.stop]
    return out


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
    index = basis.index_of_labels([label for label, _ in entries])
    with np.errstate(over="ignore"):  # an overflow shows in the norm, checked below
        # unbuffered: a repeated label's values add in file order
        np.add.at(amplitudes, index, [value for _, value in entries])
        problem = norm_problem(_squared_norm(amplitudes))
    if amplitudes.any() and problem:  # the zero state fails where normalized
        raise ModelFormatError(f"cannot normalize: the norm of the amplitudes {problem}")
    return AnyonState(basis, amplitudes)


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
            label, value_part = line.rsplit(":", 1)
            re_s, im_s = value_part.split()
            value = complex(float(re_s), float(im_s))
        except ValueError:
            raise ModelFormatError(f"line {lineno}: cannot parse entry {line!r}") from None
        if not cmath.isfinite(value):
            raise ModelFormatError(f"line {lineno}: amplitude is not finite in {line!r}")
        entries.append((label.strip(), value))
    if shape is None:
        raise ModelFormatError("missing 'shape:' header")
    return shape, entries
