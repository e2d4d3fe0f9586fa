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

import numpy as np

from .errors import (
    BasisMismatchError,
    FusionError,
    ModelFormatError,
    ShapeError,
    SuperselectionError,
)
from .model import Charge
from .trees import (
    FusionTree,
    SectorBasis,
    TreeShape,
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
        support = [g for g in basis.model.charges if np.any(amplitudes[basis.sector_slice(g)])]
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


def rounded_product(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise complex ``lhs * rhs``, rounded like a scalar complex product:
    numpy's vectorized complex multiply may fuse multiply-adds, which moves
    the last bit."""
    out = np.empty(np.broadcast(lhs, rhs).shape, dtype=complex)
    out.real = lhs.real * rhs.real - lhs.imag * rhs.imag
    out.imag = lhs.real * rhs.imag + lhs.imag * rhs.real
    return out


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

    def kept_basis(self, traced: str) -> SectorBasis:
        if traced not in ("A", "B"):
            raise ValueError("traced side must be 'A' or 'B'")
        return self.a_basis if traced == "B" else self.b_basis

    def kept_blocks(self, traced: str) -> list[tuple[Charge, Charge, np.ndarray]]:
        """(g, kept root charge, index) per block; index rows run over the traced trees."""
        if traced == "B":
            return [(g, x, index.T) for g, x, _, index in self.blocks]
        return [(g, y, index) for g, _, y, index in self.blocks]


@functools.lru_cache(maxsize=256)
def bipartition(basis: SectorBasis, n_a: int) -> Bipartition:
    """Cached Bipartition; bases are interned so the tables are built once."""
    return Bipartition(basis, n_a)


def _zero_blocks(basis: SectorBasis) -> dict[Charge, np.ndarray]:
    return {g: np.zeros((basis.sector_dim(g),) * 2, dtype=complex) for g in basis.model.charges}


def partial_trace(rho: BlockOperator, bipartition: Bipartition, traced: str = "B") -> BlockOperator:
    """Anyonic partial trace onto the kept subsystem.

    Keeps matrix elements with identical traced-side labelings *and*
    identical kept-side root charges; see the module docstring.  Each
    block (g, x, y) of rho_g adds one kept-party matrix per traced tree,
    in global-charge and then traced-basis order.  Maps density operators
    to density operators and satisfies the consistency condition with
    :func:`embed_local`.
    """
    _require_same_basis(rho.basis, bipartition.basis)
    kept = bipartition.kept_basis(traced)
    out = _zero_blocks(kept)
    for g, keep, index in bipartition.kept_blocks(traced):
        for term in rho.blocks[g][index[:, :, None], index[:, None, :]]:
            out[keep] += term
    return BlockOperator(kept, out)


def pure_marginal(state: AnyonState, bipartition: Bipartition, traced: str = "B") -> BlockOperator:
    """``partial_trace(pure_density(state), ...)`` without forming the density.

    With C[a, b] the normalized amplitude of (A tree a, B tree b) at the
    state's charge, the kept marginal is C_x C_x^dagger for each root
    charge x of A (traced B), or C_y^T conj(C_y) for each root charge y
    of B (traced A).  Equal to the partial trace up to summation order.
    """
    _require_same_basis(state.basis, bipartition.basis)
    kept = bipartition.kept_basis(traced)
    psi = state.normalized()
    # -1 in the table reads the appended zero
    C = np.append(psi.amplitudes, 0.0)[bipartition.table(psi.sector)]
    if traced == "A":
        C = C.T
    blocks = {}
    for c in kept.model.charges:
        rows = C[kept.sector_slice(c)]
        blocks[c] = rows @ rows.conj().T
    return BlockOperator(kept, blocks)


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
    traced = "B" if side == "A" else "A"
    _require_same_basis(op.basis, bipartition.kept_basis(traced))
    out = _zero_blocks(bipartition.basis)
    for g, keep, index in bipartition.kept_blocks(traced):
        out[g][index[:, :, None], index[:, None, :]] = op.blocks[keep]
    return BlockOperator(bipartition.basis, out)


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
            value = complex(float(re_s), float(im_s))
        except ValueError:
            raise ModelFormatError(f"line {lineno}: cannot parse entry {line!r}") from None
        if not cmath.isfinite(value):
            raise ModelFormatError(f"line {lineno}: amplitude is not finite in {line!r}")
        entries.append((labels, value))
    if shape is None:
        raise ModelFormatError("missing 'shape:' header")
    return shape, entries
