"""Basis changes between coupling-tree shapes, and adjacent-leaf braids.

An elementary move re-associates one vertex, ((A B) C) <-> (A (B C)),
with coefficients given by the F-symbols of the subtree root charges:

    |(a,b),c; d; g>  =  sum_f  [F^{abc}_g]_{df}  |a,(b,c); f; g>

F is unitary, so the left move (A (B C)) -> ((A B) C) is the right move
from the rotated shape, inverted (Bonderson, PhD thesis, Caltech 2007).

A move touches one internal label, so it sends each tree to at most
|fusion outcomes| trees.  Basis changes are therefore stored sparsely, as
their nonzero (row, col, coeff) entries, and composed and applied without
ever forming a dim x dim matrix; ``BasisChange.matrix`` builds the dense
matrix only when asked.  Each shape's route to the left (or right) comb is
composed once and cached, and a shape-to-shape change is the source's map
to the comb followed by the inverse of the target's.  Every such change is
unitary and block diagonal in the global charge; routing through either
comb gives the same change (pentagon identity), which the tests check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError, require_memory
from .model import AnyonModel
from .states import AnyonState, rounded_product
from .trees import SectorBasis, TreeShape, enumerate_basis


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (i, j) with left[i] == right[j], by i, then by j."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    starts = np.searchsorted(ordered, left, side="left")
    counts = np.searchsorted(ordered, left, side="right") - starts
    i = np.repeat(np.arange(len(left)), counts)
    offsets = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return i, order[np.repeat(starts, counts) + offsets]


def _sum_by_index(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[k] = sum of values[i] with index[i] == k, added in array order."""
    return (np.bincount(index, weights=values.real, minlength=size)
            + 1j * np.bincount(index, weights=values.imag, minlength=size))


@dataclass(frozen=True)
class BasisChange:
    """Sparse unitary re-expressing source-shape amplitudes in a target shape.

    Entry k sends source index ``cols[k]`` to target index ``rows[k]`` with
    weight ``coeffs[k]``; no (row, col) pair repeats.
    """

    source: SectorBasis
    target: SectorBasis
    rows: np.ndarray
    cols: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def identity(cls, basis: SectorBasis) -> "BasisChange":
        index = np.arange(basis.dim, dtype=np.intp)
        return cls(basis, basis, index, index, np.ones(basis.dim, dtype=complex))

    @property
    def matrix(self) -> np.ndarray:
        """The dense target.dim x source.dim matrix, built on every access."""
        require_memory(16 * self.target.dim * self.source.dim,
                       f"the dense {self.target.dim} x {self.source.dim} basis change")
        out = np.zeros((self.target.dim, self.source.dim), dtype=complex)
        out[self.rows, self.cols] = self.coeffs
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """``self.matrix @ vec`` for a source-basis vector, without the matrix."""
        terms = self.coeffs * np.asarray(vec, dtype=complex)[self.cols]
        return _sum_by_index(self.rows, terms, self.target.dim)

    def then(self, other: "BasisChange") -> "BasisChange":
        """This change followed by `other`: joins on the middle index."""
        if not other.source.compatible(self.target):
            raise ShapeError("basis changes do not compose: shape mismatch")
        # pair entry i of self with every entry j of other where other.cols[j]
        # == self.rows[i]: `left` lists the i's, `right` the matching j's
        left, right = _join(self.rows, other.cols)
        terms = other.coeffs[right] * self.coeffs[left]
        keys, slot = np.unique(
            other.rows[right] * self.source.dim + self.cols[left], return_inverse=True
        )
        coeffs = _sum_by_index(slot, terms, len(keys))
        keep = coeffs != 0
        rows, cols = np.divmod(keys[keep], self.source.dim)
        return BasisChange(self.source, other.target, rows, cols, coeffs[keep])

    def inverse(self) -> "BasisChange":
        return BasisChange(self.target, self.source, self.cols, self.rows, self.coeffs.conj())


def _rotated_structure(shape: TreeShape, vertex: int, direction: str):
    """Structure after re-associating `vertex`; raises if not applicable."""
    nodes = shape.internal_nodes
    if not 0 <= vertex < len(nodes):
        raise ShapeError(f"no internal vertex {vertex} in shape {shape}")
    target_node = nodes[vertex]

    # Leaf indices are distinct, so no two nodes compare equal and the
    # rotation site is unambiguous.
    def walk(node):
        if node == target_node:
            left, right = node
            if direction == "right":
                if isinstance(left, int):
                    raise ShapeError("right move needs an internal left child")
                a, b = left
                return (a, (b, right))
            else:
                if isinstance(right, int):
                    raise ShapeError("left move needs an internal right child")
                b, c = right
                return ((left, b), c)
        if isinstance(node, int):
            return node
        return (walk(node[0]), walk(node[1]))

    return TreeShape(walk(shape.structure))


def elementary_fmove(
    model: AnyonModel, shape: TreeShape, vertex: int, direction: str = "right"
) -> BasisChange:
    """Single re-association at one vertex (preorder index).

    ``direction="right"`` turns ((A B) C) into (A (B C)) at the vertex,
    ``"left"`` is the inverse.  All other labels carry through unchanged.
    The left move is the inverted right move from the rotated shape, its
    entries listed by source index, then by the new label d in charge order.
    """
    if direction not in ("right", "left"):
        raise ShapeError(f"direction must be 'right' or 'left', got {direction!r}")
    target_shape = _rotated_structure(shape, vertex, direction)
    if direction == "left":
        move = elementary_fmove(model, target_shape, vertex, "right").inverse()
        order = np.lexsort((move.rows, move.cols))
        return replace(move, rows=move.rows[order], cols=move.cols[order],
                       coeffs=move.coeffs[order])
    source = enumerate_basis(model, shape)
    target = enumerate_basis(model, target_shape)

    # The move rewrites the vertex's columns [g, d, A.., B.., C..] as
    # [g, A.., f, B.., C..]; every other column carries through.
    (a_node, b_node), c_node = node = shape.internal_nodes[vertex]
    g, d, a, b, c = (source.charges[:, shape.span(x).start]
                     for x in (node, node[0], a_node, b_node, c_node))
    coeffs = model.f_array[a, b, c, g, d]
    cols, f = np.nonzero(coeffs)  # by source index, then f in charge order
    moved = source.charges[cols]
    target_rows = moved.copy()
    for x in (a_node, b_node, c_node):
        target_rows[:, target_shape.span(x)] = moved[:, shape.span(x)]
    target_rows[:, target_shape.span((b_node, c_node)).start] = f
    return BasisChange(source, target, target.index_of_rows(target_rows), cols, coeffs[cols, f])


def _moves_to_comb(shape: TreeShape, via: str) -> list[tuple[int, str]]:
    """Rotation sequence taking `shape` to the left (``via="left"``) or right comb."""
    moves = []
    current = shape
    while True:
        nodes = current.internal_nodes
        pick = None
        for i, node in enumerate(nodes):
            child = node[1] if via == "left" else node[0]
            if not isinstance(child, int):
                pick = (i, via)
                break
        if pick is None:
            return moves
        moves.append(pick)
        current = _rotated_structure(current, *pick)


@functools.lru_cache(maxsize=256)
def _to_comb(model: AnyonModel, shape: TreeShape, via: str) -> BasisChange:
    """Composed moves from the `shape` basis to the left (or right) comb basis."""
    steps = []
    current = shape
    for vertex, direction in _moves_to_comb(shape, via):
        steps.append(elementary_fmove(model, current, vertex, direction))
        current = steps[-1].target.shape
    # Fold from the comb end: the inverse, used on the target side of a shape
    # change, then associates like undoing the moves one at a time.
    change = BasisChange.identity(enumerate_basis(model, current))
    for step in reversed(steps):
        change = step.then(change)
    return change


@functools.lru_cache(maxsize=128)
def shape_change(
    model: AnyonModel, source: TreeShape, target: TreeShape, via: str = "left"
) -> BasisChange:
    """Sparse unitary from the source-shape basis to the target-shape basis.

    Routed through the left comb by default (``via="right"`` uses the
    right comb; both give the same change by path independence).
    Results are cached per (model, source, target, via), and each shape's
    route to the comb per (model, shape, via).
    """
    if source.n_leaves != target.n_leaves:
        raise ShapeError("source and target shapes have different leaf counts")
    if source == target:
        return BasisChange.identity(enumerate_basis(model, source))
    return _to_comb(model, source, via).then(_to_comb(model, target, via).inverse())


def change_shape(model: AnyonModel, state, target: TreeShape):
    """Re-express a state in the target-shape basis; norm is preserved."""
    change = shape_change(model, state.basis.shape, target)
    return AnyonState(change.target, change.apply(state.amplitudes))


def braid_adjacent(model: AnyonModel, state, leaf_pair: tuple[int, int], direction: str = "ccw"):
    """Exchange two adjacent leaves that meet at a common vertex.

    Counterclockwise exchange of charges (x, y) fusing to c multiplies the
    amplitude by R^{xy}_c and swaps the two leaf labels; clockwise is the
    inverse.  If the leaves do not share a vertex, reshape first.
    """
    i, j = leaf_pair
    if j != i + 1:
        raise ShapeError("braid_adjacent exchanges a pair of neighbouring leaves (i, i+1)")
    shape = state.basis.shape
    if (i, j) not in shape.internal_nodes:
        raise ShapeError(
            f"leaves {i},{j} do not meet at a vertex of {shape}; apply change_shape first"
        )
    if direction not in ("ccw", "cw"):
        raise ShapeError(f"direction must be 'ccw' or 'cw', got {direction!r}")

    basis = state.basis
    nz = np.flatnonzero(state.amplitudes)
    rows = basis.charges[nz]
    x_col, y_col, c_col = (shape.span(node).start for node in (i, j, (i, j)))
    x, y, c = rows[:, x_col], rows[:, y_col], rows[:, c_col]
    phase = model.r_array[x, y, c] if direction == "ccw" else model.r_array[y, x, c].conj()
    rows[:, [x_col, y_col]] = rows[:, [y_col, x_col]]
    out = np.zeros_like(state.amplitudes)
    out[basis.index_of_rows(rows)] += rounded_product(phase, state.amplitudes[nz])
    return AnyonState(basis, out)
