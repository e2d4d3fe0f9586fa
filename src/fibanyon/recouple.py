"""Basis changes between coupling-tree shapes, and adjacent-leaf braids.

An elementary move re-associates one vertex, ((A B) C) <-> (A (B C)),
with coefficients given by the F-symbols of the subtree root charges:

    |(a,b),c; d; g>  =  sum_f  [F^{abc}_g]_{df}  |a,(b,c); f; g>

F is unitary, so the left move (A (B C)) -> ((A B) C) has the conjugate
coefficients, [F^{abc}_g]_{df}^* (Bonderson, PhD thesis, Caltech 2007).

A move touches one internal label, so it sends each tree to at most
|fusion outcomes| trees.  :func:`change_shape` regroups a state by
applying its route's moves one at a time to the state's nonzero trees, as
anyonic tensor networks do (Pfeifer et al., PRB 82, 115126 (2010)): no
intermediate basis is enumerated and no change is composed.

:func:`shape_change` runs the same moves over every tree of the source
basis separately, each tree's index riding in a trailing column, and
returns the whole change as a sparse map, its (row, col, coeff) entries,
applied without ever forming a dim x dim matrix; ``BasisChange.matrix``
builds the dense matrix only when asked.  The teleport plan compiles it
further.  Nothing here composes changes: verify's recoupling suite composes
its own maps through either comb and checks them (unitarity, round trips,
path independence by the pentagon identity).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, require_memory
from .model import AnyonModel
from .states import AnyonState, rounded_product
from .trees import SectorBasis, TreeShape, _leaves, enumerate_basis


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


def _fmove_rows(model: AnyonModel, shape: TreeShape, vertex: int, direction: str,
                rows: np.ndarray):
    """One move's column rewrite of charge-table rows of `shape`.

    A right move rewrites the vertex's columns [g, d, A.., B.., C..] as
    [g, A.., f, B.., C..] with coefficient [F^{abc}_g]_{df}; a left move
    rewrites [g, A.., f, B.., C..] as [g, d, A.., B.., C..] with its
    conjugate.  Every other column carries through.  Returns the rotated
    shape and, per image, the index of its input row, the image row and
    the coefficient, by input row, then by the new label in charge order.
    """
    target = _rotated_structure(shape, vertex, direction)
    node = shape.internal_nodes[vertex]
    if direction == "right":
        (a_node, b_node), c_node = node
        old, new = node[0], (b_node, c_node)
    else:
        a_node, (b_node, c_node) = node
        old, new = node[1], (a_node, b_node)
    g, x, a, b, c = (rows[:, shape.span(v).start] for v in (node, old, a_node, b_node, c_node))
    f_array = model.f_array
    coeffs = f_array[a, b, c, g, x] if direction == "right" else f_array[a, b, c, g, :, x].conj()
    src, label = np.nonzero(coeffs)
    # target column j holds source column columns[j]; the new label overwrites its own
    identity = np.arange(rows.shape[1])
    columns = identity.copy()
    for v in (a_node, b_node, c_node):
        columns[target.span(v)] = identity[shape.span(v)]
    out = rows.take(columns, axis=1).take(src, axis=0)
    out[:, target.span(new).start] = label
    return target, src, out, coeffs[src, label]


def elementary_fmove(
    model: AnyonModel, shape: TreeShape, vertex: int, direction: str = "right"
) -> BasisChange:
    """Single re-association at one vertex (preorder index).

    ``direction="right"`` turns ((A B) C) into (A (B C)) at the vertex,
    ``"left"`` is the inverse.  All other labels carry through unchanged.
    Entries are listed by source index, then by the new label (f for a
    right move, d for a left one) in charge order.
    """
    if direction not in ("right", "left"):
        raise ShapeError(f"direction must be 'right' or 'left', got {direction!r}")
    source = enumerate_basis(model, shape)
    target_shape, cols, rows, coeffs = _fmove_rows(model, shape, vertex, direction, source.charges)
    target = enumerate_basis(model, target_shape)
    return BasisChange(source, target, target.index_of_rows(rows), cols, coeffs)


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


def _route(source: TreeShape, target: TreeShape) -> list[tuple[int, str]]:
    """Moves taking `source` to `target`: the source's left moves to the left
    comb, then the target's, undone in reverse order as right moves."""
    if source.n_leaves != target.n_leaves:
        raise ShapeError("source and target shapes have different leaf counts")
    back = [(vertex, "right") for vertex, _ in reversed(_moves_to_comb(target, "left"))]
    return _moves_to_comb(source, "left") + back


def _merged(rows: np.ndarray, terms: np.ndarray, radix: int, width: int):
    """The distinct rows (by key order) and, for each, the sum of its terms.

    A row's first `width` columns, its tree, are keyed in `radix`.  A column
    past them (the source tree's index, in :func:`shape_change`) is keyed on
    its own, by the pair (tree key, index): no key has more columns than a
    tree, whose count numpy bounds.
    """
    keys = np.ravel_multi_index(tuple(rows[:, :width].T), (radix,) * width)
    if rows.shape[1] > width:
        index = rows[:, width]
        keys = np.unique(keys, return_inverse=True)[1] * (int(index.max()) + 1) + index
    keys, slot = np.unique(keys, return_inverse=True)
    distinct = np.empty((len(keys), rows.shape[1]), dtype=rows.dtype)
    distinct[slot] = rows
    return distinct, _sum_by_index(slot, terms, len(keys))


def _fan_out(model: AnyonModel) -> int:
    """The most trees one move sends a tree to, or takes it from."""
    f_array = model.f_array != 0
    return int(max(f_array.sum(axis=-1).max(), f_array.sum(axis=-2).max()))


def _subtrees(shape: TreeShape) -> dict:
    """Each node of `shape`, the leaves included, keyed by its set of leaves."""
    return {frozenset(_leaves(node)): node
            for node in (*range(shape.n_leaves), *shape.internal_nodes)}


def _routed(model: AnyonModel, shape: TreeShape, route, rows: np.ndarray, terms: np.ndarray):
    """Charge-table rows of `shape` and their terms, taken along `route` one
    move at a time; the images of each move that coincide are summed before
    the next move.  Columns past the tree's ride along unchanged."""
    radix, width = len(model.charges), 2 * shape.n_leaves - 1
    for k, (vertex, direction) in enumerate(route):
        if k:
            rows, terms = _merged(rows, terms, radix, width)
        shape, src, rows, coeffs = _fmove_rows(model, shape, vertex, direction, rows)
        terms = coeffs * terms[src]
    return rows, terms


@functools.lru_cache(maxsize=128)
def shape_change(model: AnyonModel, source: TreeShape, target: TreeShape) -> BasisChange:
    """Sparse unitary from the source-shape basis to the target-shape basis.

    :func:`change_shape`'s moves, run over every source tree separately: a
    trailing column holds each tree's index, which the moves carry through
    and which keeps the images of different trees apart.  The nonzero
    entries are listed by target index, then by source index.  Only the
    source and target bases are enumerated.  Results are cached per
    (model, source, target): teleport plans of one geometry share a map.

    A move relabels only the subtree it replaces, so a subtree (a set of
    leaves) found in every shape on the route keeps its label: the trees
    that agree on those labels span one block of the map, and a block of N
    trees holds at most N^2 rows at any move.  That bounds the rows held,
    and the memory they need is checked before they are built.
    """
    route = _route(source, target)
    basis = enumerate_basis(model, source)
    kept, shape = _subtrees(source), source
    for move in route:
        shape = _rotated_structure(shape, *move)
        kept = {key: node for key, node in kept.items() if key in _subtrees(shape)}
    # each tree's block as a mixed-radix key, one column at a time; a key that
    # wraps can only merge blocks, which raises the bound
    radix, keys = len(model.charges), np.zeros(basis.dim, dtype=np.int64)
    for node in kept.values():
        keys *= radix
        keys += basis.charges[:, source.span(node).start]
    bound = int(np.sum(np.unique(keys, return_counts=True)[1] ** 2))
    # the charges and each tree's index, in the narrowest type that holds both
    dtype, n_cols = np.min_scalar_type(-basis.dim), basis.charges.shape[1] + 1
    # change_shape's estimate per row, with the index column
    require_memory(bound * (_fan_out(model) * (2 * dtype.itemsize * n_cols + 88) + 32 * radix),
                   f"the basis change from {source} to {target}")
    rows = np.empty((basis.dim, n_cols), dtype)
    rows[:, :-1], rows[:, -1] = basis.charges, np.arange(basis.dim)
    rows, terms = _routed(model, source, route, rows, np.ones(basis.dim, dtype=complex))
    out = enumerate_basis(model, target)
    keys, slot = np.unique(out.index_of_rows(rows[:, :-1]) * basis.dim + rows[:, -1],
                           return_inverse=True)
    coeffs = _sum_by_index(slot, terms, len(keys))
    keep = coeffs != 0  # images that cancel exactly
    return BasisChange(basis, out, *np.divmod(keys[keep], basis.dim), coeffs[keep])


def change_shape(model: AnyonModel, state, target: TreeShape):
    """Re-express a state in the target-shape basis; norm is preserved.

    The route's moves (:func:`_route`) are applied one at a time to the
    state's nonzero trees, as charge-table rows with their amplitudes
    (:func:`_routed`).  No intermediate basis is enumerated and no change is
    composed: the final rows are looked up in the target basis once.  A move
    sends a tree to at most the model's largest F fan-out of trees and keeps
    its global charge; that bounds the rows held, and the memory they need
    is checked before anything is allocated.
    """
    basis = state.basis
    route = _route(basis.shape, target)
    fan_out = _fan_out(model)
    growth = fan_out ** len(route)
    support = sum(min(np.count_nonzero(state.amplitudes[s]) * growth, s.stop - s.start)
                  for s in map(basis.sector_slice, model.charges))
    # Per image of a move: two copies of its charge row, its source index,
    # label, key, sort order and slot (8 bytes each) and three complex terms;
    # per input row, its F-symbol row and conjugate.  Summing the output
    # vector takes 48 bytes a tree: two float halves, a complex one and the sum.
    radix, n_cols = len(model.charges), basis.charges.shape[1]
    require_memory(support * (fan_out * (2 * n_cols + 88) + 32 * radix) + 48 * basis.dim,
                   f"regrouping {support} trees to {target}")
    nz = np.flatnonzero(state.amplitudes)
    rows, terms = _routed(model, basis.shape, route, basis.charges[nz], state.amplitudes[nz])
    out = enumerate_basis(model, target)
    return AnyonState(out, _sum_by_index(out.index_of_rows(rows), terms, out.dim))


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
