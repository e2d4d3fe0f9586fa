"""Coupling-tree shapes and fusion-tree bases.

The state space of N anyons is spanned by the consistent labelings of a
full binary coupling tree with N ordered leaves: each leaf carries a
charge, each fusion vertex carries the outcome charge of its two children,
and the root label is the global charge of the system.  Different shapes
(parenthesizations) give different orthonormal bases of the same space;
:mod:`fibanyon.recouple` converts between them.

Shapes are written as nested parentheses over leaf positions, e.g.
``((0 1)((2 3)(4 5)))``.  Basis vectors are written like
``(tau,e),(e,tau);tau,tau;e`` - leaf charges following the shape's
grouping, then the non-root internal charges in depth-first order, then
the global charge.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FusionError, ShapeError
from .model import AnyonModel, Charge, normalize_charge_label

# A shape node is either a leaf index (int) or a pair of nodes.


def _leaves(node) -> list[int]:
    if isinstance(node, int):
        return [node]
    return _leaves(node[0]) + _leaves(node[1])


@dataclass(frozen=True)
class TreeShape:
    """A full binary coupling tree over leaves 0..N-1 in physical order."""

    structure: "int | tuple"

    def __post_init__(self):
        leaves = _leaves(self.structure)
        if leaves != list(range(len(leaves))):
            raise ShapeError(f"leaves must appear in order 0..N-1, got {leaves}")

    @functools.cached_property
    def n_leaves(self) -> int:
        return len(_leaves(self.structure))

    @property
    def n_internal(self) -> int:
        return self.n_leaves - 1 if self.n_leaves > 1 else 0

    @functools.cached_property
    def _spans(self) -> dict:
        """Each node's charge-table columns (see :class:`SectorBasis`), keyed in
        preorder: a subtree of k leaves is the run of its 2k - 1 nodes."""
        spans = {}

        def walk(node, start: int):
            spans[node] = slice(start, start + 2 * len(_leaves(node)) - 1)
            if not isinstance(node, int):
                walk(node[0], start + 1)
                walk(node[1], spans[node[0]].stop)

        walk(self.structure, 0)
        return spans

    @functools.cached_property
    def internal_nodes(self) -> tuple:
        """Internal nodes in depth-first preorder (root first)."""
        return tuple(node for node in self._spans if not isinstance(node, int))

    def span(self, node) -> slice:
        """The charge-table columns of the subtree at `node`."""
        return self._spans[node]

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Charge-table columns of the leaves and of the internal nodes (preorder)."""
        return (np.array([self.span(i).start for i in range(self.n_leaves)], dtype=np.intp),
                np.array([self.span(v).start for v in self.internal_nodes], dtype=np.intp))

    def serialize(self) -> str:
        """Canonical form, e.g. ``((0 1)((2 3)(4 5)))``."""

        def render(node):
            if isinstance(node, int):
                return str(node)
            left, right = render(node[0]), render(node[1])
            sep = "" if right.startswith("(") else " "
            return f"({left}{sep}{right})"

        return render(self.structure)

    def __str__(self) -> str:
        return self.serialize()

    @staticmethod
    def parse(text: str) -> "TreeShape":
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        pos = 0

        def parse_node():
            nonlocal pos
            if pos >= len(tokens):
                raise ShapeError(f"unbalanced shape expression: {text!r}")
            tok = tokens[pos]
            pos += 1
            if tok == "(":
                left = parse_node()
                right = parse_node()
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise ShapeError(f"expected ')' in shape expression: {text!r}")
                pos += 1
                return (left, right)
            if tok == ")":
                raise ShapeError(f"unexpected ')' in shape expression: {text!r}")
            try:
                return int(tok)
            except ValueError:
                raise ShapeError(f"bad token {tok!r} in shape expression") from None

        node = parse_node()
        if pos != len(tokens):
            raise ShapeError(f"trailing tokens in shape expression: {text!r}")
        return TreeShape(node)


def left_comb(n: int) -> TreeShape:
    """The canonical shape (((0 1) 2) 3)...: every right child is a leaf."""
    if n < 1:
        raise ShapeError("need at least one leaf")
    node: "int | tuple" = 0
    for i in range(1, n):
        node = (node, i)
    return TreeShape(node)


def right_comb(n: int) -> TreeShape:
    if n < 1:
        raise ShapeError("need at least one leaf")
    node: "int | tuple" = n - 1
    for i in range(n - 2, -1, -1):
        node = (i, node)
    return TreeShape(node)


def _shift(node, offset: int):
    if isinstance(node, int):
        return node + offset
    return (_shift(node[0], offset), _shift(node[1], offset))


def join_shapes(left: TreeShape, right: TreeShape) -> TreeShape:
    """Join two shapes under a new root; right-side leaves are re-numbered."""
    return TreeShape((left.structure, _shift(right.structure, left.n_leaves)))


def grouped_shape(n_a: int, n_b: int) -> TreeShape:
    """Bipartite shape (A-comb)(B-comb): the two parties join at the root."""
    return join_shapes(left_comb(n_a), left_comb(n_b))


def subtree_shape(node) -> TreeShape:
    """The shape of a subtree, re-indexed to local leaf positions."""
    leaves = _leaves(node)
    offset = leaves[0]
    return TreeShape(_shift(node, -offset))


@dataclass(frozen=True)
class FusionTree:
    """One basis vector: a shape plus charge labels on leaves and vertices.

    ``internal_charges`` follows the shape's depth-first preorder, so the
    first entry (when N > 1) is the root label == the global charge.
    Construction does not validate fusion consistency; a basis's
    :meth:`SectorBasis.index_of` does.
    """

    shape: TreeShape
    leaf_charges: tuple[Charge, ...]
    internal_charges: tuple[Charge, ...]

    def __post_init__(self):
        if len(self.leaf_charges) != self.shape.n_leaves:
            raise ShapeError("wrong number of leaf charges")
        if len(self.internal_charges) != self.shape.n_internal:
            raise ShapeError("wrong number of internal charges")

    @property
    def global_charge(self) -> Charge:
        if self.shape.n_leaves == 1:
            return self.leaf_charges[0]
        return self.internal_charges[0]

    def label(self) -> str:
        """Render as e.g. ``(tau,e),(e,tau);tau,tau;e``."""

        def render(node):
            if isinstance(node, int):
                return self.leaf_charges[node]
            return f"({render(node[0])},{render(node[1])})"

        struct = self.shape.structure
        if isinstance(struct, int):
            return self.leaf_charges[0]
        leaf_part = f"{render(struct[0])},{render(struct[1])}"
        inner = ",".join(self.internal_charges[1:])
        if inner:
            return f"{leaf_part};{inner};{self.internal_charges[0]}"
        return f"{leaf_part};{self.internal_charges[0]}"


def parse_tree_label(shape: TreeShape, text: str) -> FusionTree:
    """Inverse of :meth:`FusionTree.label` for a known shape.

    The leaf grouping parentheses are decorative (the shape fixes the
    structure); only the charge order matters.
    """
    segments = [seg.strip() for seg in text.split(";")]
    leaf_part = segments[0].replace("(", " ").replace(")", " ").replace(",", " ")
    leaf_charges = tuple(normalize_charge_label(t) for t in leaf_part.split())
    if len(leaf_charges) != shape.n_leaves:
        raise ShapeError(
            f"label {text!r} has {len(leaf_charges)} leaves, shape has {shape.n_leaves}"
        )
    if shape.n_leaves == 1:
        if len(segments) != 1:
            raise ShapeError(f"single-anyon label {text!r} must have no ';'")
        return FusionTree(shape, leaf_charges, ())
    if len(segments) == 2:
        inner: tuple[Charge, ...] = ()
        global_charge = normalize_charge_label(segments[1])
    elif len(segments) == 3:
        inner = tuple(normalize_charge_label(t) for t in segments[1].split(",") if t.strip())
        global_charge = normalize_charge_label(segments[2])
    else:
        raise ShapeError(f"cannot parse basis label {text!r}")
    internal = (global_charge,) + inner
    return FusionTree(shape, leaf_charges, internal)


def _labelings(fusion: np.ndarray, node) -> np.ndarray:
    """Every consistent labeling of a subtree: int8 charge indices, one row per
    labeling, one column per node in preorder (root first)."""
    if isinstance(node, int):
        return np.arange(len(fusion), dtype=np.int8)[:, None]
    left, right = _labelings(fusion, node[0]), _labelings(fusion, node[1])
    i, j, root = np.nonzero(fusion[left[:, :1], right[:, 0]])
    return np.concatenate([root.astype(np.int8)[:, None], left[i], right[j]], axis=1)


class SectorBasis:
    """Ordered fusion-tree basis of a fixed shape, grouped by global charge.

    Sector order follows the model's charge order (vacuum first for
    Fibonacci); within a sector trees sort lexicographically by
    (leaf charges, internal charges).  Flat indices run over sectors in
    that order, so every sector occupies a contiguous slice.

    The basis is one read-only int8 table, :attr:`charges`: a row of charge
    indices per tree, a column per shape node in preorder, root first, so
    every subtree is a run of columns (:meth:`TreeShape.span`).  Read as a
    mixed-radix number over (global charge, leaves, other internals), a
    row increases with its index, so :meth:`index_of_rows` is one
    ``searchsorted``.  Trees and labels are built on demand, for I/O.
    """

    def __init__(self, model: AnyonModel, shape: TreeShape):
        self.model = model
        self.shape = shape
        leaf_cols, internal_cols = shape.columns
        self._key_cols = np.concatenate([internal_cols[:1], leaf_cols, internal_cols[1:]])
        radix = len(model.charges)
        if radix > 127 or radix ** len(self._key_cols) > np.iinfo(np.int64).max:
            raise ShapeError(f"shape {shape} over {radix} charges is too large to index")
        self._weights = radix ** np.arange(len(self._key_cols) - 1, -1, -1, dtype=np.int64)
        table = _labelings(model.fusion_array, shape.structure)
        keys = table[:, self._key_cols] @ self._weights
        order = np.argsort(keys)
        self.charges = table[order]
        self.charges.setflags(write=False)
        self._keys = keys[order]
        self.dim = len(table)
        bounds = np.searchsorted(self.charges[:, 0], np.arange(radix + 1)).tolist()
        self._slices = {c: slice(bounds[k], bounds[k + 1]) for k, c in enumerate(model.charges)}

    def sector_dim(self, g: Charge) -> int:
        sl = self.sector_slice(g)
        return sl.stop - sl.start

    def sector_slice(self, g: Charge) -> slice:
        if g not in self._slices:
            raise FusionError(f"unknown charge {g!r}")
        return self._slices[g]

    @functools.cached_property
    def sector_mask(self) -> np.ndarray:
        """Read-only dim x dim mask: True where row and column share a global charge."""
        mask = self.charges[:, :1] == self.charges[:, 0]
        mask.setflags(write=False)
        return mask

    def sector_of(self, index: int) -> Charge:
        return self.model.charges[self.charges[index, 0]]

    def index_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the trees given as charge-table rows (the last axis);
        raises FusionError if a row is not a tree of this basis."""
        keys = rows[..., self._key_cols] @ self._weights
        index = np.searchsorted(self._keys, keys)
        if not np.array_equal(self._keys[np.minimum(index, self.dim - 1)], keys):
            raise FusionError(f"charge rows are not trees of {self!r}")
        return index

    def index_of(self, tree: FusionTree) -> int:
        if tree in self._tree_index:
            return self._tree_index[tree]
        if tree.shape != self.shape:
            raise ShapeError("tree shape does not match basis shape")
        for c in tree.leaf_charges + tree.internal_charges:
            self.model.charge_index(c)  # an unknown charge raises here
        raise FusionError(f"tree {tree.label()!r} is not fusion-consistent")

    def tree_at(self, index: int) -> FusionTree:
        return self.trees[index]

    @functools.cached_property
    def trees(self) -> tuple[FusionTree, ...]:
        """Every tree in index order, built on first use."""
        names = np.array(self.model.charges, dtype=object)
        leaf_cols, internal_cols = self.shape.columns
        return tuple(
            FusionTree(self.shape, tuple(leaves), tuple(internals))
            for leaves, internals in zip(names[self.charges[:, leaf_cols]].tolist(),
                                         names[self.charges[:, internal_cols]].tolist())
        )

    @functools.cached_property
    def _tree_index(self) -> dict[FusionTree, int]:
        return {tree: i for i, tree in enumerate(self.trees)}

    @functools.cached_property
    def sectors(self) -> dict[Charge, tuple[FusionTree, ...]]:
        return {g: self.trees[sl] for g, sl in self._slices.items()}

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Every tree's :meth:`FusionTree.label`, in index order, rendered once."""
        return tuple(tree.label() for tree in self.trees)

    @functools.cached_property
    def _label_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index_of_label(self, text: str) -> int:
        """Index of a tree by label; a canonical label is one dict lookup, any
        other spelling (``τ``, extra spaces) goes through :func:`parse_tree_label`."""
        index = self._label_index.get(text)
        if index is None:
            index = self.index_of(parse_tree_label(self.shape, text))
        return index

    def compatible(self, other: "SectorBasis") -> bool:
        return self.model is other.model and self.shape == other.shape

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"SectorBasis({self.model.name}, {self.shape}, dim={self.dim})"


@functools.lru_cache(maxsize=256)
def _cached_basis(model: AnyonModel, shape: TreeShape) -> SectorBasis:
    return SectorBasis(model, shape)


def enumerate_basis(model: AnyonModel, shape: TreeShape | str | int) -> SectorBasis:
    """Fusion-tree basis for a shape (or the left comb on `shape` leaves).

    Enumeration is pure and deterministic; results are cached per
    (model, shape).
    """
    if isinstance(shape, int):
        shape = left_comb(shape)
    elif isinstance(shape, str):
        shape = TreeShape.parse(shape)
    return _cached_basis(model, shape)


def all_shapes(n: int) -> list[TreeShape]:
    """Every full binary shape on n ordered leaves (Catalan many)."""

    @functools.lru_cache(maxsize=None)
    def build(lo: int, hi: int):
        if hi - lo == 1:
            return [lo]
        out = []
        for mid in range(lo + 1, hi):
            for left in build(lo, mid):
                for right in build(mid, hi):
                    out.append((left, right))
        return out

    return [TreeShape(node) for node in build(0, n)]
