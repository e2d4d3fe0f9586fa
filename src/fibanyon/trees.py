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


def _n_internal(node) -> int:
    return 0 if isinstance(node, int) else 1 + _n_internal(node[0]) + _n_internal(node[1])


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
    def internal_nodes(self) -> tuple:
        """Internal nodes in depth-first preorder (root first)."""
        out = []

        def walk(node):
            if isinstance(node, int):
                return
            out.append(node)
            walk(node[0])
            walk(node[1])

        walk(self.structure)
        return tuple(out)

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
    Construction does not validate fusion consistency; use
    :meth:`is_consistent` or go through :func:`enumerate_basis`.
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

    def charge_at(self, node) -> Charge:
        """Charge carried by a node of the shape (leaf or internal)."""
        if isinstance(node, int):
            return self.leaf_charges[node]
        return self.internal_charges[self.shape.internal_nodes.index(node)]

    def is_consistent(self, model: AnyonModel) -> bool:
        for node in self.shape.internal_nodes:
            if not model.can_fuse(
                self.charge_at(node[0]), self.charge_at(node[1]), self.charge_at(node)
            ):
                return False
        return True

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


def _enumerate_labelings(model: AnyonModel, node):
    """All (root charge, leaf charges, preorder internal charges) of a subtree."""
    if isinstance(node, int):
        return [(c, (c,), ()) for c in model.charges]
    left = _enumerate_labelings(model, node[0])
    right = _enumerate_labelings(model, node[1])
    out = []
    for cl, ll, il in left:
        for cr, lr, ir in right:
            for root in model.fusion_outcomes(cl, cr):
                out.append((root, ll + lr, (root,) + il + ir))
    return out


class SectorBasis:
    """Ordered fusion-tree basis of a fixed shape, grouped by global charge.

    Sector order follows the model's charge order (vacuum first for
    Fibonacci); within a sector trees sort lexicographically by
    (leaf charges, internal charges).  Flat indices run over sectors in
    that order, so every sector occupies a contiguous slice.
    """

    def __init__(self, model: AnyonModel, shape: TreeShape):
        self.model = model
        self.shape = shape
        order = {c: i for i, c in enumerate(model.charges)}

        def sort_key(entry):
            _, leaf_charges, internals = entry
            return tuple(order[c] for c in leaf_charges) + tuple(order[c] for c in internals)

        by_sector: dict[Charge, list[FusionTree]] = {c: [] for c in model.charges}
        for root, leaf_charges, internals in _enumerate_labelings(model, shape.structure):
            by_sector[root].append((root, leaf_charges, internals))
        self.sectors: dict[Charge, tuple[FusionTree, ...]] = {}
        trees: list[FusionTree] = []
        for charge in model.charges:
            entries = sorted(by_sector[charge], key=sort_key)
            sector_trees = tuple(
                FusionTree(shape, leaf_charges, internals)
                for _, leaf_charges, internals in entries
            )
            self.sectors[charge] = sector_trees
            trees.extend(sector_trees)
        self.trees: tuple[FusionTree, ...] = tuple(trees)
        self.dim = len(trees)
        self._index = {t: i for i, t in enumerate(trees)}
        self._slices: dict[Charge, slice] = {}
        start = 0
        for charge in model.charges:
            stop = start + len(self.sectors[charge])
            self._slices[charge] = slice(start, stop)
            start = stop

    def sector_dim(self, g: Charge) -> int:
        if g not in self.sectors:
            raise FusionError(f"unknown charge {g!r}")
        return len(self.sectors[g])

    def sector_slice(self, g: Charge) -> slice:
        if g not in self._slices:
            raise FusionError(f"unknown charge {g!r}")
        return self._slices[g]

    @functools.cached_property
    def sector_mask(self) -> np.ndarray:
        """Read-only dim x dim mask: True where row and column share a global charge."""
        mask = np.zeros((self.dim, self.dim), dtype=bool)
        for sl in self._slices.values():
            mask[sl, sl] = True
        mask.setflags(write=False)
        return mask

    def sector_of(self, index: int) -> Charge:
        return self.trees[index].global_charge

    def index_of(self, tree: FusionTree) -> int:
        try:
            return self._index[tree]
        except KeyError:
            pass
        if tree.shape != self.shape:
            raise ShapeError("tree shape does not match basis shape")
        if not tree.is_consistent(self.model):
            raise FusionError(f"tree {tree.label()!r} is not fusion-consistent")
        raise FusionError(f"tree {tree.label()!r} not in basis")  # unknown charge labels

    def tree_at(self, index: int) -> FusionTree:
        return self.trees[index]

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
