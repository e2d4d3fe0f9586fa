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
the global charge (:attr:`TreeShape.label_format` is the one renderer).
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
    def label_format(self) -> tuple[str, np.ndarray]:
        """The basis-label syntax, defined here only: a ``%`` template and the
        charge-table columns that fill it, in order - the leaves, the non-root
        internals (preorder), the root.  ``((0 1)(2 3))`` gives
        ``(%s,%s),(%s,%s);%s,%s;%s``."""

        def render(node):
            return "%s" if isinstance(node, int) else f"({render(node[0])},{render(node[1])})"

        internals = [self.span(v).start for v in self.internal_nodes]
        columns = np.array([self.span(i).start for i in range(self.n_leaves)]
                           + internals[1:] + internals[:1], dtype=np.intp)
        if not internals:
            return "%s", columns
        inner = ",".join(["%s"] * (len(internals) - 1))
        head = render(self.structure)[1:-1]
        return (f"{head};{inner};%s" if inner else f"{head};%s"), columns

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


def parse_tree_label(shape: TreeShape, text: str) -> tuple[Charge, ...]:
    """A label's charge names in :attr:`TreeShape.label_format` order, for a
    known shape: the leaves, the non-root internals, the root.

    The leaf grouping parentheses are decorative (the shape fixes the
    structure); only the charge order matters.
    """
    head, *tail = (seg.strip() for seg in text.split(";"))
    leaf_part = head.replace("(", " ").replace(")", " ").replace(",", " ")
    leaf_charges = tuple(map(normalize_charge_label, leaf_part.split()))
    if len(leaf_charges) != shape.n_leaves:
        raise ShapeError(
            f"label {text!r} has {len(leaf_charges)} leaves, shape has {shape.n_leaves}"
        )
    if shape.n_leaves == 1 and tail:
        raise ShapeError(f"single-anyon label {text!r} must have no ';'")
    if shape.n_leaves > 1 and len(tail) not in (1, 2):
        raise ShapeError(f"cannot parse basis label {text!r}")
    # the other internals (the middle segment, if any), then the global charge
    inner = [t for t in tail[0].split(",") if t.strip()] if len(tail) == 2 else []
    internals = tuple(map(normalize_charge_label, inner + tail[-1:]))
    if len(internals) != shape.n_internal:
        raise ShapeError("wrong number of internal charges")
    return leaf_charges + internals


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
    ``searchsorted``.  Labels are built on demand, for I/O.

    :attr:`block_slices` lays out an operator's sector blocks: each block
    raveled, one after another in charge order, :attr:`unit_count` (the sum
    of the squared sector dimensions) entries in all.
    """

    def __init__(self, model: AnyonModel, shape: TreeShape):
        self.model = model
        self.shape = shape
        # (global charge, leaves, other internals): the label columns, root first
        self._key_cols = np.roll(shape.label_format[1], 1)
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
        starts = np.cumsum([0] + [(hi - lo) ** 2 for lo, hi in zip(bounds, bounds[1:])]).tolist()
        self.block_slices = {c: slice(lo, hi) for c, lo, hi in zip(model.charges, starts, starts[1:])}
        self.unit_count = starts[-1]
        # (charge, block slice, block shape) per sector, for views of an operator's blocks
        self.block_layout = tuple((c, self.block_slices[c], (hi - lo,) * 2)
                                  for c, lo, hi in zip(model.charges, bounds, bounds[1:]))

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

    def tree_at(self, index: int) -> str:
        return self.labels[index]

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Every tree's label, in index order: one ``%`` per tree."""
        return self._render(self.shape.label_format[0])

    def _render(self, template: str) -> tuple[str, ...]:
        names = np.array(self.model.charges, dtype=object)
        rows = names[self.charges[:, self.shape.label_format[1]]].tolist()
        return tuple(template % tuple(row) for row in rows)

    @functools.cached_property
    def _label_index(self) -> dict[str, int]:
        """Every tree's canonical label and its spelling without the leaf
        segment's parentheses (``tau,e,e,tau;tau,tau;e``), which state files
        often use."""
        template = self.shape.label_format[0]
        head, sep, tail = template.partition(";")
        flat = head.replace("(", "").replace(")", "") + sep + tail
        index = {label: i for i, label in enumerate(self.labels)}
        if flat != template:
            index.update((label, i) for i, label in enumerate(self._render(flat)))
        return index

    def index_of_label(self, text: str) -> int:
        """Index of a tree by label; a canonical label, or one without the leaf
        parentheses, is one dict lookup, any other spelling (``τ``, extra
        spaces) is parsed and re-rendered."""
        index = self._label_index.get(text)
        if index is None:
            names = parse_tree_label(self.shape, text)
            label = self.shape.label_format[0] % names
            index = self._label_index.get(label)
            if index is None:
                n = self.shape.n_leaves  # checked as leaves, root, other internals
                for c in names[:n] + names[-1:] + names[n:-1]:
                    self.model.charge_index(c)  # an unknown charge raises here
                raise FusionError(f"tree {label!r} is not fusion-consistent")
        return index

    def compatible(self, other: "SectorBasis") -> bool:
        return self.model is other.model and self.shape == other.shape

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
