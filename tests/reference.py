"""Per-tree reference bases, built from the fusion rules alone.

A tree is a pair ``(leaves, internals)`` of tuples of charge names, the
internal charges in the shape's depth-first preorder (root first).  The
reference enumerates a shape's trees by recursion over Python tuples,
rendering each leaf grouping in the same recursion, and sorts them by
(global charge, leaves, internals) in the model's charge order.  It never reads a
:class:`~fibanyon.trees.SectorBasis`, so the tests can compare the
charge-table code against it.  One reference is built per (model, shape)
and shared by every test that compares against it.

The sampled-measurement references draw one sample at a time: the square
sector-Haar unitary, the top rows of Haar unitaries that the sweeps draw,
and the completion of such rows to a full unitary.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np


class Reference(NamedTuple):
    trees: tuple  # (leaves, internals) pairs in basis order
    labels: tuple  # each tree's label, rendered recursively
    index: dict  # {tree: basis index}


def global_charge(tree) -> str:
    leaves, internals = tree
    return internals[0] if internals else leaves[0]


def _labelings(charges, outcomes, node) -> list:
    """All (root charge, leaves, preorder internals, leaf grouping) of a
    subtree; the grouping is rendered recursively, e.g. ``((tau,e),tau)``."""
    if isinstance(node, int):
        return [(c, (c,), (), c) for c in charges]
    left = _labelings(charges, outcomes, node[0])
    right = _labelings(charges, outcomes, node[1])
    out = []
    for cl, ll, il, tl in left:
        for cr, lr, ir, tr in right:
            for root in outcomes[cl, cr]:
                out.append((root, ll + lr, (root,) + il + ir, f"({tl},{tr})"))
    return out


def _label(grouping: str, internals: tuple) -> str:
    """The leaf grouping without its outer parentheses, then the non-root
    internal charges, then the global charge."""
    if not internals:
        return grouping
    if len(internals) > 1:
        return f"{grouping[1:-1]};{','.join(internals[1:])};{internals[0]}"
    return f"{grouping[1:-1]};{internals[0]}"


@functools.lru_cache(maxsize=256)
def reference(model, shape) -> Reference:
    order = {c: i for i, c in enumerate(model.charges)}
    outcomes = {(a, b): model.fusion_outcomes(a, b) for a in model.charges for b in model.charges}

    def sort_key(entry):
        root, leaves, internals, _ = entry
        return order[root], tuple(map(order.get, leaves)), tuple(map(order.get, internals))

    entries = sorted(_labelings(model.charges, outcomes, shape.structure), key=sort_key)
    trees = tuple((leaves, internals) for _, leaves, internals, _ in entries)
    return Reference(trees, tuple(_label(grouping, internals) for _, _, internals, grouping in entries),
                     {tree: i for i, tree in enumerate(trees)})


def _phase_fixed_q(ginibre):
    """Q of the QR of `ginibre`, each column times the conjugate phase of R's diagonal entry."""
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def sector_haar_unitary(basis, rng):
    """Block diagonal Haar unitary on `basis`: per nonempty sector in charge
    order, a real then an imaginary d x d Ginibre draw and its phase-fixed Q."""
    unitary = np.zeros((basis.dim, basis.dim), dtype=complex)
    for g in basis.model.charges:
        sl = basis.sector_slice(g)
        d = sl.stop - sl.start
        if d:
            unitary[sl, sl] = _phase_fixed_q(rng.standard_normal((d, d))
                                             + 1j * rng.standard_normal((d, d)))
    return unitary


def haar_rows(shapes, rng):
    """Per (d, r) in order, a real then an imaginary d x r Ginibre draw and the
    transpose of its phase-fixed Q: the top r rows of a Haar unitary."""
    return [_phase_fixed_q(rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))).T
            for d, r in shapes]


def complete_unitary(basis_columns, rows):
    """A d x d unitary U with B^dagger U = `rows` for B = `basis_columns` (d x r,
    orthonormal columns): B rows + B_perp Z, where B_perp and Z^dagger are
    orthonormal complements of B's columns and of the rows' conjugates."""
    d, r = basis_columns.shape
    if r == 0:
        return np.eye(d, dtype=complex)
    b_perp = np.linalg.qr(basis_columns, mode="complete")[0][:, r:]
    z = np.linalg.qr(rows.conj().T, mode="complete")[0][:, r:].conj().T
    return basis_columns @ rows + b_perp @ z
