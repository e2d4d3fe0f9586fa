"""Seeded benchmark inputs, built without the code under test.

Inputs are Fibonacci state files in fibanyon's text format (a ``shape:``
header, then ``label : re im`` lines).  The labelings are enumerated here
in plain Python and the amplitudes come from numpy's PCG64 generator, so
the same seed gives byte-identical inputs on every commit of fibanyon.
Each job draws from its own stream, keyed by (seed, stream, job index).
"""

from __future__ import annotations

import math

import numpy as np

CHARGES = ("e", "tau")


def fuse(a: str, b: str) -> tuple[str, ...]:
    """Fibonacci fusion rules: e is the unit, tau x tau = e + tau."""
    if a == "e":
        return (b,)
    if b == "e":
        return (a,)
    return ("e", "tau")


def left_comb(n: int):
    node = 0
    for i in range(1, n):
        node = (node, i)
    return node


def _shift(node, offset: int):
    if isinstance(node, int):
        return node + offset
    return (_shift(node[0], offset), _shift(node[1], offset))


def grouped(n_a: int, n_b: int):
    """The bipartite shape (A-comb)(B-comb) that fibanyon's grouped_shape builds."""
    return (left_comb(n_a), _shift(left_comb(n_b), n_a))


def serialize(node) -> str:
    if isinstance(node, int):
        return str(node)
    return f"({serialize(node[0])} {serialize(node[1])})"


def labelings(node) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(root, leaf charges, preorder internal charges) of every fusion tree."""
    if isinstance(node, int):
        return [(c, (c,), ()) for c in CHARGES]
    out = []
    for root_l, leaves_l, ints_l in labelings(node[0]):
        for root_r, leaves_r, ints_r in labelings(node[1]):
            for root in fuse(root_l, root_r):
                out.append((root, leaves_l + leaves_r, (root,) + ints_l + ints_r))
    return out


def label(leaves: tuple[str, ...], internals: tuple[str, ...]) -> str:
    """fibanyon's basis-label syntax: leaves; non-root internals; global charge."""
    inner = ",".join(internals[1:])
    middle = f";{inner}" if inner else ""
    return f"{','.join(leaves)}{middle};{internals[0]}"


def job_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)))


def state_text(node, amplitudes: dict[str, complex]) -> str:
    lines = [f"shape: {serialize(node)}"]
    for lbl, amp in amplitudes.items():
        lines.append(f"{lbl} : {float(amp.real)!r} {float(amp.imag)!r}")
    return "\n".join(lines) + "\n"


def random_state_text(node, sector: str, rng: np.random.Generator) -> str:
    """Gaussian random pure state on every tree of one global-charge sector."""
    labels = [label(leaves, ints) for root, leaves, ints in labelings(node) if root == sector]
    vec = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
    vec /= np.linalg.norm(vec)
    return state_text(node, dict(zip(labels, vec)))


# Two-anyon families with a known closed-form class.  Every coefficient
# that is meant to be nonzero has modulus at least sqrt(0.1 / 3), far from
# the classification boundary.
PAIR_FAMILIES = {
    "entangled-e": ("e,e;e", "tau,tau;e"),
    "entangled-tau": ("tau,e;tau", "e,tau;tau", "tau,tau;tau"),
    "class-1-tau": ("tau,e;tau", "tau,tau;tau"),
    "class-2-tau": ("e,tau;tau", "tau,tau;tau"),
    "product-e": ("e,e;e",),
}


def pair_state_text(family: str, rng: np.random.Generator) -> str:
    labels = PAIR_FAMILIES[family]
    weights = rng.uniform(0.1, 1.0, size=len(labels))
    weights /= weights.sum()
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(labels))
    amps = {lbl: math.sqrt(w) * complex(math.cos(t), math.sin(t))
            for lbl, w, t in zip(labels, weights, phases)}
    return state_text(grouped(1, 1), amps)


def random_message(rng: np.random.Generator) -> list[float]:
    """Normalized qubit (alpha, beta) as [re a, im a, re b, im b]."""
    vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec /= np.linalg.norm(vec)
    return [float(vec[0].real), float(vec[0].imag), float(vec[1].real), float(vec[1].imag)]
