import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibanyon.errors import ShapeError
from fibanyon.recouple import (
    BasisChange,
    _moves_to_comb,
    _rotated_structure,
    _to_comb,
    braid_adjacent,
    change_shape,
    elementary_fmove,
    shape_change,
)
from fibanyon.states import ket, random_pure_state
from fibanyon.trees import (
    FusionTree,
    all_shapes,
    enumerate_basis,
    grouped_shape,
    left_comb,
    right_comb,
)

PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0


def test_fmove_block_is_f_matrix_on_all_tau(model):
    # left comb ((0 1) 2) -> right comb (0 (1 2)) at the root vertex; with
    # all-tau leaves in the tau sector the 2x2 block must be the F-matrix.
    move = elementary_fmove(model, left_comb(3), vertex=0, direction="right")
    src = move.source
    tgt = move.target
    labels_src = ["(tau,tau),tau;e;tau", "(tau,tau),tau;tau;tau"]
    labels_tgt = ["tau,(tau,tau);e;tau", "tau,(tau,tau);tau;tau"]
    block = np.empty((2, 2), dtype=complex)
    for j, ls in enumerate(labels_src):
        for i, lt in enumerate(labels_tgt):
            block[i, j] = move.matrix[tgt.index_of_label(lt), src.index_of_label(ls)]
    # rows/cols ordered (e, tau); matrix is real symmetric so transpose-free
    expected = np.array([[PHI_INV, math.sqrt(PHI_INV)], [math.sqrt(PHI_INV), -PHI_INV]])
    np.testing.assert_allclose(block, expected, atol=1e-15)


def test_fmove_vacuum_leaf_is_identity_block(model):
    move = elementary_fmove(model, left_comb(3), vertex=0, direction="right")
    src, tgt = move.source, move.target
    # leaves (e, tau, tau): single consistent labeling per global charge
    for g, src_lbl, tgt_lbl in [
        ("e", "(e,tau),tau;tau;e", "e,(tau,tau);e;e"),
        ("tau", "(e,tau),tau;tau;tau", "e,(tau,tau);tau;tau"),
    ]:
        amp = move.matrix[tgt.index_of_label(tgt_lbl), src.index_of_label(src_lbl)]
        assert amp == pytest.approx(1.0)


def test_fmove_inverse_roundtrip(model):
    move = elementary_fmove(model, left_comb(3), vertex=0, direction="right")
    back = elementary_fmove(model, move.target.shape, vertex=0, direction="left")
    np.testing.assert_allclose(back.matrix @ move.matrix, np.eye(13), atol=1e-12)


def _n_internal(node) -> int:
    return 0 if isinstance(node, int) else 1 + _n_internal(node[0]) + _n_internal(node[1])


def _charge_at(tree, node):
    if isinstance(node, int):
        return tree.leaf_charges[node]
    return tree.internal_charges[tree.shape.internal_nodes.index(node)]


def _right_loop_fmove(model, shape, vertex):
    """Reference right move ((A B) C) -> (A (B C)): per source tree, splice in every
    f in b x c with coefficient [F^{abc}_g]_{df}."""
    source = enumerate_basis(model, shape)
    target_shape = _rotated_structure(shape, vertex, "right")
    target = enumerate_basis(model, target_shape)
    (a_node, b_node), c_node = shape.internal_nodes[vertex]
    cut = vertex + 2 + _n_internal(a_node)  # just past the charges inside A
    rows, cols, coeffs = [], [], []
    for src_idx, tree in enumerate(source.trees):
        ints = tree.internal_charges
        g, d = ints[vertex], ints[vertex + 1]
        a, b, c = (_charge_at(tree, node) for node in (a_node, b_node, c_node))
        head, tail = ints[: vertex + 1] + ints[vertex + 2 : cut], ints[cut:]
        for f in model.fusion_outcomes(b, c):
            coeff = model.f_symbol(a, b, c, g, d, f)
            if coeff != 0.0:
                rows.append(target.index_of(FusionTree(target_shape, tree.leaf_charges,
                                                       head + (f,) + tail)))
                cols.append(src_idx)
                coeffs.append(coeff)
    return (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp),
            np.asarray(coeffs, dtype=complex))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_right_fmove_equals_right_loop_reference(model, n):
    moves = 0
    for shape in all_shapes(n):
        for vertex, node in enumerate(shape.internal_nodes):
            if isinstance(node[0], int):
                continue
            move = elementary_fmove(model, shape, vertex, "right")
            rows, cols, coeffs = _right_loop_fmove(model, shape, vertex)
            assert move.rows.dtype == rows.dtype and np.array_equal(move.rows, rows)
            assert move.cols.dtype == cols.dtype and np.array_equal(move.cols, cols)
            assert move.coeffs.tobytes() == coeffs.tobytes()
            moves += 1
    assert moves > 0


def _left_loop_fmove(model, shape, vertex):
    """Reference left move (A (B C)) -> ((A B) C): per source tree, splice in every
    d in a x b with coefficient conj([F^{abc}_g]_{df})."""
    source = enumerate_basis(model, shape)
    target_shape = _rotated_structure(shape, vertex, "left")
    target = enumerate_basis(model, target_shape)
    a_node, (b_node, c_node) = shape.internal_nodes[vertex]
    n_a = _n_internal(a_node)
    rows, cols, coeffs = [], [], []
    for src_idx, tree in enumerate(source.trees):
        ints = tree.internal_charges
        g, f = ints[vertex], ints[vertex + 1 + n_a]
        a, b, c = (_charge_at(tree, node) for node in (a_node, b_node, c_node))
        for d in model.fusion_outcomes(a, b):
            coeff = np.conj(model.f_symbol(a, b, c, g, d, f))
            if coeff != 0.0:
                new_ints = (ints[: vertex + 1] + (d,) + ints[vertex + 1 : vertex + 1 + n_a]
                            + ints[vertex + 2 + n_a :])
                rows.append(target.index_of(FusionTree(target_shape, tree.leaf_charges, new_ints)))
                cols.append(src_idx)
                coeffs.append(coeff)
    return (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp),
            np.asarray(coeffs, dtype=complex))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_left_fmove_equals_left_loop_reference(model, n):
    # the left move is the inverted right move; entries must match the
    # direct left loop bit for bit, in the same order
    moves = 0
    for shape in all_shapes(n):
        for vertex, node in enumerate(shape.internal_nodes):
            if isinstance(node[1], int):
                continue
            move = elementary_fmove(model, shape, vertex, "left")
            rows, cols, coeffs = _left_loop_fmove(model, shape, vertex)
            assert np.array_equal(move.rows, rows)
            assert np.array_equal(move.cols, cols)
            assert np.array_equal(move.coeffs, coeffs)
            assert move.source.shape == shape
            moves += 1
    assert moves > 0


def test_fmove_requires_internal_child(model):
    with pytest.raises(ShapeError):
        elementary_fmove(model, left_comb(3), vertex=1, direction="right")  # leaf children
    with pytest.raises(ShapeError):
        elementary_fmove(model, left_comb(3), vertex=0, direction="left")  # right child is a leaf


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shape_change_unitary_and_sector_diagonal(model, n):
    shapes = all_shapes(n)
    basis = enumerate_basis(model, shapes[0])
    mask = np.ones((basis.dim, basis.dim), dtype=bool)
    for g in model.charges:
        sl = basis.sector_slice(g)
        mask[sl, sl] = False
    for tgt in shapes:
        u = shape_change(model, shapes[0], tgt).matrix
        np.testing.assert_allclose(u.conj().T @ u, np.eye(basis.dim), atol=1e-12)
        assert np.max(np.abs(u[mask]), initial=0.0) <= 1e-12


def test_shape_change_path_independent(model):
    shapes = all_shapes(5)
    for src in shapes[::3]:
        for tgt in shapes[::4]:
            left = shape_change(model, src, tgt, via="left").matrix
            right = shape_change(model, src, tgt, via="right").matrix
            np.testing.assert_allclose(left, right, atol=1e-12)


def test_change_shape_roundtrip_identity(model):
    for src in all_shapes(4):
        for tgt in all_shapes(4):
            fwd = shape_change(model, src, tgt).matrix
            back = shape_change(model, tgt, src).matrix
            np.testing.assert_allclose(back @ fwd, np.eye(34), atol=1e-12)


def _dense_route(model, shape, via):
    """Reference path: dense product of the moves that take `shape` to the comb."""
    u = np.eye(enumerate_basis(model, shape).dim, dtype=complex)
    for vertex, direction in _moves_to_comb(shape, via):
        step = elementary_fmove(model, shape, vertex, direction)
        u = step.matrix @ u
        shape = step.target.shape
    return u


@pytest.mark.parametrize("via", ["left", "right"])
def test_sparse_shape_change_matches_dense_products(model, via):
    for n in range(2, 6):
        shapes = all_shapes(n)
        routes = {shape: _dense_route(model, shape, via) for shape in shapes}
        for src in shapes:
            for tgt in shapes:
                expected = routes[tgt].conj().T @ routes[src]
                got = shape_change(model, src, tgt, via=via).matrix
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_apply_equals_dense_matvec(model, rng, n):
    shapes = all_shapes(n)
    pairs = [(left_comb(n), s) for s in shapes] + [(s, right_comb(n)) for s in shapes]
    for src, tgt in pairs:
        change = shape_change(model, src, tgt)
        vec = rng.standard_normal(change.source.dim) + 1j * rng.standard_normal(change.source.dim)
        np.testing.assert_allclose(change.apply(vec), change.matrix @ vec, rtol=0, atol=1e-12)


def test_regroup_n9_stays_sparse(model, monkeypatch):
    def no_dense(self):
        raise AssertionError("a dense basis-change matrix was built")

    monkeypatch.setattr(BasisChange, "matrix", property(no_dense))
    shape_change.cache_clear()
    _to_comb.cache_clear()
    state = random_pure_state(enumerate_basis(model, left_comb(9)), "tau", np.random.default_rng(9))
    tracemalloc.start()
    try:
        moved = change_shape(model, state, grouped_shape(2, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(moved.norm() - 1.0) <= 1e-12
    assert peak < 100 * 2**20


def test_change_shape_leaf_count_mismatch(model):
    state = ket(enumerate_basis(model, left_comb(2)), "tau,e;tau")
    with pytest.raises(ShapeError):
        change_shape(model, state, left_comb(3))


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), sector=st.sampled_from(["e", "tau"]))
def test_change_shape_preserves_norm_n5(model, seed, sector):
    rng = np.random.default_rng(seed)
    basis = enumerate_basis(model, left_comb(5))
    state = random_pure_state(basis, sector, rng)
    moved = change_shape(model, state, right_comb(5))
    assert moved.norm() == pytest.approx(1.0, abs=1e-12)
    back = change_shape(model, moved, left_comb(5))
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_braid_tau_pair_vacuum_channel_phase(model, basis2):
    state = ket(basis2, "tau,tau;e")
    out = braid_adjacent(model, state, (0, 1), "ccw")
    expected = np.exp(-4j * math.pi / 5)
    assert out.amplitude("tau,tau;e") == pytest.approx(expected)


def test_braid_swaps_vacuum_with_trivial_phase(model, basis2):
    out = braid_adjacent(model, ket(basis2, "e,tau;tau"), (0, 1), "ccw")
    assert out.amplitude("tau,e;tau") == pytest.approx(1.0)
    assert out.amplitude("e,tau;tau") == 0.0


def test_braid_ccw_then_cw_restores(model, basis2, rng):
    state = random_pure_state(basis2, "tau", rng)
    out = braid_adjacent(model, braid_adjacent(model, state, (0, 1), "ccw"), (0, 1), "cw")
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_braid_requires_shared_vertex(model):
    basis = enumerate_basis(model, left_comb(3))
    state = ket(basis, basis.tree_at(0))
    with pytest.raises(ShapeError):
        braid_adjacent(model, state, (1, 2), "ccw")  # leaves 1,2 do not share a vertex


def _braid_loop(model, state, leaf_pair, direction):
    """Reference braid: one FusionTree per nonzero amplitude."""
    i, j = leaf_pair
    basis = state.basis
    shape = basis.shape
    vertex = shape.internal_nodes.index((i, j))
    out = np.zeros_like(state.amplitudes)
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0.0:
            continue
        tree = basis.tree_at(idx)
        x, y = tree.leaf_charges[i], tree.leaf_charges[j]
        c = tree.internal_charges[vertex]
        phase = model.r_symbol(x, y, c) if direction == "ccw" else np.conj(model.r_symbol(y, x, c))
        leaves = list(tree.leaf_charges)
        leaves[i], leaves[j] = y, x
        out[basis.index_of(FusionTree(shape, tuple(leaves), tree.internal_charges))] += phase * amp
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_braid_equals_per_tree_reference(model, n):
    # bit for bit: the vectorized phase product is rounded like the scalar one
    rng = np.random.default_rng(n)
    braids = 0
    for shape in all_shapes(n):
        basis = enumerate_basis(model, shape)
        for node in shape.internal_nodes:
            if not all(isinstance(child, int) for child in node):
                continue
            for sector in model.charges:
                state = random_pure_state(basis, sector, rng)
                for direction in ("ccw", "cw"):
                    out = braid_adjacent(model, state, node, direction)
                    assert out.amplitudes.tobytes() == _braid_loop(
                        model, state, node, direction).tobytes()
                    braids += 1
    assert braids > 0
