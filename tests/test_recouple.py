import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibanyon import errors, recouple
from fibanyon.errors import MemoryBudgetError, ShapeError
from fibanyon.model import load_model_text
from fibanyon.recouple import (
    BasisChange,
    _moves_to_comb,
    _rotated_structure,
    _route,
    braid_adjacent,
    change_shape,
    elementary_fmove,
    shape_change,
)
from fibanyon.states import AnyonState, BlockOperator, ket, random_pure_state
from fibanyon.trees import (SectorBasis, all_shapes, enumerate_basis, grouped_shape, left_comb,
                            right_comb)
from fibanyon.verify import composed_changes
from reference import reference

PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0
DATA = Path(__file__).parent / "data"


def _load(name):
    """A fresh instance of a model file in tests/data: no basis of it is cached."""
    return load_model_text((DATA / f"{name}.model").read_text(encoding="utf-8"), name=name)


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


def _charge_at(shape, tree, node):
    leaves, internals = tree
    if isinstance(node, int):
        return leaves[node]
    return internals[shape.internal_nodes.index(node)]


def _right_loop_fmove(model, shape, vertex):
    """Reference right move ((A B) C) -> (A (B C)): per source tree, splice in every
    f in b x c with coefficient [F^{abc}_g]_{df}."""
    target = reference(model, _rotated_structure(shape, vertex, "right")).index
    (a_node, b_node), c_node = shape.internal_nodes[vertex]
    cut = vertex + 2 + _n_internal(a_node)  # just past the charges inside A
    rows, cols, coeffs = [], [], []
    for src_idx, tree in enumerate(reference(model, shape).trees):
        leaves, ints = tree
        g, d = ints[vertex], ints[vertex + 1]
        a, b, c = (_charge_at(shape, tree, node) for node in (a_node, b_node, c_node))
        head, tail = ints[: vertex + 1] + ints[vertex + 2 : cut], ints[cut:]
        for f in model.fusion_outcomes(b, c):
            coeff = model.f_symbol(a, b, c, g, d, f)
            if coeff != 0.0:
                rows.append(target[leaves, head + (f,) + tail])
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
    target = reference(model, _rotated_structure(shape, vertex, "left")).index
    a_node, (b_node, c_node) = shape.internal_nodes[vertex]
    n_a = _n_internal(a_node)
    rows, cols, coeffs = [], [], []
    for src_idx, tree in enumerate(reference(model, shape).trees):
        leaves, ints = tree
        g, f = ints[vertex], ints[vertex + 1 + n_a]
        a, b, c = (_charge_at(shape, tree, node) for node in (a_node, b_node, c_node))
        for d in model.fusion_outcomes(a, b):
            coeff = np.conj(model.f_symbol(a, b, c, g, d, f))
            if coeff != 0.0:
                new_ints = (ints[: vertex + 1] + (d,) + ints[vertex + 1 : vertex + 1 + n_a]
                            + ints[vertex + 2 + n_a :])
                rows.append(target[leaves, new_ints])
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
    # the route through the left comb against the composed fold through the right one
    shapes = all_shapes(5)
    right_table = composed_changes(model, shapes, "right")
    for i, src in enumerate(shapes[::3]):
        for j, tgt in enumerate(shapes[::4]):
            left = shape_change(model, src, tgt).matrix
            right = right_table[3 * i][4 * j].matrix
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
    # via the left comb: shape_change's route; via the right one: verify's composed fold
    for n in range(2, 6):
        shapes = all_shapes(n)
        routes = {shape: _dense_route(model, shape, via) for shape in shapes}
        right_table = composed_changes(model, shapes, "right")
        for i, src in enumerate(shapes):
            for j, tgt in enumerate(shapes):
                expected = routes[tgt].conj().T @ routes[src]
                got = (shape_change(model, src, tgt) if via == "left" else right_table[i][j]).matrix
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
    """Reference braid: one reference tree per nonzero amplitude."""
    i, j = leaf_pair
    shape = state.basis.shape
    ref = reference(model, shape)
    vertex = shape.internal_nodes.index((i, j))
    out = np.zeros_like(state.amplitudes)
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0.0:
            continue
        leaves, ints = ref.trees[idx]
        x, y = leaves[i], leaves[j]
        c = ints[vertex]
        phase = model.r_symbols[x, y, c] if direction == "ccw" else np.conj(model.r_symbols[y, x, c])
        swapped = list(leaves)
        swapped[i], swapped[j] = y, x
        out[ref.index[tuple(swapped), ints]] += phase * amp
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


def test_dense_matrices_check_memory_first(model, monkeypatch):
    # n=6: a 233 x 233 complex matrix is 0.81 MiB, over half of the 1 MiB "available"
    move = shape_change(model, left_comb(6), grouped_shape(2, 4))
    op = BlockOperator.identity(move.source)
    need = f"~{16 * 233**2 / 2**30:.3g} GiB, {2**20 / 2**30:.3g} GiB available"
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    with pytest.raises(MemoryBudgetError, match=f"^the dense 233 x 233 basis change needs {need}"):
        move.matrix
    with pytest.raises(MemoryBudgetError, match=f"^the dense 233 x 233 operator needs {need}"):
        op.to_full()
    monkeypatch.setattr(errors, "_available_bytes", lambda: None)  # no meminfo: no guard
    assert move.matrix.shape == op.to_full().shape == (233, 233)


# --- change_shape applies the route to the state's trees, and shape_change runs
# it tree by tree; verify's recoupling suite composes the moves instead


def _unit_batches(basis):
    """Vectors that hold every unit vector of `basis` between them, one sector each.

    A move keeps the leaf charges and the global charge, so trees that differ
    in them never meet: the r-th tree of every (global charge, leaf charges)
    class of a sector rides in one vector, and each class's part of the image
    is that tree's own image, summed in the same order.
    """
    columns = [0] + [basis.shape.span(i).start for i in range(basis.shape.n_leaves)]
    _, cls = np.unique(basis.charges[:, columns], axis=0, return_inverse=True)
    cls = cls.reshape(-1)
    order = np.argsort(cls, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(basis.dim) - np.searchsorted(cls[order], cls[order])
    roots = basis.charges[:, 0]
    for root, r in sorted(set(zip(roots.tolist(), rank.tolist()))):
        yield ((roots == root) & (rank == r)).astype(complex)


def _routed_and_composed(model, change):
    """(change_shape's image, the image under `change`, one of verify's
    composed maps) of each unit batch of its source basis."""
    for vec in _unit_batches(change.source):
        yield (change_shape(model, AnyonState(change.source, vec), change.target.shape).amplitudes,
               change.apply(vec))


@pytest.mark.parametrize("name", ["fibonacci", "z2", "z3", "ising"])
def test_routed_regroup_matches_composed_map_on_unit_vectors(model, name):
    # Z2 and Z3 have one F-symbol per move, all 1: there the route is exact
    model = model if name == "fibonacci" else _load(name)
    pairs = 0
    for n in range(2, 6):
        for row in composed_changes(model, all_shapes(n), "left"):
            for change in row:
                for got, want in _routed_and_composed(model, change):
                    if name in ("z2", "z3"):
                        assert got.tobytes() == want.tobytes()
                    else:
                        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
                pairs += 1
    assert pairs == 226


def test_routed_regroup_matches_composed_map_from_and_to_the_six_leaf_comb(model):
    for shape in all_shapes(6):
        table = composed_changes(model, [left_comb(6), shape], "left")
        for change in (table[0][1], table[1][0]):
            for got, want in _routed_and_composed(model, change):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ["fibonacci", "z2", "z3", "ising"])
def test_shape_change_lists_each_entry_once_by_target_then_source(model, name):
    model = model if name == "fibonacci" else _load(name)
    for n in range(2, 6):
        for src in all_shapes(n):
            for tgt in all_shapes(n):
                change = shape_change(model, src, tgt)
                keys = change.rows * change.source.dim + change.cols
                assert (np.diff(keys) > 0).all()


@pytest.mark.parametrize("n", [31, 32])
def test_shape_change_at_numpy_key_column_limit(n):
    # a 32-leaf tree has 63 label columns; the source tree's index is keyed
    # apart from them, not raveled as one more column
    model = load_model_text("charges e\nvacuum e\nfusion e e -> e\n", name="one")
    change = shape_change(model, left_comb(n), grouped_shape(n // 2, n - n // 2))
    assert (change.rows.tolist(), change.cols.tolist(), change.coeffs.tolist()) == ([0], [0], [1])


def test_routed_regroup_builds_no_intermediate_basis(monkeypatch):
    model = _load("ising")
    source, target = right_comb(7), grouped_shape(3, 4)
    state = random_pure_state(enumerate_basis(model, source), "sigma", np.random.default_rng(7))
    built = []
    init = SectorBasis.__init__

    def counting(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(SectorBasis, "__init__", counting)
    moved = change_shape(model, state, target)
    assert built == [target]
    assert len(_route(source, target)) == 8
    monkeypatch.undo()
    composed = composed_changes(model, [source, target], "left")[0][1]
    np.testing.assert_allclose(moved.amplitudes, composed.apply(state.amplitudes),
                               rtol=0, atol=1e-13)


def test_regroup_n13_composes_nothing_and_peaks_under_100_mib(model, monkeypatch):
    def no_composition(self, *args):
        raise AssertionError("a basis change was built")

    monkeypatch.setattr(BasisChange, "__init__", no_composition)
    target = grouped_shape(2, 11)
    enumerate_basis(model, target)
    state = random_pure_state(enumerate_basis(model, left_comb(13)), "tau",
                              np.random.default_rng(13))
    tracemalloc.start()
    try:
        moved = change_shape(model, state, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(moved.norm() - 1.0) <= 1e-12
    assert peak < 100 * 2**20


def _traced_regroup(model, state, target):
    """change_shape's result or error, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        try:
            result = change_shape(model, state, target)
        except MemoryBudgetError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_regroup_checks_memory_before_allocating(model, monkeypatch):
    # 46 368 tau-sector trees at n=12: their charge rows alone take 1 MiB
    basis, target = enumerate_basis(model, left_comb(12)), grouped_shape(6, 6)
    enumerate_basis(model, target)
    state = random_pure_state(basis, "tau", np.random.default_rng(12))
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    refusal, peak = _traced_regroup(model, state, target)
    assert isinstance(refusal, MemoryBudgetError)
    match = re.fullmatch(rf"regrouping {basis.sector_dim('tau')} trees to {re.escape(str(target))} needs "
                         rf"~(\S+) GiB, {2**20 / 2**30:.3g} GiB available \(at most half may be used\)",
                         str(refusal))
    assert match
    assert peak < 64 * 2**10
    # the estimate bounds what the regroup then takes
    monkeypatch.setattr(errors, "_available_bytes", lambda: None)
    moved, peak = _traced_regroup(model, state, target)
    assert abs(moved.norm() - 1.0) <= 1e-12
    assert peak <= float(match[1]) * 2**30


# --- shape_change checks a bound on its rows before it builds them


def test_shape_change_checks_memory_before_building_its_rows(model, monkeypatch):
    # n=11: the 28 657 source trees' charge rows and indices alone take 1.2 MiB
    source, target = left_comb(11), grouped_shape(5, 6)
    basis = enumerate_basis(model, source)
    enumerate_basis(model, target)

    def no_rows(*args):
        raise AssertionError("the rows were routed")

    monkeypatch.setattr(recouple, "_routed", no_rows)
    monkeypatch.setattr(errors, "_available_bytes", lambda: 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match=(
                rf"^the basis change from {re.escape(str(source))} to {re.escape(str(target))}"
                rf" needs ~\S+ GiB, {2**20 / 2**30:.3g} GiB available")):
            shape_change.__wrapped__(model, source, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.dim * (basis.charges.shape[1] + 1) * 2


@pytest.mark.parametrize("n", [11, 13])
def test_shape_change_estimate_covers_its_peak_within_4x(model, monkeypatch, n):
    source, target = left_comb(n), grouped_shape(n // 2, n - n // 2)
    enumerate_basis(model, source)
    enumerate_basis(model, target)
    estimates = []

    def recording(nbytes, what):
        estimates.append(nbytes)

    monkeypatch.setattr(recouple, "require_memory", recording)
    tracemalloc.start()
    try:
        change = shape_change.__wrapped__(model, source, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak <= estimates[0] <= 4 * peak
    # the rows are held as narrow integers: the parent's int64 rows peaked at 473 MiB
    assert n < 13 or peak <= 300 * 2**20
    assert len(change.coeffs) == {11: 82282, 13: 718994}[n]
