import numpy as np
import pytest

from pathlib import Path

from fibanyon.errors import FusionError, ShapeError
from fibanyon.model import load_model_text
from fibanyon.trees import (
    FusionTree,
    SectorBasis,
    TreeShape,
    all_shapes,
    enumerate_basis,
    grouped_shape,
    left_comb,
    parse_tree_label,
    right_comb,
)

FIB_DIMS = {1: 2, 2: 5, 3: 13, 4: 34, 5: 89, 6: 233, 7: 610, 8: 1597}


@pytest.mark.parametrize("n,expected", sorted(FIB_DIMS.items()))
def test_dimension_is_fibonacci(model, n, expected):
    assert enumerate_basis(model, left_comb(n)).dim == expected


def test_dimension_shape_independent(model):
    for n in range(2, 6):
        dims = {enumerate_basis(model, shape).dim for shape in all_shapes(n)}
        assert dims == {FIB_DIMS[n]}


def test_two_anyon_sector_listing(basis2):
    sector = {g: basis2.trees[basis2.sector_slice(g)] for g in ("e", "tau")}
    assert [t.label() for t in sector["e"]] == ["e,e;e", "tau,tau;e"]
    assert [t.label() for t in sector["tau"]] == ["e,tau;tau", "tau,e;tau", "tau,tau;tau"]
    assert basis2.sector_dim("e") == 2
    assert basis2.sector_dim("tau") == 3


def test_one_anyon_basis(model):
    basis = enumerate_basis(model, 1)
    assert [t.label() for t in basis.trees] == ["e", "tau"]
    assert basis.sector_dim("tau") == 1


def test_sector_dimension_unknown_charge(basis2):
    with pytest.raises(FusionError):
        basis2.sector_dim("sigma")


def test_index_tree_roundtrip(model):
    basis = enumerate_basis(model, grouped_shape(2, 2))
    assert basis.dim == 34
    for i in range(basis.dim):
        assert basis.index_of(basis.tree_at(i)) == i


def test_indices_cover_basis_once(basis2):
    seen = {basis2.index_of(t) for t in basis2.trees}
    assert seen == set(range(5))


def test_index_of_inconsistent_tree(basis2):
    bad = FusionTree(basis2.shape, ("e", "e"), ("tau",))  # (e,e) -> tau is not allowed
    with pytest.raises(FusionError):
        basis2.index_of(bad)


def test_index_of_wrong_shape(model, basis2):
    other = enumerate_basis(model, left_comb(3))
    with pytest.raises(ShapeError):
        basis2.index_of(other.tree_at(0))


def test_enumeration_deterministic(model):
    a = [t.label() for t in enumerate_basis(model, left_comb(4)).trees]
    b = [t.label() for t in enumerate_basis(model, left_comb(4)).trees]
    assert a == b
    # vacuum sector comes first in the flat ordering
    basis = enumerate_basis(model, left_comb(4))
    sectors = [t.global_charge for t in basis.trees]
    assert sectors == sorted(sectors, key=("e", "tau").index)


def test_sector_mask_matches_per_sector_loop(model):
    for n in range(1, 6):
        for shape in all_shapes(n):
            basis = enumerate_basis(model, shape)
            expected = np.zeros((basis.dim, basis.dim), dtype=bool)
            for g in model.charges:
                sl = basis.sector_slice(g)
                expected[sl, sl] = True
            assert np.array_equal(basis.sector_mask, expected)
            assert basis.sector_mask is basis.sector_mask  # built once
            with pytest.raises(ValueError):
                basis.sector_mask[0, 0] = False


def test_shape_parse_serialize_roundtrip():
    for text in ["0", "(0 1)", "((0 1) 2)", "((0 1)((2 3)(4 5)))"]:
        assert TreeShape.parse(text).serialize() == text


def test_shape_rejects_misordered_leaves():
    with pytest.raises(ShapeError):
        TreeShape(((1, 0), 2))
    with pytest.raises(ShapeError):
        TreeShape.parse("((0 2) 1)")


def test_shape_parse_rejects_malformed():
    for text in ["(0 1", "(0 1))", "(0 (1)", "(a b)"]:
        with pytest.raises(ShapeError):
            TreeShape.parse(text)


def test_combs_and_grouped():
    assert left_comb(4).serialize() == "(((0 1) 2) 3)"
    assert right_comb(4).serialize() == "(0(1(2 3)))"
    assert grouped_shape(2, 2).serialize() == "((0 1)(2 3))"
    assert grouped_shape(2, 4).serialize() == "((0 1)(((2 3) 4) 5))"


def test_all_shapes_counts_catalan():
    assert [len(all_shapes(n)) for n in range(1, 6)] == [1, 1, 2, 5, 14]


def test_tree_label_fields_explicit(basis4):
    tree = basis4.tree_at(basis4.index_of_label("(tau,e),(e,tau);tau,tau;e"))
    assert tree.leaf_charges == ("tau", "e", "e", "tau")
    assert tree.internal_charges == ("e", "tau", "tau")
    assert tree.label() == "(tau,e),(e,tau);tau,tau;e"


def test_label_roundtrip_all_trees(model):
    for shape in (left_comb(3), grouped_shape(2, 2), grouped_shape(2, 4)):
        basis = enumerate_basis(model, shape)
        for tree in basis.trees:
            assert parse_tree_label(shape, tree.label()) == tree


def test_label_accepts_unicode_tau(basis2):
    assert basis2.index_of_label("τ,e;τ") == basis2.index_of_label("tau,e;tau")


def test_canonical_labels_resolve_without_parsing(monkeypatch, model, basis2, basis4):
    from fibanyon import trees
    from fibanyon.correlations import classify_pure_2anyon, random_pure_2anyon
    from fibanyon.states import AnyonState

    calls = []
    parse = trees.parse_tree_label

    def counting_parse(shape, text):
        calls.append(text)
        return parse(shape, text)

    monkeypatch.setattr(trees, "parse_tree_label", counting_parse)
    rng = np.random.default_rng(3)
    states = [random_pure_2anyon(model, ("e", "tau")[i % 2], rng) for i in range(10)]
    for i in range(1000):
        classify_pure_2anyon(states[i % 10])
    for basis in (basis2, basis4):
        for index, tree in enumerate(basis.trees):
            assert basis.index_of_label(tree.label()) == index
    assert calls == []

    # any other spelling falls back to the parser, with its errors unchanged
    assert basis2.index_of_label("τ,e;τ") == basis2.index_of_label("tau,e;tau")
    assert basis2.index_of_label(" tau , e ; tau ") == basis2.index_of_label("tau,e;tau")
    assert calls == ["τ,e;τ", " tau , e ; tau "]
    with pytest.raises(FusionError, match=r"^tree 'e,e;tau' is not fusion-consistent$"):
        basis2.index_of_label("e,e;tau")
    with pytest.raises(FusionError, match=r"^unknown charge 'sigma' \(model fibonacci\)$"):
        basis2.index_of_label("sigma,e;sigma")
    with pytest.raises(ShapeError, match=r"^label 'e;e' has 1 leaves, shape has 2$"):
        basis2.index_of_label("e;e")
    assert AnyonState(basis2, np.eye(5)[0]).amplitude("e,e;e") == 1.0


def _enumerate_labelings(model, node):
    """Reference enumeration: all (root charge, leaf charges, preorder internal
    charges) of a subtree, by recursion over Python tuples."""
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


def _reference_trees(model, shape):
    """Reference basis order: by sector, then leaf charges, then internal charges,
    each in the model's charge order."""
    order = {c: i for i, c in enumerate(model.charges)}

    def sort_key(entry):
        root, leaf_charges, internals = entry
        return ((order[root],) + tuple(order[c] for c in leaf_charges)
                + tuple(order[c] for c in internals))

    entries = sorted(_enumerate_labelings(model, shape.structure), key=sort_key)
    return tuple(FusionTree(shape, leaf_charges, internals) for _, leaf_charges, internals in entries)


def _reference_label(tree):
    """Reference label: a recursive render of the leaf grouping, then the
    non-root internal charges, then the global charge."""

    def render(node):
        if isinstance(node, int):
            return tree.leaf_charges[node]
        return f"({render(node[0])},{render(node[1])})"

    struct = tree.shape.structure
    if isinstance(struct, int):
        return tree.leaf_charges[0]
    leaf_part = f"{render(struct[0])},{render(struct[1])}"
    inner = ",".join(tree.internal_charges[1:])
    if inner:
        return f"{leaf_part};{inner};{tree.internal_charges[0]}"
    return f"{leaf_part};{tree.internal_charges[0]}"


@pytest.fixture(scope="module")
def reference_models(model):
    """Fibonacci, Z2 (self-dual, two charges) and Z3 (not self-dual, three charges)."""
    data = Path(__file__).parent / "data"
    return [model] + [load_model_text((data / f"{name}.model").read_text(), name=name)
                      for name in ("z2", "z3")]


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_equals_per_tree_reference(reference_models, n):
    for m in reference_models:
        for shape in all_shapes(n):
            basis = SectorBasis(m, shape)
            expected = _reference_trees(m, shape)
            assert basis.trees == expected
            for g in m.charges:
                members = basis.trees[basis.sector_slice(g)]
                assert members == tuple(t for t in expected if t.global_charge == g)
            assert not basis.charges.flags.writeable
            # one label template and one lookup, against the recursive renderer
            # and a {tree: index} dict
            labels = tuple(_reference_label(tree) for tree in expected)
            index = {tree: i for i, tree in enumerate(expected)}
            assert basis.labels == labels
            assert tuple(tree.label() for tree in expected) == labels
            assert [basis.index_of(tree) for tree in expected] == [index[t] for t in expected]
            assert [basis.index_of_label(label) for label in labels] == list(range(basis.dim))
            assert tuple(parse_tree_label(shape, label) for label in labels) == expected
