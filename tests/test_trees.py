import sys
from pathlib import Path

import numpy as np
import pytest

from fibanyon.errors import FusionError, ShapeError
from fibanyon.model import load_model_text
from fibanyon.trees import (
    SectorBasis,
    TreeShape,
    all_shapes,
    enumerate_basis,
    grouped_shape,
    left_comb,
    parse_tree_label,
    right_comb,
)
from reference import global_charge, reference

FIB_DIMS = {1: 2, 2: 5, 3: 13, 4: 34, 5: 89, 6: 233, 7: 610, 8: 1597}


@pytest.mark.parametrize("n,expected", sorted(FIB_DIMS.items()))
def test_dimension_is_fibonacci(model, n, expected):
    assert enumerate_basis(model, left_comb(n)).dim == expected


def test_dimension_shape_independent(model):
    for n in range(2, 6):
        dims = {enumerate_basis(model, shape).dim for shape in all_shapes(n)}
        assert dims == {FIB_DIMS[n]}


def test_two_anyon_sector_listing(basis2):
    sector = {g: basis2.labels[basis2.sector_slice(g)] for g in ("e", "tau")}
    assert sector["e"] == ("e,e;e", "tau,tau;e")
    assert sector["tau"] == ("e,tau;tau", "tau,e;tau", "tau,tau;tau")
    assert basis2.sector_dim("e") == 2
    assert basis2.sector_dim("tau") == 3


def test_one_anyon_basis(model):
    basis = enumerate_basis(model, 1)
    assert basis.labels == ("e", "tau")
    assert basis.sector_dim("tau") == 1


def test_sector_dimension_unknown_charge(basis2):
    with pytest.raises(FusionError):
        basis2.sector_dim("sigma")


def test_index_tree_roundtrip(model):
    basis = enumerate_basis(model, grouped_shape(2, 2))
    assert basis.dim == 34
    for i in range(basis.dim):
        assert basis.index_of_label(basis.tree_at(i)) == i


def test_indices_cover_basis_once(basis2):
    seen = {basis2.index_of_label(label) for label in basis2.labels}
    assert seen == set(range(5))


def test_index_of_inconsistent_tree(basis2):
    with pytest.raises(FusionError):  # (e,e) -> tau is not allowed
        basis2.index_of_label("e,e;tau")


def test_index_of_wrong_shape(model, basis2):
    other = enumerate_basis(model, left_comb(3))
    with pytest.raises(ShapeError):
        basis2.index_of_label(other.tree_at(0))


def test_enumeration_deterministic(model):
    a = SectorBasis(model, left_comb(4)).labels
    b = SectorBasis(model, left_comb(4)).labels
    assert a == b
    # vacuum sector comes first in the flat ordering
    basis = enumerate_basis(model, left_comb(4))
    sectors = [basis.sector_of(i) for i in range(basis.dim)]
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


def test_shape_parse_refuses_nesting_its_walks_cannot_recurse_through():
    limit = sys.getrecursionlimit() // 4
    deepest = left_comb(limit + 1).serialize()
    assert TreeShape.parse(deepest).serialize() == deepest
    with pytest.raises(ShapeError, match=f"^shape expression nested more than {limit} levels"):
        TreeShape.parse(right_comb(limit + 2).serialize())


def test_basis_refuses_more_key_columns_than_numpy_indexes():
    # one charge never overflows radix ** columns; a 33-leaf comb's 65 key
    # columns (2n - 1) are more than np.ravel_multi_index takes
    model = load_model_text("charges e\nvacuum e\nfusion e e -> e\n")
    assert enumerate_basis(model, left_comb(32)).dim == 1
    with pytest.raises(ShapeError, match=r"^shape .* over 1 charges is too large to index$"):
        enumerate_basis(model, left_comb(33))


def test_combs_and_grouped():
    assert left_comb(4).serialize() == "(((0 1) 2) 3)"
    assert right_comb(4).serialize() == "(0(1(2 3)))"
    assert grouped_shape(2, 2).serialize() == "((0 1)(2 3))"
    assert grouped_shape(2, 4).serialize() == "((0 1)(((2 3) 4) 5))"


def test_all_shapes_counts_catalan():
    assert [len(all_shapes(n)) for n in range(1, 6)] == [1, 1, 2, 5, 14]


def test_tree_label_fields_explicit(basis4):
    label = "(tau,e),(e,tau);tau,tau;e"
    index = basis4.index_of_label(label)
    assert basis4.tree_at(index) == label
    # leaves, non-root internals, root
    assert parse_tree_label(basis4.shape, label) == ("tau", "e", "e", "tau", "tau", "tau", "e")
    # preorder columns, root first: root, (0 1), 0, 1, (2 3), 2, 3
    names = [basis4.model.charges[c] for c in basis4.charges[index]]
    assert names == ["e", "tau", "tau", "e", "tau", "e", "tau"]


def test_label_roundtrip_all_trees(model):
    for shape in (left_comb(3), grouped_shape(2, 2), grouped_shape(2, 4)):
        basis = enumerate_basis(model, shape)
        template = shape.label_format[0]
        for index, label in enumerate(basis.labels):
            assert template % parse_tree_label(shape, label) == label
            assert basis.index_of_label(label) == index


def test_label_accepts_unicode_tau(basis2):
    assert basis2.index_of_label("τ,e;τ") == basis2.index_of_label("tau,e;tau")


def test_label_lookups_render_no_labels():
    from fibanyon.states import AnyonState, ket, parse_state_text

    # a freshly loaded model: no cached basis of it has rendered its labels yet
    data = Path(__file__).parent / "data"
    z3 = load_model_text((data / "z3.model").read_text(), name="z3")
    state = parse_state_text(z3, (data / "z3_five.state").read_text())
    basis = state.basis
    assert basis.index_of_label("e,e,e,a,e;a,a,a;a") == basis.index_of_label(
        "e,(e,(e,(a,e)));a,a,a;a")
    assert state.amplitude("e,e,e,a,e;a,a,a;a") != 0
    assert ket(basis, "a,e,e,e,e;e,e,e;a").sector == "a"
    assert AnyonState(basis, np.eye(basis.dim)[0]).amplitude("e,e,e,e,e;e,e,e;e") == 1.0
    assert "labels" not in basis.__dict__


@pytest.fixture(scope="module")
def reference_models(model):
    """Fibonacci, Z2 (self-dual, two charges) and Z3 (not self-dual, three charges)."""
    data = Path(__file__).parent / "data"
    return [model] + [load_model_text((data / f"{name}.model").read_text(), name=name)
                      for name in ("z2", "z3")]


def _flat(label: str) -> str:
    """A label without the leaf segment's parentheses, as state files often write it."""
    head, sep, tail = label.partition(";")
    return head.replace("(", "").replace(")", "") + sep + tail


def _spaced(label: str) -> str:
    """A label with spaces around every separator and name, and τ for tau."""
    spaced = " ".join(label.replace(",", " , ").replace(";", " ; ").split())
    return f" {spaced} ".replace("tau", "τ")


@pytest.mark.parametrize("n", range(1, 8))
def test_every_spelling_of_every_label_finds_its_tree(reference_models, n):
    # the flat spelling on every model, with τ and spaces on Fibonacci, and the canonical
    # one on Ising (the per-tree reference test looks up the other models' canonical labels)
    data = Path(__file__).parent / "data"
    ising = load_model_text((data / "ising.model").read_text(), name="ising")
    for m in reference_models + [ising]:
        spellings = ((_flat, _spaced, lambda label: _spaced(_flat(label))) if m.name == "fibonacci"
                     else (str, _flat) if m is ising else (_flat,))
        for shape in all_shapes(n):
            basis = SectorBasis(m, shape)
            for spelling in spellings:
                labels = [spelling(label) for label in basis.labels]
                assert basis.index_of_labels(labels).tolist() == list(range(basis.dim))
            for i in range(0, basis.dim, max(1, basis.dim // 7)):
                assert basis.index_of_label(_flat(basis.labels[i])) == i


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_equals_per_tree_reference(reference_models, n):
    for m in reference_models:
        for shape in all_shapes(n):
            basis = SectorBasis(m, shape)
            ref = reference(m, shape)
            # the labels hold every charge, and the recursive renderer is one to one
            assert basis.labels == ref.labels
            assert sorted(shape.label_format[1]) == list(range(2 * n - 1))
            assert not basis.charges.flags.writeable
            roots = [global_charge(tree) for tree in ref.trees]
            for g in m.charges:
                sl = basis.sector_slice(g)
                assert roots[sl] == [g] * (sl.stop - sl.start) == [r for r in roots if r == g]
            assert basis.index_of_labels(ref.labels).tolist() == list(range(basis.dim))
            assert [parse_tree_label(shape, label) for label in ref.labels] == [
                leaves + internals[1:] + internals[:1] for leaves, internals in ref.trees]


# (shape, label, index or (error type, exact message)); unknown charges are
# reported in the order leaves, root, other internals
FIB_SPELLINGS = [
    ("((0 1)(2 3))", "(τ,e),(e,τ);τ,τ;e", 5),
    ("((0 1)(2 3))", " ( tau , e ) , ( e , tau ) ; tau , tau ; e ", 5),
    ("((0 1)(2 3))", "tau,e,e,tau;tau,tau;e", 5),
    ("((0 1)(2 3))", "(tau,e),(e,tau);,tau,,tau,;e", 5),
    ("((0 1)(2 3))", "(sigma,e),(e,tau);tau,tau;e",
     (FusionError, "unknown charge 'sigma' (model fibonacci)")),
    ("((0 1)(2 3))", "(tau,e),(e,tau);tau,tau;sigma",
     (FusionError, "unknown charge 'sigma' (model fibonacci)")),
    ("((0 1)(2 3))", "(tau,e),(e,tau);sigma,tau;e",
     (FusionError, "unknown charge 'sigma' (model fibonacci)")),
    ("((0 1)(2 3))", "(x,e),(e,tau);y,tau;z", (FusionError, "unknown charge 'x' (model fibonacci)")),
    ("((0 1)(2 3))", "(tau,e),(e,tau);y,tau;z", (FusionError, "unknown charge 'z' (model fibonacci)")),
    ("((0 1)(2 3))", "(tau,e),(e,tau);tau,tau;", (FusionError, "unknown charge '' (model fibonacci)")),
    ("((0 1)(2 3))", " (e,e),(e,tau) ; tau,tau ; e",
     (FusionError, "tree '(e,e),(e,tau);tau,tau;e' is not fusion-consistent")),
    ("((0 1)(2 3))", "(tau,e),(e,tau);tau;e", (ShapeError, "wrong number of internal charges")),
    ("((0 1)(2 3))", "(tau,e),(e,tau);tau,tau,tau;e", (ShapeError, "wrong number of internal charges")),
    ("((0 1)(2 3))", "(tau,e),(e,tau);tau,tau;e;e",
     (ShapeError, "cannot parse basis label '(tau,e),(e,tau);tau,tau;e;e'")),
    ("0", "τ", 1),
    ("0", " tau ", 1),
    ("0", "sigma", (FusionError, "unknown charge 'sigma' (model fibonacci)")),
    ("0", "tau;", (ShapeError, "single-anyon label 'tau;' must have no ';'")),
]

Z3_SPELLINGS = [
    ("((0 1) 2)", "( a , a ) , a ; b ; e", 4),
    ("((0 1) 2)", "a,a,a;b;e", 4),
    ("((0 1) 2)", "(τ,a),a;b;e", (FusionError, "unknown charge 'tau' (model z3)")),
    ("((0 1) 2)", "(c,a),a;b;e", (FusionError, "unknown charge 'c' (model z3)")),
    ("((0 1) 2)", "(a,a),a;b;c", (FusionError, "unknown charge 'c' (model z3)")),
    ("((0 1) 2)", "(a,a),a;c;e", (FusionError, "unknown charge 'c' (model z3)")),
    ("((0 1) 2)", "(a,a),a;x;y", (FusionError, "unknown charge 'y' (model z3)")),
    ("((0 1) 2)", "(a,a),a;a;e", (FusionError, "tree '(a,a),a;a;e' is not fusion-consistent")),
    ("((0 1) 2)", "(a,a),a;e", (ShapeError, "wrong number of internal charges")),
    ("((0 1) 2)", "(a,a),a;b,b;e", (ShapeError, "wrong number of internal charges")),
    ("((0 1) 2)", "a,a;b;e", (ShapeError, "label 'a,a;b;e' has 2 leaves, shape has 3")),
    ("((0 1) 2)", "(a,a),a;b;e;", (ShapeError, "cannot parse basis label '(a,a),a;b;e;'")),
]

# flat spellings (no leaf parentheses) parse as the canonical ones; a parenthesis in
# the internal segment still fails as before
FLAT_SPELLINGS = [(0, *case) for case in [
    ("((0 1)(2 3))", "τ,e,e,τ;τ,τ;e", 5),
    ("((0 1)(2 3))", "(tau,e),e,tau;tau,tau;e", 5),
    ("(((0 1) 2) 3)", "tau,tau,tau,tau;tau,e;e", 11),
    ("(((0 1) 2) 3)", "tau,tau,tau,tau;e,tau;tau", 31),
    ("((0 1)(2 3))", "tau,e,e,tau;(tau,tau);e",
     (FusionError, "unknown charge '(tau' (model fibonacci)")),
    ("((0 1)(2 3))", "tau,e,e,tau;tau,(tau);e",
     (FusionError, "unknown charge '(tau)' (model fibonacci)")),
    ("((0 1)(2 3))", "(tau,e),(e,tau);tau,tau;(e)",
     (FusionError, "unknown charge '(e)' (model fibonacci)")),
    ("(((0 1) 2) 3)", "tau,tau,tau,tau;(e,tau);tau",
     (FusionError, "unknown charge '(e' (model fibonacci)")),
    ("((0 1)(2 3))", "e,e,e,tau;tau,tau;e",
     (FusionError, "tree '(e,e),(e,tau);tau,tau;e' is not fusion-consistent")),
    ("((0 1)(2 3))", "tau,e,e,tau;tau;e", (ShapeError, "wrong number of internal charges")),
]] + [(2, *case) for case in [
    ("((0 1) 2)", "a,a,a;(b);e", (FusionError, "unknown charge '(b)' (model z3)")),
    ("((0 1) 2)", "a,a,b;b;e", (FusionError, "tree '(a,a),b;b;e' is not fusion-consistent")),
    ("(0 (1 2))", "a,a,a;b;e", 4),
    ("(0 (1 2))", "a,b,a;e;b", (FusionError, "tree 'a,(b,a);e;b' is not fusion-consistent")),
]]


@pytest.mark.parametrize("model_index,shape,label,expected",
                         [(0, *case) for case in FIB_SPELLINGS] + [(2, *case) for case in Z3_SPELLINGS]
                         + FLAT_SPELLINGS)
def test_index_of_label_non_canonical_spellings(reference_models, model_index, shape, label, expected):
    basis = enumerate_basis(reference_models[model_index], shape)
    if isinstance(expected, int):
        assert basis.index_of_label(label) == expected
        return
    error, message = expected
    with pytest.raises(error) as raised:
        basis.index_of_label(label)
    assert type(raised.value) is error and str(raised.value) == message
