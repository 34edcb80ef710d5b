import pytest
from hypothesis import given, strategies as st

from hopfpath.tensor import Word
from hopfpath.trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    chain,
    enumerate_forests,
    enumerate_trees,
    forests_of_grade,
    graft,
    leaf,
    symmetry_factor,
    tree_factorial,
    trees_of_grade,
)
from oracles import (
    count_forests,
    count_trees,
    symmetry_factor as symmetry_factor_oracle,
    tree_factorial_oracle,
)


def test_counts_against_transform_oracle():
    for d, nmax in ((1, 6), (2, 5), (3, 4)):
        for n in range(1, nmax + 1):
            assert len(trees_of_grade(n, d)) == count_trees(n, d)
            assert len(forests_of_grade(n, d)) == count_forests(n, d)


def test_frozen_counts():
    # d=1 tree counts per grade
    assert [len(trees_of_grade(n, 1)) for n in (1, 2, 3, 4, 5)] == [1, 1, 2, 4, 9]
    # d=2 tree counts per grade
    assert [len(trees_of_grade(n, 2)) for n in (1, 2, 3)] == [2, 4, 14]
    # all forests of grade <= 4, d=2, including the unit
    assert len(enumerate_forests(4, 2)) == 143
    assert len(enumerate_trees(4, 1)) == 8


def test_enumeration_is_sorted_and_duplicate_free():
    for d in (1, 2):
        ts = enumerate_trees(4, d)
        assert len(set(ts)) == len(ts)
        fs = enumerate_forests(4, d)
        assert len(set(fs)) == len(fs)
        assert list(fs) == sorted(fs, key=Forest.sort_key)
        assert fs[0] == EMPTY_FOREST


@st.composite
def random_tree(draw, d=2, max_grade=5):
    label = draw(st.integers(min_value=1, max_value=d))
    if max_grade <= 1:
        return leaf(label)
    budget = draw(st.integers(min_value=0, max_value=max_grade - 1))
    kids = []
    while budget > 0:
        g = draw(st.integers(min_value=1, max_value=budget))
        kids.append(draw(random_tree(d=d, max_grade=g)))
        budget -= g
    return Tree(label, tuple(kids))


@given(random_tree())
def test_canonical_form_is_permutation_invariant(t):
    rev = Tree(t.label, tuple(reversed(t.children)))
    assert rev == t
    assert hash(rev) == hash(t)
    assert repr(rev) == repr(t)


@given(random_tree(), random_tree())
def test_forest_product_commutes(a, b):
    assert Forest((a,)) * Forest((b,)) == Forest((b,)) * Forest((a,))


def test_immutability():
    t = leaf(1)
    with pytest.raises(AttributeError, match="^Tree is immutable$"):
        t.label = 2
    f = Forest((t,))
    with pytest.raises(AttributeError, match="^Forest is immutable$"):
        f.factors = ()
    w = Word((t,))
    with pytest.raises(AttributeError, match="^Word is immutable$"):
        w.letters = ()


def test_forest_and_word_of_the_same_trees_share_a_key_and_stay_unequal():
    a, b = leaf(1), graft([leaf(2)], 1)
    f, w = Forest((a, b)), Word((a, b))
    assert f.sort_key() == w.sort_key()
    assert hash(f) == hash(w)
    assert f != w and w != f
    assert not f == w and not w == f
    assert {f: "forest", w: "word"} == {Forest((b, a)): "forest", Word((a, b)): "word"}
    assert len({f: 0, w: 1}) == 2


def test_compare_is_total_on_enumeration():
    ts = enumerate_trees(4, 2)
    for i, a in enumerate(ts):
        assert a <= a and a >= a and not a < a and not a > a and not a != a
        for b in ts[i + 1:]:
            assert a < b and a <= b and b > a and b >= a and a != b
            assert not (b < a or b <= a or a > b or a >= b or a == b)


def test_grade_bookkeeping():
    t = graft(Forest((leaf(1), leaf(2))), 3)
    assert t.grade == 3
    assert t.label == 3
    assert Forest((t, leaf(1))).grade == 4
    assert EMPTY_FOREST.grade == 0


def test_graft_sorts_children():
    a = graft([leaf(2), leaf(1)], 1)
    b = graft([leaf(1), leaf(2)], 1)
    assert a == b
    assert [c.label for c in a.children] == [1, 2]


def test_chain_orientation():
    # first label is the leaf end, last label is the root
    t = chain([1, 2, 3])
    assert t.label == 3
    assert len(t.children) == 1
    assert t.children[0].label == 2
    assert t.children[0].children[0].label == 1


def test_tree_factorial_examples_and_oracle():
    assert tree_factorial(leaf(1)) == 1
    assert tree_factorial(chain([1, 1, 1, 1])) == 24
    cherry = graft([leaf(1), leaf(1)], 1)
    assert tree_factorial(cherry) == 3
    for t in enumerate_trees(5, 1):
        assert tree_factorial(t) == tree_factorial_oracle(t)
    for t in enumerate_trees(4, 2):
        assert tree_factorial(t) == tree_factorial_oracle(t)


def test_symmetry_factor_examples_and_oracle():
    assert symmetry_factor(leaf(1)) == 1
    assert symmetry_factor(graft([leaf(1), leaf(1)], 1)) == 2
    assert symmetry_factor(graft([leaf(1), leaf(2)], 1)) == 1
    assert symmetry_factor(graft([leaf(1)] * 3, 1)) == 6
    # nested repetition multiplies: two equal branches each with sigma 2
    b = graft([leaf(1), leaf(1)], 1)
    assert symmetry_factor(graft([b, b], 1)) == 2 * 2 * 2
    assert symmetry_factor(Forest((leaf(1), leaf(1), leaf(2)))) == 2
    for t in enumerate_trees(5, 1):
        assert symmetry_factor(t) == symmetry_factor_oracle(t)
    for f in enumerate_forests(4, 2):
        assert symmetry_factor(f) == symmetry_factor_oracle(f)


def test_repr_matches_expression_grammar():
    assert repr(leaf(2)) == "b_2"
    assert repr(graft([leaf(1), leaf(2)], 3)) == "[b_1 b_2]_3"
    assert repr(EMPTY_FOREST) == "1"
    assert repr(Forest((leaf(1), leaf(1)))) == "b_1 b_1"


def test_bad_arguments_raise():
    with pytest.raises(ValueError):
        trees_of_grade(0, 1)
    with pytest.raises(ValueError):
        trees_of_grade(1, 0)
    with pytest.raises(ValueError):
        leaf(0)
