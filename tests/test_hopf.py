from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfpath.hopf import (
    HElem,
    PairElem,
    antipode,
    convolve,
    coproduct,
    counit,
    exp_star,
    graft_product,
    homogeneous_norm,
    is_group_like,
    is_primitive,
    lie_bracket,
    log_star,
    pair,
    product,
    star_inverse,
)
from hopfpath.trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    enumerate_forests,
    enumerate_trees,
    graft,
    leaf,
)
from oracles import coproduct_oracle, forest_coproduct_oracle, symmetry_factor


def single(label, d=2):
    return HElem.from_tree(leaf(label), d)


def helem(d, *terms):
    out: dict = {}
    for f, c in terms:
        out[f] = out.get(f, 0) + Fraction(c)
    return HElem(out, d)


def F(*trees):
    return Forest(trees)


B1 = leaf(1)
B2 = leaf(2)
B1_2 = graft([B1], 2)   # [b_1]_2
B2_1 = graft([B2], 1)   # [b_2]_1
CHERRY1 = graft([B1, B1], 1)


# -- containers ------------------------------------------------------------


def test_zero_coefficients_are_pruned():
    x = helem(2, (F(B1), 1)) - helem(2, (F(B1), 1))
    assert x.terms == {}
    assert x.is_zero()
    y = HElem({F(B1): Fraction(0), F(B2): Fraction(3)}, 2)
    assert list(y.support()) == [F(B2)]


def test_a_label_above_d_is_refused():
    # once admitted, this x gave convolve(x, x, 2) == 1 and passed as group-like
    with pytest.raises(ValueError, match=r"^forest label out of range 1\.\.1 in b_2$"):
        HElem.unit(1) + HElem.from_tree(leaf(2), 1)
    with pytest.raises(ValueError, match=r"^forest label out of range 1\.\.2 in b_1 \[b_3\]_2$"):
        HElem({F(B1): 1, Forest((B1, graft([leaf(3)], 2))): Fraction(1, 2)}, 2)
    # zero terms go first, so a zero coefficient on such a forest is dropped
    assert HElem({F(leaf(3)): 0, F(B2): 1}, 2).terms == {F(B2): 1}
    x = HElem.unit(2) + HElem.from_tree(leaf(2), 2)
    assert convolve(x, x, 2).coeff(F(B2)) == 2 and not is_group_like(x, 2)


def test_context_mismatch_raises():
    with pytest.raises(ValueError):
        helem(1, (F(B1), 1)) + helem(2, (F(B1), 1))
    with pytest.raises(ValueError):
        pair(helem(1, (F(B1), 1)), helem(2, (F(B1), 1)))


def test_truncate():
    x = helem(2, (F(B1), 1), (F(B1_2), 2), (F(B1, B2, B1), 5))
    assert x.truncate(1) == helem(2, (F(B1), 1))
    assert x.truncate(2) == helem(2, (F(B1), 1), (F(B1_2), 2))


# -- product ---------------------------------------------------------------


def test_product_examples():
    assert product(single(1), single(2)) == helem(2, (F(B1, B2), 1))
    unit = HElem.unit(2)
    x = helem(2, (F(B1_2), 3), (EMPTY_FOREST, 1))
    assert product(unit, x) == x
    lhs = product(helem(2, (F(B1), 1), (F(B2_1), 2)), single(1))
    assert lhs == helem(2, (F(B1, B1), 1), (F(B1, B2_1), 2))


def test_product_commutes_and_adds_grades():
    xs = enumerate_forests(3, 2)
    for f1 in xs[:10]:
        for f2 in xs[:10]:
            a = HElem.from_forest(f1, 2)
            b = HElem.from_forest(f2, 2)
            assert product(a, b) == product(b, a)
            for f in product(a, b).support():
                assert f.grade == f1.grade + f2.grade


# -- coproduct -------------------------------------------------------------


def expected_pairs(d, *terms):
    out: dict = {}
    for a, b, c in terms:
        out[(a, b)] = out.get((a, b), 0) + Fraction(c)
    return PairElem(out, d)


def test_coproduct_unit_and_leaf():
    assert coproduct(HElem.unit(2)) == expected_pairs(2, (EMPTY_FOREST, EMPTY_FOREST, 1))
    assert coproduct(single(1)) == expected_pairs(
        2, (F(B1), EMPTY_FOREST, 1), (EMPTY_FOREST, F(B1), 1)
    )


def test_coproduct_single_branch():
    x = HElem.from_tree(B1_2, 2)
    assert coproduct(x) == expected_pairs(
        2,
        (F(B1_2), EMPTY_FOREST, 1),
        (EMPTY_FOREST, F(B1_2), 1),
        (F(B1), F(B2), 1),
    )


def test_coproduct_cherry_distinct_labels():
    # [b_1 b_2]_1 with distinct children: five cut terms, all coefficient 1
    t = graft([B1, B2], 1)
    x = HElem.from_tree(t, 2)
    assert coproduct(x) == expected_pairs(
        2,
        (F(t), EMPTY_FOREST, 1),
        (EMPTY_FOREST, F(t), 1),
        (F(B1, B2), F(B1), 1),
        (F(B1), F(B2_1), 1),
        (F(B2), F(graft([B1], 1)), 1),
    )


def test_coproduct_cherry_equal_labels():
    # equal children merge two cuts into coefficient 2
    x = HElem.from_tree(CHERRY1, 1)
    b = leaf(1)
    assert coproduct(x) == expected_pairs(
        1,
        (F(CHERRY1), EMPTY_FOREST, 1),
        (EMPTY_FOREST, F(CHERRY1), 1),
        (F(b), F(graft([b], 1)), 2),
        (F(b, b), F(b), 1),
    )


def test_coproduct_matches_subset_oracle():
    for t in enumerate_trees(5, 1) + enumerate_trees(4, 2):
        d = t.max_label()
        got = coproduct(HElem.from_tree(t, d))
        want = coproduct_oracle(t)
        assert got.terms == {k: Fraction(v) for k, v in want.items()}, t


def test_forest_coproduct_matches_oracle():
    for f in enumerate_forests(4, 2):
        got = coproduct(HElem.from_forest(f, 2))
        want = forest_coproduct_oracle(f)
        assert got.terms == {k: Fraction(v) for k, v in want.items()}, f


def test_coproduct_is_algebra_morphism():
    fs = enumerate_forests(2, 2)
    for f1 in fs:
        for f2 in fs:
            x = HElem.from_forest(f1, 2)
            y = HElem.from_forest(f2, 2)
            assert coproduct(product(x, y)) == coproduct(x).componentwise_product(
                coproduct(y)
            )


def _triple(x: HElem, side: str) -> dict:
    out: dict = {}
    for (a, b), c in coproduct(x).terms.items():
        inner = coproduct(HElem.from_forest(a if side == "left" else b, x.d))
        for (u, v), c2 in inner.terms.items():
            key = (u, v, b) if side == "left" else (a, u, v)
            out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v != 0}


def test_coassociativity():
    for f in enumerate_forests(5, 1) + enumerate_forests(4, 2):
        x = HElem.from_forest(f, f.max_label() if f.max_label() else 1)
        assert _triple(x, "left") == _triple(x, "right"), f


def test_counit_axiom():
    for f in enumerate_forests(4, 2):
        x = HElem.from_forest(f, 2)
        left = HElem.zero(2)
        right = HElem.zero(2)
        for (a, b), c in coproduct(x).terms.items():
            if a.is_unit():
                left = left + HElem.from_forest(b, 2, c)
            if b.is_unit():
                right = right + HElem.from_forest(a, 2, c)
        assert left == x and right == x


def test_grading_of_coproduct():
    for f in enumerate_forests(4, 2):
        for (a, b), _ in coproduct(HElem.from_forest(f, 2)).terms.items():
            assert a.grade + b.grade == f.grade


# -- antipode --------------------------------------------------------------


def test_antipode_pinned_values():
    assert antipode(HElem.unit(2)) == HElem.unit(2)
    assert antipode(single(1)) == helem(2, (F(B1), -1))
    assert antipode(HElem.from_tree(B1_2, 2)) == helem(2, (F(B1_2), -1), (F(B1, B2), 1))
    got = antipode(HElem.from_tree(CHERRY1, 1))
    b = leaf(1)
    ladder = graft([b], 1)
    assert got == helem(
        1, (F(CHERRY1), -1), (F(b, ladder), 2), (F(b, b, b), -1)
    )


def test_antipode_axiom_both_sides():
    for f in enumerate_forests(5, 1) + enumerate_forests(4, 2):
        d = max(1, f.max_label())
        x = HElem.from_forest(f, d)
        dx = coproduct(x)
        ls = dx.map_left(lambda g: antipode(HElem.from_forest(g, d))).multiply_out()
        rs = HElem.zero(d)
        for (a, b), c in dx.terms.items():
            rs = rs + product(HElem.from_forest(a, d), antipode(HElem.from_forest(b, d))).scale(c)
        want = HElem.unit(d) if f.is_unit() else HElem.zero(d)
        assert ls == want, f
        assert rs == want, f


def test_antipode_involutive_and_grade_preserving():
    for t in enumerate_trees(5, 1) + enumerate_trees(4, 2):
        d = t.max_label()
        x = HElem.from_tree(t, d)
        s = antipode(x)
        assert antipode(s) == x
        assert all(f.grade == t.grade for f in s.support())


def test_antipode_is_algebra_morphism():
    xs = enumerate_forests(2, 2)
    for f1 in xs:
        for f2 in xs:
            x = HElem.from_forest(f1, 2)
            y = HElem.from_forest(f2, 2)
            assert antipode(product(x, y)) == product(antipode(x), antipode(y))


# -- pairing and convolution ----------------------------------------------


def test_pair_examples():
    assert pair(single(1), single(1)) == 1
    assert pair(single(1), single(2)) == 0
    x = helem(2, (F(B1), 2), (F(B2_1), 1))
    assert pair(x, HElem.from_tree(B2_1, 2)) == 1
    assert pair(x, x) == 5


def test_convolve_pinned_examples():
    got = convolve(single(1), single(2), 2)
    assert got == helem(2, (F(B1, B2), 1), (F(graft([B1], 2)), 1))
    got = convolve(single(1), HElem.from_tree(B2_1, 2), 3)
    assert got == helem(
        2,
        (F(B1, B2_1), 1),
        (F(graft([graft([B1], 2)], 1)), 1),
        (F(graft([B1, B2], 1)), 1),
    )
    f = helem(2, (F(B1), 3), (F(B1_2), 5))
    assert convolve(HElem.unit(2), f, 3) == f
    assert convolve(f, HElem.unit(2), 3) == f


def test_convolve_equal_trees_carries_multiplicity():
    # <b_1 * b_1, b_1 b_1> = 2 from the two trivial-cut pairings
    got = convolve(single(1, d=1), single(1, d=1), 2)
    b = leaf(1)
    assert got == helem(1, (F(b, b), 2), (F(graft([b], 1)), 1))


def test_convolve_duality_against_oracle():
    # d=1: all basis pairs up to total grade 4
    basis = enumerate_forests(4, 1)
    table: dict = {}
    for h in basis:
        for key, cnt in forest_coproduct_oracle(h).items():
            table.setdefault(key, {})[h] = Fraction(cnt)
    for f1 in basis:
        for f2 in basis:
            got = convolve(HElem.from_forest(f1, 1), HElem.from_forest(f2, 1), 4)
            assert got.terms == table.get((f1, f2), {}), (f1, f2)


def test_convolve_duality_against_oracle_d2():
    basis = enumerate_forests(3, 2)
    table: dict = {}
    for h in enumerate_forests(3, 2):
        for key, cnt in forest_coproduct_oracle(h).items():
            table.setdefault(key, {})[h] = Fraction(cnt)
    for f1 in basis:
        for f2 in basis:
            if f1.grade + f2.grade > 3:
                continue
            got = convolve(HElem.from_forest(f1, 2), HElem.from_forest(f2, 2), 3)
            assert got.terms == table.get((f1, f2), {}), (f1, f2)


def test_convolve_associative():
    a = helem(2, (F(B1), 1), (F(B2), 2))
    b = helem(2, (F(B2), 1), (F(B1_2), Fraction(1, 3)))
    c = helem(2, (EMPTY_FOREST, 1), (F(B1), -1))
    lhs = convolve(convolve(a, b, 4), c, 4)
    rhs = convolve(a, convolve(b, c, 4), 4)
    assert lhs == rhs


def test_convolve_rejects_negative_truncation():
    with pytest.raises(ValueError):
        convolve(single(1), single(1), -1)


# -- grafting --------------------------------------------------------------


def test_graft_product_examples():
    assert graft_product(B1, B2) == helem(2, (F(graft([B1], 2)), 1))
    got = graft_product(B1, B2_1)
    assert got == helem(
        2,
        (F(graft([graft([B1], 2)], 1)), 1),
        (F(graft([B1, B2], 1)), 1),
    )


def test_graft_product_counts_vertices_with_multiplicity():
    # grafting into the equal-children cherry: attach at root, or at either child
    got = graft_product(B1, CHERRY1, d=1)
    b = leaf(1)
    assert got == helem(
        1,
        (F(graft([b, b, b], 1)), 1),
        (F(graft([b, graft([b], 1)], 1)), 2),
    )


def test_gl_product_equals_concat_plus_grafting():
    # Dual route: in the Kronecker dual basis the product of two trees is
    # concatenation plus grafting, each weighted by the symmetry-factor ratio
    # sigma(result) / (sigma(t1) sigma(t2)).  With the ratios stripped this is
    # the familiar grafting description of the product.
    trees = [t for t in enumerate_trees(3, 2)]
    for t1 in trees:
        for t2 in trees:
            if t1.grade + t2.grade > 4:
                continue
            via_dual = convolve(HElem.from_tree(t1, 2), HElem.from_tree(t2, 2), 4)
            denom = symmetry_factor(t1) * symmetry_factor(t2)
            concat = F(t1) * F(t2)
            direct = {concat: Fraction(symmetry_factor(concat), denom)}
            for f, c in graft_product(t1, t2, d=2).terms.items():
                direct[f] = c * Fraction(symmetry_factor(f.factors[0]), denom)
            assert via_dual == HElem(direct, 2), (t1, t2)
            # every coefficient is a positive integer despite the ratios
            assert all(c.denominator == 1 and c > 0 for c in via_dual.terms.values())


# -- Lie bracket -----------------------------------------------------------


def test_lie_bracket_examples():
    assert lie_bracket(single(1), single(1), 2).is_zero()
    got = lie_bracket(single(1), single(2), 2)
    assert got == helem(2, (F(graft([B1], 2)), 1), (F(graft([B2], 1)), -1))


def test_lie_bracket_antisymmetry_and_jacobi():
    a = single(1)
    b = single(2)
    c = HElem.from_tree(B1_2, 2)
    for x, y in ((a, b), (a, c), (b, c)):
        assert lie_bracket(x, y, 3) == -lie_bracket(y, x, 3)
    n = 4
    jac = (
        lie_bracket(a, lie_bracket(b, c, n), n)
        + lie_bracket(b, lie_bracket(c, a, n), n)
        + lie_bracket(c, lie_bracket(a, b, n), n)
    )
    assert jac.is_zero()


def test_bracket_of_primitives_is_primitive():
    a = single(1)
    c = HElem.from_tree(B1_2, 2)
    assert is_primitive(lie_bracket(a, c, 3), 3)


# -- exp and log -----------------------------------------------------------


def test_exp_star_pinned():
    assert exp_star(HElem.zero(2), 3) == HElem.unit(2)
    got = exp_star(single(1, d=1), 2)
    b = leaf(1)
    assert got == helem(
        1,
        (EMPTY_FOREST, 1),
        (F(b), 1),
        (F(b, b), 1),
        (F(graft([b], 1)), Fraction(1, 2)),
    )


def test_log_star_pinned():
    assert log_star(HElem.unit(2), 3).is_zero()
    g = convolve(exp_star(single(1), 2), exp_star(single(2), 2), 2)
    got = log_star(g, 2)
    assert got == helem(
        2,
        (F(B1), 1),
        (F(B2), 1),
        (F(graft([B1], 2)), Fraction(1, 2)),
        (F(graft([B2], 1)), Fraction(-1, 2)),
    )


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        exp_star(HElem.unit(2), 2)
    with pytest.raises(ValueError):
        log_star(single(1), 2)


@st.composite
def primitive_elem(draw, d=2, max_grade=3):
    trees = enumerate_trees(max_grade, d)
    n = draw(st.integers(min_value=1, max_value=3))
    picks = draw(st.lists(st.sampled_from(trees), min_size=n, max_size=n))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=n,
            max_size=n,
        )
    )
    out: dict = {}
    for t, c in zip(picks, coeffs):
        out[Forest((t,))] = out.get(Forest((t,)), 0) + c
    return HElem(out, d)


@settings(max_examples=25, deadline=None)
@given(primitive_elem())
def test_log_exp_roundtrip(h):
    assert log_star(exp_star(h, 4), 4) == h.truncate(4)


@settings(max_examples=25, deadline=None)
@given(primitive_elem())
def test_exp_of_tree_supported_is_group_like(h):
    assert is_group_like(exp_star(h, 3), 3)


@settings(max_examples=25, deadline=None)
@given(primitive_elem())
def test_log_of_group_like_is_tree_supported(h):
    g = exp_star(h, 3)
    ell = log_star(g, 3)
    assert is_primitive(ell, 3)


def test_exp_log_roundtrip_on_arbitrary_unit_one_elem():
    g = helem(
        2,
        (EMPTY_FOREST, 1),
        (F(B1), 2),
        (F(B1, B2), Fraction(-1, 3)),
        (F(B2_1), Fraction(7, 2)),
    )
    assert exp_star(log_star(g, 3), 3) == g.truncate(3)


def test_bch_pinned():
    g = convolve(exp_star(single(1), 2), exp_star(single(2), 2), 2)
    bch = log_star(g, 2)
    want = (
        single(1)
        + single(2)
        + lie_bracket(single(1), single(2), 2).scale(Fraction(1, 2))
    )
    assert bch == want


@pytest.mark.parametrize(
    "a, b",
    [
        (single(1), single(2)),
        (single(1) + single(2).scale(2), single(1).scale(Fraction(-1, 3)) + HElem.from_tree(B1_2, 2)),
    ],
    ids=["letters", "mixed-grades"],
)
def test_bch_third_order(a, b):
    # every BCH term of degree four or more in (a, b) has grade above 3
    N = 3
    ab = lie_bracket(a, b, N)
    want = (
        a
        + b
        + ab.scale(Fraction(1, 2))
        + lie_bracket(a, ab, N).scale(Fraction(1, 12))
        - lie_bracket(b, ab, N).scale(Fraction(1, 12))
    )
    assert log_star(convolve(exp_star(a, N), exp_star(b, N), N), N) == want
    assert not lie_bracket(a, ab, N).is_zero()


# -- predicates ------------------------------------------------------------


def test_is_group_like_examples():
    assert is_group_like(HElem.unit(2), 3)
    assert not is_group_like(HElem.unit(2) + single(1), 2)
    assert not is_group_like(single(1), 2)


def test_is_primitive_examples():
    assert is_primitive(single(1), 3)
    assert is_primitive(HElem.from_tree(graft([B1, B2], 1), 2), 4)
    assert not is_primitive(helem(2, (F(B1, B2), 1)), 3)
    assert not is_primitive(HElem.unit(2), 3)
    assert is_primitive(HElem.zero(2), 3)


# -- inverse and norm ------------------------------------------------------


def test_star_inverse_examples():
    unit = HElem.unit(2)
    assert star_inverse(unit, 3) == unit
    g = exp_star(single(1), 3)
    assert star_inverse(g, 3) == exp_star(single(1).scale(-1), 3)
    h = exp_star(helem(2, (F(B1), 1), (F(B1_2), Fraction(2, 3))), 3)
    inv = star_inverse(h, 3)
    assert convolve(inv, h, 3) == unit
    assert convolve(h, inv, 3) == unit


def test_star_inverse_rejects_non_group_like():
    with pytest.raises(ValueError):
        star_inverse(single(1), 2)


def test_homogeneous_norm():
    assert homogeneous_norm(HElem.unit(1), 2) == 0.0
    g = exp_star(single(1, d=1).scale(Fraction(-3, 2)), 2)
    assert homogeneous_norm(g, 2) == 1.5
    b = leaf(1)
    h = helem(1, (F(b), 1), (F(graft([b], 1)), 4))
    assert homogeneous_norm(exp_star(h, 2), 2) == 3.0


def test_homogeneous_norm_rejects_non_group_like():
    with pytest.raises(ValueError):
        homogeneous_norm(single(1), 2)


def test_counit():
    assert counit(HElem.unit(2)) == 1
    assert counit(single(1)) == 0


def _primitive_by_derivation_identity(h, N):
    """The derivation-identity sweep is_primitive ran before it became a
    support test: <h, 1> = 0 and <h, h1 h2> = 0 for non-unit h1, h2."""
    if not all(f.is_single_tree() for f in h.terms):
        return False
    if h.coeff(EMPTY_FOREST) != 0:
        return False
    for g1 in range(1, N):
        for h1 in (f for f in enumerate_forests(N - g1, h.d) if f.grade == g1):
            for h2 in enumerate_forests(N - g1, h.d):
                if not h2.is_unit() and h.coeff(h1 * h2) != 0:
                    return False
    return True


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2), st.integers(1, 4), st.data())
def test_is_primitive_is_the_derivation_identity(d, N, data):
    basis = enumerate_forests(N, d)
    support = data.draw(st.lists(st.sampled_from(basis), max_size=4))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(support), max_size=len(support)))
    h = HElem({f: Fraction(c) for f, c in zip(support, coeffs)}, d)
    assert is_primitive(h, N) == _primitive_by_derivation_identity(h, N)
