"""Exact solvers on both sides of the encoding, the grafting identity, and
controlled-path calculus."""

import hashlib
import itertools
import math
from fractions import Fraction as Q
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hopfpath.conversion import encode, simplify_n2
from hopfpath.hopf import HElem
from hopfpath.morphisms import psi_adjoint
from hopfpath.rde import (
    ButcherTable,
    ControlledPath,
    Poly,
    PolyVectorField,
    Trajectory,
    WordFieldTable,
    apply_derivative,
    butcher,
    butcher_h,
    check_lgl,
    compose_controlled,
    consistency_report,
    constant_controlled,
    convert_rde,
    geometric_F,
    integrate_controlled,
    parse_poly,
    path_controlled,
    print_poly,
    solution_controlled,
    solve_branched,
    solve_geometric,
    solve_simplified,
    sym_correction_fields,
)
from hopfpath.roughpath import (
    FLOAT,
    RATIONAL,
    SampledPath,
    canonical_lift,
    embed_geometric,
    ito_lift,
)
from hopfpath.tensor import Word, enumerate_words
from hopfpath.trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    chain,
    enumerate_trees,
    graft,
    leaf,
    symmetry_factor,
)

from oracles import (
    count_trees,
    exp_flow_oracle,
    leftpoint_oracle,
    mixed_derivative_oracle,
)

B1, B2 = leaf(1), leaf(2)


def quad_table_2d() -> ButcherTable:
    return ButcherTable.parse(
        {1: ["y1^2 + y2", "y1*y2"], 2: ["y2^2", "y1 + 1"]}
    )


def walk_path_d1() -> SampledPath:
    times = [Q(k, 4) for k in range(5)]
    rows = [[Q(0)], [Q(1, 2)], [Q(1, 4)], [Q(5, 4)], [Q(2)]]
    return SampledPath.over_labels(times, rows, 1)


def walk_path_d2() -> SampledPath:
    times = [Q(k, 4) for k in range(5)]
    rows = [
        [Q(0), Q(0)],
        [Q(1, 2), Q(1, 3)],
        [Q(1, 4), Q(1, 6)],
        [Q(5, 4), Q(1, 2)],
        [Q(2), Q(1)],
    ]
    return SampledPath.over_labels(times, rows, 2)


@pytest.fixture(scope="module")
def ito_d2_n2():
    return ito_lift(walk_path_d2(), 2, Q(2, 5))


@pytest.fixture(scope="module")
def encoded_d2_n2(ito_d2_n2):
    return encode(ito_d2_n2)


@pytest.fixture(scope="module")
def ito_d1_n3():
    return ito_lift(walk_path_d1(), 3, Q(3, 10))


@pytest.fixture(scope="module")
def encoded_d1_n3(ito_d1_n3):
    return encode(ito_d1_n3)


# -- polynomials -----------------------------------------------------------


def test_parse_poly_examples():
    p = parse_poly("y1^2*y2 + 3/2*y1", 2)
    assert p.terms == {(2, 1): Q(1), (1, 0): Q(3, 2)}
    assert parse_poly("-y1 + y1", 1).is_zero()
    assert parse_poly("2", 1).eval((Q(7),)) == 2
    assert parse_poly("y2 - 1/3", 2).eval((Q(0), Q(1, 3))) == 0


def test_parse_poly_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("", 1)
    with pytest.raises(ValueError):
        parse_poly("y0", 1)
    with pytest.raises(ValueError):
        parse_poly("y3", 2)
    with pytest.raises(ValueError):
        parse_poly("y1^-2", 1)
    with pytest.raises(ValueError):
        parse_poly("y1 + + y1", 1)
    with pytest.raises(ValueError):
        parse_poly("z1", 1)
    with pytest.raises(ValueError):
        parse_poly("1/0*y1", 1)


def test_poly_arithmetic_and_diff():
    x, y = Poly.var(1, 2), Poly.var(2, 2)
    p = x * x * y + x.scale(Q(3, 2))
    assert p.diff(1) == x * y + x * y + Poly.const(Q(3, 2), 2)
    assert p.diff(2) == x * x
    assert (p - p).is_zero()
    assert p.degree() == 3
    assert p.eval((Q(2), Q(5))) == 4 * 5 + 3


def test_print_poly_stable_form():
    p = parse_poly("y2 + y1^2*y2 + 3/2*y1", 2)
    assert print_poly(p) == "y2 + 3/2*y1 + y1^2*y2"
    assert print_poly(Poly.const(0, 1)) == "0"


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=5,
    )
)
def test_print_parse_round_trip(terms):
    p = Poly({e: Q(c) for e, c in terms.items()}, 2)
    assert parse_poly(print_poly(p), 2) == p


def test_vector_field_basics():
    f = PolyVectorField.parse(["y1^2 + y2", "y1*y2"])
    assert f.e == 2
    assert f((Q(1), Q(2))) == (Q(3), Q(2))
    assert PolyVectorField.identity(2)((Q(4), Q(5))) == (Q(4), Q(5))
    V = PolyVectorField.linear([[0, 1], [-1, 0]])
    assert V((Q(2), Q(3))) == (Q(3), Q(-2))
    with pytest.raises(ValueError):
        PolyVectorField((Poly.var(1, 2),))


def test_apply_derivative_against_interpolation_oracle():
    f = PolyVectorField.parse(["y1^2*y2 + y2", "y1^3"])
    g = PolyVectorField.parse(["y2^2", "y1 - 1"])
    h = PolyVectorField.parse(["y1*y2", "2*y2"])
    pt = (Q(1, 3), Q(2, 5))
    d1 = apply_derivative(f, (g,))
    d2 = apply_derivative(f, (g, h))
    for a in range(2):
        assert d1.components[a].eval(pt) == mixed_derivative_oracle(
            f.components[a].eval, pt, (g(pt),)
        )
        assert d2.components[a].eval(pt) == mixed_derivative_oracle(
            f.components[a].eval, pt, (g(pt), h(pt))
        )


def test_apply_derivative_is_symmetric():
    f = PolyVectorField.parse(["y1^2*y2", "y2^3"])
    g = PolyVectorField.parse(["y2", "y1"])
    h = PolyVectorField.parse(["y1 + 1", "y2^2"])
    assert apply_derivative(f, (g, h)) == apply_derivative(f, (h, g))


# -- tree-indexed fields ---------------------------------------------------


def test_butcher_leaf_is_base_field():
    f = quad_table_2d()
    assert butcher(f, B1) == f.base[1]
    assert butcher(f, B2) == f.base[2]


def test_butcher_cherry_is_second_derivative():
    f = quad_table_2d()
    got = butcher(f, graft([B1, B2], 1))
    want = apply_derivative(f.base[1], (f.base[1], f.base[2]))
    assert got == want
    # hand expansion of D^2 f_1 : (f_1, f_2) for f_1 = (y1^2+y2, y1*y2)
    # component 1: 2 f_1^1 f_2^1;  component 2: f_1^1 f_2^2 + f_1^2 f_2^1
    y = (Q(1, 2), Q(1, 3))
    f1, f2 = f.base[1](y), f.base[2](y)
    assert got(y) == (2 * f1[0] * f2[0], f1[0] * f2[1] + f1[1] * f2[0])


def test_butcher_linear_fields_compose_matrices():
    V1 = [[Q(0), Q(1)], [Q(2), Q(0)]]
    V2 = [[Q(1), Q(1)], [Q(0), Q(-1)]]
    f = ButcherTable(
        {1: PolyVectorField.linear(V1), 2: PolyVectorField.linear(V2)}
    )
    got = butcher(f, graft([B2], 1))
    y = (Q(3), Q(5))
    v2y = (y[0] + y[1], -y[1])
    v1v2y = (v2y[1], 2 * v2y[0])
    assert got(y) == v1v2y


def test_butcher_unknown_label():
    f = ButcherTable.parse({1: ["y1"]})
    with pytest.raises(ValueError):
        butcher(f, leaf(2))


def test_butcher_memoizes_canonical_trees():
    f = quad_table_2d()
    t = graft([B1, B2], 2)
    same = graft([B2, B1], 2)
    assert butcher(f, t) is butcher(f, same)


def test_butcher_h_unit_products_linearity():
    f = quad_table_2d()
    assert butcher_h(f, HElem.unit(2)) == PolyVectorField.identity(2)
    pair_forest = HElem.from_forest(Forest((B1, B2)), 2)
    assert butcher_h(f, pair_forest).is_zero()
    t = graft([B2], 1)
    x = HElem.from_tree(B1, 2, Q(2)) + HElem.from_tree(t, 2)
    assert butcher_h(f, x) == f.base[1].scale(Q(2)) + butcher(f, t)


def test_butcher_h_divides_by_automorphisms():
    f = quad_table_2d()
    cherry = graft([B1, B1], 2)
    assert symmetry_factor(cherry) == 2
    got = butcher_h(f, HElem.from_tree(cherry, 2))
    assert got == butcher(f, cherry).scale(Q(1, 2))


# -- branched solver -------------------------------------------------------


def test_solve_branched_zero_fields_constant(ito_d2_n2):
    f = ButcherTable.parse({1: ["0*y1", "0*y1"], 2: ["0*y1", "0*y1"]})
    traj = solve_branched(ito_d2_n2, f, (Q(1), Q(2)))
    assert all(v == (Q(1), Q(2)) for v in traj.values)
    assert all(step == {} for step in traj.steps)


def test_solve_branched_exponential_partial_sum():
    # dY = Y dX against the canonical lift of X_t = t: one step reproduces
    # the truncated exponential series exactly
    for N in (2, 3):
        path = SampledPath.over_labels([Q(0), Q(1)], [[Q(0)], [Q(1)]], 1)
        X = embed_geometric(canonical_lift(path, N))
        f = ButcherTable.parse({1: ["y1"]})
        traj = solve_branched(X, f, (Q(1),))
        assert traj.values[-1] == (exp_flow_oracle(N, 1),)
    assert exp_flow_oracle(3, 1) == Q(8, 3)


def test_solve_branched_linear_fields_reduce_to_chains():
    V1 = [[Q(0), Q(1)], [Q(1, 2), Q(0)]]
    V2 = [[Q(1), Q(0)], [Q(1, 3), Q(-1)]]
    f = ButcherTable(
        {1: PolyVectorField.linear(V1), 2: PolyVectorField.linear(V2)}
    )
    # branching trees carry second derivatives of linear maps: all zero
    for t in enumerate_trees(3, 2):
        is_chain = True
        node = t
        while node.children:
            if len(node.children) > 1:
                is_chain = False
                break
            node = node.children[0]
        if not is_chain:
            assert butcher(f, t).is_zero()
    X = ito_lift(walk_path_d2(), 3, Q(3, 10))
    traj = solve_branched(X, f, (Q(1), Q(1)))
    chains = {
        repr(chain(labels))
        for n in (1, 2, 3)
        for labels in itertools.product((1, 2), repeat=n)
    }
    for step in traj.steps:
        assert set(step) <= chains


def test_solve_branched_dimension_and_type_errors(ito_d2_n2):
    f = quad_table_2d()
    with pytest.raises(ValueError):
        solve_branched(ito_d2_n2, f, (Q(1),))
    Xbar = canonical_lift(walk_path_d1(), 2)
    with pytest.raises(TypeError):
        solve_branched(Xbar, ButcherTable.parse({1: ["y1"]}), (Q(1),))


# -- geometric solver ------------------------------------------------------


def test_geometric_F_single_letter_and_pair():
    f = quad_table_2d()
    fields = {B1: f.base[1], B2: f.base[2]}
    assert geometric_F(fields, Word((B1,))) == f.base[1]
    got = geometric_F(fields, Word((B2, B1)))
    assert got == apply_derivative(f.base[1], (f.base[2],))
    # component form f_2^a d_a f_1
    y = (Q(1, 4), Q(3))
    f1, f2 = f.base[1], f.base[2]
    want = tuple(
        sum(
            f2.components[a].eval(y) * f1.components[i].diff(a + 1).eval(y)
            for a in range(2)
        )
        for i in range(2)
    )
    assert got(y) == want


def test_geometric_F_unknown_letter():
    with pytest.raises(ValueError):
        geometric_F({B1: PolyVectorField.parse(["y1"])}, Word((B2,)))


def test_geometric_F_agrees_with_psi_adjoint_pullback():
    # the word fields built from {f_tau / sigma(tau)} match the tree-side
    # extension of psi^* on every word of grade <= 3
    f = ButcherTable.parse({1: ["y1^2 + 1"]})
    letters = enumerate_trees(3, 1)
    table = WordFieldTable(
        {t: butcher(f, t).scale(Q(1, symmetry_factor(t))) for t in letters}
    )
    for w in enumerate_words(3, 1, 3):
        lhs = table.field(w)
        rhs = butcher_h(f, psi_adjoint(w, 3, d=1))
        assert lhs == rhs, repr(w)


def test_geometric_F_agrees_with_psi_adjoint_pullback_d2():
    f = quad_table_2d()
    letters = enumerate_trees(2, 2)
    table = WordFieldTable(
        {t: butcher(f, t).scale(Q(1, symmetry_factor(t))) for t in letters}
    )
    for w in enumerate_words(2, 2, 2):
        assert table.field(w) == butcher_h(f, psi_adjoint(w, 2, d=2)), repr(w)


def test_solve_geometric_zero_fields_constant():
    Xbar = canonical_lift(walk_path_d2(), 2)
    zero = PolyVectorField.zero(2)
    traj = solve_geometric(Xbar, {B1: zero, B2: zero}, (Q(3), Q(4)))
    assert all(v == (Q(3), Q(4)) for v in traj.values)


def test_solve_geometric_linear_matches_branched_exactly():
    V1 = [[Q(0), Q(1)], [Q(1, 2), Q(0)]]
    V2 = [[Q(1), Q(0)], [Q(1, 3), Q(-1)]]
    f = ButcherTable(
        {1: PolyVectorField.linear(V1), 2: PolyVectorField.linear(V2)}
    )
    Xbar = canonical_lift(walk_path_d2(), 3)
    X = embed_geometric(Xbar)
    tg = solve_geometric(Xbar, {B1: f.base[1], B2: f.base[2]}, (Q(1), Q(1)))
    tb = solve_branched(X, f, (Q(1), Q(1)))
    assert tg.values == tb.values


def test_solve_geometric_type_error(ito_d2_n2):
    with pytest.raises(TypeError):
        solve_geometric(ito_d2_n2, {B1: PolyVectorField.parse(["y1"])}, (Q(1),))


# -- conversion of the equation --------------------------------------------


def test_convert_rde_letter_fields(encoded_d2_n2):
    f = quad_table_2d()
    fields = convert_rde(f, encoded_d2_n2)
    assert fields[B1] == f.base[1]
    assert fields[B2] == f.base[2]
    t21 = graft([B2], 1)
    if t21 in fields:
        assert fields[t21] == apply_derivative(f.base[1], (f.base[2],))


def test_convert_rde_d1_n3_field_count(encoded_d1_n3):
    f = ButcherTable.parse({1: ["y1^2"]})
    fields = convert_rde(f, encoded_d1_n3)
    assert len(fields) == sum(count_trees(n, 1) for n in (1, 2, 3)) == 4


def test_conversion_equality_n2(ito_d2_n2, encoded_d2_n2):
    f = quad_table_2d()
    xi = (Q(1, 3), Q(1, 5))
    tb = solve_branched(ito_d2_n2, f, xi)
    tg = solve_geometric(
        encoded_d2_n2.geometric, convert_rde(f, encoded_d2_n2), xi
    )
    assert tb.values == tg.values
    for sb, sg in zip(tb.steps, tg.steps):
        tot_b = tuple(sum(v[i] for v in sb.values()) for i in range(2))
        tot_g = tuple(sum(v[i] for v in sg.values()) for i in range(2))
        assert tot_b == tot_g


def test_conversion_equality_n3(ito_d1_n3, encoded_d1_n3):
    # grade 3 exercises repeated branches, where the automorphism weights
    # in the letter fields are what make the two sides agree term for term
    f = ButcherTable.parse({1: ["y1^2 + 1"]})
    xi = (Q(1, 3),)
    tb = solve_branched(ito_d1_n3, f, xi)
    tg = solve_geometric(
        encoded_d1_n3.geometric, convert_rde(f, encoded_d1_n3), xi
    )
    assert tb.values == tg.values


def test_conversion_equality_smooth_n3():
    f = ButcherTable.parse({1: ["y1^2 + 1"]})
    path = walk_path_d1()
    X = embed_geometric(canonical_lift(path, 3))
    res = encode(X)
    xi = (Q(1, 7),)
    tb = solve_branched(X, f, xi)
    tg = solve_geometric(res.geometric, convert_rde(f, res), xi)
    assert tb.values == tg.values


# -- the grafting identity -------------------------------------------------


def test_lgl_leaf_on_leaf():
    f = quad_table_2d()
    r = check_lgl(f, B1, B2, 4)
    assert r
    assert r.witness is None
    # hand check: D f_2 : (f_1) = f_{[b_1]_2}
    lhs = apply_derivative(f.base[2], (f.base[1],))
    assert lhs == butcher(f, graft([B1], 2))


def test_lgl_leaf_on_branch():
    f = quad_table_2d()
    assert check_lgl(f, B1, graft([B2], 1), 4)
    assert check_lgl(f, B2, graft([B1], 2), 4)


def test_lgl_exhaustive_grade_four():
    f = quad_table_2d()
    for lam in enumerate_trees(3, 2):
        for h in enumerate_trees(4 - lam.grade, 2):
            r = check_lgl(f, lam, h, 4)
            assert r, (repr(lam), repr(h), r.witness)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=24, max_size=24))
def test_lgl_random_quadratic_fields(coeffs):
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    it = iter(coeffs)
    base = {}
    for i in (1, 2):
        comps = []
        for _ in range(2):
            comps.append(Poly({m: Q(next(it)) for m in monos}, 2))
        base[i] = PolyVectorField(comps)
    f = ButcherTable(base)
    for lam in enumerate_trees(2, 2):
        for h in enumerate_trees(3 - lam.grade, 2):
            r = check_lgl(f, lam, h, 3)
            assert r, (repr(lam), repr(h), r.witness)


def test_lgl_forest_argument_second_derivative():
    f = quad_table_2d()
    assert check_lgl(f, Forest((B1, B2)), B1, 4)
    assert check_lgl(f, Forest((B1, B1)), B2, 4)


def test_lgl_unit_part():
    f = quad_table_2d()
    one = HElem.unit(2)
    assert check_lgl(f, B1, one, 4)
    assert check_lgl(f, Forest((B1, B2)), one, 4)


def test_lgl_corrupted_cache_reports_witness():
    f = quad_table_2d()
    t = graft([B1], 2)
    butcher(f, t)
    f.cache[t] = f.cache[t] + PolyVectorField.parse(["y1^3", "0*y1"])
    r = check_lgl(f, B1, B2, 4)
    assert not r
    assert r.witness["component"] == 1
    assert r.witness["lhs"] != r.witness["rhs"]


def test_lgl_grade_precondition():
    f = quad_table_2d()
    with pytest.raises(ValueError):
        check_lgl(f, B1, graft([B1, B2], 1), 3)


# -- controlled paths ------------------------------------------------------


def test_controlled_path_validation(ito_d2_n2):
    grid = ito_d2_n2.grid
    with pytest.raises(ValueError):
        ControlledPath(grid, [{} for _ in range(len(grid))], 2, 2)
    deep = {EMPTY_FOREST: (Q(0),), Forest((graft([B1], 1),)): (Q(1),)}
    with pytest.raises(ValueError):
        ControlledPath(grid, [deep] * len(grid), 2, 2)


def test_integrate_unit_gives_increments(ito_d2_n2):
    path = walk_path_d2()
    Z = constant_controlled(ito_d2_n2.grid, (Q(1),), 2, 2)
    for i in (1, 2):
        I = integrate_controlled(Z, ito_d2_n2, i)
        for k in range(len(path.grid)):
            assert I.state(k) == (path.values[k][i - 1] - path.values[0][i - 1],)
        assert I.coeff(0, Forest((leaf(i),))) == (Q(1),)


def test_integrate_polynomial_image_matches_taylor_sum(ito_d1_n3):
    # per-step increment sum_m sum_beta d^beta F / m! <X, [b_beta...]_i>
    path = walk_path_d1()
    F = PolyVectorField.parse(["y1^3"])
    Z = compose_controlled(F, path_controlled(path, 3))
    I = integrate_controlled(Z, ito_d1_n3, 1)
    for k in range(4):
        g = ito_d1_n3.increments[k]
        x = (path.values[k][0],)
        want = F.components[0].eval(x) * g.coeff(Forest((B1,)))
        want += mixed_derivative_oracle(
            F.components[0].eval, x, ((Q(1),),)
        ) * g.coeff(Forest((graft([B1], 1),)))
        want += (
            mixed_derivative_oracle(F.components[0].eval, x, ((Q(1),), (Q(1),)))
            / 2
        ) * g.coeff(Forest((graft([B1, B1], 1),)))
        got = I.state(k + 1)[0] - I.state(k)[0]
        assert got == want


def test_integrate_twice_nests(ito_d2_n2):
    # two steps of int (int dX^2) dX^1 unrolled by hand
    path = walk_path_d2()
    rows = path.values
    grid2 = SampledPath.over_labels(
        path.grid.times[:3], rows[:3], 2
    )
    X = ito_lift(grid2, 3, Q(3, 10))
    Z0 = constant_controlled(X.grid, (Q(1),), 3, 2)
    I1 = integrate_controlled(Z0, X, 2)
    I2 = integrate_controlled(I1, X, 1)
    t21 = graft([B2], 1)
    want = Q(0)
    for k in range(2):
        inner = rows[k][1] - rows[0][1]
        want += inner * (rows[k + 1][0] - rows[k][0])
        want += leftpoint_oracle(rows, t21, k, k + 1)
    assert I2.state(2) == (want,)
    assert I2.coeff(0, Forest((t21,))) == (Q(1),)


def test_integrate_errors(ito_d2_n2):
    Z = constant_controlled(ito_d2_n2.grid, (Q(1),), 2, 2)
    with pytest.raises(ValueError):
        integrate_controlled(Z, ito_d2_n2, 3)
    short = SampledPath.over_labels(
        [Q(0), Q(1)], [[Q(0), Q(0)], [Q(1), Q(1)]], 2
    )
    with pytest.raises(ValueError):
        integrate_controlled(Z, ito_lift(short, 2), 1)


def test_compose_identity_and_linear():
    path = walk_path_d2()
    Z = path_controlled(path, 2)
    same = compose_controlled(PolyVectorField.identity(2), Z)
    for k in range(len(path.grid)):
        assert same.state(k) == Z.state(k)
        for h in (Forest((B1,)), Forest((B2,))):
            assert same.coeff(k, h) == Z.coeff(k, h)
    A = PolyVectorField.linear([[Q(2), Q(1)], [Q(0), Q(3)]])
    lin = compose_controlled(A, Z)
    for k in range(len(path.grid)):
        assert lin.state(k) == A(Z.state(k))
        for h in (Forest((B1,)), Forest((B2,))):
            v = Z.coeff(k, h)
            assert lin.coeff(k, h) == (2 * v[0] + v[1], 3 * v[1])


def test_compose_square_coefficients():
    # phi(z) = z^2: <b_a b_b> picks up 2 z <b_a b_b, Z> + D^2-terms with the
    # multiplicity of distinct orderings
    times = [Q(0), Q(1)]
    z, a, b, c, p = Q(1, 3), Q(2), Q(5), Q(7, 2), Q(11)
    coeffs = {
        EMPTY_FOREST: (z,),
        Forest((B1,)): (a,),
        Forest((B2,)): (b,),
        Forest((B1, B2)): (c,),
        Forest((B1, B1)): (p,),
    }
    from hopfpath.roughpath import Grid

    Z = ControlledPath(Grid(times), [coeffs, coeffs], 3, 2)
    phi = PolyVectorField.parse(["y1^2"])
    out = compose_controlled(phi, Z)
    assert out.state(0) == (z * z,)
    assert out.coeff(0, Forest((B1,))) == (2 * z * a,)
    assert out.coeff(0, Forest((B1, B2))) == (2 * z * c + 2 * a * b,)
    assert out.coeff(0, Forest((B1, B1))) == (2 * z * p + a * a,)


def test_compose_dimension_error():
    path = walk_path_d2()
    Z = path_controlled(path, 2)
    with pytest.raises(ValueError):
        compose_controlled(PolyVectorField.parse(["y1"]), Z)


# -- the solution as a controlled path -------------------------------------


def test_solution_controlled_adjacent_residual_is_top_grade_tail(ito_d1_n3):
    f = ButcherTable.parse({1: ["y1^2 + 1"]})
    traj = solve_branched(ito_d1_n3, f, (Q(1, 3),))
    Z = solution_controlled(traj, f, 3, 1)
    for k in range(4):
        g = ito_d1_n3.increments[k]
        y = traj.values[k]
        transported = Q(0)
        for h, vec in Z.coeffs[k].items():
            transported += vec[0] * g.coeff(h)
        tail = sum(
            (Q(1, symmetry_factor(t)) * butcher(f, t).components[0].eval(y))
            * g.coeff(Forest((t,)))
            for t in enumerate_trees(3, 1)
            if t.grade == 3
        )
        assert traj.values[k + 1][0] - transported == tail


def test_consistency_residual_slopes_track_missing_grade():
    # smooth driver: log residual vs log span fits slope N - |h|
    M = 16
    times = [k / M for k in range(M + 1)]
    rows = [(math.sin(t),) for t in times]
    path = SampledPath.over_labels(times, rows, 1, mode=FLOAT)
    X = embed_geometric(canonical_lift(path, 3))
    f = ButcherTable.parse({1: ["y1^2 + 1"]})
    traj = solve_branched(X, f, (0.0,))
    Z = solution_controlled(traj, f, 3, 1)
    rep = consistency_report(Z, X)
    fits: dict = {}
    for rec in rep["pairs"]:
        for name, r in rec["residuals"].items():
            if r > 1e-13:
                fits.setdefault(name, []).append(
                    (math.log(rec["span"]), math.log(r))
                )
    expected = {"1": 3.0, "b_1": 2.0, "[b_1]_1": 1.0}
    for name, want in expected.items():
        pts = fits[name]
        n = len(pts)
        sx = sum(p[0] for p in pts)
        sy = sum(p[1] for p in pts)
        sxx = sum(p[0] ** 2 for p in pts)
        sxy = sum(p[0] * p[1] for p in pts)
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        assert abs(slope - want) <= 0.2, (name, slope)


def test_consistency_report_shape(ito_d2_n2):
    f = quad_table_2d()
    traj = solve_branched(ito_d2_n2, f, (Q(1, 3), Q(1, 5)))
    Z = solution_controlled(traj, f, 2, 2)
    rep = consistency_report(Z, ito_d2_n2)
    assert set(rep) == {"per_forest", "pairs", "max"}
    assert len(rep["pairs"]) == 10
    assert rep["max"] == max(rep["per_forest"].values())
    short = SampledPath.over_labels(
        [Q(0), Q(1)], [[Q(0), Q(0)], [Q(1), Q(1)]], 2
    )
    with pytest.raises(ValueError):
        consistency_report(Z, ito_lift(short, 2))


# -- level-2 shortcut ------------------------------------------------------


def test_sym_correction_fields_pinned():
    f = quad_table_2d()
    w = sym_correction_fields(f, [(1, 1), (1, 2)])
    assert w[(1, 1)] == apply_derivative(f.base[1], (f.base[1],)).scale(Q(1, 2))
    mixed = apply_derivative(f.base[1], (f.base[2],)) + apply_derivative(
        f.base[2], (f.base[1],)
    )
    assert w[(1, 2)] == mixed.scale(Q(1, 2))


def test_solve_simplified_matches_full_solvers(ito_d2_n2, encoded_d2_n2):
    f = quad_table_2d()
    xi = (Q(1, 3), Q(1, 5))
    sd = simplify_n2(encoded_d2_n2)
    tb = solve_branched(ito_d2_n2, f, xi)
    ts = solve_simplified(sd, f, xi)
    assert tb.values == ts.values
    assert any("s_" in name for step in ts.steps for name in step)


# -- trajectories ----------------------------------------------------------


def test_trajectory_csv_and_json(ito_d2_n2):
    f = quad_table_2d()
    traj = solve_branched(ito_d2_n2, f, (Q(1), Q(0)))
    csv_text = traj.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,y_1,y_2"
    assert lines[1].startswith("0,1,0")
    assert len(lines) == 6  # header plus one row per grid time
    obj = traj.to_obj()
    assert obj["e"] == 2
    assert len(obj["values"]) == 5
    assert len(obj["steps"]) == 4
    import json

    assert json.loads(traj.to_json()) == obj


def test_trajectory_starts_at_xi(ito_d1_n3):
    f = ButcherTable.parse({1: ["y1^2"]})
    traj = solve_branched(ito_d1_n3, f, (Q(2, 7),))
    assert traj.values[0] == (Q(2, 7),)


GOLDEN_FIELDS = {
    1: {1: ["1 + y1 - 1/2*y1^2"]},
    2: {1: ["1 + y1*y2", "y1 - 1/2*y2^2"], 2: ["y2^2 - y1", "1/3*y1^2 + 1"]},
}
GOLDEN_XI = {1: ("1/2",), 2: ("1", "-1/3")}

# first 16 hex digits of sha256(to_json() + to_csv()) per trajectory
GOLDEN = {
    (1, 3, 6, RATIONAL): {
        "branched": "e5fbf5e35a7fca2e",
        "geometric_encoded": "cd86701e086e0af9",
        "geometric_canonical": "ce1db0af00e95edb",
    },
    (1, 3, 6, FLOAT): {
        "branched": "56963a2dc8a68f45",
        "geometric_encoded": "1966a0c4169f4f0b",
        "geometric_canonical": "4303df1bc4a6ef6c",
    },
    (2, 2, 4, RATIONAL): {
        "branched": "124edf531f84008e",
        "geometric_encoded": "6ec1fdd3f7abc12f",
        "geometric_canonical": "5df5fdcef60b668d",
        "simplified_encoded": "fc7eb2f4e225a5dd",
        "simplified_canonical": "5df5fdcef60b668d",
    },
    (2, 2, 4, FLOAT): {
        "branched": "afcdb541f8c0d2d3",
        "geometric_encoded": "3a4b0f4e1dd5e2eb",
        "geometric_canonical": "b7d59b22216322eb",
        "simplified_encoded": "e85274da3df65c1d",
        "simplified_canonical": "b7d59b22216322eb",
    },
    (2, 3, 4, RATIONAL): {
        "branched": "d2e67145edbce31c",
        "geometric_encoded": "01ba6bd539eb0cdd",
        "geometric_canonical": "3256d69d3dcd27d9",
    },
    (2, 3, 4, FLOAT): {
        "branched": "c02c7a5b93258517",
        "geometric_encoded": "77dc37ff18483baf",
        "geometric_canonical": "f348ab68e6c69b3b",
    },
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "d{}-N{}-M{}-{}".format(*c))
def test_solver_outputs_are_pinned(case):
    """Every solver's values, step breakdown names and float bits, on small
    quadratic-field walks, against digests of outputs recorded earlier."""
    d, N, M, mode = case
    conv = Q if mode == RATIONAL else (lambda s: float(Q(s)))
    rng = Random(100 * d + 10 * N + M)
    rows = [[conv(0)] * d]
    for _ in range(M):
        rows.append([x + conv("1/2") * rng.choice((1, -1)) for x in rows[-1]])
    times = [conv(Q(k, M)) for k in range(M + 1)]
    path = SampledPath.over_labels(times, rows, d, mode)
    f = ButcherTable.parse(GOLDEN_FIELDS[d])
    xi = tuple(conv(s) for s in GOLDEN_XI[d])
    X = ito_lift(path, N)
    enc = encode(X, certify_result=False)
    Xc = canonical_lift(path, N)
    trajs = {
        "branched": solve_branched(X, f, xi),
        "geometric_encoded": solve_geometric(enc.geometric, convert_rde(f, enc), xi),
        "geometric_canonical": solve_geometric(Xc, {t: f.field(t) for t in Xc.letters}, xi),
    }
    if N == 2:
        trajs["simplified_encoded"] = solve_simplified(simplify_n2(enc), f, xi)
        canon = encode(embed_geometric(Xc), certify_result=False)
        trajs["simplified_canonical"] = solve_simplified(simplify_n2(canon), f, xi)
    got = {
        name: hashlib.sha256((t.to_json() + t.to_csv()).encode()).hexdigest()[:16]
        for name, t in trajs.items()
    }
    assert got == GOLDEN[case]


# -- order check -----------------------------------------------------------


def test_one_step_error_halves_at_rate_n_plus_one():
    # dY = Y dX, X_t = t: error against e^dt scales like dt^(N+1)
    for N in (2, 3):
        errs = []
        for dt in (Q(1, 2), Q(1, 4)):
            path = SampledPath.over_labels([Q(0), dt], [[Q(0)], [dt]], 1)
            X = embed_geometric(canonical_lift(path, N))
            f = ButcherTable.parse({1: ["y1"]})
            traj = solve_branched(X, f, (Q(1),))
            errs.append(abs(math.exp(float(dt)) - float(traj.values[-1][0])))
        ratio = errs[0] / errs[1]
        assert abs(ratio - 2 ** (N + 1)) <= 0.15 * 2 ** (N + 1), ratio
