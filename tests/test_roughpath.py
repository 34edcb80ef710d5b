"""Lift constructors, increment composition, validation, serialization."""

import functools
import itertools
import math
from fractions import Fraction as Q
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfpath.conversion import encode
from hopfpath.hopf import HElem, convolve, is_group_like
from hopfpath.linear import Context
from hopfpath.roughpath import (
    FLOAT,
    RATIONAL,
    BranchedRoughPath,
    GeometricRoughPath,
    Grid,
    SampledPath,
    _close,
    _RoughPathBase,
    canonical_lift,
    embed_geometric,
    first_non_character,
    gamma_to_level,
    geometricity_report,
    ibp_defect,
    ito_lift,
    roughpath_from_json,
    roughpath_to_json,
    validate,
)
from hopfpath.tensor import EMPTY_WORD, TensorElem, Word, concat, enumerate_words, is_tensor_group_like, tensor_exp
from hopfpath.trees import EMPTY_FOREST, Forest, Tree, chain, enumerate_forests, enumerate_trees, leaf, tree_factorial

from oracles import leftpoint_oracle, tree_factorial_oracle
from seams import count_calls, planted

B1, B2 = leaf(1), leaf(2)


def F(*trees):
    return Forest(trees)


def line_path(steps, d, slopes):
    """X(t) = t * slopes on [0, 1] sampled on a uniform grid."""
    times = [Q(k, steps) for k in range(steps + 1)]
    rows = [[t * s for s in slopes] for t in times]
    return SampledPath.over_labels(times, rows, d)


def two_step_path():
    # the worked 2-step example: X^1 = t, X^2 has a kink
    times = [Q(0), Q(1, 2), Q(1)]
    rows = [[Q(0), Q(0)], [Q(1, 2), Q(1, 3)], [Q(1), Q(1)]]
    return SampledPath.over_labels(times, rows, 2)


# -- containers ------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid([Q(0)])
    with pytest.raises(ValueError):
        Grid([Q(0), Q(0)])
    with pytest.raises(ValueError):
        Grid([Q(0), Q(1), Q(1, 2)])
    g = Grid([Q(0), Q(1, 2), Q(1)])
    assert g.steps == 2 and len(g) == 3
    with pytest.raises(AttributeError):
        g.times = ()


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(Grid([Q(0), Q(1)]), (B1,), [[Q(0)]])
    with pytest.raises(ValueError):
        SampledPath(Grid([Q(0), Q(1)]), (B1, B1), [[Q(0), Q(0)], [Q(1), Q(1)]])
    with pytest.raises(ValueError):
        SampledPath(Grid([Q(0), Q(1)]), (B1,), [[Q(0)], [Q(1)]], mode="decimal")
    p = two_step_path()
    assert p.d == 2 and p.has_label_basis()
    assert p.delta(0) == {B1: Q(1, 2), B2: Q(1, 3)}
    assert p.component(B2) == (Q(0), Q(1, 3), Q(1))


def test_sampled_path_extend():
    p = line_path(2, 1, [Q(1)])
    cherry = Tree(1, (B1,))
    q = p.extend([cherry], [[Q(0), Q(1, 8), Q(1, 2)]])
    assert q.basis == (B1, cherry)
    assert q.component(cherry) == (Q(0), Q(1, 8), Q(1, 2))
    assert not q.has_label_basis()


def test_csv_round_trip():
    p = two_step_path()
    text = p.to_csv()
    assert text.splitlines()[0] == "t,b_1,b_2"
    q = SampledPath.from_csv(text)
    assert q.grid == p.grid and q.basis == p.basis and q.values == p.values


def test_csv_tree_basis_round_trip():
    cherry = Tree(1, (B2,))
    p = SampledPath(Grid([Q(0), Q(1)]), (B1, cherry), [[Q(0), Q(0)], [Q(1), Q(-1, 3)]])
    text = p.to_csv()
    assert text.splitlines()[0] == "t,b_1,[b_2]_1"
    q = SampledPath.from_csv(text)
    assert q.basis == p.basis and q.values == p.values


def test_csv_bad_header():
    with pytest.raises(ValueError):
        SampledPath.from_csv("x,b_1\n0,0\n1,1\n")


# -- canonical lift --------------------------------------------------------


def test_canonical_lift_tree_factorial_identity():
    # for X(t) = t on [0,1] the branched functional of any tree is 1/tau!
    X = embed_geometric(canonical_lift(line_path(1, 1, [Q(1)]), 4))
    inc = X.increment(0, 1)
    for t in enumerate_trees(4, 1):
        assert inc.coeff(F(t)) == Q(1, tree_factorial(t))
        assert tree_factorial(t) == tree_factorial_oracle(t)
    assert inc.coeff(F(chain([1, 1, 1]))) == Q(1, 6)
    assert inc.coeff(F(Tree(1, (B1, B1)))) == Q(1, 3)


def test_canonical_lift_refinement_invariant():
    # sampling the same line on a finer grid composes to the same increment
    coarse = canonical_lift(line_path(1, 2, [Q(1), Q(-2)]), 3)
    fine = canonical_lift(line_path(5, 2, [Q(1), Q(-2)]), 3)
    assert fine.increment(0, 5).terms == coarse.increment(0, 1).terms


def test_canonical_lift_group_like_and_valid():
    X = canonical_lift(two_step_path(), 3)
    for g in X.increments:
        assert is_tensor_group_like(g, 3)
    report = validate(X)
    assert report["kind"] == "geometric"
    assert report["character"]["status"] == "pass"
    assert report["chen"]["status"] == "pass"
    assert report["chen"]["checked_triples"] == 1
    assert report["holder"]["max"] > 0.0


def test_canonical_lift_tree_letters():
    # graded letters: the per-step exponential covers mixed words up to N
    cherry = Tree(1, (B1,))
    p = SampledPath(
        Grid([Q(0), Q(1)]), (B1, cherry), [[Q(0), Q(0)], [Q(1, 2), Q(1, 3)]]
    )
    X = canonical_lift(p, 3)
    assert X.letters == (B1, cherry)
    inc = X.increments[0]
    assert inc.coeff(Word((B1,))) == Q(1, 2)
    assert inc.coeff(Word((cherry,))) == Q(1, 3)
    assert inc.coeff(Word((B1, B1))) == Q(1, 8)
    assert inc.coeff(Word((B1, cherry))) == Q(1, 12)
    assert inc.coeff(Word((cherry, B1))) == Q(1, 12)
    # total grade truncation drops the mixed words at N = 2
    X2 = canonical_lift(p, 2)
    assert X2.increments[0].coeff(Word((B1, cherry))) == 0
    assert X2.increments[0].coeff(Word((cherry,))) == Q(1, 3)
    # letters beyond the level are dropped from the alphabet
    X1 = canonical_lift(p, 1)
    assert X1.letters == (B1,)


def test_canonical_lift_bad_level():
    with pytest.raises(ValueError):
        canonical_lift(two_step_path(), 0)


def _tensor_exp_lift(path, N):
    """The lift as tensor_exp of each interval's grade-1 primitive."""
    letters = [t for t in path.basis if t.grade <= N]
    n = max(t.grade for t in letters)
    out = []
    for k in range(path.grid.steps):
        delta = path.delta(k)
        prim = TensorElem({Word((t,)): delta[t] for t in letters if delta[t] != 0}, path.d, n)
        out.append(tensor_exp(prim, N))
    return out


def _assert_same_as_tensor_exp(path, N):
    # keys in insertion order, scalar types and values: later float sums
    # iterate terms in order, so equal dicts are not enough
    X = canonical_lift(path, N)
    want = _tensor_exp_lift(path, N)
    assert len(X.increments) == len(want)
    for got, ref in zip(X.increments, want):
        assert (got.d, got.n) == (ref.d, ref.n)
        assert [(w, type(c), c) for w, c in got.terms.items()] == [
            (w, type(c), c) for w, c in ref.terms.items()
        ]
    return X


# a d = 2 path with a zero step and steps that move one component only
STALLING_ROWS = [
    [Q(0), Q(0)],
    [Q(1, 2), Q(0)],
    [Q(1, 2), Q(0)],
    [Q(1, 2), Q(-1, 3)],
    [Q(2), Q(1, 7)],
    [Q(-3, 5), Q(1, 7)],
]


def test_canonical_lift_matches_tensor_exp_exactly():
    p = SampledPath.over_labels([Q(k, 5) for k in range(6)], STALLING_ROWS, 2)
    for N in (2, 3, 4):
        X = _assert_same_as_tensor_exp(p, N)
        # the all-zero step is the unit, with the unit's Fraction(1)
        assert list(X.increments[1].terms.items()) == [(Word(()), Q(1))]

    # the tree-letter path that encode builds and lifts
    walk = SampledPath.over_labels(
        [Q(k, 4) for k in range(5)],
        [[Q(0), Q(0)], [Q(1, 2), Q(-1, 2)], [Q(1), Q(0)], [Q(1, 2), Q(1, 2)], [Q(1), Q(1)]],
        2,
    )
    result = encode(ito_lift(walk, 3))
    ext = result.extended_path
    assert not ext.has_label_basis()
    X = _assert_same_as_tensor_exp(ext, 3)
    assert [g.terms for g in X.increments] == [g.terms for g in result.geometric.increments]
    _assert_same_as_tensor_exp(ext, 2)


def test_canonical_lift_matches_tensor_exp_in_float_mode():
    # the criterion-09 walk, its encoded extension and its lift at N = 2
    rng = Random(0)
    M = 4096
    vals = [0.0]
    for _ in range(M):
        vals.append(vals[-1] + rng.choice((1.0, -1.0)) / 64.0)
    p = SampledPath.over_labels([k / M for k in range(M + 1)], [[v] for v in vals], 1, "float")
    _assert_same_as_tensor_exp(p, 2)
    ext = encode(ito_lift(p, 2), certify_result=False, check_cocycle=False).extended_path
    X = _assert_same_as_tensor_exp(ext, 2)
    assert all(type(c) is float for g in X.increments for w, c in g.terms.items() if w.letters)
    # beyond N = 2 the scales 1/k! and the product order are not exact
    rows = [[float(v) for v in row] for row in STALLING_ROWS]
    p = SampledPath.over_labels([k / 5 for k in range(6)], rows, 2, "float")
    for N in (3, 4):
        _assert_same_as_tensor_exp(p, N)
    # underflow: 2^-537 squared is the least subnormal, which 1/2 rounds to
    # 0; a step near 1e-170 squares to 0 itself
    tiny = 2.0**-537
    p = SampledPath.over_labels([0.0, 0.5, 1.0], [[0.0], [tiny], [tiny + 1e-170]], 1, "float")
    X = _assert_same_as_tensor_exp(p, 3)
    assert [len(g.terms) for g in X.increments] == [2, 2]


def test_tensor_elem_range_checks_survive_cached_bounds():
    w = Word((Tree(1, (leaf(3),)),))
    assert w.max_label() == 3 and w.max_letter_grade() == 2
    assert TensorElem({w: Q(1)}, 3, 2).terms == {w: Q(1)}
    with pytest.raises(ValueError, match="out of range"):
        TensorElem({w: Q(1)}, 2, 2)
    with pytest.raises(ValueError, match="grade above bound"):
        TensorElem({w: Q(1)}, 3, 1)
    # a fresh but equal word is checked the same way
    with pytest.raises(ValueError, match="out of range"):
        TensorElem({Word((Tree(1, (leaf(3),)),)): Q(1)}, 2, 2)
    assert chain([1, 3, 2]).max_label() == 3


# -- ito lift --------------------------------------------------------------


def test_ito_lift_single_step_kills_higher_trees():
    X = ito_lift(line_path(1, 2, [Q(1), Q(1)]), 3)
    inc = X.increments[0]
    for t in enumerate_trees(3, 2):
        if t.grade >= 2:
            assert inc.coeff(F(t)) == 0
    assert inc.coeff(F(B1)) == 1
    assert inc.coeff(F(B1, B2)) == 1


def test_ito_lift_two_step_area():
    X = ito_lift(two_step_path(), 2, Q(1, 2))
    inc = X.increment(0, 2)
    # left-point area picks up the first-step increment only
    assert inc.coeff(F(Tree(1, (B2,)))) == Q(1, 3) * Q(1, 2)
    assert inc.coeff(F(Tree(2, (B1,)))) == Q(1, 2) * Q(2, 3)
    assert inc.coeff(F(B1, B2)) == 1


def test_ito_lift_matches_leftpoint_oracle():
    times = [Q(0), Q(1, 4), Q(1, 3), Q(3, 4), Q(1)]
    rows = [
        [Q(0), Q(0)],
        [Q(1, 2), Q(-1, 4)],
        [Q(1, 3), Q(1, 5)],
        [Q(-1), Q(1)],
        [Q(2), Q(1, 2)],
    ]
    p = SampledPath.over_labels(times, rows, 2)
    X = ito_lift(p, 3)
    for s in range(5):
        for t in range(s, 5):
            inc = X.increment(s, t)
            for f in enumerate_forests(3, 2):
                assert inc.coeff(f) == leftpoint_oracle(rows, f, s, t)


@pytest.mark.parametrize("N, d", [(2, 3), (4, 1)])
def test_ito_lift_matches_leftpoint_oracle_in_other_dimensions(N, d):
    rng = Random(N * 10 + d)
    times = [Q(k, 4) for k in range(5)]
    rows = [[Q(0)] * d] + [[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)] for _ in range(4)]
    X = ito_lift(SampledPath.over_labels(times, rows, d), N)
    for s in range(5):
        for t in range(s, 5):
            inc = X.increment(s, t)
            for f in enumerate_forests(N, d):
                assert inc.coeff(f) == leftpoint_oracle(rows, f, s, t)


JOINT_LIFTS = {
    "canonical": lambda p, N: embed_geometric(canonical_lift(p, N)),
    "ito": lambda p, N: ito_lift(p, N, Q(1, N)),
}


def three_component_path(third):
    """two_step_path with a third component sampled as third."""
    p = two_step_path()
    rows = [list(r) + [c] for r, c in zip(p.values, third)]
    return SampledPath.over_labels(p.grid.times, rows, 3)


@pytest.mark.parametrize("lift", list(JOINT_LIFTS))
def test_joint_lift_restricts_to_the_lift_of_its_first_components(lift):
    # adding a component leaves every forest over the old labels unchanged
    N = 3
    X2 = JOINT_LIFTS[lift](two_step_path(), N)
    X3 = JOINT_LIFTS[lift](three_component_path([Q(0), Q(1, 5), Q(1)]), N)
    for s in range(3):
        for t in range(s + 1, 3):
            a, b = X2.increment(s, t), X3.increment(s, t)
            for h in enumerate_forests(N, 2):
                assert a.coeff(h) == b.coeff(h)
            assert any(b.coeff(h) != 0 for h in enumerate_forests(N, 3) if h.max_label() == 3)


@pytest.mark.parametrize("lift", list(JOINT_LIFTS))
def test_joint_lift_vanishes_on_forests_that_use_a_constant_component(lift):
    N = 3
    X = JOINT_LIFTS[lift](three_component_path([Q(4)] * 3), N)
    for s in range(3):
        for t in range(s + 1, 3):
            inc = X.increment(s, t)
            for h in enumerate_forests(N, 3):
                if h.max_label() == 3:
                    assert inc.coeff(h) == 0
                elif h.grade == 1:
                    assert inc.coeff(h) != 0


def test_ito_lift_character_and_chen_pass():
    report = validate(ito_lift(two_step_path(), 2))
    assert report["character"]["status"] == "pass"
    assert report["chen"]["status"] == "pass"


def test_ito_lift_fails_shuffle_test():
    X = ito_lift(two_step_path(), 2)
    report = geometricity_report(X)
    assert report["status"] == "fail"
    assert report["witness"] is not None
    assert report["defects"] > 0


def test_canonical_lift_passes_shuffle_test():
    X = embed_geometric(canonical_lift(two_step_path(), 3))
    report = geometricity_report(X)
    assert report["status"] == "pass" and report["defects"] == 0


def test_ibp_defect_is_quadratic_covariation():
    p = two_step_path()
    X = ito_lift(p, 2)
    for i, j in [(1, 1), (1, 2), (2, 2)]:
        qv = sum(p.delta(k)[leaf(i)] * p.delta(k)[leaf(j)] for k in range(2))
        assert ibp_defect(X, i, j) == -qv
    # geometric data has no defect
    Xg = embed_geometric(canonical_lift(p, 2))
    assert ibp_defect(Xg, 1, 2) == 0


def test_ito_lift_rejects_tree_basis():
    p = line_path(2, 1, [Q(1)]).extend([Tree(1, (B1,))], [[Q(0), Q(0), Q(0)]])
    with pytest.raises(ValueError):
        ito_lift(p, 2)


# -- embedding and increments ----------------------------------------------


def test_embed_geometric_symmetrizes_products():
    p = two_step_path()
    X = embed_geometric(canonical_lift(p, 2))
    inc = X.increments[0]
    d0 = p.delta(0)
    assert inc.coeff(F(B1, B2)) == d0[B1] * d0[B2]
    assert inc.coeff(F(Tree(1, (B2,)))) + inc.coeff(F(Tree(2, (B1,)))) == d0[B1] * d0[B2]
    assert validate(X)["character"]["status"] == "pass"


def test_embed_geometric_preconditions():
    with pytest.raises(TypeError):
        embed_geometric(ito_lift(two_step_path(), 2))
    cherry = Tree(1, (B1,))
    p = SampledPath(Grid([Q(0), Q(1)]), (B1, cherry), [[Q(0), Q(0)], [Q(1), Q(1)]])
    with pytest.raises(ValueError):
        embed_geometric(canonical_lift(p, 3))


def test_increment_endpoints_and_errors():
    X = ito_lift(two_step_path(), 2)
    assert X.increment(1, 1) == HElem.unit(2)
    assert X.increment(0, 1) is X.increments[0]
    with pytest.raises(IndexError):
        X.increment(0, 3)
    with pytest.raises(IndexError):
        X.increment(2, 1)
    assert X.increment(0, 2) == convolve(X.increments[0], X.increments[1], 2)


def test_chen_corruption_is_detected():
    X = ito_lift(line_path(4, 1, [Q(1)]), 2)
    bad = X.increment(0, 2) + HElem({F(Tree(1, (B1,))): Q(1, 7)}, 1)
    report = validate(planted(X, (0, 2), bad))
    assert report["chen"]["status"] == "fail"
    assert report["chen"]["witness"] == (0, 1, 2)


def test_character_corruption_is_detected():
    X = ito_lift(line_path(3, 1, [Q(1)]), 2)
    bad = dict(X.increments[1].terms)
    bad[F(B1, B1)] = Q(5)  # no longer the square of the level-1 value
    X.increments[1] = HElem(bad, 1)
    report = validate(X)
    assert report["character"]["status"] == "fail"
    assert report["character"]["witness"] == "adjacent increment 1"


@pytest.mark.parametrize("key", [F(B1, B1, B1), Word([B1] * 3)], ids=["forest", "word"])
def test_adjacent_key_above_the_level_is_not_a_character(key):
    """A key one grade past the level sits outside the context, so no
    product and no composed pair reaches it; the character check refuses
    it on the adjacent increment that holds it."""
    lift = ito_lift if isinstance(key, Forest) else canonical_lift
    X = lift(line_path(4, 1, [Q(1)]), 2)
    assert first_non_character(X) is None
    g = X.increments[1]
    X.increments[1] = type(g)({**g.terms, key: Q(5)}, *g.ctx)
    assert first_non_character(X) == 1
    report = validate(X)
    assert report["character"] == {"status": "fail", "witness": "adjacent increment 1"}
    assert report["chen"]["status"] == "pass"


@pytest.mark.parametrize("lift", [ito_lift, canonical_lift])
@pytest.mark.parametrize("unit, refused", [(1 + 1.5e-9, True), (1 + 5e-10, False)])
def test_float_character_unit_tolerance_is_absolute(lift, unit, refused):
    """A float increment's unit coefficient must lie within 1e-9 of 1; the
    relative tolerance of the product checks would allow about 2e-9."""
    times = [k / 4 for k in range(5)]
    rows = [[0.0, 0.0], [0.5, -0.25], [0.25, 0.5], [1.0, 0.75], [0.5, 1.0]]
    X = lift(SampledPath.over_labels(times, rows, 2, FLOAT), 3)
    assert first_non_character(X) is None
    g = X.increments[2]
    if isinstance(X, BranchedRoughPath):
        X.increments[2] = HElem({**g.terms, EMPTY_FOREST: unit}, g.d)
    else:
        X.increments[2] = TensorElem({**g.terms, EMPTY_WORD: unit}, g.d, g.n)
    assert first_non_character(X) == (2 if refused else None)


def test_float_closeness_of_non_finite_values():
    inf, nan = float("inf"), float("nan")
    assert not _close(5.0, inf, FLOAT) and not _close(-inf, 5.0, FLOAT)
    assert not _close(inf, -inf, FLOAT) and not _close(nan, nan, FLOAT)
    assert _close(inf, inf, FLOAT) and _close(-inf, -inf, FLOAT)
    assert _close(1.0, 1.0 + 1e-10, FLOAT) and not _close(1.0, 1.0 + 3e-9, FLOAT)


def test_float_increment_with_infinite_coefficient_is_not_a_character():
    """b_1 = inf with b_1 b_1 finite: the product check compares a finite
    value with inf, which used to count as close."""
    X = ito_lift(SampledPath.over_labels([0.0, 0.5, 1.0], [[0.0], [0.5], [1.0]], 1, FLOAT), 2)
    assert first_non_character(X) is None
    g = X.increments[1]
    X.increments[1] = HElem({**g.terms, F(B1): float("inf")}, 1)
    assert first_non_character(X) == 1


def test_wide_increment_on_fresh_long_path_is_left_fold():
    M = 1500
    rng = Random(5)
    vals = [0.0]
    for _ in range(M):
        vals.append(vals[-1] + rng.choice((1.0, -1.0)) / 32)
    path = SampledPath.over_labels([k / M for k in range(M + 1)], [[v] for v in vals], 1, FLOAT)
    X = ito_lift(path, 2)
    want = X.increments[0]
    for g in X.increments[1:]:
        want = convolve(want, g, 2)
    assert X.increment(0, M).terms == want.terms
    assert X.increment(5, 9) == convolve(X.increment(5, 8), X.increments[8], 2)


# -- level arithmetic ------------------------------------------------------


def test_gamma_to_level_pinned():
    assert gamma_to_level(Q(1, 2)) == 2
    assert gamma_to_level(0.3) == 3
    assert gamma_to_level(Q(1, 4)) == 4
    assert gamma_to_level(Q(2, 5)) == 2
    for bad in (0, 1, Q(3, 2), -0.1):
        with pytest.raises(ValueError):
            gamma_to_level(bad)


@given(st.fractions(min_value=Q(1, 12), max_value=Q(11, 12)))
def test_gamma_to_level_brackets_one(g):
    N = gamma_to_level(g)
    assert N * g <= 1 < (N + 1) * g


# -- scalar modes and serialization ----------------------------------------


def test_float_mode_lift_validates():
    times = [k / 8 for k in range(9)]
    rows = [[(k / 8) ** 2, 0.25 * (k / 8)] for k in range(9)]
    p = SampledPath.over_labels(times, rows, 2, mode="float")
    X = canonical_lift(p, 2, Q(1, 2))
    report = validate(X)
    assert report["character"]["status"] == "pass"
    assert report["chen"]["status"] == "pass"


def test_json_round_trip_branched():
    X = ito_lift(two_step_path(), 2, Q(1, 2))
    Y = roughpath_from_json(roughpath_to_json(X))
    assert isinstance(Y, BranchedRoughPath)
    assert Y.N == 2 and Y.gamma == Q(1, 2) and Y.d == 2
    assert Y.grid == X.grid
    assert all(a.terms == b.terms for a, b in zip(X.increments, Y.increments))


def test_json_round_trip_geometric():
    cherry = Tree(1, (B1,))
    p = SampledPath(
        Grid([Q(0), Q(1, 2), Q(1)]),
        (B1, cherry),
        [[Q(0), Q(0)], [Q(1, 2), Q(1, 4)], [Q(1), Q(1)]],
    )
    X = canonical_lift(p, 3)
    Y = roughpath_from_json(roughpath_to_json(X))
    assert isinstance(Y, GeometricRoughPath)
    assert Y.letters == (B1, cherry)
    assert all(a.terms == b.terms for a, b in zip(X.increments, Y.increments))


# -- property tests --------------------------------------------------------


@st.composite
def rational_rows(draw, steps, d):
    num = st.integers(min_value=-8, max_value=8)
    return [[Q(draw(num), 4) for _ in range(d)] for _ in range(steps + 1)]


@given(rational_rows(steps=3, d=2))
@settings(max_examples=25, deadline=None)
def test_ito_increments_are_characters(rows):
    times = [Q(k, 3) for k in range(4)]
    X = ito_lift(SampledPath.over_labels(times, rows, 2), 2)
    for g in X.increments:
        assert is_group_like(g, 2)
    full = X.increment(0, 3)
    assert is_group_like(full, 2)


@given(rational_rows(steps=3, d=2))
@settings(max_examples=25, deadline=None)
def test_ibp_defect_identity_random(rows):
    times = [Q(k, 3) for k in range(4)]
    p = SampledPath.over_labels(times, rows, 2)
    X = ito_lift(p, 2)
    qv = sum(p.delta(k)[B1] * p.delta(k)[B2] for k in range(3))
    assert ibp_defect(X, 1, 2) == -qv


@pytest.mark.parametrize("lift", [ito_lift, canonical_lift])
def test_float_lift_refuses_a_path_past_the_float_range(lift):
    def walk(h):
        return SampledPath.over_labels([0.0, 0.5, 1.0, 1.5], [[0.0], [h], [2 * h], [h]], 1, FLOAT)

    # (2V)^2 is 3.6e300: every Chen sum of the level-2 lift stays finite
    assert validate(lift(walk(1e150), 2))["chen"]["status"] == "pass"
    with pytest.raises(ValueError, match=r"^the path varies by 3e\+154 in total, too much for a float lift at level 2$"):
        lift(walk(1e154), 2)
    with pytest.raises(ValueError, match="varies by inf in total"):
        lift(walk(float("inf")), 1)
    # exact mode has no range to leave
    exact = SampledPath.over_labels([0, 1, 2], [[0], [Q(10) ** 400], [0]], 1)
    assert lift(exact, 3).increments[0].max_grade() == 3


def test_holder_sweep_takes_exact_values_past_the_float_range():
    # times 1e-999 apart and values 1e999 are exact, but not floats
    path = SampledPath.over_labels([0, Q("1e-999"), 1, Q("1e999")], [[0], [1], [Q("1e999")], [0]], 1)
    report = validate(ito_lift(path, 2))
    assert report["character"]["status"] == report["chen"]["status"] == "pass"
    assert report["holder"]["max"] == float("inf")
    assert report["holder"]["per_basis"]["b_1"] == float("inf")


# -- Chen and Hölder on pair rows against the element loops they replaced ----


def _elems_close(a, b) -> bool:
    keys = set(a.terms) | set(b.terms)
    return all(_close(a.terms.get(k, 0), b.terms.get(k, 0), FLOAT) for k in keys)


def pair_increments(X) -> dict:
    """X.increment(s, t) of every grid pair, each read once."""
    return {(s, t): X.increment(s, t) for s, t in itertools.combinations(range(X.grid.steps + 1), 2)}


def chen_reference(X) -> dict:
    """Chen as validate checked it on elements: per triple, X_st against
    X._compose(X_su, X_ut), by terms == in rational mode and key by key
    with _close in float mode."""
    eq = (lambda a, b: a.terms == b.terms) if X.mode == RATIONAL else _elems_close
    increments = pair_increments(X)
    chen = {"status": "pass", "witness": None, "checked_triples": 0}
    for s, u, t in itertools.combinations(range(X.grid.steps + 1), 3):
        chen["checked_triples"] += 1
        lhs = increments[s, t]
        rhs = X._compose(increments[s, u], increments[u, t])
        if not eq(lhs, rhs):
            chen["status"] = "fail"
            chen["witness"] = (s, u, t)
            break
    return chen


def holder_reference(X) -> dict:
    """The Hölder section as validate computed it on elements, from
    X.increment(s, t).coeff(key) per pair and Hölder key."""
    increments = pair_increments(X)
    M = X.grid.steps
    names = [(key, repr(key), key.grade) for key in X.holder_keys()]
    gamma = float(X.gamma)
    per = {}
    for s, t in itertools.combinations(range(M + 1), 2):
        inc = increments[s, t]
        try:
            dt = float(X.grid.times[t] - X.grid.times[s])
        except OverflowError:  # exact times past the float range
            dt = math.inf
        for key, name, grade in names:
            try:
                v = abs(float(inc.coeff(key)))
                if v == 0.0:
                    continue
                ratio = v / dt ** (gamma * grade)
            except (OverflowError, ZeroDivisionError):  # values or time steps past the float range
                ratio = math.inf
            if ratio > per.get(name, 0.0):
                per[name] = ratio
    return {"gamma": gamma, "per_basis": per, "max": max(per.values(), default=0.0)}


def validate_reference(X) -> dict:
    k = first_non_character(X)
    return {
        "kind": X.kind,
        "character": {"status": "pass", "witness": None} if k is None else {"status": "fail", "witness": f"adjacent increment {k}"},
        "chen": chen_reference(X),
        "holder": holder_reference(X),
    }


def _rational_walk(M, seed):
    rng = Random(seed)
    rows = [[Q(0), Q(0)]]
    for _ in range(M):
        rows.append([v + Q(rng.randint(-4, 4), rng.randint(1, 5)) for v in rows[-1]])
    return SampledPath.over_labels([Q(k, M) for k in range(M + 1)], rows, 2)


def _float_rows(M, seed):
    rng = Random(seed)
    rows = [[0.0, 0.0]]
    for _ in range(M):
        rows.append([v + rng.gauss(0.0, 0.3) for v in rows[-1]])
    return [k / M for k in range(M + 1)], rows


@functools.lru_cache(maxsize=None)
def _chen_fixture(name):
    """Each fixture once; no test changes the path it returns."""
    if name == "ito_rational":
        return ito_lift(_rational_walk(8, 1), 3)
    if name == "encoded_letters":
        return encode(ito_lift(_rational_walk(5, 2), 3)).geometric
    if name == "ito_float":
        return ito_lift(SampledPath.over_labels(*_float_rows(7, 3), 2, FLOAT), 3)
    if name == "canonical_float":
        return canonical_lift(SampledPath.over_labels(*_float_rows(7, 4), 2, FLOAT), 3)
    # float data in a rational-mode path is compared with ==: float rounding
    # breaks Chen, while dyadic steps, which sum and multiply exactly, keep it
    times, rows = _float_rows(6, 5)
    if name == "ito_dyadic_floats_rational_mode":
        rows = [[round(v * 8) / 8 for v in row] for row in rows]
    else:
        assert name == "ito_float_data_rational_mode"
    return ito_lift(SampledPath.over_labels(times, rows, 2), 3)


CHEN_FIXTURES = [
    "ito_rational",
    "encoded_letters",
    "ito_float",
    "canonical_float",
    "ito_dyadic_floats_rational_mode",
    "ito_float_data_rational_mode",
]


@pytest.mark.parametrize("name", CHEN_FIXTURES)
def test_chen_rows_match_the_element_loop(name):
    X = _chen_fixture(name)
    report = validate(X)
    assert report == validate_reference(X)
    if name != "ito_float_data_rational_mode":
        M = X.grid.steps
        assert report["chen"] == {"status": "pass", "witness": None, "checked_triples": math.comb(M + 1, 3)}
    assert name != "encoded_letters" or X.letter_bound == 3


def test_holder_rows_match_the_element_loop_past_the_float_range():
    # exact times whose steps overflow or underflow a float, and values
    # that overflow one: every inf branch of the sweep is taken
    path = SampledPath.over_labels([0, Q("1e-999"), 1, Q("1e999")], [[0], [1], [Q("1e999")], [0]], 1)
    for X in (ito_lift(path, 2), canonical_lift(path, 2)):
        report = validate(X)
        assert report == validate_reference(X)
        assert report["holder"]["max"] == math.inf


@pytest.mark.parametrize("lift", [ito_lift, canonical_lift], ids=["ito", "canonical"])
def test_validate_reads_every_pair_from_the_row_fold(lift, monkeypatch):
    # M=6: the fold composes the 15 pairs past the adjacent ones and Chen
    # multiplies the rows of the 35 triples; no element is composed
    X = lift(_rational_walk(6, 7), 3)
    calls = count_calls(monkeypatch, convolve, concat, (Context, "times"), (_RoughPathBase, "increment"))
    report = validate(X)
    assert report["chen"] == {"status": "pass", "witness": None, "checked_triples": 35}
    assert calls == {"convolve": 0, "concat": 0, "Context.times": 15 + 35, "_RoughPathBase.increment": 0}


def _corruption(rng, X):
    """(pair, key, new coefficient) for one coefficient of a composed pair:
    mostly a basis key of the kernel's context, sometimes a key one grade
    past it; shifts of every size, to zero, and in rational mode sometimes
    by a float."""
    M = X.grid.steps
    s = rng.randrange(M - 1)
    pair = (s, rng.randrange(s + 2, M + 1))
    g = X.increment(*pair)
    if isinstance(X, BranchedRoughPath):
        keys = enumerate_forests(X.N, X.d)
        past = F(*[B1] * (X.N + 1))
    else:
        keys = enumerate_words(X.N, X.d, X.letter_bound)
        past = Word([B2] * (X.N + 1))
    key = past if rng.random() < 0.1 else rng.choice(keys)
    c = g.coeff(key)
    kind = rng.choice(("tiny", "small", "large", "zero"))
    if kind == "zero":
        return pair, key, 0
    if X.mode == FLOAT:
        shift = {"tiny": 1e-13, "small": 1e-7, "large": 0.5}[kind]
        return pair, key, c * (1 + shift) if c and rng.random() < 0.5 else c + shift
    shift = {"tiny": Q(1, 2**40), "small": Q(rng.randint(1, 9), 7), "large": 0.25}[kind]
    return pair, key, c + shift


def _with_term(g, key, value):
    return type(g)({**g.terms, key: value}, *g.ctx)


def _with_adjacent(X, k, element):
    """X with adjacent increment k replaced by element."""
    increments = list(X.increments)
    increments[k] = element
    return type(X)(X.N, X.gamma, X.grid, increments, X.d, X.mode, *(getattr(X, f) for f in X.tree_fields))


@pytest.mark.parametrize("name", CHEN_FIXTURES)
def test_chen_rows_find_the_element_loop_witness_on_corrupted_caches(name):
    X = _chen_fixture(name)
    rng = Random(name)
    seen = set()
    for _ in range(30):
        pair, key, value = _corruption(rng, X)
        if key.grade > X.N:
            # no composed pair holds a key past the level: planted on the
            # pair's first adjacent increment, the character check refuses
            # it unless the value is 0, which the element drops.  Float data
            # in rational mode already fails there, at the first step.
            s, base = pair[0], first_non_character(X)
            Y = _with_adjacent(X, s, _with_term(X.increments[s], key, value))
            want = base if value == 0 else min(s, math.inf if base is None else base)
            assert first_non_character(Y) == want, (pair, key, value)
            continue
        Y = planted(X, pair, _with_term(X.increment(*pair), key, value))
        got = validate(Y)["chen"]
        assert got == chen_reference(Y), (pair, key, value)
        seen.add(got["status"])
    assert "fail" in seen
