"""Lift constructors, increment composition, validation, serialization."""

from fractions import Fraction as Q
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfpath.conversion import encode
from hopfpath.hopf import HElem, convolve, is_group_like
from hopfpath.roughpath import (
    FLOAT,
    BranchedRoughPath,
    GeometricRoughPath,
    Grid,
    SampledPath,
    canonical_lift,
    coarsen,
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
from hopfpath.tensor import EMPTY_WORD, TensorElem, Word, is_tensor_group_like, tensor_exp
from hopfpath.trees import EMPTY_FOREST, Forest, Tree, chain, enumerate_forests, enumerate_trees, leaf, tree_factorial

from oracles import leftpoint_oracle, tree_factorial_oracle

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
    X.increment(0, 4)  # populate the pair cache
    good = X._cache[(0, 2)]
    X._cache[(0, 2)] = good + HElem({F(Tree(1, (B1,))): Q(1, 7)}, 1)
    report = validate(X)
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
    assert set(X._cache) == {(0, t) for t in range(2, M + 1)}
    # a narrower pair is served from the cache, a wider start extends it
    assert X.increment(0, 700) is X._cache[(0, 700)]
    assert X.increment(5, 9) == convolve(X.increment(5, 8), X.increments[8], 2)


def test_coarsen_composes_strides():
    p = line_path(4, 2, [Q(1), Q(3)])
    X = ito_lift(p, 2)
    Y = coarsen(X, 2)
    assert Y.grid.times == (Q(0), Q(1, 2), Q(1))
    assert Y.increments[0] == X.increment(0, 2)
    assert Y.increments[1] == X.increment(2, 4)
    # uneven stride keeps the final time
    Z = coarsen(X, 3)
    assert Z.grid.times == (Q(0), Q(3, 4), Q(1))
    with pytest.raises(ValueError):
        coarsen(X, 0)


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
