"""Rough paths keep their adjacent increments as columns by context position.

The lifts, the final lift that `encode` builds, the level-2 shortcut and the
three solvers read and write columns; `oracles` keeps the per-step dict
pipelines they replaced.  Each is checked against its reference in keys,
key order, scalar types and float bits, for N = 1..4, d = 1, 2, in both
scalar modes; every pair row against `Context.row_of` of the composed
element; paths built from elements, one holding a present 0 and one a key
above the level; and the extraction's order of summation where a psi image
has more terms than a step's keys.  The float chain of criterion 09 does
the same dict and element work at any grid size.
"""

import pytest

from hopfpath.conversion import encode, extract_extended_path, simplify_n2
from hopfpath.hopf import HElem
from hopfpath.linear import Linear
from hopfpath.rde import ButcherTable, WordFieldTable, convert_rde, solve_branched, solve_geometric, solve_simplified
from hopfpath.roughpath import (
    FLOAT,
    BranchedRoughPath,
    GeometricRoughPath,
    Grid,
    canonical_lift,
    first_non_character,
    ito_lift,
    validate,
)
from hopfpath.tensor import TensorElem, Word
from hopfpath.trees import EMPTY_FOREST, Canonical, Forest, Tree, enumerate_trees, leaf, trees_of_grade

from oracles import (
    _pairings_reference,
    canonical_increments_reference,
    ito_increments_reference,
    simplify_reference,
    solve_branched_reference,
    solve_geometric_reference,
    solve_simplified_reference,
)
from seams import count_calls
from test_step_loops import _criterion_09, assert_same_elements, assert_same_trajectory, typed, walk

# linear fields, so the Butcher and word fields stay small up to level 4
FIELDS = {1: ["y1 - 1/2*y2", "y2"], 2: ["1/3*y1", "-y2"]}


def assert_pair_rows_are_the_elements_rows(X, in_element_order=True):
    """Every pair row is ctx.row_of(X.increment(s, t).terms): an adjacent one
    with the same terms, types and bits, in the path's key order, which is
    the element's own when in_element_order; a folded one, in basis order,
    with equal values."""
    ctx = X.context()
    for s, t, row in X.pair_rows():
        want = ctx.row_of(X.increment(s, t).terms)
        assert (row.den, row.values, row.size) == (want.den, want.values, want.size), (s, t)
        if t == s + 1:
            assert list(row.values) == [p for p in X.columns if p in row.values], s
            assert typed(map(row.values.get, want.values)) == typed(want.values.values()), s
            assert list(row.values) == list(want.values) or not in_element_order, s


@pytest.mark.parametrize("kind", ["float", "exact"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_columns_match_the_per_step_references(N, d, kind):
    path = walk(10 * N + d, d, 8, kind)
    X = ito_lift(path, N)
    assert_same_elements(X.increments, ito_increments_reference(path, N))
    assert_same_elements(canonical_lift(path, N).increments, canonical_increments_reference(path, N))
    result = encode(X, certify_result=False, check_cocycle=False)
    Xbar = result.geometric
    assert_same_elements(Xbar.increments, canonical_increments_reference(result.extended_path, N))
    assert_pair_rows_are_the_elements_rows(X)
    assert_pair_rows_are_the_elements_rows(Xbar)
    f = ButcherTable.parse({i: FIELDS[i] for i in range(1, d + 1)})
    xi = (1.0, -0.5) if kind == "float" else (1, -2)
    assert_same_trajectory(solve_branched(X, f, xi), solve_branched_reference(X, f, xi))
    table = WordFieldTable(convert_rde(f, result))
    assert_same_trajectory(solve_geometric(Xbar, table, xi), solve_geometric_reference(Xbar, table, xi))
    if N == 2:
        sd = simplify_n2(result)
        word_incs, sym_incs = simplify_reference(result)
        assert_same_elements(sd.xhat.increments, word_incs)
        assert sd.symmetric_increments == sym_incs
        assert [typed(row.values()) for row in sd.symmetric_increments] == [typed(row.values()) for row in sym_incs]
        assert_same_trajectory(solve_simplified(sd, f, xi), solve_simplified_reference(sd, f, xi))


def _elements_and_path(cls, incs, *fields):
    grid = Grid([k / len(incs) for k in range(len(incs) + 1)])
    return cls(1 if cls is BranchedRoughPath else 2, 0.5, grid, incs, 2, FLOAT, *fields)


def test_element_built_path_keeps_a_present_zero():
    b1, b2 = Forest((leaf(1),)), Forest((leaf(2),))
    incs = [HElem._trusted({EMPTY_FOREST: 1.0, b1: 0.25, b2: 0.0}, 2), HElem._trusted({b2: -0.5, EMPTY_FOREST: 1.0}, 2)]
    X = _elements_and_path(BranchedRoughPath, incs)
    assert X.increments == tuple(incs) and X.increments[0] is incs[0]
    index = X.context().index
    # columns in first-seen key order; the present 0 is a value, not None
    assert list(X.columns) == [index[EMPTY_FOREST], index[b1], index[b2]]
    assert typed(X.columns[index[b2]]) == typed([0.0, -0.5]) and X.columns[index[b1]] == [0.25, None]
    # the second element lists b_2 before the unit; its row has the key order
    assert_pair_rows_are_the_elements_rows(X, in_element_order=False)
    f = ButcherTable.parse(FIELDS)
    assert_same_trajectory(solve_branched(X, f, (1.0, 2.0)), solve_branched_reference(X, f, (1.0, 2.0)))
    # a word's present 0 gets a weight, and so a slot
    w1, w12 = Word((leaf(1),)), Word((leaf(1), leaf(2)))
    incs = [TensorElem._trusted({w12: 0.0, w1: 0.5}, 2, 1), TensorElem._trusted({w1: -0.25}, 2, 1)]
    Xbar = _elements_and_path(GeometricRoughPath, incs, (leaf(1), leaf(2)))
    assert typed(Xbar.columns[Xbar.context().index[w12]]) == typed([0.0, None])
    assert_pair_rows_are_the_elements_rows(Xbar)
    table = WordFieldTable({leaf(1): f.base[1], leaf(2): f.base[2]})
    got = solve_geometric(Xbar, table, (1.0, 2.0))
    assert_same_trajectory(got, solve_geometric_reference(Xbar, table, (1.0, 2.0)))


def test_element_built_path_skips_a_key_above_the_level_in_its_columns():
    b1, above = Forest((leaf(1),)), Forest((leaf(1), leaf(2)))  # grade 2 at level 1
    incs = [HElem({EMPTY_FOREST: 1.0, b1: 0.5}, 2), HElem({EMPTY_FOREST: 1.0, b1: 0.25, above: 3.0}, 2)]
    X = _elements_and_path(BranchedRoughPath, incs)
    assert above not in X.context().index and len(X.columns) == 2
    assert X.increments[1] is incs[1] and above in X.increments[1].terms
    assert first_non_character(X) == 1
    assert validate(X)["character"] == {"status": "fail", "witness": "adjacent increment 1"}
    # the adjacent row counts the key in its size, as row_of does
    assert_pair_rows_are_the_elements_rows(X)


def test_shortcut_adds_a_corrected_word_in_key_order():
    # one key order per path: on a step where label 1 stands still the plain
    # lift lacks b_1 (x) b_2 and b_2 (x) b_1, and the area correction adds
    # them at their positions, where the per-step loop appended them last;
    # the terms, types and bits are the loop's
    deltas, areas = [(0.5, 0.25), (0.0, 0.5)], [1 / 64, 1 / 32]
    incs = []
    for (x1, x2), a in zip(deltas, areas):
        delta = {1: x1, 2: x2}
        terms = {EMPTY_FOREST: 1.0, Forest((leaf(1),)): x1, Forest((leaf(2),)): x2}
        for i, j in [(1, 1), (1, 2), (2, 2)]:
            terms[Forest((leaf(i), leaf(j)))] = delta[i] * delta[j]
        for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            terms[Forest((Tree(i, (leaf(j),)),))] = delta[i] * delta[j] / 2 + (a if i < j else -a if i > j else 0.0)
        incs.append(HElem(terms, 2))
    X = BranchedRoughPath(2, 0.5, Grid([0.0, 0.5, 1.0]), incs, 2, FLOAT)
    result = encode(X, certify_result=False, check_cocycle=False)
    sd = simplify_n2(result)
    (want, want_still), _ = simplify_reference(result)
    got, got_still = sd.xhat.increments
    assert list(got.terms) == list(want.terms) and typed(got.terms.values()) == typed(want.terms.values())
    b12, b21, b22 = (Word((leaf(i), leaf(j))) for i, j in [(1, 2), (2, 1), (2, 2)])
    assert list(want_still.terms)[-3:] == [b22, b21, b12]
    assert list(got_still.terms)[-3:] == [b12, b21, b22]
    assert got_still.terms == want_still.terms
    assert typed(map(got_still.terms.get, want_still.terms)) == typed(want_still.terms.values())


def test_extraction_pairs_over_the_step_keys_when_the_image_has_more_terms():
    # psi([b_1 b_2]_1) without its letter has four words; a step of a level-3
    # lift that holds three of them sums over its own keys, in the path's
    # order, as linear.dot does, and here the two orders round apart
    b1, b2 = leaf(1), leaf(2)
    tau = next(t for t in trees_of_grade(3, 2) if repr(t) == "[b_1 b_2]_1")
    step = {Word((b2, Tree(1, (b1,)))): 1.0, Word((b1, Tree(1, (b2,)))): 1e16, Word((b2, b1, b1)): -1e16}
    grid, letters = Grid([0.0, 1.0]), enumerate_trees(2, 2)
    partial = GeometricRoughPath(3, 0.25, grid, [TensorElem._trusted(step, 2, 2)], 2, FLOAT, letters)
    X = BranchedRoughPath(3, 0.25, grid, [HElem({EMPTY_FOREST: 1.0}, 2)], 2, FLOAT)
    got = extract_extended_path(X, partial)[tau]
    ((_, _, _, ((lhs, rhs),)),) = _pairings_reference(X, partial, 3, [Forest((tau,))], [(0, 1)])
    assert typed(got) == typed([lhs - rhs]) == typed([0.0])  # 1.0 + 1e16 - 1e16; the image's order gives 1.0


def test_increments_are_a_read_only_view_built_once():
    X = ito_lift(walk(1, 2, 6, "float"), 2)
    view = X.increments
    assert type(view) is tuple and X.increments is view
    with pytest.raises(TypeError):
        X.increments[0] = view[1]
    with pytest.raises(AttributeError):
        X.increments = list(view)


def test_float_chain_does_no_per_step_dict_or_element_work(monkeypatch):
    # the criterion-09 unit hashes no Word, Tree or Forest key and builds no
    # trusted element per step: its counts at M = 1024 are those at M = 256
    _criterion_09(1, 64)  # contexts, tables and psi images built once

    def counts(M):
        with monkeypatch.context() as patch:
            calls = count_calls(patch, (Canonical, "__hash__"), (Linear, "_trusted"))
            _criterion_09(1, M)
        return dict(calls)

    small, large = counts(256), counts(1024)
    assert small == large and set(small) == {"Canonical.__hash__", "Linear._trusted"}
