"""The lifts, the level-2 shortcut and the Euler solvers against the per-step
loops they replaced (`oracles`): the same increments, trajectories and
breakdowns, with the same keys in the same order, the same scalar types and
the same float reprs; and in float mode no Fraction arithmetic per step."""

import fractions
import functools
import hashlib
import re
import sys
from fractions import Fraction as Q
from random import Random

import pytest

from hopfpath.conversion import base_path_of, encode, extract_extended_path, simplify_n2
from hopfpath.hopf import HElem
from hopfpath.linear import Context
from hopfpath.rde import (
    ButcherTable,
    WordFieldTable,
    _euler,
    convert_rde,
    solve_branched,
    solve_geometric,
    solve_simplified,
)
from hopfpath.roughpath import (
    FLOAT,
    RATIONAL,
    BranchedRoughPath,
    GeometricRoughPath,
    Grid,
    SampledPath,
    canonical_lift,
    ito_lift,
)
from hopfpath.tensor import TensorElem, Word
from hopfpath.trees import Forest, leaf, trees_of_grade

from oracles import (
    _pairings_reference,
    canonical_increments_reference,
    euler_reference,
    ito_increments_reference,
    simplify_reference,
    solve_branched_reference,
    solve_geometric_reference,
    solve_simplified_reference,
)

# float: floats in float mode; exact: Fractions in rational mode; mixed:
# floats in a rational-mode path
MODES = ("float", "exact", "mixed")
STILL = (3, 4)  # steps on which every walk stands still


def walk(seed: int, d: int, M: int, kind: str, still=STILL) -> SampledPath:
    """A walk of M steps in d components that stands still on the steps in
    still: steps of random size, or +-1/64 for kind "dyadic"."""
    rng = Random(seed)
    exact = kind == "exact"
    rows = [[Q(0) if exact else 0.0] * d]
    for k in range(M):
        if k in still:
            step = [Q(0) if exact else 0.0] * d
        elif exact:
            step = [Q(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d)]
        elif kind == "dyadic":
            step = [rng.choice((1.0, -1.0)) / 64 for _ in range(d)]
        else:
            step = [rng.uniform(-0.3, 0.3) for _ in range(d)]
        rows.append([a + b for a, b in zip(rows[-1], step)])
    times = [Q(k, M) for k in range(M + 1)] if exact else [k / M for k in range(M + 1)]
    return SampledPath.over_labels(times, rows, d, FLOAT if kind in ("float", "dyadic") else RATIONAL)


def typed(values) -> list:
    """Each scalar as its type and repr, so 0.1 + 0.2 and 0.3 differ, and
    so do Fraction(1) and 1.0."""
    return [(type(v), repr(v)) for v in values]


def assert_same_elements(got: list, want: list):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert type(a) is type(b) and a.ctx == b.ctx, k
        assert list(a.terms) == list(b.terms), k
        assert typed(a.terms.values()) == typed(b.terms.values()), k


def assert_same_trajectory(got, want):
    assert got.mode == want.mode and got.grid == want.grid
    assert [typed(y) for y in got.values] == [typed(y) for y in want.values]
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        assert list(a) == list(b)
        assert [typed(v) for v in a.values()] == [typed(v) for v in b.values()]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", MODES)
def test_lift_increments_match_the_per_step_loops(kind, d):
    path = walk(d, d, 12, kind)
    for N in (1, 2, 3):
        X = ito_lift(path, N)
        assert_same_elements(X.increments, ito_increments_reference(path, N))
        assert_same_elements(canonical_lift(path, N).increments, canonical_increments_reference(path, N))
    assert all(len(X.increments[k].terms) == 1 for k in STILL)


def test_ito_increments_of_a_path_that_lacks_a_label():
    # a label with no column reads 0: every forest that holds it drops out
    path = walk(5, 2, 8, "float")
    path = SampledPath(path.grid, (path.basis[1],), [row[1:] for row in path.values], FLOAT)
    assert path.d == 2
    assert_same_elements(ito_lift(path, 3).increments, ito_increments_reference(path, 3))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", MODES)
def test_encoding_and_shortcut_match_the_per_step_loops(kind, d):
    path = walk(10 + d, d, 12, kind)
    X = ito_lift(path, 2)
    # the extraction pairs adjacent increments only
    partial = canonical_lift(base_path_of(X), 2)
    got = extract_extended_path(X, partial)
    forests = [Forest((tau,)) for tau in trees_of_grade(2, d)]
    pairs = [(k, k + 1) for k in range(X.grid.steps)]
    want = {tau: [] for tau in trees_of_grade(2, d)}
    for _, _, den, row in _pairings_reference(X, partial, 2, forests, pairs):
        for tau, (lhs, rhs) in zip(want, row):
            want[tau].append(lhs - (rhs if den is None else Q(rhs, den)))
    assert list(got) == list(want)
    assert all(typed(got[tau]) == typed(want[tau]) for tau in want)
    result = encode(X, certify_result=False, check_cocycle=False)
    ext = result.extended_path
    assert_same_elements(result.geometric.increments, canonical_increments_reference(ext, 2))
    sd = simplify_n2(result)
    word_incs, sym_incs = simplify_reference(result)
    assert_same_elements(sd.xhat.increments, word_incs)
    assert [list(row) for row in sd.symmetric_increments] == [list(row) for row in sym_incs]
    assert [typed(row.values()) for row in sd.symmetric_increments] == [typed(row.values()) for row in sym_incs]


# e = 2 fields over labels 1 and 2: powers of several variables, constant
# terms, a zero field; and an e = 1 pair
FIELDS = {
    "powers": {1: ["y1^2*y2 - 1/3*y2", "y1*y2^3 + 2*y1"], 2: ["y2^2", "-y1"]},
    "constants": {1: ["1/3", "y1 - 2"], 2: ["2", "-5/7*y2^2"]},
    "zero": {1: ["y1*y2", "y2"], 2: ["0", "0"]},
    "e1": {1: ["y1^3 + 1/2"], 2: ["-2*y1"]},
}


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("kind", ["float", "exact"])
@pytest.mark.parametrize("name", list(FIELDS))
def test_trajectories_match_the_per_step_euler_loop(name, kind, N):
    f = ButcherTable.parse(FIELDS[name])
    exact = kind == "exact"
    xi = ((Q(1), Q(-1, 2)) if exact else (0.5, -0.25))[: f.e]
    X = ito_lift(walk(N, 2, 6 if exact else 24, kind), N)
    assert_same_trajectory(solve_branched(X, f, xi), solve_branched_reference(X, f, xi))
    result = encode(X, certify_result=False, check_cocycle=False)
    table = WordFieldTable(convert_rde(f, result))
    got = solve_geometric(result.geometric, table, xi)
    assert_same_trajectory(got, solve_geometric_reference(result.geometric, table, xi))
    if N == 2:
        sd = simplify_n2(result)
        assert_same_trajectory(solve_simplified(sd, f, xi), solve_simplified_reference(sd, f, xi))
    assert any(got.steps) and not any(got.steps[k] for k in STILL)


def _refusals(X, f, xi) -> list:
    """The messages of the three solvers and their references, each side
    solved by both."""
    result = encode(X, certify_result=False, check_cocycle=False)
    table = WordFieldTable(convert_rde(f, result))
    sd = simplify_n2(result)
    calls = [
        (solve_branched, solve_branched_reference, (X, f, xi)),
        (solve_geometric, solve_geometric_reference, (result.geometric, table, xi)),
        (solve_simplified, solve_simplified_reference, (sd, f, xi)),
    ]
    out = []
    for solve, reference, args in calls:
        messages = []
        for fn in (solve, reference):
            with pytest.raises(ValueError) as err:
                fn(*args)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        out.append(messages[0])
    return out


def test_float_refusals_keep_their_messages():
    X = ito_lift(walk(7, 1, 8, "float"), 2)
    big = ButcherTable.parse({1: ["1e400*y1"]})
    got = _refusals(X, big, (1.0,))
    assert got[0] == got[2] == "the field of b_1 has a coefficient too large for a float"
    assert re.fullmatch(r"the field of .+ has a coefficient too large for a float", got[1])
    # y' = y^2 from 1e80 passes 1e308 on the second step of the branched
    # side; the sides that step through more fields meet inf - inf later
    got = _refusals(X, ButcherTable.parse({1: ["y1^2"]}), (1e80,))
    assert got[0] == "the float solve leaves the float range at step 2: y_1 = -inf"
    assert all(re.fullmatch(r"the float solve leaves the float range at step \d+: y_1 = (-?inf|nan)", m) for m in got)


# -- the slot contract of _euler on hand-built steps ---------------------------


def _reference_terms(slots, steps):
    """The steps as the (key, w, F) terms `euler_reference` reads: the slots
    with a weight, in slot order, each field built once, when first used."""
    built = {}

    def field(i):
        if i not in built:
            built[i] = slots[i][1]()
        return built[i]

    return ([(slots[i][0], w, field(i)) for i, w in enumerate(ws) if w is not None] for ws in steps)


def _euler_both(slots, steps, mode, xi):
    """`_euler` and `euler_reference` on the same slots and steps: both
    trajectories, or both refusal messages."""
    grid = Grid(range(len(steps) + 1))
    out = []
    for run in (lambda: _euler(grid, mode, len(xi), xi, slots, iter(steps)),
                lambda: euler_reference(grid, mode, len(xi), xi, _reference_terms(slots, steps))):
        try:
            out.append(run())
        except ValueError as e:
            out.append(str(e))
    return out


def _slots(f: ButcherTable):
    """A tree, a word, a named component, a tree with no base field and a
    word whose letter has none: the last two raise if they are ever built,
    so a solve that never weights them must not build them."""
    table = WordFieldTable({leaf(1): f.base[1], leaf(2): f.base[2]})
    w12, w3 = Word((leaf(1), leaf(2))), Word((leaf(3),))
    return [
        (leaf(2), functools.partial(f.field, leaf(2))),
        (w12, functools.partial(table.field, w12)),
        ("s_11", lambda: f.base[1]),
        (leaf(3), functools.partial(f.field, leaf(3))),
        (w3, functools.partial(table.field, w3)),
    ]


@pytest.mark.parametrize("kind", ["float", "exact"])
def test_euler_slots_match_the_per_step_loop(kind):
    f = ButcherTable.parse(FIELDS["powers"])
    exact = kind == "exact"
    s = Q if exact else float
    zero, negzero = (Q(0), Q(0)) if exact else (0.0, -0.0)
    steps = [
        [s(1) / 8, s(-1) / 4, s(1) / 2, None, None],  # every slot that can be built
        [None, s(3) / 16, None, None, None],  # absent terms
        [zero, negzero, s(1) / 32, None, None],  # present weights 0 and -0.0: built, not named
        [None, None, None, None, None],  # nothing: an empty breakdown
        [s(-1) / 8, None, s(1) / 4, None, None],
    ]
    xi = (Q(1), Q(-1, 2)) if exact else (0.5, -0.25)
    got, want = _euler_both(_slots(f), steps, RATIONAL if exact else FLOAT, xi)
    assert_same_trajectory(got, want)
    # the breakdown names each non-zero contribution by str(key), in slot order
    assert [list(step) for step in got.steps] == [
        ["b_2", "b_1 (x) b_2", "s_11"], ["b_1 (x) b_2"], ["s_11"], [], ["b_2", "s_11"]
    ]


def test_euler_slot_refusals_keep_their_messages():
    big = ButcherTable.parse({1: ["1e400*y1"], 2: ["y1"]})
    slots = [(leaf(2), functools.partial(big.field, leaf(2))), (leaf(1), functools.partial(big.field, leaf(1)))]
    got = _euler_both(slots, [[1.0, None], [0.5, 0.25]], FLOAT, (1.0,))
    assert got == ["the field of b_1 has a coefficient too large for a float"] * 2
    # y' = y^2 from 1e200 leaves the float range on the first step
    square = ButcherTable.parse({1: ["y1^2"]})
    slots = [(leaf(1), functools.partial(square.field, leaf(1)))]
    got = _euler_both(slots, [[None], [1.0], [1.0]], FLOAT, (1e200,))
    assert got == ["the float solve leaves the float range at step 2: y_1 = inf"] * 2


def test_a_zero_coefficient_is_skipped_by_trees_and_stepped_by_words():
    # a coefficient that is present but 0.0 or -0.0: the branched solver
    # gives its tree no weight, so a tree with no field passes; the word
    # solvers step its word, so a word over a letter with no field is refused
    f = ButcherTable.parse(FIELDS["powers"])  # fields for labels 1 and 2 only
    grid, xi = Grid([0.0, 0.5, 1.0]), (0.5, -0.25)
    b1, b3 = Forest((leaf(1),)), Forest((leaf(3),))
    incs = [HElem._trusted({b1: 0.25, b3: -0.0}, 3), HElem._trusted({b1: 0.5, b3: 0.0}, 3)]
    X = BranchedRoughPath(1, 1.0, grid, incs, 3, FLOAT)
    assert_same_trajectory(solve_branched(X, f, xi), solve_branched_reference(X, f, xi))
    w1, w3 = Word((leaf(1),)), Word((leaf(3),))
    incs = [TensorElem._trusted({w1: 0.25}, 3, 1), TensorElem._trusted({w3: -0.0, w1: 0.5}, 3, 1)]
    Xbar = GeometricRoughPath(1, 1.0, grid, incs, 3, FLOAT, (leaf(1), leaf(3)))
    table = WordFieldTable({leaf(1): f.base[1], leaf(2): f.base[2]})
    for solve in (solve_geometric, solve_geometric_reference):
        with pytest.raises(ValueError, match=r"^no vector field for letter b_3$"):
            solve(Xbar, table, xi)


def _digest(values) -> str:
    return hashlib.sha256(repr([list(v) for v in values]).encode()).hexdigest()


def _criterion_09(seed: int, M: int) -> tuple:
    """The float Itô pipeline of acceptance criterion 09 on its +-1/64 walk:
    (qv, the simplified driver, both trajectories)."""
    path = walk(seed, 1, M, "dyadic", still=())
    f = ButcherTable.parse({1: ["y1"]})
    X = ito_lift(path, 2)
    branched = solve_branched(X, f, (1.0,))
    sd = simplify_n2(encode(X, certify_result=False, check_cocycle=False))
    simplified = solve_simplified(sd, f, (1.0,))
    vals = [row[0] for row in path.values]
    qv = sum((b - a) ** 2 for a, b in zip(vals, vals[1:]))
    return qv, sd, branched, simplified


def test_criterion_09_identities_hold_on_twenty_seeds():
    for seed in range(20):
        qv, sd, branched, simplified = _criterion_09(seed, 4096)
        # every square is the exact dyadic 1/4096, so qv is exactly 1.0
        assert qv == 1.0
        assert sd.symmetric_path(1, 1)[-1] == -qv
        assert sd.covariation(1, 1)[-1] == qv
        assert _digest(branched.values) == _digest(simplified.values)


def _calls(M: int, name_of) -> dict:
    """Calls per name while the criterion-09 pipeline runs at M steps:
    name_of gives the name a code object is counted under, or None."""
    counts: dict = {}

    def profile(frame, event, arg):
        if event == "call" and (name := name_of(frame.f_code)) is not None:
            counts[name] = counts.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        _criterion_09(1, M)
    finally:
        sys.setprofile(None)
    return counts


def _fraction_calls(M: int) -> dict:
    """Calls of Fraction.__new__ and of the operator fallbacks of the
    fractions module (forward, reverse) while the criterion-09 pipeline runs
    at M steps."""
    targets = ("__new__", "forward", "reverse")
    source = fractions.__file__
    calls = _calls(M, lambda code: code.co_name if code.co_name in targets and code.co_filename == source else None)
    return {name: calls.get(name, 0) for name in targets}


def test_float_pipeline_does_no_fraction_arithmetic_per_step():
    _criterion_09(1, 16)  # contexts, tables and psi images built once
    small, large = _fraction_calls(64), _fraction_calls(256)
    assert all(large[k] <= small[k] for k in small), (small, large)


def test_float_pipeline_resolves_its_keys_once_per_solve():
    # no context row, word sort key or letter-grade lookup per step: the
    # slots, the psi images and the plain-word set are found once
    counted = {f.__code__: f.__qualname__ for f in (Context.row_of, Word.sort_key, Word.max_letter_grade)}
    _criterion_09(1, 16)
    small, large = _calls(64, counted.get), _calls(256, counted.get)
    assert all(large.get(k, 0) <= small.get(k, 0) for k in counted.values()), (small, large)
