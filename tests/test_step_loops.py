"""The lifts, the level-2 shortcut and the Euler solvers against the per-step
loops they replaced (`oracles`): the same increments, trajectories and
breakdowns, with the same keys in the same order, the same scalar types and
the same float reprs; and in float mode no Fraction arithmetic per step."""

import fractions
import functools
import hashlib
import itertools
import re
import sys
from fractions import Fraction as Q
from random import Random

import pytest

from hopfpath.conversion import ConversionResult, base_path_of, encode, extract_extended_path, simplify_n2
from hopfpath.hopf import HElem
from hopfpath import linear
from hopfpath.linear import Context
from hopfpath.rde import (
    ButcherTable,
    Poly,
    PolyVectorField,
    WordFieldTable,
    _euler,
    _evaluate,
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
from hopfpath.trees import Canonical, Forest, Tree, enumerate_forests, leaf, symmetry_factor, trees_of_grade

from oracles import (
    _pairings_reference,
    canonical_increments_reference,
    euler_reference,
    ito_increments_reference,
    poly_eval_reference,
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


# -- the level-2 shortcut on drivers with area --------------------------------

CANCEL = 5  # the step on which the area of labels 1 and 2 cancels <xhat, b_2 (x) b_1>


def area_driver(d: int, kind: str, M: int = 8) -> BranchedRoughPath:
    """A level-2 branched driver whose cherries carry, past the canonical
    delta_i delta_j / 2, an antisymmetric area A and a symmetric part S:
    <X, [b_j]_i> = delta_i delta_j / 2 + A_ij + S_ij.  Any tree values give a
    character, so the driver need not come from a lift.  It stands still on
    the STILL steps, and on step CANCEL A_12 = -delta_1 delta_2 / 2, which
    removes b_2 (x) b_1 from xhat's increment.  Float values are dyadic, so
    the cancellation is exact in every mode."""
    rng = Random(30 + d)
    exact = kind == "exact"
    one = Q(1) if exact else 1.0
    zero = one * 0

    def draw(den):  # never 0, so every moving step has area
        n = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        return Q(n, rng.randint(1, 5)) if exact else n / den

    labels = range(1, d + 1)
    incs = []
    for k in range(M):
        still = k in STILL
        delta = {i: zero if still else draw(64) for i in labels}
        if k == CANCEL:
            delta = {i: one / 2 ** (i + 1) for i in labels}
        area = {(i, j): zero if still else draw(4096) for i in labels for j in labels if i < j}
        if k == CANCEL and d > 1:
            area[(1, 2)] = -delta[1] * delta[2] / 2
        area.update({(j, i): -a for (i, j), a in list(area.items())})
        sym = {(i, j): zero if still else draw(4096) for i in labels for j in labels if i <= j}
        terms = {Forest(()): Q(1)}
        for f in enumerate_forests(2, d):
            if 0 < len(f) == f.grade:
                terms[f] = delta[f.factors[0].label] * (delta[f.factors[1].label] if len(f) == 2 else 1)
        for i in labels:
            for j in labels:
                extra = area.get((i, j), 0) + sym[(min(i, j), max(i, j))]
                terms[Forest((Tree(i, (leaf(j),)),))] = delta[i] * delta[j] / 2 + extra
        incs.append(HElem(terms, d))
    times = [Q(k, M) for k in range(M + 1)] if exact else [k / M for k in range(M + 1)]
    return BranchedRoughPath(2, Q(1, 2), Grid(times), incs, d, RATIONAL if exact else FLOAT)


def assert_same_shortcut(sd, want: tuple):
    word_incs, sym_incs = want
    assert_same_elements(sd.xhat.increments, word_incs)
    assert [list(row) for row in sd.symmetric_increments] == [list(row) for row in sym_incs]
    assert [typed(row.values()) for row in sd.symmetric_increments] == [typed(row.values()) for row in sym_incs]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", MODES)
def test_shortcut_with_area_matches_the_per_step_loop(kind, d):
    X = area_driver(d, "exact" if kind == "exact" else "float")
    if kind == "mixed":  # floats in a rational-mode driver
        X = BranchedRoughPath(2, X.gamma, X.grid, X.increments, d, RATIONAL)
    result = encode(X, certify_result=False, check_cocycle=False)
    sd = simplify_n2(result)
    assert_same_shortcut(sd, simplify_reference(result))
    plain, xhat = result.plain_lift, sd.xhat
    assert all(len(xhat.increments[k].terms) == 1 for k in STILL)  # the empty word alone
    b21 = Word((leaf(2), leaf(1)))
    if d > 1:
        # the area moves words: a word with a correction gets its own column
        assert b21 in plain.increments[CANCEL].terms and b21 not in xhat.increments[CANCEL].terms
        p = xhat.context().index[b21]
        assert xhat.columns[p] is not plain.columns[p]
    # a word with no correction, over fewer than two labels, keeps the plain
    # lift's column itself
    basis = plain.context().basis
    assert all(xhat.columns[p] is col for p, col in plain.columns.items() if len(set(basis[p].letters)) < 2)


@pytest.mark.parametrize("kind", MODES)
def test_shortcut_at_d1_shares_the_plain_lift_increments(kind):
    # no antisymmetric part at d = 1: xhat holds the level-2 lift's own
    # columns, so the shortcut costs no second copy of them
    result = encode(ito_lift(walk(3, 1, 16, kind), 2), certify_result=False, check_cocycle=False)
    sd = simplify_n2(result)
    assert len(sd.xhat.increments) == len(result.plain_lift.increments) == 16
    assert list(sd.xhat.columns) == list(result.plain_lift.columns)
    assert all(sd.xhat.columns[p] is col for p, col in result.plain_lift.columns.items())
    assert sd.xhat.increments[0].terms.keys() <= set(sd.xhat.context().basis)


@pytest.mark.parametrize("kind", ["float", "exact"])
def test_plain_lift_is_kept_at_level_two_only_and_stays_out_of_the_json(kind):
    X = area_driver(2, kind)
    result = encode(X)
    assert result.plain_lift.N == 2 and result.plain_lift.letters == (leaf(1), leaf(2))
    bare = ConversionResult(result.extended_path, result.geometric, result.certificate, None)
    assert bare.to_json() == result.to_json()
    path = walk(4, 2, 6, kind)
    assert encode(ito_lift(path, 1), certify_result=False).plain_lift is None
    assert encode(ito_lift(path, 3), certify_result=False).plain_lift is None


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


def _step_sources(monkeypatch):
    """A function giving the sources of the Euler steps that `linear` has
    compiled since the call."""
    sources, builtin = [], compile

    def recording(source, *args):
        sources.append(source)
        return builtin(source, *args)

    monkeypatch.setattr(linear, "compile", recording, raising=False)
    return lambda: [src for src in sources if src.startswith("def kernel(c, n, y, w)")]


def _first_weights(steps) -> set:
    """The steps on which some slot gets its first weight, and step 0."""
    first = {}
    for k, ws in enumerate(steps):
        for j, w in enumerate(ws):
            if w is not None:
                first.setdefault(j, k)
    return {0, *first.values()}


def test_euler_compiles_again_only_for_a_slot_that_first_gets_a_weight(monkeypatch):
    f = ButcherTable.parse(FIELDS["powers"])
    steps = [[0.125, -0.25, None, None, None]] * 3 + [[0.5, None, 0.25, None, None]] + [[None, 0.125, 0.5, None, None]] * 3
    compiled = _step_sources(monkeypatch)
    got, want = _euler_both(_slots(f), steps, FLOAT, (0.5, -0.25))
    assert_same_trajectory(got, want)
    assert len(compiled()) == 2 == len(_first_weights(steps))  # the third slot first gets a weight at step 3
    assert "return None" in compiled()[0] and compiled()[1].count("return None") == 2


def test_euler_builds_no_field_for_a_slot_that_gets_no_weight(monkeypatch):
    # a field too large for a float and a word whose letter has no field:
    # either refuses the solve when built, so a solve that never weights
    # them passes, on one compiled step
    big = ButcherTable.parse({1: ["1e400*y1"], 2: ["y1"]})
    table = WordFieldTable({leaf(1): big.base[1], leaf(2): big.base[2]})
    w3 = Word((leaf(3),))
    slots = [
        (leaf(2), functools.partial(big.field, leaf(2))),
        (leaf(1), functools.partial(big.field, leaf(1))),
        (w3, functools.partial(table.field, w3)),
    ]
    compiled = _step_sources(monkeypatch)
    got, want = _euler_both(slots, [[0.5, None, None], [None, None, None], [0.25, None, None]], FLOAT, (1.0,))
    assert_same_trajectory(got, want)
    assert [list(step) for step in got.steps] == [["b_2"], [], ["b_2"]] and len(compiled()) == 1


def _random_field(rng: Random, e: int) -> PolyVectorField:
    """Identically 0 now and then, else per component 0 to 3 terms of
    degree 0 to 3 in e variables with small rational coefficients."""
    if rng.random() < 0.15:
        return PolyVectorField.zero(e)
    comps = []
    for _ in range(e):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            powers = [0] * e
            for _ in range(rng.randint(0, 3)):
                powers[rng.randrange(e)] += 1
            terms[tuple(powers)] = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4, 8)))
        comps.append(Poly(terms, e))
    return PolyVectorField(comps)


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("kind", ["float", "exact"])
def test_euler_matches_the_per_step_loop_on_random_slots(kind, e, monkeypatch):
    # 200 steps over six slots, the first weighted from step 0 and the rest
    # from a random step on; each weight is None, a zero (0.0 or -0.0 in
    # float mode) or not 0.  An exact state moves on 5 steps only, the only
    # steps whose weights are not 0, so its numerators and denominators stay
    # small.  Two slots share the name b_1: the second's entry replaces the
    # first's value in its place.
    rng, exact = Random(50 + 2 * e + (kind == "exact")), kind == "exact"
    M = 200
    keys = [leaf(1), "s_12", Word((leaf(1), leaf(2))), Tree(1, (leaf(2),)), "b_1", leaf(2)]
    slots = [(key, lambda F=_random_field(rng, e): F) for key in keys]
    start = [0] + [rng.randrange(1, M) for _ in keys[1:]]
    moving = set(rng.sample(range(M), 5))

    def weight(k):
        r = rng.random()
        if not (exact and k in moving):
            if r < 0.3:
                return None
            if r < 0.45 or exact:
                return Q(0) if exact else rng.choice((0.0, -0.0))
        n = rng.choice((-1, 1)) * rng.randint(1, 16)
        return Q(n, 1024) if exact else n / 1024

    steps = [[weight(k) if k >= start[j] else None for j in range(len(keys))] for k in range(M)]
    xi = tuple(Q(rng.choice((-3, -2, -1, 1, 2, 3)), 8) if exact else rng.choice((0.0, -0.0, 0.25, -0.5, 0.375)) for _ in range(e))
    compiled = _step_sources(monkeypatch)
    got, want = _euler_both(slots, steps, RATIONAL if exact else FLOAT, xi)
    assert not isinstance(got, str), got
    assert_same_trajectory(got, want)
    assert len(compiled()) == len(_first_weights(steps)) > 1
    assert sum(map(bool, got.steps)) >= (2 if exact else M // 5)


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


def test_euler_keeps_signed_zeros_bit_for_bit():
    # weights -0.0 and fields whose products are -0.0 at the state: each
    # contribution is w times the field's sum from 0, added to a delta that
    # starts from 0, as in the per-step loop; repr tells 0.0 from -0.0
    f = ButcherTable.parse({1: ["-y1", "y2*y1"], 2: ["y1*y2", "-1*y2"]})
    slots = [(leaf(1), functools.partial(f.field, leaf(1))), (leaf(2), functools.partial(f.field, leaf(2)))]
    steps = [[-0.0, -0.0], [-0.0, None], [None, -0.0], [-0.0, 0.25], [0.5, -0.0], [None, 0.0], [0.25, None]]
    for xi in [(-0.0, -0.0), (-0.0, 0.5), (0.0, -0.0)]:
        got, want = _euler_both(slots, steps, FLOAT, xi)
        assert_same_trajectory(got, want)
    # from (-0.0, -0.0) each contribution of the first step is -0.0, named
    # nowhere, and their sum from 0 moves the state to (0.0, 0.0)
    got, _ = _euler_both(slots, steps, FLOAT, (-0.0, -0.0))
    assert got.steps[0] == {} and typed(got.values[1]) == typed((0.0, 0.0))
    # on the compiled step: a second component that is not 0 gets the first
    # one's signed zero named in the breakdown
    g = ButcherTable.parse({1: ["-y1", "1"], 2: ["0", "2"]})
    slots = [(leaf(1), functools.partial(g.field, leaf(1))), (leaf(2), functools.partial(g.field, leaf(2)))]
    got, want = _euler_both(slots, [[1.0, None], [-1.0, None], [None, -1.0]], FLOAT, (0.0, 0.0))
    assert_same_trajectory(got, want)
    b1, b2 = got.steps[0]["b_1"], got.steps[1]["b_1"]
    assert typed(b1) == typed((0.0, 1.0))  # 0 + -0.0 is 0.0
    assert typed(b2) == typed((-0.0, -1.0))  # the weight multiplies the sum
    assert typed(got.steps[2]["b_2"]) == typed((-0.0, -2.0))  # an empty sum is int 0
    assert typed(_evaluate([()], (1.0,))) == typed((0,))


def test_euler_leaves_a_present_zero_contribution_out_of_the_breakdown():
    # a non-zero weight on a field that is 0 at the state is stepped, built
    # and summed, but not named
    f = ButcherTable.parse({1: ["y1", "0"], 2: ["1", "y1"]})
    slots = [(leaf(1), functools.partial(f.field, leaf(1))), (leaf(2), functools.partial(f.field, leaf(2)))]
    for kind in ("float", "exact"):
        s = Q if kind == "exact" else float
        xi = (s(0), s(0))
        steps = [[s(1) / 2, None], [s(1) / 4, s(1) / 8], [s(1), None]]
        got, want = _euler_both(slots, steps, RATIONAL if kind == "exact" else FLOAT, xi)
        assert_same_trajectory(got, want)
        assert [list(step) for step in got.steps] == [[], ["b_2"], ["b_1"]]


def test_euler_refuses_a_second_component_that_leaves_the_float_range():
    f = ButcherTable.parse({1: ["0", "y2^2"]})
    slots = [(leaf(1), functools.partial(f.field, leaf(1)))]
    got = _euler_both(slots, [[1.0], [1.0]], FLOAT, (1.0, 1e200))
    assert got == ["the float solve leaves the float range at step 1: y_2 = inf"] * 2


def test_poly_eval_keeps_values_and_types():
    # Poly.eval and PolyVectorField.eval keep every value and type of the
    # plain sum from 0
    exact = PolyVectorField.parse(["y1^2*y2 - 1/3*y2", "0", "5/2"])
    floats = exact.to_float()
    points = [(Q(1, 2), Q(-3), Q(7)), (0.5, -3.0, 7.0), (0.5, -0.0, 1.0), (-0.0, 0.0, 2.0)]
    for F, point in itertools.product((exact, floats), points):
        want = tuple(poly_eval_reference(p.terms, point) for p in F.components)
        got = F.eval(point)
        assert type(got) is tuple and typed(got) == typed(want)
        assert [typed([p.eval(point)]) for p in F.components] == [typed([v]) for v in want]
    assert typed(exact.eval((Q(1), Q(1), Q(1)))) == typed((Q(2, 3), 0, Q(5, 2)))


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


def test_lift_keys_are_found_by_identity():
    # base_path_of and solve_branched look up the forests ito_lift stores,
    # so no lookup in the increments compares two keys
    X = ito_lift(walk(2, 2, 32, "float"), 2)
    f = ButcherTable.parse(FIELDS["powers"])
    # sigma's cache may hold equal trees of another alphabet, which compare
    symmetry_factor.cache_clear()
    solve_branched(X, f, (0.5, -0.25))  # the fields and sigmas, built and cached
    eq, calls = Canonical.__eq__.__code__, []
    sys.setprofile(lambda frame, event, arg: calls.append(1) if event == "call" and frame.f_code is eq else None)
    try:
        base_path_of(X)
        solve_branched(X, f, (0.5, -0.25))
    finally:
        sys.setprofile(None)
    assert calls == []


def test_float_pipeline_resolves_its_keys_once_per_solve():
    # no context row, word sort key or letter-grade lookup per step: the
    # slots and the psi images are found once
    counted = {f.__code__: f.__qualname__ for f in (Context.row_of, Word.sort_key, Word.max_letter_grade)}
    _criterion_09(1, 16)
    small, large = _calls(64, counted.get), _calls(256, counted.get)
    assert all(large.get(k, 0) <= small.get(k, 0) for k in counted.values()), (small, large)


@pytest.mark.parametrize("M", [64, 256])
def test_criterion_09_compiles_one_step_per_solve(M, monkeypatch):
    # every slot either solve weights is weighted on the first step, so the
    # branched and the simplified solve compile one step each, at any M
    compiled = _step_sources(monkeypatch)
    _criterion_09(1, M)
    assert len(compiled()) == 2
