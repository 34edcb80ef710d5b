"""The generated straight-line functions of `linear` against the loops they
stand in for.

A sweep, exact or float, runs its products on a context's compiled kernel
(`Context.compiled`, `Context.fold`), built once and kept, and its psi
pairings on one compiled linear map (`Context.linear_map`).  Here the
compiled kernels give the totals of `Context.times`, the loop kernel that
reads the same table, on every basis pair, and its rows on random exact
rows, and on float rows bit for bit; Chen's compiled verdict is
`Context.times`' on random exact rows of every context, the psi map gives
the row pairing of `oracles.row_pair_reference` on every image, float ones
included, and single products, series and a grid of one step compile
nothing.  The corrupted sweeps of `test_roughpath` and `test_pair_rows` run
both kinds of row on the compiled kernels.
"""

import itertools
import math
from fractions import Fraction as Q
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfpath import hopf, linear, tensor
from hopfpath.conversion import certify, encode
from hopfpath.hopf import HElem, convolve, exp_star, forest_context, log_star
from hopfpath.linear import Context, Row
from hopfpath.morphisms import psi
from hopfpath.roughpath import FLOAT, RATIONAL, SampledPath, _check_chen, _close, canonical_lift, ito_lift, validate
from hopfpath.tensor import TensorElem, Word, concat, tensor_exp, word_context
from hopfpath.trees import Forest, enumerate_forests, leaf

from oracles import row_pair_reference
from seams import count_calls, sweeps

CONTEXTS = [
    ("forest", (3, 2)),
    ("forest", (4, 2)),
    ("forest", (5, 2)),
    ("forest", (6, 1)),
    ("word", (3, 2, 3)),
    ("word", (4, 2, 2)),
    ("word", (3, 1, 3)),
]


def _context(kind, key) -> Context:
    return forest_context(*key) if kind == "forest" else word_context(*key)


@pytest.mark.parametrize("kind, key", CONTEXTS, ids=[f"{k}{key}" for k, key in CONTEXTS])
def test_compiled_kernel_gives_the_loop_totals_on_every_basis_pair(kind, key):
    # both kernels are bilinear, so with the right operand sum_j B^j e_j the
    # totals on e_i hold the totals of every pair (i, j) as base-B digits,
    # each a count below B: one call per left key checks every pair
    ctx = _context(kind, key)
    n = len(ctx.basis)
    B = 1 << 16
    assert max(sum(c for *_, c in row) for row in ctx.table()) < B
    right = [B**j for j in range(n)]
    loop_right = Row(dict(enumerate(right)), 1, n)
    with sweeps():
        kernel = ctx.compiled()
        for i in range(n):
            left = [0] * n
            left[i] = 1
            got = kernel(left, right)
            want = ctx.times(Row({i: 1}, 1, 1), loop_right)
            assert len(got) == n
            assert {k: c for k, c in enumerate(got) if c} == want.values, i


def _random_row(ctx: Context, rng: Random, big: bool):
    """An exact row over a random half of the basis: small fractions, or
    numerators of about 200 digits over a den above 1."""
    terms = {}
    for key in ctx.basis:
        if rng.random() < 0.5:
            if big:
                terms[key] = Q(rng.randrange(-(10**200), 10**200), rng.choice((3, 2**40, 10**50 + 7)))
            else:
                terms[key] = Q(rng.randint(-9, 9), rng.randint(1, 4))
    return ctx.row_of(terms)


@pytest.mark.parametrize("kind, key", CONTEXTS, ids=[f"{k}{key}" for k, key in CONTEXTS])
def test_compiled_fold_gives_the_rows_of_times(kind, key):
    ctx = _context(kind, key)
    rng = Random(repr(key))
    dens = set()
    with sweeps():
        for trial in range(8):
            a, b = _random_row(ctx, rng, trial % 2), _random_row(ctx, rng, trial % 4 == 1)
            dens |= {a.den, b.den}
            got, want = ctx.fold(a, b), ctx.times(a, b)
            assert (got.den, got.values, got.size) == (want.den, want.values, want.size)
            assert list(got.values) == sorted(got.values)
            assert got.dense == [got.values.get(k, 0) for k in range(len(ctx.basis))]
        # a product that cancels to zero reduces to 0 over 1, as times does
        zero = ctx.row_of({})
        got, want = ctx.fold(a, zero), ctx.times(a, zero)
        assert (got.den, got.values, got.size) == (want.den, want.values, want.size) == (1, {}, 0)
    assert max(dens) > 1


@pytest.mark.parametrize("N", [3, 4])
def test_compiled_psi_map_gives_row_pair_on_every_image(N):
    own = word_context(N, 2, N)
    images = [own.row_of(psi(HElem.from_forest(h, 2), N).terms) for h in enumerate_forests(N, 2)]
    assert all(img.den == 1 for img in images)
    rng = Random(N)
    with sweeps() as calls:
        images_of = own.linear_map([img.values.items() for img in images])
        for trial in range(6):
            vec = _random_row(own, rng, trial % 2)
            assert images_of(own.dense(vec)) == [row_pair_reference(img, vec) for img in images]
    assert calls == {"kernel(v)": 6}


def test_single_products_and_series_compile_nothing(monkeypatch):
    generated = []
    monkeypatch.setattr(linear, "_straight_line", lambda *args: generated.append(args))
    N, d = 5, 2
    b1, b2 = Forest((leaf(1),)), Forest((leaf(2),))
    h = HElem({b1: Q(1, 2), b2: Q(-1, 3)}, d)
    g = exp_star(h, N)
    assert log_star(g, N) == h
    convolve(g, g, N)
    x = TensorElem({Word((leaf(1),)): Q(1, 2), Word((leaf(2),)): Q(-1, 3)}, d, 1)
    concat(tensor_exp(x, N), x, N)
    assert generated == []
    assert forest_context(N, d).kernel is None and word_context(N, d, 1).kernel is None


def _float_walk(M, seed):
    rng = Random(seed)
    rows = [[0.0, 0.0]]
    for _ in range(M):
        rows.append([v + rng.gauss(0.0, 0.3) for v in rows[-1]])
    return SampledPath.over_labels([k / M for k in range(M + 1)], rows, 2, FLOAT)


def test_float_sweeps_run_the_compiled_kernel(monkeypatch):
    # the fold of validate and of both certify paths, Chen's triples and one
    # psi map call per grid pair: no product of a float sweep is a times
    M = 24
    X = ito_lift(_float_walk(M, 3), 3)
    Xbar = encode(X, False, False).geometric
    calls = count_calls(monkeypatch, (Context, "times"), (Context, "fold"))
    with sweeps() as compiled:
        assert validate(X)["chen"]["status"] == "pass"
        assert certify(X, Xbar)["status"] == "pass"
    folds = 3 * math.comb(M, 2)
    assert calls == {"Context.times": 0, "Context.fold": folds}
    assert compiled == {"kernel(f, g)": folds + math.comb(M + 1, 3), "kernel(v)": math.comb(M + 1, 2)}


def test_fold_builds_the_kernel_on_a_fresh_context():
    hopf.forest_context.cache_clear()
    ctx = forest_context(3, 2)
    assert ctx.kernel is None
    rng = Random(7)
    a, b = _random_row(ctx, rng, False), _random_row(ctx, rng, True)
    got, want = ctx.fold(a, b), ctx.times(a, b)
    assert (got.den, got.values, got.size) == (want.den, want.values, want.size)
    assert ctx.kernel is not None and ctx.kernel_terms == 153


def test_a_kernel_is_built_once_and_kept(monkeypatch):
    hopf.forest_context.cache_clear()
    tensor.word_context.cache_clear()
    ctx = forest_context(3, 2)
    generated = count_calls(monkeypatch, linear._straight_line)
    kernel = ctx.compiled()
    assert kernel is ctx.kernel and ctx.kernel_terms == sum(map(len, ctx.cuts)) == 153
    assert ctx.compiled() is kernel
    validate(ito_lift(_float_walk(4, 1), 3))  # a float sweep runs on the same kernel
    assert ctx.kernel is kernel and generated == {"_straight_line": 1}
    # a psi map is compiled per call, and nothing is kept
    assert ctx.linear_map([[(0, 2), (1, -1)], []])([5, 7]) == [3, 0]
    assert ctx.kernel is kernel and generated == {"_straight_line": 2}


def _chen_holds(ctx: Context, a: Row, b: Row, want: Row) -> bool:
    """`_check_chen`'s verdict on the one triple (0, 1, 2) with rows a, b
    and want."""
    X = SimpleNamespace(context=lambda: ctx, grid=SimpleNamespace(steps=2), mode=RATIONAL)
    chen = {"status": "pass", "witness": None, "checked_triples": 0}
    _check_chen(X, {(0, 1): a, (1, 2): b, (0, 2): want}, chen)
    assert chen["checked_triples"] == 1
    return chen["status"] == "pass"


@pytest.mark.parametrize("kind, key", CONTEXTS, ids=[f"{k}{key}" for k, key in CONTEXTS])
def test_chen_compiled_verdict_is_the_times_verdict_on_every_context(kind, key):
    # every context of the table, on rows with 200-digit numerators too:
    # want is the product, the product with one coefficient shifted, or the
    # product plus 1/p for a prime p that does not divide a.den * b.den
    ctx = _context(kind, key)
    rng = Random(repr(key))
    n = len(ctx.basis)
    with sweeps():
        for trial in range(6):
            a, b = _random_row(ctx, rng, trial % 2), _random_row(ctx, rng, trial % 3 == 1)
            product = ctx.times(a, b)
            p = next(p for p in (5, 7, 11, 13, 17, 19, 23) if (a.den * b.den) % p)
            for shift in (0, Q(rng.randint(1, 9), rng.randint(1, 4)), Q(1, p)):
                terms, k = dict(product.scalars()), rng.randrange(n)
                terms[k] = terms.get(k, 0) + shift
                want = ctx.row_of({ctx.basis[j]: c for j, c in terms.items() if c})
                holds = _chen_holds(ctx, a, b, want)
                assert holds == (shift == 0) == ((product.den, product.values) == (want.den, want.values))


def _one_step(lift):
    path = SampledPath.over_labels([0, 1], [[Q(0), Q(0)], [Q(1, 3), Q(-2, 5)]], 2)
    if lift == "encoded":
        return encode(ito_lift(path, 3)).geometric
    return {"ito": ito_lift, "canonical": canonical_lift}[lift](path, 3)


@pytest.mark.parametrize("lift", ["ito", "canonical", "encoded"])
def test_a_one_step_grid_compiles_nothing(lift):
    # one step: no pair to fold and no triple for Chen, so no kernel is built
    X = _one_step(lift)
    with sweeps() as calls:
        report = validate(X)
        assert X.context().kernel is None
    assert report["chen"] == {"status": "pass", "witness": None, "checked_triples": 0}
    assert calls == {}


@st.composite
def _chen_cases(draw):
    """Exact rows a and b of a small context, and want: their product, the
    product with one coefficient shifted, the product plus 1/p for a prime p
    that does not divide a.den * b.den, or another random row."""
    ctx = _context(*draw(st.sampled_from([("forest", (3, 2)), ("word", (3, 2, 3))])))
    n = len(ctx.basis)
    fraction = st.fractions(min_value=-4, max_value=4, max_denominator=12).filter(bool)

    def row():
        # mostly over low positions, where products stay below the level
        positions = st.one_of(st.integers(0, 3), st.integers(0, n - 1))
        return ctx.row_of({ctx.basis[k]: c for k, c in draw(st.dictionaries(positions, fraction, min_size=1)).items()})

    a, b = row(), row()
    product = ctx.times(a, b).scalars()
    kind = draw(st.sampled_from(["product", "shifted", "foreign", "random"]))
    if kind == "random":
        return ctx, a, b, row()
    if kind == "shifted":
        k = draw(st.integers(0, n - 1))
        product[k] = product.get(k, 0) + draw(fraction)
    elif kind == "foreign":
        p = next(p for p in (5, 7, 11, 13, 17) if (a.den * b.den) % p)
        k = draw(st.integers(0, n - 1))
        product[k] = product.get(k, 0) + Q(1, p)
    return ctx, a, b, ctx.row_of({ctx.basis[k]: c for k, c in product.items() if c})


@settings(max_examples=300, deadline=None)
@given(_chen_cases())
def test_chen_compiled_verdict_is_the_times_verdict(case):
    # the exact Chen sweep judges on the compiled kernel alone; the verdict
    # must be the loop kernel's: times(a, b) is the reduced row want
    ctx, a, b, want = case
    got = ctx.times(a, b)
    assert _chen_holds(ctx, a, b, want) == ((got.den, got.values) == (want.den, want.values))


# -- float rows: the compiled kernel against the loop kernel, bit for bit -----


def _float_fixtures():
    """Every float fixture of the sweep tests: the Chen fixtures with float
    rows, the Ito and canonical lifts of the walk that stands still for two
    steps, where exact and float rows mix, and the encoding of a float walk's
    Ito lift, over tree letters."""
    from test_pair_rows import _walk
    from test_roughpath import _chen_fixture

    names = ["ito_float", "canonical_float", "ito_dyadic_floats_rational_mode", "ito_float_data_rational_mode"]
    paths = [_chen_fixture(name) for name in names]
    paths += [lift(_walk(5, 2, 6, FLOAT), 3) for lift in (ito_lift, canonical_lift)]
    paths.append(encode(ito_lift(_float_walk(6, 2), 3), False, False).geometric)
    return paths


def _assert_same_floats(got: dict, want: dict):
    """The same keys and values, each value's float repr included."""
    assert got.keys() == want.keys()
    assert got == want
    assert {k: repr(float(v)) for k, v in got.items()} == {k: repr(float(v)) for k, v in want.items()}


def _same_rows(got: Row, want: Row):
    assert got.den == want.den
    _assert_same_floats(got.scalars(), want.scalars())


def test_float_fixture_products_are_the_loop_kernels_bit_for_bit():
    # every fold step and every Chen triple's product of every float fixture
    mixed = 0
    with sweeps():
        for X in _float_fixtures():
            ctx = X.context()
            rows = {(s, t): row for s, t, row in X.pair_rows()}
            mixed += len({row.den is None for row in rows.values()}) == 2
            kernel = ctx.compiled()
            for (s, t), row in rows.items():
                if t > s + 1:
                    _same_rows(row, ctx.times(rows[s, t - 1], rows[t - 1, t]))
            for s, u, t in itertools.combinations(range(X.grid.steps + 1), 3):
                a, b = rows[s, u], rows[u, t]
                totals = kernel(ctx.dense(a, False), ctx.dense(b, False))
                _assert_same_floats({k: c for k, c in enumerate(totals) if c}, ctx.times(a, b).scalars())
    assert mixed == 2  # the standing-still walk's two lifts


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308, 1e-300, 1e150)


def _random_float_row(ctx: Context, rng: Random, unit, shuffled: bool) -> Row:
    """A float row over a random half of the basis, in basis order unless
    shuffled, with the unit given and values from normal floats, signed
    zeros and subnormals."""
    terms = {ctx.basis[0]: unit}
    for key in ctx.basis[1:]:
        if rng.random() < 0.5:
            terms[key] = rng.choice(_SPECIAL) if rng.random() < 0.3 else rng.uniform(-2.0, 2.0)
    keys = list(terms)
    if shuffled:
        rng.shuffle(keys)
    return ctx.row_of({k: terms[k] for k in keys})


@pytest.mark.parametrize("kind, key", CONTEXTS, ids=[f"{k}{key}" for k, key in CONTEXTS])
def test_random_float_rows_fold_to_the_loop_kernels_rows_bit_for_bit(kind, key):
    # times and the compiled kernel both sum in table order, whatever the
    # rows' term order
    ctx = _context(kind, key)
    rng = Random(repr(key))
    with sweeps():
        for trial in range(12):
            unit = (1, Q(1), 1.0)[trial % 3]
            shuffled = trial % 2 == 1
            a, b = (_random_float_row(ctx, rng, unit, shuffled) for _ in range(2))
            assert a.den is None and b.den is None
            got = ctx.fold(a, b)
            _same_rows(got, ctx.times(a, b))
            assert list(got.values) == sorted(got.values)


@pytest.mark.parametrize("kind, key", CONTEXTS, ids=[f"{k}{key}" for k, key in CONTEXTS])
def test_a_float_row_folds_with_an_exact_rows_scalars(kind, key):
    # beside a float row, an exact row over a den above 1 gives its scalars,
    # built afresh and not kept.  A total of exact terms picks up the 0.0 of
    # a float times an absent 0 and comes back a float, which a lift's rows
    # never meet off the unit, so here the values agree within _close
    ctx = _context(kind, key)
    rng = Random(repr(key))
    with sweeps():
        for trial in range(4):
            a, b = _random_float_row(ctx, rng, (1, Q(1))[trial % 2], False), _random_row(ctx, rng, False)
            assert a.den is None and b.den > 1
            for x, y in ((a, b), (b, a)):
                got, want = ctx.fold(x, y).scalars(), ctx.times(x, y).scalars()
                assert got.keys() == want.keys()
                assert all(_close(got[k], want[k], FLOAT) for k in got)
            assert b.dense is None


def test_compiled_psi_map_gives_row_pair_on_float_images():
    # the psi images of every forest against the encoded float path's rows
    X = ito_lift(_float_walk(6, 2), 3)
    Xbar = encode(X, False, False).geometric
    own = Xbar.context()
    images = [own.row_of(psi(HElem.from_forest(h, 2), 3).terms) for h in enumerate_forests(3, 2)]
    images_of = own.linear_map([img.values.items() for img in images])
    floats = 0
    for _, _, vec in Xbar.pair_rows():
        got, want = images_of(own.dense(vec)), [row_pair_reference(img, vec) for img in images]
        _assert_same_floats(dict(enumerate(got)), dict(enumerate(want)))
        floats += vec.den is None
    assert floats == math.comb(7, 2)
