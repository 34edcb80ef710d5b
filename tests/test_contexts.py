"""The forest and word contexts against the per-side code they replaced.

Both sides now answer the same questions through one protocol: sparse rows
by position, one product wrapper around the two kernels, and one character
loop over basis pairs that reads the forest product table or the shuffle
rows.  The loops and wrappers they replaced are written out here as
references: the two character tests, the dense forest row builder with its
convolve wrapper, and the sparse word row builder with its concat and
vector wrappers.  Verdicts and products must agree with them exactly, in
exact and in float mode: the same keys, insertion order, scalar types and
values.  `Context.times`, the one product of rows, is checked against the
same wrappers on exact, float and mixed rows, and its exact rows must be
reduced.
"""

import functools
import math
import operator
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfpath.hopf import ForestContext, HElem, convolve, exp_star, forest_context, is_group_like
from hopfpath.linear import Row
from hopfpath.roughpath import FLOAT, _close
from hopfpath.scalars import numerators
from hopfpath.tensor import (
    EMPTY_WORD,
    TensorElem,
    Word,
    _shuffle_words,
    concat,
    enumerate_words,
    is_tensor_group_like,
    tensor_exp,
    word_context,
)
from hopfpath.trees import EMPTY_FOREST, Forest, enumerate_forests, enumerate_trees

EXACT, FLOATS = "exact", "floats"
FLOAT_EQ = functools.partial(_close, mode=FLOAT)


# -- the replaced code -------------------------------------------------------


def is_group_like_reference(g: HElem, N: int, eq=operator.eq) -> bool:
    if not eq(g.coeff(EMPTY_FOREST), 1):
        return False
    for g1 in range(1, N):
        for h1 in (f for f in enumerate_forests(g1, g.d) if f.grade == g1):
            for h2 in enumerate_forests(N - g1, g.d):
                if h2.is_unit() or h2.sort_key() < h1.sort_key():
                    continue
                if not eq(g.coeff(h1 * h2), g.coeff(h1) * g.coeff(h2)):
                    return False
    return True


def is_tensor_group_like_reference(g: TensorElem, N: int, eq=operator.eq) -> bool:
    if not eq(g.coeff(EMPTY_WORD), 1):
        return False
    words = [w for w in enumerate_words(N, g.d, g.n) if not w.is_empty()]
    for i, w1 in enumerate(words):
        for w2 in words[i:]:
            if w1.grade + w2.grade > N:
                continue
            lhs = Q(0)
            for letters, cnt in _shuffle_words(w1.letters, w2.letters):
                c = g.terms.get(Word(letters))
                if c:
                    lhs += cnt * c
            if not eq(lhs, g.coeff(w1) * g.coeff(w2)):
                return False
    return True


def dense_reference(x: HElem, ctx) -> list:
    out = [0] * len(ctx.basis)
    for f, c in x.terms.items():
        i = ctx.index.get(f)
        if i is not None:
            out[i] = c
    return out


def sparse_reference(terms: dict, ctx) -> tuple:
    pos, vals = [], []
    for w, c in terms.items():
        i = ctx.index.get(w)
        if i is not None:
            pos.append(i)
            vals.append(c)
    return pos, vals


def convolve_reference(f: HElem, g: HElem, N: int) -> HElem:
    ctx = forest_context(N, f.d)
    (fv, gv), den = numerators(dense_reference(f, ctx), dense_reference(g, ctx))
    # the kernel's totals in position order, as the list the wrapper read
    totals = list(ctx.product(fv, gv, Q(0) if den is None else 0).values())
    basis = ctx.basis
    if den is None:
        terms = {basis[i]: c for i, c in enumerate(totals) if c != 0}
    else:
        terms = {basis[i]: Q(c, den) for i, c in enumerate(totals) if c}
    return HElem._trusted(terms, f.d)


def concat_reference(x: TensorElem, y: TensorElem, N: int) -> TensorElem:
    ctx = word_context(N, x.d, x.n)
    xi, xv = sparse_reference(x.terms, ctx)
    yi, yv = sparse_reference(y.terms, ctx)
    (xv, yv), den = numerators(xv, yv)
    out = ctx.product(ctx.operand(xi, xv), ctx.operand(yi, yv), Q(0) if den is None else 0)
    basis = ctx.basis
    terms = {basis[k]: c if den is None else Q(c, den) for k, c in out.items() if c}
    return TensorElem._trusted(terms, x.d, x.n)


def vector_reference(ctx, terms: dict) -> Row:
    values = {}
    for w, c in terms.items():
        i = ctx.index.get(w)
        if i is not None:
            values[i] = c
    (nums,), den = numerators(list(values.values()))
    if den is not None:
        values = dict(zip(values, nums))
    return Row(values, den, len(terms))


def assert_same_terms(got: dict, want: dict):
    assert list(got) == list(want)
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
    assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]


# -- strategies --------------------------------------------------------------


def coefficient(draw, mode, nonzero=False):
    """Exact: a Fraction or an int.  Floats: quotients by a prime, whose sums
    round differently in different orders."""
    lo = 1 if nonzero else -5
    if mode == EXACT:
        c = draw(st.integers(lo, 5)) if draw(st.booleans()) else Q(draw(st.integers(lo, 9)), draw(st.integers(1, 12)))
    else:
        c = draw(st.integers(lo, 4000)) / 997
    return -c if nonzero and draw(st.booleans()) else c


def sparse_terms(draw, basis, mode, max_size):
    """Random coefficients on some keys of basis, the unit first when drawn;
    a float unit may be Fraction(1) or the int 1, as increments hold it."""
    terms = {}
    if draw(st.booleans()):
        c = coefficient(draw, mode)
        terms[basis[0]] = c if mode == EXACT else draw(st.sampled_from((c, Q(1), 1)))
    for k in draw(st.lists(st.sampled_from(basis[1:]), max_size=max_size, unique=True)):
        terms[k] = coefficient(draw, mode)
    return terms


def corrupted(draw, g, basis, mode):
    """g, or g with the coefficient of one key of basis (the unit included)
    moved by a non-zero amount."""
    if draw(st.booleans()):
        return g
    key = draw(st.sampled_from(basis))
    terms = dict(g.terms)
    terms[key] = terms.get(key, 0) + coefficient(draw, mode, nonzero=True)
    return type(g)(terms, *g.ctx)


@st.composite
def forest_characters(draw):
    """exp of a random tree-supported functional, maybe corrupted."""
    mode = draw(st.sampled_from((EXACT, FLOATS)))
    N = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    trees = enumerate_trees(N, d)
    chosen = draw(st.lists(st.sampled_from(trees), min_size=1, max_size=4, unique=True))
    h = HElem({Forest((t,)): coefficient(draw, mode) for t in chosen}, d)
    g = exp_star(h, N)
    return mode, N, corrupted(draw, g, enumerate_forests(N, d), mode)


@st.composite
def word_characters(draw):
    """exp of a random combination of letters and one bracket of letters
    (a Lie element, so a shuffle character), maybe corrupted."""
    mode = draw(st.sampled_from((EXACT, FLOATS)))
    N = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, min(N, 2)))
    letters = [Word((t,)) for t in enumerate_trees(n, d)]
    x = TensorElem({w: coefficient(draw, mode) for w in letters}, d, n)
    a, b = (TensorElem.from_word(draw(st.sampled_from(letters)), d, n) for _ in range(2))
    x = x + (concat(a, b, N) - concat(b, a, N)).scale(coefficient(draw, mode))
    g = tensor_exp(x, N)
    return mode, N, corrupted(draw, g, enumerate_words(N, d, n), mode)


# -- one character loop --------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(forest_characters())
def test_forest_character_verdicts_match_the_replaced_loop(case):
    mode, N, g = case
    eq = operator.eq if mode == EXACT else FLOAT_EQ
    assert is_group_like(g, N, eq) == is_group_like_reference(g, N, eq)


@settings(max_examples=80, deadline=None)
@given(word_characters())
def test_word_character_verdicts_match_the_replaced_loop(case):
    mode, N, g = case
    eq = operator.eq if mode == EXACT else FLOAT_EQ
    assert is_tensor_group_like(g, N, eq) == is_tensor_group_like_reference(g, N, eq)


def test_both_verdicts_occur():
    d, N = 2, 3
    h = HElem({Forest((t,)): Q(i + 1, 3) for i, t in enumerate(enumerate_trees(N, d))}, d)
    g = exp_star(h, N)
    assert is_group_like(g, N) and is_group_like_reference(g, N)
    cherry = Forest(enumerate_trees(1, d))  # b_1 b_2: a product, so constrained
    bad = g + HElem.from_forest(cherry, d)
    assert not is_group_like(bad, N) and not is_group_like_reference(bad, N)
    x = TensorElem({Word((t,)): Q(1, 2) for t in enumerate_trees(1, d)}, d, 1)
    w = tensor_exp(x, N)
    assert is_tensor_group_like(w, N) and is_tensor_group_like_reference(w, N)
    e11 = Word(enumerate_trees(1, d)[:1] * 2)
    broken = w + TensorElem.from_word(e11, d, 1)
    assert not is_tensor_group_like(broken, N) and not is_tensor_group_like_reference(broken, N)


def test_forest_product_table_is_the_forest_product():
    N, d = 4, 2
    ctx = ForestContext(N, d)  # fresh, so numbering past the basis starts here
    basis, width = ctx.basis, len(ctx.basis)
    past = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            (k,) = ctx.product_row(i, j)
            f = a * b
            assert ctx.keys[k] == f and ctx.position(f) == k
            if f.grade <= N:
                assert k == ctx.index[f] < width
            else:
                assert k >= width and f not in ctx.index
                assert past.setdefault(f, k) == k
            assert ctx.product_row(i, j) == (k,)
    # every forest past the basis got the next position on first sight
    assert sorted(past.values()) == list(range(width, len(ctx.keys)))
    assert len(ctx.keys) == len(ctx.lookup) == width + len(past)


def test_word_product_rows_are_the_shuffle_rows():
    ctx = word_context(3, 2, 2)
    for i in range(1, len(ctx.basis)):
        for j in range(1, len(ctx.basis)):
            row = ctx.product_row(i, j)
            assert row == ctx.shuffle_row(i, j)
            want = [Word(w) for w, c in _shuffle_words(ctx.keys[i], ctx.keys[j]) for _ in range(c)]
            assert [ctx.word(k) for k in row] == want


# -- one row builder, one product wrapper ----------------------------------------


@st.composite
def forest_pairs(draw):
    mode = draw(st.sampled_from((EXACT, FLOATS)))
    N = draw(st.integers(0, 4))
    d = draw(st.integers(1, 2))
    # forests one grade above N lie outside the context and are dropped
    wide = enumerate_forests(N + 1, d)
    return mode, N, HElem(sparse_terms(draw, wide, mode, 14), d), HElem(sparse_terms(draw, wide, mode, 14), d)


@st.composite
def word_pairs(draw):
    mode = draw(st.sampled_from((EXACT, FLOATS)))
    n = draw(st.integers(1, 3))
    N = draw(st.integers(0, 4))
    d = draw(st.integers(1, 2))
    wide = enumerate_words(N + 1, d, n)
    return mode, N, TensorElem(sparse_terms(draw, wide, mode, 20), d, n), TensorElem(sparse_terms(draw, wide, mode, 20), d, n)


@settings(max_examples=80, deadline=None)
@given(forest_pairs())
def test_convolve_matches_the_dense_row_wrapper(case):
    _, N, f, g = case
    got, want = convolve(f, g, N), convolve_reference(f, g, N)
    assert type(got) is type(want) and got.ctx == want.ctx
    assert_same_terms(got.terms, want.terms)


@settings(max_examples=80, deadline=None)
@given(word_pairs())
def test_concat_matches_the_sparse_row_wrapper(case):
    _, N, x, y = case
    got, want = concat(x, y, N), concat_reference(x, y, N)
    assert type(got) is type(want) and got.ctx == want.ctx
    assert_same_terms(got.terms, want.terms)


@settings(max_examples=60, deadline=None)
@given(word_pairs())
def test_sparse_rows_and_vectors_match_the_replaced_builders(case):
    _, N, x, _ = case
    ctx = word_context(N, x.d, x.n)
    pos, vals = ctx.sparse(x.terms)
    want_pos, want_vals = sparse_reference(x.terms, ctx)
    assert pos == want_pos
    assert [repr(c) for c in vals] == [repr(c) for c in want_vals]
    got, want = ctx.row_of(x.terms), vector_reference(ctx, x.terms)
    assert (got.den, got.size) == (want.den, want.size)
    assert_same_terms(got.values, want.values)
    fctx = forest_context(N, 1)
    f = HElem({h: Q(i + 1, 2) for i, h in enumerate(enumerate_forests(N + 1, 1))}, 1)
    assert fctx.operand(*fctx.sparse(f.terms)) == dense_reference(f, fctx)


# -- one product of rows ----------------------------------------------------------


def row_terms(ctx, row: Row) -> dict:
    """A row's terms by basis key, exact values as Fractions."""
    den = row.den
    return {ctx.basis[k]: c if den is None else Q(c, den) for k, c in row.values.items()}


def assert_reduced(row: Row):
    assert all(row.values.values())
    if row.den is not None:
        assert row.den > 0 and math.gcd(row.den, *row.values.values()) == 1
        assert all(type(c) is int for c in row.values.values())


@st.composite
def row_cases(draw):
    """A forest or word context and three elements, each drawn exact or
    float on its own, so rows of both kinds meet in one product."""
    N = draw(st.integers(0, 4))
    d = draw(st.integers(1, 2))
    if draw(st.booleans()):
        ctx, wide, reference = forest_context(N, d), enumerate_forests(N + 1, d), convolve_reference
        elements = [HElem(sparse_terms(draw, wide, draw(st.sampled_from((EXACT, FLOATS))), 14), d) for _ in range(3)]
    else:
        n = draw(st.integers(1, 3))
        ctx, wide, reference = word_context(N, d, n), enumerate_words(N + 1, d, n), concat_reference
        elements = [
            TensorElem(sparse_terms(draw, wide, draw(st.sampled_from((EXACT, FLOATS))), 20), d, n) for _ in range(3)
        ]
    return N, ctx, reference, elements


@settings(max_examples=120, deadline=None)
@given(row_cases())
def test_times_matches_the_replaced_wrappers(case):
    N, ctx, reference, (x, y, z) = case
    a, b, c = (ctx.row_of(e.terms) for e in (x, y, z))
    for r, e in ((a, x), (b, y), (c, z)):
        assert_reduced(r)
        want = vector_reference(ctx, e.terms)
        assert (r.den, r.size) == (want.den, want.size) and r.values == want.values
    ab = ctx.times(a, b)
    want = reference(x, y, N)
    assert_reduced(ab)
    assert ab.size == len(ab.values)
    assert_same_terms(row_terms(ctx, ab), want.terms)
    # a product row is an operand in turn, and b's kept operand is read again
    for got, want in ((ctx.times(ab, c), reference(want, z, N)), (ctx.times(c, b), reference(z, y, N))):
        assert_reduced(got)
        assert_same_terms(row_terms(ctx, got), want.terms)


def test_times_covers_exact_float_and_mixed_rows():
    ctx = word_context(3, 1, 1)
    e1, e11 = (Word(enumerate_trees(1, 1) * k) for k in (1, 2))
    exact = ctx.row_of({EMPTY_WORD: Q(1), e1: Q(3, 4), e11: Q(9, 32)})
    floats = ctx.row_of({EMPTY_WORD: Q(1), e1: 0.75, e11: 0.28125})
    unit = ctx.row_of({EMPTY_WORD: Q(1)})
    assert (exact.den, exact.values) == (32, {0: 32, 1: 24, 2: 9})
    assert floats.den is None and unit.den == 1
    # exact: numerators over 32 * 32, reduced by their gcd 16
    got = ctx.times(exact, exact)
    assert_reduced(got)
    assert row_terms(ctx, got) == concat_reference(*(TensorElem(row_terms(ctx, exact), 1, 1),) * 2, 3).terms
    assert got.den == 64
    # mixed: on the scalars, in the same term order as the float product
    for left, right in ((exact, floats), (floats, exact), (unit, floats), (floats, unit)):
        got = ctx.times(left, right)
        want = concat_reference(TensorElem(row_terms(ctx, left), 1, 1), TensorElem(row_terms(ctx, right), 1, 1), 3)
        assert got.den is None
        assert_same_terms(row_terms(ctx, got), want.terms)
    # a float row whose float term falls past the level: the totals all
    # come out exact, and go back to numerators
    e111 = Word(enumerate_trees(1, 1) * 3)
    got = ctx.times(ctx.row_of({EMPTY_WORD: Q(1), e111: 0.5}), ctx.row_of({e1: Q(2)}))
    assert (got.den, got.values, got.size) == (1, {1: 2}, 1)


def test_the_loader_calls_the_key_parsers_through_module_globals(monkeypatch, tmp_path):
    """bench/tracer.py rebinds parse_h by name in every module that imported
    it, its defining module `expr` included, so the loader must look it up
    there at call time."""
    from hopfpath import expr
    from hopfpath.roughpath import SampledPath, canonical_lift, ito_lift, roughpath_from_json, roughpath_to_json

    path = SampledPath.over_labels([0, 1, 2], [[0], [1], [3]], 1)
    for name, X in (("parse_h", ito_lift(path, 2)), ("parse_tensor", canonical_lift(path, 2))):
        calls = []
        monkeypatch.setattr(expr, name, lambda *a, real=getattr(expr, name), calls=calls: calls.append(a) or real(*a))
        Y = roughpath_from_json(roughpath_to_json(X))
        assert len(calls) == sum(len(g.terms) for g in X.increments)
        assert roughpath_to_json(Y) == roughpath_to_json(X)
