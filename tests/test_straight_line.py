"""The generated straight-line functions of `linear` against the loops they
stand in for.

An exact sweep that repays it runs its products on a context's compiled
kernel (`Context.compiled`, `Context.fold`) and its psi pairings on one
compiled linear map (`Context.linear_map`).  Here the compiled kernels give
the loop kernels' totals on every basis pair and the rows of
`Context.times` on random exact rows, the psi map gives `Row.pair` on every
image, and single products, series and float rows compile nothing.  The
corrupted sweeps of `test_roughpath` and `test_pair_rows` run on both
paths.
"""

import math
from fractions import Fraction as Q
from random import Random

import pytest

from hopfpath import hopf, linear, tensor
from hopfpath.conversion import certify, encode
from hopfpath.hopf import HElem, convolve, exp_star, forest_context, log_star
from hopfpath.linear import Context
from hopfpath.morphisms import psi
from hopfpath.roughpath import FLOAT, SampledPath, ito_lift, validate
from hopfpath.tensor import TensorElem, Word, concat, tensor_exp, word_context
from hopfpath.trees import Forest, enumerate_forests, leaf

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
    loop_right = ctx.operand(range(n), right)
    with sweeps(compiled=True):
        kernel = ctx.compiled(0)
        for i in range(n):
            left = [0] * n
            left[i] = 1
            got = kernel(left, right)
            want = ctx.product(ctx.operand([i], [1]), loop_right, 0)
            assert len(got) == n
            assert {k: c for k, c in enumerate(got) if c} == {k: c for k, c in want.items() if c}, i


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
    with sweeps(compiled=True):
        ctx.compiled(0)
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
    with sweeps(compiled=True) as calls:
        images_of = own.linear_map([img.values.items() for img in images], 0)
        for trial in range(6):
            vec = _random_row(own, rng, trial % 2)
            assert images_of(own.dense(vec)) == [img.pair(vec) for img in images]
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


def test_float_sweeps_run_the_loop_kernel(monkeypatch):
    # M=24 makes enough products to repay compiling, were the rows exact
    M = 24
    assert math.comb(M, 2) >= linear._REPAID_AFTER
    X = ito_lift(_float_walk(M, 3), 3)
    Xbar = encode(X, False, False).geometric
    generated = []
    monkeypatch.setattr(linear, "_straight_line", lambda *args: generated.append(args))
    calls = count_calls(monkeypatch, (Context, "times"), (Context, "fold"))
    assert validate(X)["chen"]["status"] == "pass"
    assert certify(X, Xbar)["status"] == "pass"
    assert generated == []
    assert calls == {"Context.times": math.comb(M, 2) + math.comb(M + 1, 3) + 2 * math.comb(M, 2), "Context.fold": 0}


def test_an_exact_sweep_compiles_once_it_repays():
    # below the threshold a sweep runs on the loop even when the kernel is
    # built; at it, it compiles the kernel once and keeps it
    hopf.forest_context.cache_clear()
    tensor.word_context.cache_clear()
    ctx = forest_context(3, 2)
    assert ctx.compiled(linear._REPAID_AFTER - 1) is None and ctx.kernel is None
    kernel = ctx.compiled(linear._REPAID_AFTER)
    assert kernel is not None and ctx.kernel_terms == sum(map(len, ctx.cuts)) == 153
    assert ctx.compiled(10**6) is kernel
    assert ctx.compiled(linear._REPAID_AFTER - 1) is None
    assert ctx.linear_map([[(0, 1)]], linear._REPAID_AFTER - 1) is None
    assert ctx.linear_map([[(0, 2), (1, -1)], []], linear._REPAID_AFTER)([5, 7]) == [3, 0]
