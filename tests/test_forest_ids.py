"""The forest context's tables on integer tree ids against the Forest loops
they replaced.

`ForestContext` builds its cut rows, antipode rows and product rows from the
positions of trees in `enumerate_trees(N, d)`, multiplying no `Forest`, and
`coproduct`, `antipode`, `psi` and the morphism checks read those rows.  The
forest-level recursions live on in `oracles` as references:
`_forest_coproduct` for the cuts, `_forest_antipode` for the antipode rows;
`Forest.__mul__` is the reference for the products, and the old
`star_inverse` loop is written out here.  Tables must agree with them
element for element, order included; `coproduct`, `antipode` and
`star_inverse` must give the same terms, order and scalar types in exact and
in float mode.  The word side's operands keep their per-grade buckets, so
`validate` builds them once per grid pair.
"""

import itertools
import random
import re
from fractions import Fraction as Q

import pytest

from hopfpath import hopf, morphisms, tensor
from hopfpath.hopf import ForestContext, HElem, PairElem, antipode, coproduct, exp_star, forest_context, star_inverse
from hopfpath.morphisms import psi, verify_hopf_morphism
from hopfpath.roughpath import FLOAT, RATIONAL, SampledPath, canonical_lift, validate
from hopfpath.tensor import WordContext
from hopfpath.trees import EMPTY_FOREST, Forest, enumerate_forests, enumerate_trees
from oracles import _forest_antipode, _forest_coproduct, linear_antipode, linear_coproduct

SIZES = [(0, 1), (1, 3), (3, 2), (4, 3), (5, 2), (6, 1)]


def items_with_types(x) -> list:
    return [(k, c, type(c)) for k, c in x.terms.items()]


@pytest.mark.parametrize("N, d", SIZES)
def test_cuts_are_the_forest_coproduct_in_its_order(N, d):
    ctx = forest_context(N, d)
    index = ctx.index
    want = tuple(tuple((index[a], index[b], c) for a, b, c in _forest_coproduct(h)) for h in ctx.basis)
    assert ctx.cuts == want
    for h in ctx.basis:  # the public map reads the rows of the context of h's grade
        x = HElem.from_forest(h, d)
        assert items_with_types(coproduct(x)) == items_with_types(PairElem(linear_coproduct(x.terms), d)), h


@pytest.mark.parametrize("N, d", SIZES)
def test_antipode_rows_are_the_filtered_forest_antipode(N, d):
    ctx = ForestContext(N, d)
    index = ctx.index
    for i, h in enumerate(ctx.basis):
        assert ctx.antipode(i) == tuple((index[f], c) for f, c in _forest_antipode(h) if c), h
        x = HElem.from_forest(h, d)
        assert items_with_types(antipode(x)) == items_with_types(HElem(linear_antipode(x.terms), d)), h


@pytest.mark.parametrize("N, d", SIZES)
@pytest.mark.parametrize("scalar", [Q, lambda p, q: p / q])
def test_coproduct_and_antipode_of_a_combination_match_the_recursions(N, d, scalar):
    # every basis forest once, both signs, in an order that is not the basis
    # order; the same terms with a label past a smaller d are refused
    forests = list(enumerate_forests(N, d))
    random.Random(N * 10 + d).shuffle(forests)
    terms = {f: scalar((-1) ** k * (k + 1), 7) for k, f in enumerate(forests)}
    x = HElem(terms, d)
    assert items_with_types(coproduct(x)) == items_with_types(PairElem(linear_coproduct(terms), x.d))
    assert items_with_types(antipode(x)) == items_with_types(HElem(linear_antipode(terms), x.d))
    if d > 1:
        first = next(f for f in forests if f.max_label() == d)
        with pytest.raises(ValueError, match=re.escape(f"forest label out of range 1..{d - 1} in {first!r}")):
            HElem(terms, d - 1)


@pytest.mark.parametrize("N, d", [(1, 3), (3, 2), (6, 1)])
def test_product_rows_are_forest_products_numbered_past_the_basis(N, d):
    ctx = ForestContext(N, d)
    basis = ctx.basis
    keys, lookup = list(basis), {f: i for i, f in enumerate(basis)}
    pairs = list(itertools.product(range(len(basis)), repeat=2))
    random.Random(N * 10 + d).shuffle(pairs)  # products past the basis are numbered in order of first sight
    for i, j in pairs:
        f = basis[i] * basis[j]
        if f not in lookup:
            lookup[f] = len(keys)
            keys.append(f)
        assert ctx.product_row(i, j) == (lookup[f],)
    assert ctx.keys == keys and len(keys) > len(basis)


def star_inverse_reference(g: HElem, N: int) -> HElem:
    out: dict = {}
    for h in enumerate_forests(N, g.d):
        total = Q(0)
        for f, cnt in _forest_antipode(h):
            c = g.terms.get(f)
            if c:
                total += cnt * c
        if total != 0:
            out[h] = total
    return HElem(out, g.d)


def character(N: int, d: int, seed: int, unit, values) -> HElem:
    """The character taking each tree to a value drawn from values and each
    forest to the product of its trees' values, in factor order."""
    rng = random.Random(seed)
    on_tree = {t: rng.choice(values) for t in enumerate_trees(N, d)}
    terms = {EMPTY_FOREST: unit}
    for h in enumerate_forests(N, d)[1:]:
        c = on_tree[h.factors[0]]
        for t in h.factors[1:]:
            c = c * on_tree[t]
        terms[h] = c
    return HElem(terms, d)


EXACT_VALUES = (Q(1, 2), Q(-3, 4), Q(5, 3), Q(2), Q(-1, 7), Q(0))
# dyadic floats with short mantissas: products of up to six stay exact, so
# the float characters pass the exact character test
FLOAT_VALUES = (0.5, -1.25, 0.75, 2.0, -0.375, 1.5, 0.0)


@pytest.mark.parametrize("N, d", [(3, 2), (4, 2), (5, 1)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_star_inverse_matches_the_forest_loop(N, d, seed):
    gs = [
        character(N, d, seed, Q(1), EXACT_VALUES),
        character(N, d, seed, Q(1), FLOAT_VALUES),  # a float path's unit is Fraction(1)
        character(N, d, seed, 1.0, FLOAT_VALUES),
        exp_star(HElem({Forest((t,)): Q(seed + 1, k + 2) for k, t in enumerate(enumerate_trees(N, d))}, d), N),
    ]
    for g in gs:
        assert items_with_types(star_inverse(g, N)) == items_with_types(star_inverse_reference(g, N))


def test_building_the_forest_context_multiplies_no_forests(monkeypatch):
    calls = []
    mul = Forest.__mul__
    monkeypatch.setattr(Forest, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    hopf.forest_context.cache_clear()
    ctx = forest_context(5, 2)
    for i in range(len(ctx.basis)):
        ctx.antipode(i)
    assert calls == []
    assert ctx.basis[1] * ctx.basis[2] == ctx.keys[ctx.product_row(1, 2)[0]]
    assert calls == [1]  # the guard sees a Forest product


def test_the_maps_on_the_forest_rows_multiply_no_forests(monkeypatch):
    for mod in (hopf, morphisms, tensor):
        for fn in vars(mod).values():
            if getattr(fn, "__module__", None) == mod.__name__ and hasattr(fn, "cache_clear"):
                fn.cache_clear()
    calls = []
    mul = Forest.__mul__
    monkeypatch.setattr(Forest, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    assert verify_hopf_morphism("psi", 5, 2)["status"] == "pass"
    assert verify_hopf_morphism("phi_g", 5, 2)["status"] == "pass"
    x = HElem({f: Q(k + 1, 3) for k, f in enumerate(enumerate_forests(5, 2)[::5])}, 2)
    assert x.max_grade() == 5
    coproduct(x), antipode(x), psi(x, 5)
    assert calls == []


def walk(M: int, mode: str) -> SampledPath:
    rows = [[Q(k % 3, 2), Q(k * k % 5, 3)] for k in range(M + 1)]
    times = [Q(k, M) for k in range(M + 1)]
    if mode == FLOAT:
        rows = [[float(c) for c in row] for row in rows]
        times = [float(t) for t in times]
    return SampledPath.over_labels(times, rows, 2, mode)


def concat_kernel_reference(ctx, x: tuple, y: tuple, zero) -> dict:
    """The word kernel as it was, building y's buckets on every call."""
    N, grades = ctx.N, ctx.grades
    yi, yv = y
    fits = [[(j, c) for j, c in zip(yi, yv) if grades[j] <= b] for b in range(N + 1)]
    out: dict = {}
    for i, c1 in zip(*x):
        row = ctx.row(i)
        for j, c2 in fits[N - grades[i]]:
            k = row[j]
            out[k] = out.get(k, zero) + c1 * c2
    return out


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_word_operands_give_the_old_kernel_totals(mode):
    X = canonical_lift(walk(4, mode), 3)
    ctx = X.context()
    rows = [ctx.sparse(X.increment(s, t).terms) for s, t in itertools.combinations(range(5), 2)]
    zero = Q(0)
    for x, y in itertools.product(rows, repeat=2):
        want = [(k, c, type(c)) for k, c in concat_kernel_reference(ctx, x, y, zero).items()]
        got = ctx.product(ctx.operand(*x), ctx.operand(*y), zero)
        assert [(k, c, type(c)) for k, c in got.items()] == want
    # a right operand's buckets are built on its first product and kept;
    # the kernel reads them from the operand
    left, right = ctx.operand(*rows[-1]), ctx.operand(*rows[-1])
    ctx.product(left, right, zero)
    fits = right[2]
    assert left[2] is None and fits is not None
    ctx.product(left, right, zero)
    assert right[2] is fits
    right[2] = [[]] * (ctx.N + 1)
    assert ctx.product(left, right, zero) == {}


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_chen_sweep_builds_each_word_operand_once(monkeypatch, mode):
    M = 6
    X = canonical_lift(walk(M, mode), 3)
    for s, t in itertools.combinations(range(M + 1), 2):
        X.increment(s, t)  # composed and cached now, so only the sweep counts below
    calls = []
    operand = WordContext.operand
    monkeypatch.setattr(WordContext, "operand", staticmethod(lambda *row: calls.append(1) or operand(*row)))
    report = validate(X)
    assert report["chen"]["status"] == "pass"
    assert report["chen"]["checked_triples"] == M * (M + 1) * (M - 1) // 6
    # one per pair used as an operand, none per triple: (0, M) is never one
    assert len(calls) == M * (M + 1) // 2 - 1
