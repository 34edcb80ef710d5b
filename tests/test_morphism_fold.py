"""The positional morphism fold against the word-level fold it replaced.

`phi_g`, `psi`, their adjoints, `MorphismTable` and `tensor.shuffle` fold
forest images over word-context positions.  The word-level fold they
replaced (a shuffle of word maps keyed by `Word`, folded over a forest's
trees from the unit) is written out here as a reference, and both are
compared term by term: the same keys in the same insertion order, the same
scalar types and values; the order counts because float pairings iterate
images in insertion order.  The tables are also corrupted with negative,
non-integral and above-level coefficients; mixed signs make intermediate
shuffles cancel, which the positional fold must not let move a word.

The table builder `morphisms._tree_rows` is also checked against the
per-tree folds it replaced, kept in `oracles.py`: row by row, with the same
positions in the same order and the same scalar types, and through `psi`,
`phi_g` and both adjoints, against the maps that read the per-tree folds.
"""

import functools
import itertools
from fractions import Fraction as Q

import pytest

from hopfpath.hopf import HElem
from hopfpath.morphisms import MorphismTable, _tree_rows, phi_g, phi_g_adjoint, psi, psi_adjoint
from hopfpath.tensor import TensorElem, Word, enumerate_words, shuffle
from hopfpath.trees import Forest, Tree, enumerate_forests, enumerate_trees, forests_of_grade
import oracles
from oracles import _tree_coproduct

_ZERO = Q(0)
_UNIT = {Word(): Q(1)}


# -- the word-level fold ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def shuffle_words_reference(u, v):
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for w, c in shuffle_words_reference(u[1:], v):
        out[(u[0],) + w] = out.get((u[0],) + w, 0) + c
    for w, c in shuffle_words_reference(u, v[1:]):
        out[(v[0],) + w] = out.get((v[0],) + w, 0) + c
    return tuple(out.items())


def shuffle_terms_reference(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            for letters, cnt in shuffle_words_reference(w1.letters, w2.letters):
                w = Word(letters)
                out[w] = out.get(w, _ZERO) + cnt * c1 * c2
    return out


def forest_image_reference(f, tree_image):
    acc = _UNIT
    for t in f.factors:
        acc = shuffle_terms_reference(acc, tree_image(t))
    return acc


def linear_image_reference(h, tree_image, n):
    out = {}
    for f, c in h.terms.items():
        for w, v in forest_image_reference(f, tree_image).items():
            out[w] = out.get(w, _ZERO) + c * v
    return TensorElem(out, h.d, n)


@functools.lru_cache(maxsize=None)
def cached_forest_image_reference(f, tree_image):
    return forest_image_reference(f, tree_image)


def adjoint_reference(w, d, tree_image):
    out = {}
    for h in forests_of_grade(w.grade, d):
        c = cached_forest_image_reference(h, tree_image).get(w)
        if c:
            out[h] = c
    return HElem(out, d)


@functools.lru_cache(maxsize=None)
def phi_tree_reference(t):
    acc = forest_image_reference(Forest(t.children), phi_tree_reference)
    return {Word(w.letters + (Tree(t.label),)): v for w, v in acc.items()}


@functools.lru_cache(maxsize=None)
def psi_tree_reference(t):
    out = {Word((t,)): Q(1)}
    for left, right, cnt in _tree_coproduct(t):
        if left == Forest((t,)) or left.is_unit():
            continue
        for w, v in forest_image_reference(left, psi_tree_reference).items():
            key = Word(w.letters + (right.factors[0],))
            out[key] = out.get(key, _ZERO) + cnt * v
    return out


def table_terms(table):
    return lambda t: table.cache[t].terms


# -- comparison ------------------------------------------------------------


def assert_same_terms(got, want):
    assert got.ctx == want.ctx
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


def combination(forests, d, scalar):
    """Every forest once, with coefficients of both signs."""
    return HElem({f: scalar((-1) ** k * (k + 1), 7) for k, f in enumerate(forests)}, d)


SCALARS = {
    "fraction": Q,
    "int": lambda p, q: p,
    "float": lambda p, q: p / q,
}


@pytest.mark.parametrize("d", [1, 2])
def test_phi_g_and_psi_of_each_forest_match_the_word_fold(d):
    for f in enumerate_forests(4, d):
        h = HElem.from_forest(f, d)
        assert_same_terms(phi_g(h), linear_image_reference(h, phi_tree_reference, 1))
        for N in (4, 6):
            assert_same_terms(psi(h, N), linear_image_reference(h, psi_tree_reference, N))


@pytest.mark.parametrize("scalar", sorted(SCALARS))
@pytest.mark.parametrize("d", [1, 2])
def test_phi_g_and_psi_of_combinations_match_the_word_fold(d, scalar):
    x = combination(enumerate_forests(4, d), d, SCALARS[scalar])
    assert_same_terms(phi_g(x), linear_image_reference(x, phi_tree_reference, 1))
    assert_same_terms(psi(x, 4), linear_image_reference(x, psi_tree_reference, 4))


def test_the_cached_tree_images_match_the_word_fold():
    # the table builder's rows, and the tables' TensorElems made from them
    for which, want_of in (("phi_g", phi_tree_reference), ("psi", psi_tree_reference)):
        ctx, rows = _tree_rows(which, 5, 2)
        table = MorphismTable(which, 5, 2)
        for t in enumerate_trees(5, 2):
            want = want_of(t)
            got = table.cache[t].terms
            assert list(got.items()) == list(want.items())
            assert all(type(c) is Q for c in got.values())
            assert [(ctx.word(k), c) for k, c in rows[t].items()] == list(want.items())
            assert all(type(c) is int for c in rows[t].values())


@pytest.mark.parametrize("d", [1, 2])
def test_the_adjoints_match_the_word_fold(d):
    for w in enumerate_words(4, d, 4):
        assert_same_terms(psi_adjoint(w, 4, d), adjoint_reference(w, d, psi_tree_reference))
        if w.max_letter_grade() <= 1:
            assert_same_terms(phi_g_adjoint(w, d), adjoint_reference(w, d, phi_tree_reference))
    # a word outside the alphabet is hit by no forest
    w = Word((Tree(3), Tree(1)))
    assert_same_terms(psi_adjoint(w, 4, 2), adjoint_reference(w, 2, psi_tree_reference))
    assert_same_terms(phi_g_adjoint(w, 2), adjoint_reference(w, 2, phi_tree_reference))


# -- the table builder against the per-tree folds it replaced --------------

TABLE_LEVELS = [(N, d) for N in range(6) for d in (1, 2)] + [(N, 3) for N in range(5)]


def assert_same_rows(got, want):
    assert list(got.items()) == list(want.items())
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


@pytest.mark.parametrize("N, d", TABLE_LEVELS)
@pytest.mark.parametrize("which", ["psi", "phi_g"])
def test_table_rows_are_the_per_tree_folds(which, N, d):
    # each row as the old fold read the per-tree cache: by position on the
    # table's context, an integral Fraction as an int
    ctx, rows = _tree_rows(which, N, d)
    assert list(rows) == list(enumerate_trees(N, d) if N else ())
    for t, row in rows.items():
        want = oracles.TREE_REFERENCES[which](t)
        assert_same_rows(row, {ctx.position(w.letters): oracles._integral(c) for w, c in want.items()})
        assert all(k < len(ctx.basis) for k in row)


@pytest.mark.parametrize("N, d", [(4, 2), (3, 3)])
def test_psi_and_phi_g_are_the_per_tree_folds(N, d):
    forests = enumerate_forests(N, d)
    for f in forests:
        h = HElem.from_forest(f, d)
        assert_same_terms(phi_g(h), oracles.morphism_reference("phi_g", h, 1))
        for level in (N, N + 2):
            assert_same_terms(psi(h, level), oracles.morphism_reference("psi", h, level))
    for scalar in SCALARS.values():
        x = combination(forests, d, scalar)
        assert_same_terms(phi_g(x), oracles.morphism_reference("phi_g", x, 1))
        assert_same_terms(psi(x, N), oracles.morphism_reference("psi", x, N))
    zero = HElem.zero(d)
    assert_same_terms(psi(zero, N), oracles.morphism_reference("psi", zero, N))


@pytest.mark.parametrize("N, d", [(4, 2), (3, 3)])
def test_the_adjoints_are_the_per_tree_folds(N, d):
    for w in enumerate_words(N, d, N):
        assert_same_terms(psi_adjoint(w, N, d), oracles.morphism_adjoint_reference("psi", w, d))
        if w.max_letter_grade() <= 1:
            assert_same_terms(phi_g_adjoint(w, d), oracles.morphism_adjoint_reference("phi_g", w, d))
    w = Word((Tree(d + 1), Tree(1)))
    assert_same_terms(psi_adjoint(w, N, d), oracles.morphism_adjoint_reference("psi", w, d))
    assert_same_terms(phi_g_adjoint(w, d), oracles.morphism_adjoint_reference("phi_g", w, d))


# -- morphism tables, intact and corrupted ---------------------------------


def _each(corrupt):
    def apply(table):
        for t, img in table.cache.items():
            table.cache[t] = TensorElem(corrupt(list(img.terms.items())), img.d, img.n)
    return apply


def _negated(terms):
    return {w: -c if k % 2 else c for k, (w, c) in enumerate(terms)}


def _halved(terms):
    return {w: c / 2 if k % 2 else c for k, (w, c) in enumerate(terms)}


def _above_level(terms):
    # each word said twice too: twice the tree's grade, above the level for
    # the larger trees
    return {**dict(terms), **{Word(w.letters * 2): -c for w, c in terms}}


def _crossed(table):
    # b_1 -> b_1 + b_2 and b_2 -> b_2 - b_1: the images of b_1 and b_2
    # shuffle to words b_1 b_2 and b_2 b_1 that cancel, and the forests
    # with more leaves shuffle on from those zeros
    if table.d >= 2:
        e1, e2 = (TensorElem({Word((Tree(i),)): Q(1)}, table.d, table.letter_bound()) for i in (1, 2))
        table.cache[Tree(1)] = table.cache[Tree(1)] + e2
        table.cache[Tree(2)] = table.cache[Tree(2)] - e1


CORRUPTIONS = {
    "none": lambda table: None,
    "negated": _each(_negated),
    "halved": _each(_halved),
    "above": _each(_above_level),
    "crossed": _crossed,
}


@pytest.mark.parametrize("N, d", [(4, 1), (3, 2), (4, 2)])
@pytest.mark.parametrize("which", ["psi", "phi_g"])
@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_table_images_match_the_word_fold(which, N, d, how):
    table = MorphismTable(which, N, d)
    CORRUPTIONS[how](table)
    n = table.letter_bound()
    ref = table_terms(table)
    forests = enumerate_forests(N, d)
    for f in forests:
        want = TensorElem(forest_image_reference(f, ref), d, n)
        assert_same_terms(table.image(f), want)
    for scalar in SCALARS.values():
        x = combination(forests, d, scalar)
        assert_same_terms(table.image_elem(x), linear_image_reference(x, ref, n))


@pytest.mark.parametrize("which", ["psi", "phi_g"])
def test_crossed_tables_cancel_inside_the_fold(which):
    # the case the order check above is for: a zero left by one shuffle
    # still places its word before later shuffles add to it
    table = MorphismTable(which, 3, 2)
    _crossed(table)
    zeros = 0
    for f in enumerate_forests(3, 2):
        acc = _UNIT
        for t in f.factors:
            zeros += sum(c == 0 for c in acc.values())
            acc = shuffle_terms_reference(acc, table.cache[t].terms)
    assert zeros


# -- tensor.shuffle --------------------------------------------------------


def _elements(d, n):
    words = [w for w in enumerate_words(4, d, n) if w.grade <= 2]
    for k, (u, v) in enumerate(itertools.combinations(words, 2)):
        yield TensorElem({u: Q(k % 5 - 2 or 1, 3), v: Q(-1)}, d, n)


@pytest.mark.parametrize("d, n", [(1, 1), (2, 1), (2, 2)])
def test_shuffle_matches_the_word_fold(d, n):
    xs = list(_elements(d, n))
    for x, y in itertools.product(xs[:12], xs[-12:]):
        want = TensorElem(shuffle_terms_reference(x.terms, y.terms), d, n)
        assert_same_terms(shuffle(x, y), want)
    # int coefficients come back as Fractions, as from the word fold
    x = TensorElem({Word((Tree(1),)): 2, Word((Tree(1), Tree(1))): -1}, 1)
    assert_same_terms(shuffle(x, x), TensorElem(shuffle_terms_reference(x.terms, x.terms), 1))


def test_shuffle_of_floats_stays_float():
    # a word reached c ways adds the product c times, so float sums may
    # round apart from the word fold's c * product; values agree closely
    a = TensorElem({Word((Tree(1),)): 0.1, Word((Tree(1), Tree(1))): 0.3}, 1)
    got = shuffle(a, a)
    want = TensorElem(shuffle_terms_reference(a.terms, a.terms), 1)
    assert list(got.terms) == list(want.terms)
    assert all(type(c) is float for c in got.terms.values())
    assert all(abs(got.terms[w] - c) <= 1e-15 * abs(c) for w, c in want.terms.items())
