"""Hopf morphisms from the forest algebra into tensor algebras.

phi_g flattens a forest into shuffles of its vertex words (the geometric
side's view of a tree); psi cuts a tree apart into words whose letters are
the cut pieces, keeping the tree itself as the single-letter word.  Both are
algebra morphisms for the shuffle product and coproduct morphisms onto
deconcatenation, which is what verify_hopf_morphism checks exhaustively.

The adjoints pull tensor functionals back to forest functionals; they turn
concatenation into the convolution product.

A morphism is fixed by its tree images, and `_fold` is the one fold that
extends it: a forest maps to the shuffle of its trees' images, as a map
from word-context positions to coefficients (ints where integral), and a
combination to the sum of its forests' images, in term order.  The cached
`_phi_tree`/`_psi_tree` fold their subforests, `_psi_tree` over the tree's
cut row in the forest context, and everything else folds over them or over
a `MorphismTable` on a context sized by its input's grade.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .hopf import HElem, forest_context
from .linear import summed
from .tensor import TensorElem, Word, WordContext, word_context
from .trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    chain,
    enumerate_trees,
    forests_of_grade,
)

_ZERO = Fraction(0)


def _exact(c):
    """An integral Fraction as an int, anything else unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _fold(ctx: WordContext, tree_image, memo: dict, f: Forest) -> dict:
    """f's image as {ctx position: coefficient}: the last tree's image
    shuffled onto the image of the others, each forest folded once per memo.

    tree_image maps a tree to its image as a word map.  Zeros are kept: a
    word one shuffle cancels keeps its place for the next."""
    img = memo.get(f)
    if img is None:
        if len(f.factors) > 1:
            rest = _fold(ctx, tree_image, memo, Forest(f.factors[:-1]))
            img = ctx.shuffle(rest, _fold(ctx, tree_image, memo, Forest(f.factors[-1:])))
        elif f.factors:
            img = {ctx.position(w.letters): _exact(c) for w, c in tree_image(f.factors[0]).items()}
        else:
            img = {ctx.position(()): 1}
        memo[f] = img
    return img


def _image(terms: dict, d: int, n: int, tree_image, ctx: WordContext) -> TensorElem:
    """The morphism fixed by tree_image on a combination of forests: forest
    images are summed in term order, then in each image's own order."""
    fold = functools.partial(_fold, ctx, tree_image, {})
    out = summed((k, c * v) for f, c in terms.items() for k, v in fold(f).items())
    return TensorElem({ctx.word(k): v for k, v in out.items()}, d, n)


def _adjoint(w: Word, d: int, tree_image, ctx: WordContext) -> HElem:
    """<adjoint(w), h> = <w, image(h)> over forests h of the word's grade:
    the morphisms are graded, so no other forest can hit w."""
    memo, k = {}, ctx.position(w.letters)
    images = {h: _fold(ctx, tree_image, memo, h).get(k) for h in forests_of_grade(w.grade, d)}
    return HElem({h: _ZERO + c for h, c in images.items() if c}, d)


@functools.lru_cache(maxsize=None)
def _phi_tree(t: Tree) -> Mapping:
    """phi_g(t) as a read-only word map: child shuffles with the root letter
    appended, so a tree of grade n maps to words of n single-vertex letters."""
    ctx = word_context(t.grade, t.max_label(), 1)
    root = (Tree(t.label),)
    acc = _fold(ctx, _phi_tree, {}, Forest(t.children))
    return MappingProxyType({Word(ctx.keys[k] + root): _ZERO + v for k, v in acc.items()})


def phi_g(h: HElem) -> TensorElem:
    """Morphism onto words of single-vertex letters: [h]_i appends e_i,
    products shuffle."""
    return _image(h.terms, h.d, 1, _phi_tree, word_context(h.max_grade(), h.d, 1))


@functools.lru_cache(maxsize=None)
def _psi_tree(t: Tree) -> Mapping:
    """psi(t) as a read-only word map.

    psi(t) = t (one-letter word) plus, for every nontrivial cut
    pruned (x) trunk with its multiplicity, psi(pruned) with the trunk
    appended as a single letter, over the cut row of t in the forest
    context of t's grade and labels, in its order.  The trunk of a tree cut
    is always a tree.
    """
    ctx = word_context(t.grade, t.max_label(), t.grade)
    fctx = forest_context(t.grade, t.max_label())
    forests, memo = fctx.basis, {}

    def pairs():
        yield Word((t,)), 1
        for a, b, cnt in fctx.cuts[fctx.index[Forest((t,))]]:
            if a and b:  # position 0 is the unit forest
                for k, v in _fold(ctx, _psi_tree, memo, forests[a]).items():
                    yield Word(ctx.keys[k] + forests[b].factors), cnt * v

    return MappingProxyType(summed(pairs()))


def psi(h: HElem, N: int) -> TensorElem:
    """Morphism onto words of tree letters; a tree maps to itself plus words
    of strictly smaller-grade letters."""
    g = h.max_grade()
    if g > N:
        raise ValueError(f"grade {g} exceeds truncation level {N}")
    return _image(h.terms, h.d, max(N, 1), _psi_tree, word_context(g, h.d, max(g, 1)))


# -- adjoints --------------------------------------------------------------


def psi_adjoint(w: Word, N: int, d: int | None = None) -> HElem:
    """<psi*(w), h> = <w, psi(h)> over forests h of grade <= N."""
    if d is None:
        d = max(w.max_label(), 1)
    if w.grade > N:
        return HElem.zero(d)
    return _adjoint(w, d, _psi_tree, word_context(w.grade, d, max(w.grade, 1)))


def phi_g_adjoint(w: Word, d: int | None = None) -> HElem:
    """<phi_g*(w), h> = <w, phi_g(h)>, over forests of the word's grade."""
    if w.max_letter_grade() > 1:
        raise ValueError("phi_g_adjoint needs single-vertex letters")
    if d is None:
        d = max(w.max_label(), 1)
    return _adjoint(w, d, _phi_tree, word_context(w.grade, d, 1))


# -- chain embedding -------------------------------------------------------


def iota(w: Word) -> Tree:
    """Word of single-vertex letters to the linear chain tree: first letter
    at the leaf end, last letter at the root."""
    if w.is_empty():
        raise ValueError("empty word has no chain tree")
    if w.max_letter_grade() > 1:
        raise ValueError("iota needs single-vertex letters")
    return chain(t.label for t in w.letters)


def iota_elem(x: TensorElem) -> HElem:
    """Linear extension of iota; the empty word maps to the empty forest."""
    pairs = ((EMPTY_FOREST if w.is_empty() else Forest((iota(w),)), c) for w, c in x.terms.items())
    return HElem(summed(pairs), x.d)


# -- morphism table and verification ---------------------------------------


class MorphismTable:
    """Per-tree images of one morphism, built once for grade <= N, labels
    <= d, then read-only."""

    __slots__ = ("which", "N", "d", "cache")

    def __init__(self, which: str, N: int, d: int):
        if which not in ("phi_g", "psi"):
            raise ValueError(f"unknown morphism {which!r}")
        self.which = which
        self.N = N
        self.d = d
        n = self.letter_bound()
        fn = _phi_tree if which == "phi_g" else _psi_tree
        self.cache = {
            t: TensorElem(dict(fn(t)), d, n) for t in enumerate_trees(N, d)
        }

    def letter_bound(self) -> int:
        return 1 if self.which == "phi_g" else max(self.N, 1)

    def _tree_terms(self, t: Tree) -> dict:
        entry = self.cache.get(t)
        if entry is None:
            raise ValueError(f"tree {t!r} outside table level {self.N}")
        return entry.terms

    def image(self, f: Forest) -> TensorElem:
        """Morphism value on a basis forest: shuffle over the factors."""
        return self.image_elem(HElem.from_forest(f, self.d))

    def image_elem(self, x: HElem) -> TensorElem:
        g = x.max_grade()
        ctx = word_context(g, self.d, 1 if self.which == "phi_g" else max(g, 1))
        return _image(x.terms, x.d, self.letter_bound(), self._tree_terms, ctx)


def _same(a: dict, b: dict) -> bool:
    """Equal as maps, zero values aside."""
    return a == b or {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


def verify_hopf_morphism(which: str, N: int, d: int, table: MorphismTable | None = None) -> dict:
    """Exhaustive morphism check on all forests of grade <= N.

    Product check: image(h1 h2) = image(h1) shuffled with image(h2).
    Coproduct check: deconcat(image(h)) = (image (x) image)(cut coproduct h).
    Returns a report with the first counterexample if any.

    Tree images are read from `table.cache` at check time, so edits to it
    count.  Each forest image is folded once, on the context of the table's
    level; the checks compare the folded maps, with shuffles and splits
    from the word context's tables and cuts and products from the forest
    context's rows.
    """
    if table is None:
        table = MorphismTable(which, N, d)
    report = {
        "which": which,
        "N": N,
        "d": d,
        "status": "pass",
        "checked_forests": 0,
        "checked_pairs": 0,
        "witness": None,
    }
    ctx = word_context(N, d, table.letter_bound())
    image = functools.partial(_fold, ctx, table._tree_terms, {})
    fctx = forest_context(N, d)
    forests = fctx.basis
    for h, cuts in zip(forests, fctx.cuts):
        lhs = {key: c for i, c in image(h).items() for key in ctx.splits.get(i) or ctx.split(i)}
        rhs: dict = {}
        for a, b, cnt in cuts:
            ib = image(forests[b])
            for i, ca in image(forests[a]).items():
                c = cnt * ca
                for j, cb in ib.items():
                    key = (i, j)
                    rhs[key] = rhs.get(key, 0) + c * cb
        if not _same(lhs, rhs):
            report["status"] = "fail"
            report["witness"] = f"coproduct morphism fails on {h!r}"
            return report
        report["checked_forests"] += 1
    for i, h1 in enumerate(forests[1:], 1):
        for j, h2 in enumerate(forests[1:], 1):  # the unit first, then by grade
            if h1.grade + h2.grade > N:
                break
            (k,) = fctx.product_row(i, j)
            if not _same(ctx.shuffle(image(h1), image(h2)), image(forests[k])):
                report["status"] = "fail"
                report["witness"] = f"product morphism fails on {h1!r}, {h2!r}"
                return report
            report["checked_pairs"] += 1
    return report
