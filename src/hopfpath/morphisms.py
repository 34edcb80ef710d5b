"""Hopf morphisms from the forest algebra into tensor algebras.

phi_g flattens a forest into shuffles of its vertex words (the geometric
side's view of a tree); psi cuts a tree apart into words whose letters are
the cut pieces, keeping the tree itself as the single-letter word.  Both are
algebra morphisms for the shuffle product and coproduct morphisms onto
deconcatenation, which is what verify_hopf_morphism checks exhaustively.

The adjoints pull tensor functionals back to forest functionals; they turn
concatenation into the convolution product.

A morphism is fixed by its tree images.  One fold extends it: a forest
maps to the shuffle of its trees' images, a combination to the sum of its
forests' images, in term order.  The functions run it over the cached
`_phi_tree`/`_psi_tree`, `MorphismTable` over its own copies of them.
verify_hopf_morphism runs the same fold on integer positions of a word
context, with each forest image built once.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .hopf import HElem, _forest_coproduct, _tree_coproduct
from .tensor import (
    EMPTY_WORD,
    TensorElem,
    Word,
    WordContext,
    shuffle_terms,
    word_context,
)
from .trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    chain,
    enumerate_forests,
    enumerate_trees,
    forests_of_grade,
)

_ZERO = Fraction(0)


_UNIT_DICT = MappingProxyType({EMPTY_WORD: Fraction(1)})


def _forest_image(f: Forest, tree_image) -> Mapping:
    """Shuffle of the images of f's trees, in factor order; tree_image maps
    a tree to its image as a word map."""
    acc = _UNIT_DICT
    for t in f.factors:
        acc = shuffle_terms(acc, tree_image(t))
    return acc


def _linear_image(h: HElem, tree_image, n: int) -> TensorElem:
    """The morphism fixed by tree_image, extended to h: forest images are
    summed in h's term order, then in each image's own order."""
    out: dict = {}
    for f, c in h.terms.items():
        for w, v in _forest_image(f, tree_image).items():
            out[w] = out.get(w, _ZERO) + c * v
    return TensorElem(out, h.d, n)


def _adjoint(w: Word, d: int, tree_image) -> HElem:
    """<adjoint(w), h> = <w, image(h)> over forests h of the word's grade:
    the morphisms are graded, so no other forest can hit w."""
    out: dict = {}
    for h in forests_of_grade(w.grade, d):
        c = _forest_image(h, tree_image).get(w)
        if c:
            out[h] = c
    return HElem(out, d)


@functools.lru_cache(maxsize=None)
def _phi_tree(t: Tree) -> Mapping:
    """phi_g(t) as a read-only word map: child shuffles with the root letter
    appended, so a tree of grade n maps to words of n single-vertex letters."""
    root = Tree(t.label)
    acc = _forest_image(Forest(t.children), _phi_tree)
    return MappingProxyType({Word(w.letters + (root,)): v for w, v in acc.items()})


def phi_g(h: HElem) -> TensorElem:
    """Morphism onto words of single-vertex letters: [h]_i appends e_i,
    products shuffle."""
    return _linear_image(h, _phi_tree, 1)


@functools.lru_cache(maxsize=None)
def _psi_tree(t: Tree) -> Mapping:
    """psi(t) as a read-only word map.

    psi(t) = t (one-letter word) plus, for every nontrivial cut
    pruned (x) trunk with its multiplicity, psi(pruned) with the trunk
    appended as a single letter.  The trunk of a tree cut is always a tree.
    """
    whole = Forest((t,))
    out: dict = {Word((t,)): Fraction(1)}
    for left, right, cnt in _tree_coproduct(t):
        if left == whole or left.is_unit():
            continue
        trunk = right.factors[0]
        for w, v in _forest_image(left, _psi_tree).items():
            key = Word(w.letters + (trunk,))
            out[key] = out.get(key, _ZERO) + cnt * v
    return MappingProxyType(out)


def psi(h: HElem, N: int) -> TensorElem:
    """Morphism onto words of tree letters; a tree maps to itself plus words
    of strictly smaller-grade letters."""
    if h.max_grade() > N:
        raise ValueError(f"grade {h.max_grade()} exceeds truncation level {N}")
    return _linear_image(h, _psi_tree, max(N, 1))


# -- adjoints --------------------------------------------------------------


def psi_adjoint(w: Word, N: int, d: int | None = None) -> HElem:
    """<psi*(w), h> = <w, psi(h)> over forests h of grade <= N."""
    if d is None:
        d = max(w.max_label(), 1)
    if w.grade > N:
        return HElem.zero(d)
    return _adjoint(w, d, _psi_tree)


def phi_g_adjoint(w: Word, d: int | None = None) -> HElem:
    """<phi_g*(w), h> = <w, phi_g(h)>, over forests of the word's grade."""
    if w.max_letter_grade() > 1:
        raise ValueError("phi_g_adjoint needs single-vertex letters")
    if d is None:
        d = max(w.max_label(), 1)
    return _adjoint(w, d, _phi_tree)


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
    out: dict = {}
    for w, c in x.terms.items():
        f = EMPTY_FOREST if w.is_empty() else Forest((iota(w),))
        out[f] = out.get(f, _ZERO) + c
    return HElem(out, x.d)


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
        return TensorElem(_forest_image(f, self._tree_terms), self.d, self.letter_bound())

    def image_elem(self, x: HElem) -> TensorElem:
        return _linear_image(x, self._tree_terms, self.letter_bound())


def _exact(c):
    """An integral Fraction as an int, anything else unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _shuffle_rows(ctx: WordContext, a: dict, b: dict) -> dict:
    """Shuffle of two word maps by context position, zeros dropped."""
    out: dict = {}
    get, shuffles, shuffle_row = out.get, ctx.shuffles.get, ctx.shuffle
    for i, ca in a.items():
        for j, cb in b.items():
            c = ca * cb
            for k in shuffles((i, j)) or shuffle_row(i, j):
                out[k] = get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def verify_hopf_morphism(which: str, N: int, d: int, table: MorphismTable | None = None) -> dict:
    """Exhaustive morphism check on all forests of grade <= N.

    Product check: image(h1 h2) = image(h1) shuffled with image(h2).
    Coproduct check: deconcat(image(h)) = (image (x) image)(cut coproduct h).
    Returns a report with the first counterexample if any.

    Tree images are read from `table.cache` at check time, so edits to it
    count.  Each forest image is built once, as a map from word-context
    positions to coefficients (ints where integral); the checks compare such
    maps, with shuffles and splits from the context's tables.
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
    images: dict = {}

    def image(h: Forest) -> dict:
        img = images.get(h)
        if img is None:
            if len(h.factors) > 1:
                img = _shuffle_rows(ctx, image(Forest(h.factors[:-1])), image(Forest(h.factors[-1:])))
            else:
                terms = table._tree_terms(h.factors[0]) if h.factors else _UNIT_DICT
                img = {ctx.position(w.letters): _exact(c) for w, c in terms.items()}
            images[h] = img
        return img

    forests = enumerate_forests(N, d)
    for h in forests:
        lhs = {key: c for i, c in image(h).items() for key in ctx.splits.get(i) or ctx.split(i)}
        rhs: dict = {}
        for a, b, cnt in _forest_coproduct(h):
            ib = image(b)
            for i, ca in image(a).items():
                c = cnt * ca
                for j, cb in ib.items():
                    key = (i, j)
                    rhs[key] = rhs.get(key, 0) + c * cb
        if lhs != {k: v for k, v in rhs.items() if v}:
            report["status"] = "fail"
            report["witness"] = f"coproduct morphism fails on {h!r}"
            return report
        report["checked_forests"] += 1
    for h1 in forests[1:]:
        for h2 in forests[1:]:  # the unit first, then by grade
            if h1.grade + h2.grade > N:
                break
            if _shuffle_rows(ctx, image(h1), image(h2)) != image(h1 * h2):
                report["status"] = "fail"
                report["witness"] = f"product morphism fails on {h1!r}, {h2!r}"
                return report
            report["checked_pairs"] += 1
    return report
