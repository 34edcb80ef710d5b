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
combination to the sum of its forests' images, in term order.  The tree
images are rows {position: int} of one table per (morphism, N, d),
`_tree_rows`, which folds each tree's child forest (phi_g) or cut row
(psi) of `forest_context(N, d)` on `word_context(N, d, n)`, in grade order.
`psi`, `phi_g` and the adjoints read the table of their input's grade; a
`MorphismTable` holds its level's images as `TensorElem`s and reads them
back as rows when it folds.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType

from .hopf import HElem, forest_context
from .linear import summed
from .tensor import TensorElem, Word, WordContext, word_context
from .trees import EMPTY_FOREST, Forest, Tree, chain, forests_of_grade

_ZERO = Fraction(0)


def _exact(c):
    """An integral Fraction as an int, anything else unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _fold(ctx: WordContext, rows, memo: dict, f: Forest) -> dict:
    """f's image as {ctx position: coefficient}: the last tree's image
    shuffled onto the image of the others, each forest folded once per memo.

    rows maps a tree to its image as a row on ctx.  Zeros are kept: a word
    one shuffle cancels keeps its place for the next."""
    img = memo.get(f)
    if img is None:
        if len(f.factors) > 1:
            rest = _fold(ctx, rows, memo, Forest(f.factors[:-1]))
            img = ctx.shuffle(rest, _fold(ctx, rows, memo, Forest(f.factors[-1:])))
        elif f.factors:
            img = rows[f.factors[0]]
        else:
            img = {ctx.position(()): 1}
        memo[f] = img
    return img


def _letter_bound(which: str, N: int) -> int:
    return 1 if which == "phi_g" else max(N, 1)


@functools.lru_cache(maxsize=None)
def _tree_rows(which: str, N: int, d: int) -> tuple:
    """(ctx, rows): the images of the trees of grade <= N, labels <= d, in
    grade order, as read-only rows {position: int} on ctx = word_context(N,
    d, n), each folded from the rows of smaller trees.

    phi_g(t) is the shuffle of t's children with the root letter appended.
    psi(t) is t, the one-letter word, plus psi(pruned) with the trunk (a
    tree) appended as a letter over the nontrivial cuts of t's cut row, in
    its order and with its counts."""
    ctx, fctx = word_context(N, d, _letter_bound(which, N)), forest_context(N, d)
    forests, keys, at, rows = fctx.basis, ctx.keys, ctx.position, {}
    fold = functools.partial(_fold, ctx, rows, {})
    for k, t in enumerate(fctx.trees):
        if which == "phi_g":
            root = (Tree(t.label),)
            row = {at(keys[i] + root): c for i, c in fold(Forest(t.children)).items()}
        else:
            row = {at((t,)): 1}
            for a, b, cnt in fctx.cuts[fctx.by_ids[k,]]:
                if a and b:  # position 0 is the unit forest
                    trunk = forests[b].factors
                    for i, c in fold(forests[a]).items():
                        j = at(keys[i] + trunk)
                        row[j] = row.get(j, 0) + cnt * c
        rows[t] = MappingProxyType(row)
    return ctx, MappingProxyType(rows)


def _image(terms: dict, d: int, n: int, ctx: WordContext, rows) -> TensorElem:
    """The morphism fixed by the tree rows on a combination of forests:
    forest images are summed in term order, then in each image's own order."""
    fold = functools.partial(_fold, ctx, rows, {})
    out = summed((k, c * v) for f, c in terms.items() for k, v in fold(f).items())
    return TensorElem({ctx.word(k): v for k, v in out.items()}, d, n)


def _adjoint(w: Word, d: int, which: str) -> HElem:
    """<adjoint(w), h> = <w, image(h)> over forests h of the word's grade:
    the morphisms are graded, so no other forest can hit w."""
    ctx, rows = _tree_rows(which, w.grade, d)
    memo, k = {}, ctx.position(w.letters)
    images = {h: _fold(ctx, rows, memo, h).get(k) for h in forests_of_grade(w.grade, d)}
    return HElem({h: _ZERO + c for h, c in images.items() if c}, d)


def phi_g(h: HElem) -> TensorElem:
    """Morphism onto words of single-vertex letters: [h]_i appends e_i,
    products shuffle."""
    return _image(h.terms, h.d, 1, *_tree_rows("phi_g", h.max_grade(), h.d))


def psi(h: HElem, N: int) -> TensorElem:
    """Morphism onto words of tree letters; a tree maps to itself plus words
    of strictly smaller-grade letters."""
    g = h.max_grade()
    if g > N:
        raise ValueError(f"grade {g} exceeds truncation level {N}")
    return _image(h.terms, h.d, max(N, 1), *_tree_rows("psi", g, h.d))


# -- adjoints --------------------------------------------------------------


def psi_adjoint(w: Word, N: int, d: int | None = None) -> HElem:
    """<psi*(w), h> = <w, psi(h)> over forests h of grade <= N."""
    if d is None:
        d = max(w.max_label(), 1)
    if w.grade > N:
        return HElem.zero(d)
    return _adjoint(w, d, "psi")


def phi_g_adjoint(w: Word, d: int | None = None) -> HElem:
    """<phi_g*(w), h> = <w, phi_g(h)>, over forests of the word's grade."""
    if w.max_letter_grade() > 1:
        raise ValueError("phi_g_adjoint needs single-vertex letters")
    if d is None:
        d = max(w.max_label(), 1)
    return _adjoint(w, d, "phi_g")


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
    """Per-tree images of one morphism for grade <= N, labels <= d, in
    `cache` as `TensorElem`s over the basis words of the table's context,
    taken from `_tree_rows`.  They are read back as rows each time the
    table folds, so edits to `cache` count; a tree outside the table is a
    KeyError."""

    __slots__ = ("which", "N", "d", "cache")

    def __init__(self, which: str, N: int, d: int):
        if which not in ("phi_g", "psi"):
            raise ValueError(f"unknown morphism {which!r}")
        self.which = which
        self.N = N
        self.d = d
        n = self.letter_bound()
        ctx, rows = _tree_rows(which, N, d)
        word = ctx.word
        self.cache = {
            t: TensorElem._trusted({word(k): _ZERO + c for k, c in row.items()}, d, n) for t, row in rows.items()
        }

    def letter_bound(self) -> int:
        return _letter_bound(self.which, self.N)

    def rows(self, ctx: WordContext) -> dict:
        """The images in `cache` as rows on ctx, read now."""
        at = ctx.position
        return {t: {at(w.letters): _exact(c) for w, c in img.terms.items()} for t, img in self.cache.items()}

    def image(self, f: Forest) -> TensorElem:
        """Morphism value on a basis forest: shuffle over the factors."""
        return self.image_elem(HElem.from_forest(f, self.d))

    def image_elem(self, x: HElem) -> TensorElem:
        ctx = word_context(self.N, self.d, self.letter_bound())
        return _image(x.terms, x.d, self.letter_bound(), ctx, self.rows(ctx))


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
    image = functools.partial(_fold, ctx, table.rows(ctx), {})
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
