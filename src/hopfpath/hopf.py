"""The Connes-Kreimer Hopf algebra on labelled forests, over exact rationals.

An HElem is a finite linear combination of forests, and a PairElem one of
forest pairs (H (x) H).  Both take their linear structure from
`linear.Linear`, which the word, word-pair and polynomial containers share:
sums, scaling, coefficients, equality, hashing and printing, with the
Kronecker pairing and the exp/log series loops beside it.  HElem adds the
alphabet size d (checked to be at least 1 and, on construction, against
the labels of every forest), its constructors and the forest product.

The same container plays both roles: elements of the algebra H (product =
forest concatenation, coproduct = cut sum) and, through the Kronecker
pairing on the forest basis, truncated functionals in the graded dual H*
(convolution product, exp/log, characters).  Coefficients are `fractions.Fraction` in exact mode, which is
where every algebraic guarantee is stated; float coefficients are tolerated
for large simulation grids.

Truncation level N is always an explicit argument of dual-side operations.
`convolve` runs on a forest context (a `linear.Context`), built once per
(N, d) by `forest_context`: the basis with integer positions and each basis
forest's cut coproduct as position triples; antipode rows and the products
of two forests (`product_row`, which `is_group_like` reads) are built on
first use, and a forest outside the basis is numbered past it.  The
context builds them on integer tree ids, and it is the one table of the
cut coproduct and the antipode: `coproduct` and `antipode` read its rows
on the context of their input's grade, as `morphisms.psi` and the verify
suites do.  The cut rows are also the product's table
(`ForestContext.table`): `convolve` runs the loop kernel that reads it,
`linear.Context.times`, through `linear.context_product`, and a sweep
compiles it into a straight-line kernel (`linear.Context.compiled`).
"""

from __future__ import annotations

import functools
import operator
import weakref
from fractions import Fraction
from typing import Mapping

# pair is the forest side's name for the one Kronecker pairing
from .linear import Context, Linear, LinearPairs, context_field, context_product, exp_series, is_character
from .linear import log_series, pair, summed
from .trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    enumerate_forests,
    enumerate_trees,
    trees_of_grade,
)

_ZERO = Fraction(0)


class HElem(Linear):
    """Linear combination of forests with alphabet-size context d."""

    __slots__ = ()

    d = context_field(0, "alphabet size: labels run over 1..d")

    def __init__(self, terms: dict, d: int):
        if d < 1:
            raise ValueError(f"alphabet size must be >= 1, got {d}")
        super().__init__(terms, d)
        for f in self.terms:
            if f.max_label() > d:
                raise ValueError(f"forest label out of range 1..{d} in {f!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, d: int) -> "HElem":
        """The empty forest: unit of H and, as a functional, the counit 1*."""
        return cls({EMPTY_FOREST: Fraction(1)}, d)

    @classmethod
    def from_tree(cls, t: Tree, d: int, coeff=Fraction(1)) -> "HElem":
        return cls({Forest((t,)): coeff}, d)

    @classmethod
    def from_forest(cls, f: Forest, d: int, coeff=Fraction(1)) -> "HElem":
        return cls({f: coeff}, d)

    def __mul__(self, other):
        if isinstance(other, HElem):
            return product(self, other)
        return self.scale(other)


class PairElem(LinearPairs):
    """Linear combination of forest pairs: elements of H (x) H, context d."""

    __slots__ = ()

    d = context_field(0, "alphabet size: labels run over 1..d")

    def componentwise_product(self, other: "PairElem") -> "PairElem":
        """(a (x) b) * (c (x) e) = ac (x) be, bilinearly."""
        right = other.terms.items()
        pairs = (((a * x, b * y), c1 * c2) for (a, b), c1 in self.terms.items() for (x, y), c2 in right)
        return PairElem(summed(pairs), self.d)

    def multiply_out(self) -> HElem:
        """Apply the product map M: a (x) b -> ab."""
        return HElem(summed((a * b, c) for (a, b), c in self.terms.items()), self.d)

    def map_left(self, fn) -> "PairElem":
        """Apply an HElem-valued linear map to the left components."""
        pairs = (((f, b), c * c2) for (a, b), c in self.terms.items() for f, c2 in fn(a).terms.items())
        return PairElem(summed(pairs), self.d)


# -- product and coproduct -------------------------------------------------


def product(x: HElem, y: HElem) -> HElem:
    """Bilinear extension of forest concatenation; commutative."""
    x._check(y)
    pairs = ((f1 * f2, c1 * c2) for f1, c1 in x.terms.items() for f2, c2 in y.terms.items())
    return HElem(summed(pairs), x.d)


def _context_of(x: HElem) -> ForestContext:
    """The forest context whose basis holds every forest of x: grades up to
    x's, labels up to d."""
    return forest_context(x.max_grade(), x.d)


def coproduct(x: HElem) -> PairElem:
    """The cut coproduct, extended linearly: each forest's cut row, in
    term order and then in the row's order."""
    ctx = _context_of(x)
    basis, index, cuts = ctx.basis, ctx.index, ctx.cuts
    pairs = (((basis[a], basis[b]), c * cnt) for f, c in x.terms.items() for a, b, cnt in cuts[index[f]])
    return PairElem(summed(pairs), x.d)


def antipode(x: HElem) -> HElem:
    """The antipode, extended linearly: each forest's antipode row, in term
    order and then in the row's order."""
    ctx = _context_of(x)
    basis, index = ctx.basis, ctx.index
    pairs = ((basis[g], c * cnt) for f, c in x.terms.items() for g, cnt in ctx.antipode(index[f]))
    return HElem(summed(pairs), x.d)


# -- dual-side operations --------------------------------------------------


class ForestContext(Context):
    """Forests of grade <= N over labels 1..d with integer positions: the
    basis in enumerate_forests order and, per basis forest, its cut
    coproduct as (left, right, count) positions, in the order `_cut_rows`
    states.  `ids[i]` is basis[i] as the ascending tuple of its trees'
    positions in enumerate_trees(N, d) and `by_ids` its inverse, so a product
    is a sorted concatenation and a lookup.  The antipode rows and the
    products of two basis forests are built on first use."""

    __slots__ = ("trees", "ids", "by_ids", "cuts", "antipodes", "products")
    live = weakref.WeakSet()  # every context not yet collected, for cache_sizes

    def __init__(self, N: int, d: int):
        basis = enumerate_forests(N, d)
        super().__init__((N, d), basis, basis)
        self.trees = enumerate_trees(N, d) if N else ()
        tree_id = {t: k for k, t in enumerate(self.trees)}
        # factors are sorted like enumerate_trees, so the ids ascend
        self.ids = [tuple(map(tree_id.__getitem__, f.factors)) for f in basis]
        self.by_ids = {ids: i for i, ids in enumerate(self.ids)}
        self.cuts = self._cut_rows(tree_id)
        self.antipodes: list = []
        self.products: dict = {}
        ForestContext.live.add(self)

    def _mul(self, i: int, j: int) -> int:
        """The position of basis[i] * basis[j], a basis forest."""
        if not i or not j:
            return i or j
        return self.by_ids[tuple(sorted(self.ids[i] + self.ids[j]))]

    def _cut_rows(self, tree_id: dict) -> tuple:
        """The cut rows in basis order, each in cut order: a tree [f]_a
        is t (x) 1, then l (x) [r]_a over the cuts (l, r) of f; a forest is
        the row of its trees but the last times the last tree's row."""
        ids, by_ids, mul = self.ids, self.by_ids, self._mul
        # per tree id: its root label and the position of its child forest
        parts = [(t.label, by_ids[tuple(map(tree_id.__getitem__, t.children))]) for t in self.trees]
        grafted = {p: by_ids[k,] for k, p in enumerate(parts)}
        rows: list = []
        for i, f in enumerate(ids):
            if not f:
                rows.append(((0, 0, 1),))
            elif len(f) == 1:
                label, child = parts[f[0]]
                rows.append(((i, 0, 1),) + tuple((a, grafted[label, b], c) for a, b, c in rows[child]))
            else:
                acc: dict = {}
                last = rows[by_ids[f[-1:]]]
                for a, b, c in rows[by_ids[f[:-1]]]:
                    for ta, tb, tc in last:
                        key = (mul(a, ta), mul(b, tb))
                        acc[key] = acc.get(key, 0) + c * tc
                rows.append(tuple((a, b, c) for (a, b), c in acc.items()))
        return tuple(rows)

    def table(self) -> tuple:
        """The cut rows: convolution's total on a forest is the sum over its
        cuts."""
        return self.cuts

    def product_row(self, i: int, j: int) -> tuple:
        """(position of basis[i] * basis[j],), built on first use, numbered
        past the basis when outside it."""
        row = self.products.get((i, j))
        if row is None:
            ids = tuple(sorted(self.ids[i] + self.ids[j]))
            k = self.by_ids.get(ids)
            if k is None:
                k = self.position(Forest(map(self.trees.__getitem__, ids)))
            row = self.products[i, j] = (k,)
        return row

    def antipode(self, i: int) -> tuple:
        """S(basis[i]) as ((position, integer coefficient), ...); every row
        is built on the first call."""
        if not self.antipodes:
            self.antipodes = self._antipode_rows()
        return self.antipodes[i]

    def _antipode_rows(self) -> list:
        """The antipode rows in basis order, each in term order: S(t) =
        -t - S(l) r over the cuts (l, r) of t with neither side 1; a forest
        is the row of its trees but the last times the last tree's row.  No
        coefficient is zero: a forest in S(h) has the sign (-1)^(its number
        of trees), so nothing cancels."""
        ids, by_ids, mul = self.ids, self.by_ids, self._mul
        rows: list = []
        for i, f in enumerate(ids):
            if not f:
                acc: dict = {0: 1}
            elif len(f) == 1:
                acc = {i: -1}
                for a, b, c in self.cuts[i]:
                    if a and b:
                        for g, c1 in rows[a]:
                            k = mul(g, b)
                            acc[k] = acc.get(k, 0) - c * c1
            else:
                acc = {}
                last = rows[by_ids[f[-1:]]]
                for g, c in rows[by_ids[f[:-1]]]:
                    for h, c2 in last:
                        k = mul(g, h)
                        acc[k] = acc.get(k, 0) + c * c2
            rows.append(tuple(acc.items()))
        return rows


@functools.lru_cache(maxsize=None)
def forest_context(N: int, d: int) -> ForestContext:
    return ForestContext(N, d)


def convolve(f: HElem, g: HElem, N: int) -> HElem:
    """The convolution (Grossman-Larson) product on functionals, grade <= N.

    <f * g, h> = sum <f, h^(1)> <g, h^(2)> over the coproduct of h.
    """
    if N < 0:
        raise ValueError(f"truncation level must be >= 0, got {N}")
    f._check(g)
    return context_product(forest_context(N, f.d), f, g)


def _vertex_addresses(t: Tree) -> list:
    """Paths of child indices from the root to each vertex, depth first."""
    out = [()]
    for i, c in enumerate(t.children):
        out.extend((i,) + a for a in _vertex_addresses(c))
    return out


def _attach_at(t: Tree, additions: Mapping) -> Tree:
    """Rebuild t with extra children grafted at the addressed vertices."""
    kids = []
    for i, c in enumerate(t.children):
        sub = {a[1:]: v for a, v in additions.items() if a and a[0] == i}
        kids.append(_attach_at(c, sub) if sub else c)
    return Tree(t.label, tuple(kids) + tuple(additions.get((), ())))


def graft_product(t1: Tree, t2: Tree, d: int | None = None) -> HElem:
    """Sum over the vertices of t2 of attaching t1 below that vertex."""
    if d is None:
        d = max(t1.max_label(), t2.max_label())
    pairs = ((Forest((_attach_at(t2, {a: (t1,)}),)), 1) for a in _vertex_addresses(t2))
    return HElem(summed(pairs), d)


def lie_bracket(f: HElem, g: HElem, N: int) -> HElem:
    return convolve(f, g, N) - convolve(g, f, N)


def exp_star(h: HElem, N: int) -> HElem:
    """exp of a functional with no unit component, truncated at grade N."""
    return exp_series(h, N, convolve, EMPTY_FOREST, "exp_star")


def log_star(g: HElem, N: int) -> HElem:
    """log of a functional with unit component 1, truncated at grade N."""
    return log_series(g, N, convolve, EMPTY_FOREST, "log_star")


def is_group_like(g: HElem, N: int, eq=operator.eq) -> bool:
    """Character test: <g,1> = 1 and <g, h1 h2> = <g,h1><g,h2> for all basis
    forests with grade(h1) + grade(h2) <= N, each equality judged by eq."""
    return is_character(g, forest_context(N, g.d), eq)


def is_primitive(h: HElem, N: int) -> bool:
    """True iff h is supported on single trees.

    That is the derivation identity <h, h1 h2> = eps(h1) <h, h2> +
    <h, h1> eps(h2) on forests of grade <= N: neither the unit forest nor a
    product of two non-unit forests is a single tree, so h pairs to 0 with
    both.
    """
    return all(f.is_single_tree() for f in h.terms)


def star_inverse(g: HElem, N: int) -> HElem:
    """Inverse of a group-like functional: <g^-1, h> = <g, S(h)>."""
    if not is_group_like(g, N):
        raise ValueError("star_inverse needs a group-like functional")
    ctx = forest_context(N, g.d)
    coeff = dict(zip(*ctx.sparse(g.terms))).get
    out: dict = {}
    for i, h in enumerate(ctx.basis):
        total = _ZERO
        for k, cnt in ctx.antipode(i):
            c = coeff(k)
            if c:
                total += cnt * c
        if total != 0:
            out[h] = total
    return HElem(out, g.d)


def homogeneous_norm(g: HElem, N: int) -> float:
    """sum over trees tau of |<log g, tau>|^(1/|tau|), as a float diagnostic."""
    if not is_group_like(g, N):
        raise ValueError("homogeneous_norm needs a group-like functional")
    ell = log_star(g, N)
    total = 0.0
    for n in range(1, N + 1):
        for t in trees_of_grade(n, g.d):
            c = ell.coeff(Forest((t,)))
            if c != 0:
                total += float(abs(c)) ** (1.0 / n)
    return total


def counit(x: HElem):
    """eps: coefficient of the empty forest."""
    return x.coeff(EMPTY_FOREST)
