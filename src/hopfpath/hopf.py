"""The Connes-Kreimer Hopf algebra on labelled forests, over exact rationals.

An HElem is a finite linear combination of forests.  The same container plays
both roles: elements of the algebra H (product = forest concatenation,
coproduct = cut sum) and, through the Kronecker pairing on the forest basis,
truncated functionals in the graded dual H* (convolution product, exp/log,
characters).  Coefficients are `fractions.Fraction` throughout; float
coefficients are tolerated for large simulation grids but every algebraic
guarantee is stated for exact mode.

Truncation level N is always an explicit argument of dual-side operations.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable

from .trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    enumerate_forests,
    trees_of_grade,
)

Rational = Fraction

_ZERO = Fraction(0)


def _prune(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v != 0}


class HElem:
    """Linear combination of forests with alphabet-size context d."""

    __slots__ = ("terms", "d")

    def __init__(self, terms: dict, d: int):
        if d < 1:
            raise ValueError(f"alphabet size must be >= 1, got {d}")
        self.terms = _prune(terms)
        self.d = d

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "HElem":
        return cls({}, d)

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

    # -- basic queries -----------------------------------------------------

    def coeff(self, f: Forest):
        return self.terms.get(f, _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return self.terms.keys()

    def max_grade(self) -> int:
        return max((f.grade for f in self.terms), default=0)

    def truncate(self, n: int) -> "HElem":
        return HElem({f: c for f, c in self.terms.items() if f.grade <= n}, self.d)

    def tree_part(self) -> dict:
        """Coefficients of single-tree forests, keyed by Tree."""
        return {f.factors[0]: c for f, c in self.terms.items() if f.is_single_tree()}

    # -- linear structure --------------------------------------------------

    def _check(self, other: "HElem"):
        if self.d != other.d:
            raise ValueError(f"alphabet mismatch: d={self.d} vs d={other.d}")

    def __add__(self, other: "HElem") -> "HElem":
        self._check(other)
        out = dict(self.terms)
        for f, c in other.terms.items():
            out[f] = out.get(f, _ZERO) + c
        return HElem(out, self.d)

    def __sub__(self, other: "HElem") -> "HElem":
        self._check(other)
        out = dict(self.terms)
        for f, c in other.terms.items():
            out[f] = out.get(f, _ZERO) - c
        return HElem(out, self.d)

    def __neg__(self) -> "HElem":
        return HElem({f: -c for f, c in self.terms.items()}, self.d)

    def scale(self, c) -> "HElem":
        return HElem({f: c * v for f, v in self.terms.items()}, self.d)

    def __rmul__(self, c) -> "HElem":
        if isinstance(c, HElem):
            return NotImplemented
        return self.scale(c)

    def __mul__(self, other):
        if isinstance(other, HElem):
            return product(self, other)
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, HElem)
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "<HElem 0>"
        keys = sorted(self.terms, key=Forest.sort_key)
        body = " + ".join(f"{self.terms[f]}*{f!r}" for f in keys)
        return f"<HElem {body}>"


class PairElem:
    """Linear combination of forest pairs: elements of H (x) H."""

    __slots__ = ("terms", "d")

    def __init__(self, terms: dict, d: int):
        self.terms = _prune(terms)
        self.d = d

    @classmethod
    def zero(cls, d: int) -> "PairElem":
        return cls({}, d)

    def coeff(self, left: Forest, right: Forest):
        return self.terms.get((left, right), _ZERO)

    def __add__(self, other: "PairElem") -> "PairElem":
        if self.d != other.d:
            raise ValueError("alphabet mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, _ZERO) + c
        return PairElem(out, self.d)

    def __sub__(self, other: "PairElem") -> "PairElem":
        if self.d != other.d:
            raise ValueError("alphabet mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, _ZERO) - c
        return PairElem(out, self.d)

    def scale(self, c) -> "PairElem":
        return PairElem({k: c * v for k, v in self.terms.items()}, self.d)

    def componentwise_product(self, other: "PairElem") -> "PairElem":
        """(a (x) b) * (c (x) e) = ac (x) be, bilinearly."""
        out: dict = {}
        for (a, b), c1 in self.terms.items():
            for (x, y), c2 in other.terms.items():
                k = (a * x, b * y)
                out[k] = out.get(k, _ZERO) + c1 * c2
        return PairElem(out, self.d)

    def multiply_out(self) -> HElem:
        """Apply the product map M: a (x) b -> ab."""
        out: dict = {}
        for (a, b), c in self.terms.items():
            k = a * b
            out[k] = out.get(k, _ZERO) + c
        return HElem(out, self.d)

    def map_left(self, fn) -> "PairElem":
        """Apply an HElem-valued linear map to the left components."""
        out: dict = {}
        for (a, b), c in self.terms.items():
            img = fn(a)
            for f, c2 in img.terms.items():
                k = (f, b)
                out[k] = out.get(k, _ZERO) + c * c2
        return PairElem(out, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, PairElem)
            and self.d == other.d
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "<PairElem 0>"
        body = " + ".join(
            f"{c}*({a!r} (x) {b!r})" for (a, b), c in sorted(
                self.terms.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())
            )
        )
        return f"<PairElem {body}>"


# -- product and coproduct -------------------------------------------------


def product(x: HElem, y: HElem) -> HElem:
    """Bilinear extension of forest concatenation; commutative."""
    x._check(y)
    out: dict = {}
    for f1, c1 in x.terms.items():
        for f2, c2 in y.terms.items():
            k = f1 * f2
            out[k] = out.get(k, _ZERO) + c1 * c2
    return HElem(out, x.d)


@functools.lru_cache(maxsize=None)
def _tree_coproduct(t: Tree) -> tuple:
    """Cut coproduct of a single tree as ((left forest, right forest, count), ...).

    Recursion: for t = [f]_a with child forest f,
    delta t = t (x) 1 + sum f^(1) (x) [f^(2)]_a over delta f,
    where delta f multiplies the child coproducts.  The 1 (x) t term arises
    from every child contributing its 1 (x) child part.
    """
    whole = Forest((t,))
    out: dict = {(whole, EMPTY_FOREST): 1}
    for left, right, cnt in _forest_coproduct(Forest(t.children)):
        trunk = Forest((Tree(t.label, right.factors),))
        key = (left, trunk)
        out[key] = out.get(key, 0) + cnt
    return tuple((a, b, c) for (a, b), c in out.items())


@functools.lru_cache(maxsize=None)
def _forest_coproduct(f: Forest) -> tuple:
    """Multiplicative extension of the tree coproduct to a forest."""
    acc: dict = {(EMPTY_FOREST, EMPTY_FOREST): 1}
    for t in f.factors:
        nxt: dict = {}
        for (a, b), cnt in acc.items():
            for ta, tb, tc in _tree_coproduct(t):
                key = (a * ta, b * tb)
                nxt[key] = nxt.get(key, 0) + cnt * tc
        acc = nxt
    return tuple((a, b, c) for (a, b), c in acc.items())


def coproduct(x: HElem) -> PairElem:
    """The cut coproduct, extended linearly."""
    out: dict = {}
    for f, c in x.terms.items():
        for a, b, cnt in _forest_coproduct(f):
            key = (a, b)
            out[key] = out.get(key, _ZERO) + c * cnt
    return PairElem(out, x.d)


def reduced_coproduct(x: HElem) -> PairElem:
    """delta' x = delta x - 1 (x) x - x (x) 1."""
    full = coproduct(x)
    out = dict(full.terms)
    for f, c in x.terms.items():
        for key in ((EMPTY_FOREST, f), (f, EMPTY_FOREST)):
            out[key] = out.get(key, _ZERO) - c
    return PairElem(out, x.d)


# -- antipode --------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tree_antipode(t: Tree) -> tuple:
    """S(t) as ((forest, integer coefficient), ...).

    Graded recursion from the bialgebra axioms:
    S(t) = -t - sum S(h1) * h2 over non-trivial cuts h1 (x) h2 of t.
    """
    out: dict = {Forest((t,)): -1}
    whole = Forest((t,))
    for left, right, cnt in _tree_coproduct(t):
        if left == whole or right == whole or left.is_unit() or right.is_unit():
            # skip t (x) 1 and 1 (x) t: only the reduced part enters
            continue
        s_left = _forest_antipode(left)
        for f1, c1 in s_left:
            k = f1 * right
            out[k] = out.get(k, 0) - cnt * c1
    return tuple(out.items())


@functools.lru_cache(maxsize=None)
def _forest_antipode(f: Forest) -> tuple:
    """S on a forest basis element: algebra morphism, product of tree images."""
    acc: dict = {EMPTY_FOREST: 1}
    for t in f.factors:
        nxt: dict = {}
        for g, c in acc.items():
            for h, c2 in _tree_antipode(t):
                k = g * h
                nxt[k] = nxt.get(k, 0) + c * c2
        acc = nxt
    return tuple(acc.items())


def antipode(x: HElem) -> HElem:
    out: dict = {}
    for f, c in x.terms.items():
        for g, cnt in _forest_antipode(f):
            out[g] = out.get(g, _ZERO) + c * cnt
    return HElem(out, x.d)


# -- dual-side operations --------------------------------------------------


def pair(f: HElem, h: HElem):
    """Bilinear Kronecker pairing on the forest basis."""
    f._check(h)
    small, big = (f.terms, h.terms) if len(f.terms) <= len(h.terms) else (h.terms, f.terms)
    total = _ZERO
    for k, c in small.items():
        if k in big:
            total += c * big[k]
    return total


def convolve(f: HElem, g: HElem, N: int) -> HElem:
    """The convolution (Grossman-Larson) product on functionals, grade <= N.

    <f * g, h> = sum <f, h^(1)> <g, h^(2)> over the coproduct of h.
    """
    if N < 0:
        raise ValueError(f"truncation level must be >= 0, got {N}")
    f._check(g)
    out: dict = {}
    for h in enumerate_forests(N, f.d):
        total = _ZERO
        for a, b, cnt in _forest_coproduct(h):
            ca = f.terms.get(a)
            if not ca:
                continue
            cb = g.terms.get(b)
            if not cb:
                continue
            total += cnt * ca * cb
        if total != 0:
            out[h] = total
    return HElem(out, f.d)


def _attach_everywhere(t1: Tree, t2: Tree) -> list[Tree]:
    """All trees obtained by growing t1 from one vertex of t2 (with
    multiplicity: one entry per vertex of t2)."""
    out = [Tree(t2.label, t2.children + (t1,))]
    for i, child in enumerate(t2.children):
        for r in _attach_everywhere(t1, child):
            out.append(Tree(t2.label, t2.children[:i] + (r,) + t2.children[i + 1:]))
    return out


def graft_product(t1: Tree, t2: Tree, d: int | None = None) -> HElem:
    """Sum over the vertices of t2 of attaching t1 below that vertex."""
    if d is None:
        d = max(t1.max_label(), t2.max_label())
    out: dict = {}
    for t in _attach_everywhere(t1, t2):
        k = Forest((t,))
        out[k] = out.get(k, _ZERO) + 1
    return HElem(out, d)


def lie_bracket(f: HElem, g: HElem, N: int) -> HElem:
    return convolve(f, g, N) - convolve(g, f, N)


def exp_star(h: HElem, N: int) -> HElem:
    """exp of a functional with no unit component, truncated at grade N."""
    if h.coeff(EMPTY_FOREST) != 0:
        raise ValueError("exp_star needs <h, 1> = 0")
    acc = HElem.unit(h.d)
    power = HElem.unit(h.d)
    fact = 1
    for k in range(1, N + 1):
        power = convolve(power, h, N)
        if power.is_zero():
            break
        fact *= k
        acc = acc + power.scale(Fraction(1, fact))
    return acc


def log_star(g: HElem, N: int) -> HElem:
    """log of a functional with unit component 1, truncated at grade N."""
    if g.coeff(EMPTY_FOREST) != 1:
        raise ValueError("log_star needs <g, 1> = 1")
    u = g - HElem.unit(g.d)
    acc = HElem.zero(g.d)
    power = HElem.unit(g.d)
    for k in range(1, N + 1):
        power = convolve(power, u, N)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
    return acc


def is_group_like(g: HElem, N: int, eq=operator.eq) -> bool:
    """Character test: <g,1> = 1 and <g, h1 h2> = <g,h1><g,h2> for all basis
    forests with grade(h1) + grade(h2) <= N, each equality judged by eq."""
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


def is_primitive(h: HElem, N: int) -> bool:
    """True iff h is supported on single trees.

    Checked directly on the support and via the derivation identity
    <h, h1 h2> = eps(h1) <h, h2> + <h, h1> eps(h2) on basis pairs of total
    grade <= N.
    """
    if not all(f.is_single_tree() for f in h.terms):
        return False
    # derivation identity; eps kills everything except the unit forest
    if h.coeff(EMPTY_FOREST) != 0:
        return False
    for g1 in range(1, N):
        for h1 in (f for f in enumerate_forests(N - g1, h.d) if f.grade == g1):
            for h2 in enumerate_forests(N - g1, h.d):
                if h2.is_unit():
                    continue
                if h.coeff(h1 * h2) != 0:
                    return False
    return True


def star_inverse(g: HElem, N: int) -> HElem:
    """Inverse of a group-like functional: <g^-1, h> = <g, S(h)>."""
    if not is_group_like(g, N):
        raise ValueError("star_inverse needs a group-like functional")
    out: dict = {}
    for h in enumerate_forests(N, g.d):
        total = _ZERO
        for f, cnt in _forest_antipode(h):
            c = g.terms.get(f)
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
