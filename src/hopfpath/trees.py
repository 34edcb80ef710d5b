"""Labelled rooted trees and forests in canonical form.

A tree is a root label (an integer in 1..d) plus an unordered multiset of
subtrees.  A forest is an unordered multiset of trees; the empty forest is the
unit monomial.  Both are immutable values stored in a canonical sorted order so
that structurally equal objects compare and hash equal, and serialized forms
are deterministic.

The total order on trees is: grade first, then root label, then
lexicographically on the (already sorted) child sequences.  Grade counts
vertices.

`Canonical` is the one implementation of these values' protocol: a key
sealed once at construction, whose first entry is the grade, a hash cached
from it, equality of key within one class, order by key, and no assignment
after `__init__`.  `Tree`, `Forest` and `tensor.Word` all subclass it.  A
forest and a word of the same trees share the key (grade, count, tree keys)
and stay unequal, as values of two classes.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator


class Canonical:
    """Immutable value known by its key: hashed, compared and ordered by the
    key, and equal only to a value of its own class with the same key."""

    __slots__ = ("grade", "_key", "_hash")

    def _seal(self, key: tuple) -> None:
        """Set the key, its hash and the grade it starts with, once."""
        object.__setattr__(self, "grade", key[0])
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def sort_key(self):
        return self._key

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return type(other) is type(self) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __gt__(self, other):
        return self._key > other._key

    def __ge__(self, other):
        return self._key >= other._key


class Tree(Canonical):
    """Immutable labelled rooted tree with canonically sorted children."""

    __slots__ = ("label", "children", "_max_label")

    def __init__(self, label: int, children: Iterable["Tree"] = ()):
        if not isinstance(label, int) or label < 1:
            raise ValueError(f"tree label must be a positive integer, got {label!r}")
        kids = tuple(sorted(children, key=lambda t: t._key))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "_max_label", max([label] + [c._max_label for c in kids]))
        self._seal((1 + sum(c.grade for c in kids), label, tuple(c._key for c in kids)))

    def __repr__(self):
        if not self.children:
            return f"b_{self.label}"
        inner = " ".join(repr(c) for c in self.children)
        return f"[{inner}]_{self.label}"

    def max_label(self) -> int:
        return self._max_label


class Forest(Canonical):
    """Immutable multiset of trees; the empty forest is the unit."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Tree] = ()):
        facs = tuple(sorted(factors, key=lambda t: t._key))
        object.__setattr__(self, "factors", facs)
        # fewer factors first within a grade, so single trees print before
        # products of the same grade
        self._seal((sum(t.grade for t in facs), len(facs), tuple(t._key for t in facs)))

    def __iter__(self) -> Iterator[Tree]:
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def __mul__(self, other: "Forest") -> "Forest":
        return Forest(self.factors + other.factors)

    def is_unit(self) -> bool:
        return not self.factors

    def is_single_tree(self) -> bool:
        return len(self.factors) == 1

    def __repr__(self):
        if not self.factors:
            return "1"
        return " ".join(repr(t) for t in self.factors)

    def max_label(self) -> int:
        return max((t.max_label() for t in self.factors), default=0)


EMPTY_FOREST = Forest()


def leaf(label: int) -> Tree:
    """The single-vertex tree with the given label."""
    return Tree(label)


def graft(children: Forest | Iterable[Tree], root: int) -> Tree:
    """Grow every tree of ``children`` from a new root vertex.

    graft(1, a) is the single vertex; graft of a forest of total grade g has
    grade g+1.  Branch order is irrelevant: the result is canonical.
    """
    if isinstance(children, Forest):
        kids: Iterable[Tree] = children.factors
    else:
        kids = children
    return Tree(root, kids)


@functools.lru_cache(maxsize=None)
def trees_of_grade(n: int, d: int) -> tuple[Tree, ...]:
    """All canonical trees with exactly n vertices and labels in 1..d."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if n == 1:
        return tuple(Tree(a) for a in range(1, d + 1))
    out = []
    for kids in forests_of_grade(n - 1, d):
        for root in range(1, d + 1):
            out.append(Tree(root, kids.factors))
    return tuple(sorted(out, key=Tree.sort_key))


@functools.lru_cache(maxsize=None)
def forests_of_grade(n: int, d: int) -> tuple[Forest, ...]:
    """All canonical forests with exactly n vertices and labels in 1..d."""
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    if n == 0:
        return (EMPTY_FOREST,)
    # Partition n among tree grades; to avoid duplicate multisets, pick the
    # multiset of factors grade by grade.
    out: set[Forest] = set()

    def build(remaining: int, max_grade: int, acc: tuple[Tree, ...]):
        if remaining == 0:
            out.add(Forest(acc))
            return
        for g in range(min(remaining, max_grade), 0, -1):
            pool = trees_of_grade(g, d)
            for count in range(1, remaining // g + 1):
                if remaining - count * g < 0:
                    break
                for combo in itertools.combinations_with_replacement(pool, count):
                    build(remaining - count * g, g - 1, acc + tuple(combo))

    build(n, n, ())
    return tuple(sorted(out, key=Forest.sort_key))


def enumerate_trees(n: int, d: int) -> tuple[Tree, ...]:
    """All canonical trees of grade <= n with labels in 1..d, sorted."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    out: list[Tree] = []
    for g in range(1, n + 1):
        out.extend(trees_of_grade(g, d))
    return tuple(out)


def enumerate_forests(n: int, d: int) -> tuple[Forest, ...]:
    """All canonical forests of grade <= n (including the unit), sorted."""
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    out: list[Forest] = []
    for g in range(0, n + 1):
        out.extend(forests_of_grade(g, d))
    return tuple(out)


def chain(labels: Iterable[int]) -> Tree:
    """The linear tree climbing through ``labels``: first label is the leaf,
    last label is the root.  chain([a]) is the single vertex b_a."""
    labels = list(labels)
    if not labels:
        raise ValueError("chain needs at least one label")
    t = Tree(labels[0])
    for a in labels[1:]:
        t = Tree(a, (t,))
    return t


def tree_factorial(t: Tree) -> int:
    """|t| times the product of the factorials of the branches."""
    out = t.grade
    for c in t.children:
        out *= tree_factorial(c)
    return out


@functools.lru_cache(maxsize=None)
def symmetry_factor(x: Tree | Forest) -> int:
    """Automorphism count: repeated (label-identical) branches may permute."""
    if isinstance(x, Tree):
        x = Forest(x.children)
    out = 1
    run = 1
    factors = x.factors
    for i, t in enumerate(factors):
        out *= symmetry_factor(t)
        if i and t == factors[i - 1]:
            run += 1
            out *= run
        else:
            run = 1
    return out
