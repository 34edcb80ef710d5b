"""The tensor Hopf algebra on words whose letters are labelled trees.

Words of single-vertex letters recover the usual tensor algebra over R^d;
allowing letters of higher grade gives the extended alphabet the conversion
step needs.  A word is graded by the total grade of its letters, not by its
length, and truncation always cuts by that total grade.  A `Word` is a
`trees.Canonical` value, like a tree or a forest: keyed by (grade, length,
letter keys), and unequal to the forest of the same trees.

Shuffle and deconcatenation are Hopf-dual to concatenation; letters are
indivisible, so deconcatenation splits between letters only.

TensorElem (words) and WordPairElem (word pairs, T (x) T) take their linear
structure from `linear.Linear`, shared with the forest and polynomial
containers; TensorElem adds its constructors and the check that every
word's letters have labels <= d and grades <= n.  `tensor_exp` and `tensor_log` run the same
series loops as the forest side's `exp_star` and `log_star`.

`concat` is a plain loop over the words of its two factors: concatenation
needs only the keys.  The rows run on a word context (a `linear.Context`),
built once per (N, d, n) by `word_context`: the basis with integer
positions, other words numbered past it by their letter tuples, and
shuffle and split rows filled on first use.  The splits of the basis words
are its concatenation table (`WordContext.table`), which
`linear.Context.times` reads and a sweep compiles.
The shuffle rows are its `product_row`s, which `is_tensor_group_like`
reads, and `WordContext.shuffle` is the one shuffle of word maps: `shuffle`
and the forest images in `morphisms` run through it.  Word maps ride
through the kernel as `linear.Row`s, and the psi images the conversion
certifies against are paired with them by one compiled linear map
(`linear.Context.linear_map`).
"""

from __future__ import annotations

import functools
import operator
import weakref
from fractions import Fraction
from typing import Iterable

from .linear import Context, Linear, LinearPairs, context_field, exp_series, is_character
from .linear import log_series, summed
from .trees import Canonical, Tree, enumerate_trees

_ZERO = Fraction(0)


class Word(Canonical):
    """Immutable word of tree letters; the empty word is the unit."""

    __slots__ = ("letters", "_max_label", "_max_letter_grade")

    def __init__(self, letters: Iterable[Tree] = ()):
        lets = tuple(letters)
        object.__setattr__(self, "letters", lets)
        self._seal((sum(t.grade for t in lets), len(lets), tuple(t._key for t in lets)))
        # both bounds are filled on first use: most words are hashed and
        # compared far more often than range-checked.  Two int slots, not a
        # tuple, keep the cached increments of a long grid small.
        object.__setattr__(self, "_max_label", None)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def bounds(self) -> tuple[int, int]:
        """(max_label(), max_letter_grade()), computed once per word."""
        label = self._max_label
        if label is None:
            label = max((t.max_label() for t in self.letters), default=0)
            grade = max((t.grade for t in self.letters), default=0)
            object.__setattr__(self, "_max_letter_grade", grade)
            object.__setattr__(self, "_max_label", label)
        return label, self._max_letter_grade

    def max_label(self) -> int:
        return self.bounds()[0]

    def max_letter_grade(self) -> int:
        return self.bounds()[1]

    def __repr__(self):
        if not self.letters:
            return "1"
        return " (x) ".join(repr(t) for t in self.letters)


EMPTY_WORD = Word()


def word_of_labels(labels: Iterable[int]) -> Word:
    """e_{i1...ik} as a word of single-vertex letters."""
    return Word(Tree(a) for a in labels)


class TensorElem(Linear):
    """Linear combination of words; context is (alphabet size d, letter-grade
    bound n)."""

    __slots__ = ()

    d = context_field(0, "alphabet size: letter labels run over 1..d")
    n = context_field(1, "letter-grade bound")

    def __init__(self, terms: dict, d: int, n: int = 1):
        if d < 1 or n < 1:
            raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
        cleaned: dict = {}
        for w, c in terms.items():
            if c == 0:
                continue
            label, grade = w.bounds()
            if label > d:
                raise ValueError(f"letter label out of range 1..{d} in {w!r}")
            if grade > n:
                raise ValueError(f"letter grade above bound {n} in {w!r}")
            cleaned[w] = c
        self.terms = cleaned
        self.ctx = (d, n)

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, d: int, n: int = 1) -> "TensorElem":
        return cls({EMPTY_WORD: Fraction(1)}, d, n)

    @classmethod
    def from_word(cls, w: Word, d: int, n: int = 1, coeff=Fraction(1)) -> "TensorElem":
        return cls({w: coeff}, d, n)


class WordPairElem(LinearPairs):
    """Linear combination of word pairs: elements of T (x) T, context (d, n)."""

    __slots__ = ()

    d = context_field(0, "alphabet size: letter labels run over 1..d")
    n = context_field(1, "letter-grade bound")

    def __init__(self, terms: dict, d: int, n: int = 1):
        super().__init__(terms, d, n)


# -- products --------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _shuffle_words(u: tuple, v: tuple) -> tuple:
    """Shuffles of two letter tuples as ((word letters, count), ...)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict = {}
    for w, c in _shuffle_words(u[1:], v):
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in _shuffle_words(u, v[1:]):
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    return tuple(out.items())


def shuffle(x: TensorElem, y: TensorElem) -> TensorElem:
    """Bilinear word shuffle; commutative, unit the empty word.  A word
    reached c ways gets the product of coefficients c times."""
    x._check(y)
    ctx = WordContext(0, x.d, x.n)  # its own, numbering every word on sight
    a, b = ({ctx.position(w.letters): c for w, c in z.terms.items()} for z in (x, y))
    terms = ctx.shuffle(a, b)
    return TensorElem({ctx.word(k): _ZERO + c for k, c in terms.items()}, x.d, x.n)


class WordContext(Context):
    """Words of total grade <= N over tree letters of grade <= n and labels
    1..d, with integer positions.  Its keys are letter tuples: `position`
    numbers any other word past the basis on first sight, such as the
    products of tree images of the wrong grade; `word` gives any position
    back as a word."""

    __slots__ = ("shuffles", "splits", "concats")
    live = weakref.WeakSet()  # every context not yet collected, for cache_sizes

    def __init__(self, N: int, d: int, n: int):
        basis = enumerate_words(N, d, n)
        super().__init__((N, d, n), basis, (w.letters for w in basis))
        self.shuffles: dict = {}
        self.splits: dict = {}
        self.concats: list | None = None
        WordContext.live.add(self)

    def word(self, k: int) -> Word:
        """The word at position k; one past the basis is built afresh."""
        return self.basis[k] if k < len(self.basis) else Word(self.keys[k])

    def shuffle(self, a: dict, b: dict) -> dict:
        """Shuffle of two word maps keyed by position, in a's then b's term
        order, zeros kept: a word reached c ways gets the product c times."""
        out: dict = {}
        get, rows, row = out.get, self.shuffles.get, self.shuffle_row
        for i, ca in a.items():
            for j, cb in b.items():
                c = ca * cb
                for k in rows((i, j)) or row(i, j):
                    out[k] = get(k, 0) + c
        return out

    def shuffle_row(self, i: int, j: int) -> tuple:
        """Positions of the shuffles of words i and j, a word reached c ways
        c times, built on first use."""
        row = self.shuffles.get((i, j))
        if row is None:
            at = self.position
            pairs = _shuffle_words(self.keys[i], self.keys[j])
            row = self.shuffles[i, j] = tuple(at(w) for w, c in pairs for _ in range(c))
        return row

    product_row = shuffle_row  # the algebra product the character test reads

    def split(self, i: int) -> tuple:
        """(prefix, suffix) positions of word i's splits, built on first use."""
        row = self.splits.get(i)
        if row is None:
            w, at = self.keys[i], self.position
            row = self.splits[i] = tuple((at(w[:k]), at(w[k:])) for k in range(len(w) + 1))
        return row

    def table(self) -> list:
        """Per basis word its splits as (prefix, suffix, 1), shortest prefix
        first: concatenation's total on a word is the sum over its splits.
        Built on first use and kept."""
        if self.concats is None:
            self.concats = [[(a, b, 1) for a, b in self.split(i)] for i in range(len(self.basis))]
        return self.concats


@functools.lru_cache(maxsize=None)
def word_context(N: int, d: int, n: int) -> WordContext:
    return WordContext(N, d, n)


def concat(x: TensorElem, y: TensorElem, N: int) -> TensorElem:
    """Bilinear word concatenation, dropping words of total grade > N: the
    products in x's then y's term order, summed per word.  Each word u of x
    walks only y's terms of grade <= N - u.grade, kept in y's order."""
    x._check(y)
    if N < 0:
        raise ValueError(f"truncation level must be >= 0, got {N}")
    upto = [[(v, c2) for v, c2 in y.terms.items() if v.grade <= c] for c in range(N + 1)]
    pairs = ((u * v, c1 * c2) for u, c1 in x.terms.items() if u.grade <= N for v, c2 in upto[N - u.grade])
    return TensorElem(summed(pairs), x.d, x.n)


def deconcat(x: TensorElem) -> WordPairElem:
    """All prefix/suffix splits of each word; letters are indivisible."""
    words = ((w.letters, c) for w, c in x.terms.items())
    pairs = (((Word(u[:k]), Word(u[k:])), c) for u, c in words for k in range(len(u) + 1))
    return WordPairElem(summed(pairs), x.d, x.n)


# -- exp / log -------------------------------------------------------------


def tensor_exp(x: TensorElem, N: int) -> TensorElem:
    return exp_series(x, N, concat, EMPTY_WORD, "tensor_exp")


def tensor_log(g: TensorElem, N: int) -> TensorElem:
    return log_series(g, N, concat, EMPTY_WORD, "tensor_log")


# -- basis enumeration and predicates --------------------------------------


@functools.lru_cache(maxsize=None)
def enumerate_words(N: int, d: int, n: int = 1) -> tuple[Word, ...]:
    """All words of total grade <= N with tree letters of grade <= n, labels
    in 1..d, sorted; includes the empty word."""
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    letters = enumerate_trees(min(n, N), d) if min(n, N) >= 1 else ()
    out: list[Word] = []

    def build(budget: int, acc: tuple):
        out.append(Word(acc))
        for t in letters:
            if t.grade <= budget:
                build(budget - t.grade, acc + (t,))

    build(N, ())
    return tuple(sorted(out, key=Word.sort_key))


def is_tensor_group_like(g: TensorElem, N: int, eq=operator.eq) -> bool:
    """Shuffle-character test against all basis-word pairs of total grade <= N,
    each equality judged by eq."""
    return is_character(g, word_context(N, g.d, g.n), eq)
