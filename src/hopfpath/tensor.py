"""The tensor Hopf algebra on words whose letters are labelled trees.

Words of single-vertex letters recover the usual tensor algebra over R^d;
allowing letters of higher grade gives the extended alphabet the conversion
step needs.  A word is graded by the total grade of its letters, not by its
length, and truncation always cuts by that total grade.

Shuffle and deconcatenation are Hopf-dual to concatenation; letters are
indivisible, so deconcatenation splits between letters only.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Iterable

from .trees import Tree, enumerate_trees

_ZERO = Fraction(0)


class Word:
    """Immutable word of tree letters; the empty word is the unit."""

    __slots__ = ("letters", "grade", "_key", "_hash", "_max_label", "_max_letter_grade")

    def __init__(self, letters: Iterable[Tree] = ()):
        lets = tuple(letters)
        object.__setattr__(self, "letters", lets)
        object.__setattr__(self, "grade", sum(t.grade for t in lets))
        key = (self.grade, len(lets), tuple(t.sort_key() for t in lets))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        # both bounds are filled on first use: most words are hashed and
        # compared far more often than range-checked.  Two int slots, not a
        # tuple, keep the cached increments of a long grid small.
        object.__setattr__(self, "_max_label", None)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def sort_key(self):
        return self._key

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Word) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

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


class TensorElem:
    """Linear combination of words; context is (alphabet size d, letter-grade
    bound n)."""

    __slots__ = ("terms", "d", "n")

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
        self.d = d
        self.n = n

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int, n: int = 1) -> "TensorElem":
        return cls({}, d, n)

    @classmethod
    def unit(cls, d: int, n: int = 1) -> "TensorElem":
        return cls({EMPTY_WORD: Fraction(1)}, d, n)

    @classmethod
    def from_word(cls, w: Word, d: int, n: int = 1, coeff=Fraction(1)) -> "TensorElem":
        return cls({w: coeff}, d, n)

    @classmethod
    def from_letter(cls, t: Tree, d: int, n: int = 1, coeff=Fraction(1)) -> "TensorElem":
        return cls({Word((t,)): coeff}, d, n)

    # -- queries -----------------------------------------------------------

    def coeff(self, w: Word):
        return self.terms.get(w, _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return self.terms.keys()

    def max_grade(self) -> int:
        return max((w.grade for w in self.terms), default=0)

    def truncate(self, N: int) -> "TensorElem":
        return TensorElem(
            {w: c for w, c in self.terms.items() if w.grade <= N}, self.d, self.n
        )

    # -- linear structure --------------------------------------------------

    def _check(self, other: "TensorElem"):
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError(
                f"context mismatch: (d={self.d}, n={self.n}) vs (d={other.d}, n={other.n})"
            )

    def __add__(self, other: "TensorElem") -> "TensorElem":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, _ZERO) + c
        return TensorElem(out, self.d, self.n)

    def __sub__(self, other: "TensorElem") -> "TensorElem":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, _ZERO) - c
        return TensorElem(out, self.d, self.n)

    def __neg__(self) -> "TensorElem":
        return TensorElem({w: -c for w, c in self.terms.items()}, self.d, self.n)

    def scale(self, c) -> "TensorElem":
        return TensorElem({w: c * v for w, v in self.terms.items()}, self.d, self.n)

    def __rmul__(self, c) -> "TensorElem":
        if isinstance(c, TensorElem):
            return NotImplemented
        return self.scale(c)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElem)
            and (self.d, self.n) == (other.d, other.n)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "<TensorElem 0>"
        keys = sorted(self.terms, key=Word.sort_key)
        body = " + ".join(f"{self.terms[w]}*{w!r}" for w in keys)
        return f"<TensorElem {body}>"


class WordPairElem:
    """Linear combination of word pairs: elements of T (x) T."""

    __slots__ = ("terms", "d", "n")

    def __init__(self, terms: dict, d: int, n: int = 1):
        self.terms = {k: v for k, v in terms.items() if v != 0}
        self.d = d
        self.n = n

    def coeff(self, left: Word, right: Word):
        return self.terms.get((left, right), _ZERO)

    def __add__(self, other: "WordPairElem") -> "WordPairElem":
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("context mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, _ZERO) + c
        return WordPairElem(out, self.d, self.n)

    def scale(self, c) -> "WordPairElem":
        return WordPairElem({k: c * v for k, v in self.terms.items()}, self.d, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, WordPairElem)
            and (self.d, self.n) == (other.d, other.n)
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "<WordPairElem 0>"
        body = " + ".join(
            f"{c}*({a!r} , {b!r})"
            for (a, b), c in sorted(
                self.terms.items(),
                key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()),
            )
        )
        return f"<WordPairElem {body}>"


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
    """Bilinear word shuffle; commutative, unit the empty word."""
    x._check(y)
    out: dict = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            for letters, cnt in _shuffle_words(w1.letters, w2.letters):
                w = Word(letters)
                out[w] = out.get(w, _ZERO) + cnt * c1 * c2
    return TensorElem(out, x.d, x.n)


def concat(x: TensorElem, y: TensorElem, N: int) -> TensorElem:
    """Bilinear word concatenation, dropping words of total grade > N."""
    x._check(y)
    out: dict = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            if w1.grade + w2.grade > N:
                continue
            w = w1 * w2
            out[w] = out.get(w, _ZERO) + c1 * c2
    return TensorElem(out, x.d, x.n)


def deconcat(x: TensorElem) -> WordPairElem:
    """All prefix/suffix splits of each word; letters are indivisible."""
    out: dict = {}
    for w, c in x.terms.items():
        for k in range(len(w.letters) + 1):
            key = (Word(w.letters[:k]), Word(w.letters[k:]))
            out[key] = out.get(key, _ZERO) + c
    return WordPairElem(out, x.d, x.n)


def pair_tensor(f: TensorElem, h: TensorElem):
    """Bilinear Kronecker pairing on the word basis."""
    f._check(h)
    small, big = (f.terms, h.terms) if len(f.terms) <= len(h.terms) else (h.terms, f.terms)
    total = _ZERO
    for k, c in small.items():
        if k in big:
            total += c * big[k]
    return total


# -- exp / log -------------------------------------------------------------


def tensor_exp(x: TensorElem, N: int) -> TensorElem:
    if x.coeff(EMPTY_WORD) != 0:
        raise ValueError("tensor_exp needs zero empty-word coefficient")
    acc = TensorElem.unit(x.d, x.n)
    power = TensorElem.unit(x.d, x.n)
    fact = 1
    for k in range(1, N + 1):
        power = concat(power, x, N)
        if power.is_zero():
            break
        fact *= k
        acc = acc + power.scale(Fraction(1, fact))
    return acc


def tensor_log(g: TensorElem, N: int) -> TensorElem:
    if g.coeff(EMPTY_WORD) != 1:
        raise ValueError("tensor_log needs empty-word coefficient 1")
    u = g - TensorElem.unit(g.d, g.n)
    acc = TensorElem.zero(g.d, g.n)
    power = TensorElem.unit(g.d, g.n)
    for k in range(1, N + 1):
        power = concat(power, u, N)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
    return acc


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
    if not eq(g.coeff(EMPTY_WORD), 1):
        return False
    words = [w for w in enumerate_words(N, g.d, g.n) if not w.is_empty()]
    for i, w1 in enumerate(words):
        for w2 in words[i:]:
            if w1.grade + w2.grade > N:
                continue
            lhs = _ZERO
            for letters, cnt in _shuffle_words(w1.letters, w2.letters):
                c = g.terms.get(Word(letters))
                if c:
                    lhs += cnt * c
            if not eq(lhs, g.coeff(w1) * g.coeff(w2)):
                return False
    return True
