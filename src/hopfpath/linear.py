"""Finite linear combinations over a basis of hashable keys, and the
integer-position contexts their products run on.

`Linear` is the linear structure that the algebra containers share: forests
(`hopf.HElem`), forest pairs (`hopf.PairElem`), words (`tensor.TensorElem`),
word pairs (`tensor.WordPairElem`) and polynomials (`rde.Poly`).  An
element is a dict from basis keys to non-zero coefficients, together with a
context tuple, e.g. (d,) for forests or (d, n) for words; elements combine
only within one context.

Coefficients are kept as given: sums start from the class's `_zero` for a
missing key (`Fraction(0)`, or `0` for polynomials) and run in insertion
order, self's keys first, so float sums round the same way every time and
an int unit among floats still sums to a Fraction.  A coefficient equal to
0 is dropped on construction.  `Linear._trusted` is the one way past that
test: `context_product` wraps a product kernel's output, whose terms are
already pruned and in range, with it.

`Context` is what the forest and word sides (`hopf.ForestContext`,
`tensor.WordContext`) answer alike, by integer position: the positions of
the basis, an element's terms as a sparse row, that row as the operand of
the product kernel, the product of two operands, and, for the character
test, the product rows of two basis keys.  `is_character` is the one
character test.

`Row` carries an element's terms through the kernels by context position:
integer numerators over one reduced denominator when every value is exact
(see `scalars`), the values as given otherwise.  `Context.row_of` makes one
and `Context.times` is the one product of rows, on numerators or on the
values in their term order, so float totals keep their rounding bit for
bit.  `context_product` (`convolve`, `concat`), the Chen sweep, the pair
fold of a rough path and the psi pairing (`Row.pair`) all run on rows.

The module also holds what the forest and word sides share beyond the
container: the Kronecker pairing, the exp and log series over a truncated
product, and the canonical term printer.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .scalars import numerators

_ZERO = Fraction(0)


def context_field(i: int, doc: str) -> property:
    """A read-only name for position i of the context tuple."""
    return property(lambda self: self.ctx[i], doc=doc)


class Linear:
    """Linear combination of basis keys in one context.

    A subclass is built as `cls(terms, *ctx)` and names its context fields
    with `context_field`.  It may set the hooks that key-generic methods
    use: `_grade` (grade of a key, for `max_grade` and `truncate`), `_order`
    (canonical sort key) and `_show` (text of a key in `print_terms`)."""

    __slots__ = ("terms", "ctx")

    _zero = _ZERO
    _grade = operator.attrgetter("grade")
    _order = operator.methodcaller("sort_key")
    _show = repr

    def __init__(self, terms: dict, *ctx):
        self.terms = {k: c for k, c in terms.items() if c != 0}
        self.ctx = ctx

    @classmethod
    def zero(cls, *ctx):
        return cls({}, *ctx)

    @classmethod
    def _trusted(cls, terms: dict, *ctx):
        """An element over terms known to be non-zero and in range, such as
        a product kernel's output; nothing is re-tested."""
        x = cls.__new__(cls)
        x.terms = terms
        x.ctx = ctx
        return x

    # -- queries -----------------------------------------------------------

    def coeff(self, key):
        return self.terms.get(key, self._zero)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return self.terms.keys()

    def max_grade(self) -> int:
        return max(map(self._grade, self.terms), default=0)

    def truncate(self, n: int):
        grade = self._grade
        return type(self)({k: c for k, c in self.terms.items() if grade(k) <= n}, *self.ctx)

    # -- linear structure --------------------------------------------------

    def _check(self, other: "Linear"):
        if self.ctx != other.ctx:
            raise ValueError(f"{type(self).__name__} context mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        zero = self._zero
        for k, c in other.terms.items():
            out[k] = out.get(k, zero) + c
        return type(self)(out, *self.ctx)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        zero = self._zero
        for k, c in other.terms.items():
            out[k] = out.get(k, zero) - c
        return type(self)(out, *self.ctx)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()}, *self.ctx)

    def scale(self, c):
        return type(self)({k: c * v for k, v in self.terms.items()}, *self.ctx)

    def __rmul__(self, c):
        if isinstance(c, Linear):
            return NotImplemented
        return self.scale(c)

    def __eq__(self, other):
        return type(other) is type(self) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(self.ctx + (frozenset(self.terms.items()),))

    def __repr__(self):
        return f"<{type(self).__name__} {print_terms(self)}>"


def _pair_order(key) -> tuple:
    return key[0].sort_key(), key[1].sort_key()


def _pair_show(key) -> str:
    return f"{key[0]!r} (x) {key[1]!r}"


class LinearPairs(Linear):
    """Linear combination of (left, right) key pairs: a tensor square."""

    __slots__ = ()

    _order = staticmethod(_pair_order)
    _show = staticmethod(_pair_show)

    def coeff(self, left, right):
        return self.terms.get((left, right), self._zero)


class Row:
    """Terms by context position, in insertion order: integer numerators
    over den when every value is exact, with den > 0 and gcd(den,
    *numerators) == 1, so one map has one exact row; the values as given
    with den None otherwise.  size counts the terms of the map the row was
    made from.  `Context.times` keeps the row's kernel operand in operand."""

    __slots__ = ("values", "den", "size", "operand")

    def __init__(self, values: dict, den: int | None, size: int):
        self.values = values
        self.den = den
        self.size = size
        self.operand = None

    def scalars(self) -> dict:
        """The values, numerators over a den above 1 as Fractions.  An int in
        place of its Fraction gives the same sum from Fraction(0), and the
        same float times a float."""
        den = self.den
        if den is None or den == 1:
            return self.values
        return {k: Fraction(c, den) for k, c in self.values.items()}

    def pair(self, other: "Row"):
        """<self, other>: an integer over self.den * other.den when both are
        exact, a sum of their scalars otherwise.  The row of fewer terms (self
        on a tie) is iterated, adding c * v per common position to 0."""
        if self.den is None or other.den is None:
            a, b = self.scalars(), other.scalars()
        else:
            a, b = self.values, other.values
        if self.size > other.size:
            a, b = b, a
        get = b.get
        total = 0
        for i, c in a.items():
            v = get(i)
            if v is not None:
                total += c * v
        return total


class Context:
    """A basis sorted by grade, with integer positions: `index` maps basis
    keys to positions, `keys` and `lookup` number other keys (forests, or
    the letter tuples of words) past the basis on first sight, and the
    keys of grade <= g are the first `ends[g]`.  A subclass adds the kernel
    `product(x, y, zero)`, a position -> total map over two operands made
    by `operand(positions, values)`, and `product_row(i, j)`: the positions
    basis[i] * basis[j] spreads over, one entry per unit of coefficient."""

    __slots__ = ("key", "N", "basis", "index", "grades", "ends", "keys", "lookup", "__weakref__")

    def __init__(self, key: tuple, basis: tuple, keys):
        self.key = key
        self.N = N = key[0]
        self.basis = basis
        self.index = {b: i for i, b in enumerate(basis)}
        self.grades = [b.grade for b in basis]
        self.ends = [sum(1 for g in self.grades if g <= b) for b in range(N + 1)]
        self.keys = list(keys)
        self.lookup = {k: i for i, k in enumerate(self.keys)}

    def position(self, key) -> int:
        """The position of key, one outside the basis numbered past it."""
        i = self.lookup.get(key)
        if i is None:
            i = self.lookup[key] = len(self.keys)
            self.keys.append(key)
        return i

    def sparse(self, terms: dict) -> tuple:
        """(positions, coefficients) of terms in insertion order; keys
        outside the basis are dropped."""
        index = self.index
        pos, vals = [], []
        for k, c in terms.items():
            i = index.get(k)
            if i is not None:
                pos.append(i)
                vals.append(c)
        return pos, vals

    def row_of(self, terms: dict) -> Row:
        """terms as a row; keys outside the basis count only in its size.
        Exact values go over their least common denominator, a reduced den."""
        pos, vals = self.sparse(terms)
        (nums,), den = numerators(vals)
        return Row(dict(zip(pos, vals if den is None else nums)), den, len(terms))

    def times(self, a: Row, b: Row) -> Row:
        """The row of a * b by the kernel, zero totals dropped: on the
        numerators when both rows are exact, then reduced by their gcd with
        den; otherwise on the scalars in term order, so floats round as the
        values do, and back to numerators when every total is exact."""
        exact = a.den is not None and b.den is not None
        totals = self.product(self._operand(a, exact), self._operand(b, exact), 0 if exact else _ZERO)
        values = {k: c for k, c in totals.items() if c}
        if not exact:
            (nums,), den = numerators(list(values.values()))
            return Row(values if den is None else dict(zip(values, nums)), den, len(values))
        den = a.den * b.den
        common = math.gcd(den, *values.values())
        if common > 1:
            den //= common
            values = {k: c // common for k, c in values.items()}
        return Row(values, den, len(values))

    def _operand(self, row: Row, exact: bool):
        """row's operand, kept on it; one on the scalars of an exact row over
        a den above 1 is built afresh."""
        if not exact and row.den not in (None, 1):
            scalars = row.scalars()
            return self.operand(scalars.keys(), scalars.values())
        if row.operand is None:
            row.operand = self.operand(row.values.keys(), row.values.values())
        return row.operand


def context_product(ctx: Context, x: Linear, y: Linear) -> Linear:
    """x * y as `Context.times` of their rows, wrapped by `Linear._trusted`
    with exact totals as Fractions."""
    row = ctx.times(ctx.row_of(x.terms), ctx.row_of(y.terms))
    basis, den = ctx.basis, row.den
    terms = {basis[k]: c if den is None else Fraction(c, den) for k, c in row.values.items()}
    return type(x)._trusted(terms, *x.ctx)


def is_character(g: Linear, ctx: Context, eq) -> bool:
    """Character test over ctx's basis: <g, 1> = 1 and, for every pair of
    non-unit basis keys i <= j whose grades sum to at most N, <g, b_i b_j> =
    <g, b_i> <g, b_j>, each equality judged by eq.  <g, b_i b_j> adds g's
    coefficient once per entry of ctx.product_row(i, j)."""
    if not eq(g.coeff(ctx.basis[0]), 1):
        return False
    zero = g._zero
    coeff = dict(zip(*ctx.sparse(g.terms))).get
    N, grades, ends, row = ctx.N, ctx.grades, ctx.ends, ctx.product_row
    for i in range(1, ends[N // 2]):  # the keys with 2 * grade <= N
        ci = coeff(i, zero)
        for j in range(i, ends[N - grades[i]]):
            lhs = sum(filter(None, map(coeff, row(i, j))), zero)  # absent and zero terms skipped
            if not eq(lhs, ci * coeff(j, zero)):
                return False
    return True


def print_terms(x: Linear) -> str:
    """Terms in canonical order joined by " + ", each written "c * key" with
    a coefficient of one omitted; "0" for the zero combination."""
    if not x.terms:
        return "0"
    show = x._show
    parts = []
    for k in sorted(x.terms, key=x._order):
        c = x.terms[k]
        parts.append(show(k) if c == 1 else f"{c} * {show(k)}")
    return " + ".join(parts)


def pair(f: Linear, h: Linear):
    """Bilinear Kronecker pairing on the common basis: the side with fewer
    terms (f on a tie) is iterated in its order, adding c * v per common
    key, c from that side."""
    f._check(h)
    small, big = (f.terms, h.terms) if len(f.terms) <= len(h.terms) else (h.terms, f.terms)
    total = Fraction(0)
    for k, c in small.items():
        if k in big:
            total += c * big[k]
    return total


def _power_series(x: Linear, N: int, mul, acc: Linear, coeff) -> Linear:
    """acc plus coeff(k) x^k over k <= N, powers taken by mul(a, b, N) and
    summed in k order; stops at the first zero power."""
    if N < 0:
        raise ValueError(f"truncation level must be >= 0, got {N}")
    power = type(x).unit(*x.ctx)
    for k in range(1, N + 1):
        power = mul(power, x, N)
        if power.is_zero():
            break
        acc = acc + power.scale(coeff(k))
    return acc


def exp_series(x: Linear, N: int, mul, unit_key, name: str):
    """exp(x) = sum of x^k / k! over k <= N; x must have no unit component."""
    if N >= 0 and x.coeff(unit_key) != 0:  # a bad level is refused first, by _power_series
        raise ValueError(f"{name} needs <h, 1> = 0")
    return _power_series(x, N, mul, type(x).unit(*x.ctx), lambda k: Fraction(1, math.factorial(k)))


def log_series(g: Linear, N: int, mul, unit_key, name: str):
    """log(g) = sum of (-1)^(k+1) (g - 1)^k / k over k <= N; g must have unit
    component 1."""
    if N >= 0 and g.coeff(unit_key) != 1:
        raise ValueError(f"{name} needs <g, 1> = 1")
    u = g - type(g).unit(*g.ctx)
    return _power_series(u, N, mul, type(g).zero(*g.ctx), lambda k: Fraction((-1) ** (k + 1), k))
