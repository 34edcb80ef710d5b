"""Finite linear combinations over a basis of hashable keys, and the
integer-position contexts their products run on.

`Linear` is the linear structure that the algebra containers share: forests
(`hopf.HElem`), forest pairs (`hopf.PairElem`), words (`tensor.TensorElem`),
word pairs (`tensor.WordPairElem`) and polynomials (`rde.Poly`).  An
element is a dict from basis keys to non-zero coefficients, together with a
context tuple, e.g. (d,) for forests or (d, n) for words; elements combine
only within one context.

Coefficients are kept as given.  `summed` is the one home of the
summation policy, and every builder that adds up terms per key runs
through it (the forest product, coproduct and antipode, the morphism
images, deconcatenation and parsed expressions): a missing key starts from
`Fraction(0)` and keys keep their first-seen order, so float sums round the
same way every time and an int unit among floats still sums to a Fraction.
`Linear.__add__` adds other's terms onto self's values, which are kept as
given, from the class's `_zero` (`Fraction(0)`, or `0` for polynomials),
and `__sub__` adds the negation.  A coefficient equal to 0 is dropped on
construction.  `Linear._trusted` is the one way past that test, for terms
that are non-zero and in range by construction: a product kernel's output
(`context_product`) and the increments a rough path reads off its columns.

`Context` is what the forest and word sides (`hopf.ForestContext`,
`tensor.WordContext`) answer alike, by integer position: the positions of
the basis, an element's terms as a sparse row, the product's integer
table, and, for the character test, the product rows of two basis keys.
`is_character` is the one character test.

`Row` carries an element's terms through the kernels by context position:
integer numerators over one reduced denominator when every value is exact
(see `scalars`), the values as given otherwise.  `Context.row_of` makes one
and `Context.times` is the product of rows, the one loop kernel: it reads
the context's `table()` entry by entry, on numerators or on the scalars,
so float totals round in table order.  `convolve` runs there, through
`context_product`; `tensor.concat` needs no table and is a plain loop over
its words.  `dot` is the pairing loop, over any two maps: `pair` runs it on
elements, and the adjacent psi pairing of `conversion` on positions where
an image has more terms than a step's keys.

The all-pairs sweeps (the pair fold, Chen and the psi pairing) run on
straight-line functions that `_straight_line` generates from the same
tables and `compile`s: one `cnt * f[a] * g[b]` term per table entry, so a
product costs no loop, no zero test and no dict.  A context compiles its
kernel once, the first time a sweep asks for it (`Context.compiled`); a
psi map is compiled per sweep (`Context.linear_map`).  Both scalar modes
run there, on an exact sweep's numerators or a float sweep's scalars
(`Context.dense`), and a float total rounds as in `times` (see
`Context.fold`).  Single products stay on `times`.  The Euler steps of
`rde._euler` are the generator's other shape, with the fields'
coefficients and the slot names passed as operand lists.

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
        return self + -other

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


def summed(pairs) -> dict:
    """The (key, coefficient) pairs summed per key from Fraction(0), keys in
    first-seen order and zero totals kept: the terms of an element."""
    out: dict = {}
    get = out.get
    for k, c in pairs:
        out[k] = get(k, _ZERO) + c
    return out


class Row:
    """Terms by context position, in insertion order: integer numerators
    over den when every value is exact, with den > 0 and gcd(den,
    *numerators) == 1, so one map has one exact row; the values as given
    with den None otherwise.  size counts the terms of the map the row was
    made from.  `Context.dense` keeps the row's operand of `times` and of
    the compiled functions in dense."""

    __slots__ = ("values", "den", "size", "dense")

    def __init__(self, values: dict, den: int | None, size: int):
        self.values = values
        self.den = den
        self.size = size
        self.dense = None

    def scalars(self) -> dict:
        """The values in a new dict, numerators over a den above 1 as
        Fractions, so editing it leaves the row as it was.  An int in place
        of its Fraction gives the same sum from Fraction(0), and the same
        float times a float."""
        den = self.den
        if den is None or den == 1:
            return dict(self.values)
        return {k: Fraction(c, den) for k, c in self.values.items()}


def dot(a: dict, b: dict):
    """The sum from 0 of c * b[k] over the terms (k, c) of a whose key b
    holds, in a's order."""
    get = b.get
    total = 0
    for k, c in a.items():
        v = get(k)
        if v is not None:
            total += c * v
    return total


class Context:
    """A basis sorted by grade, with integer positions: `index` maps basis
    keys to positions, `keys` and `lookup` number other keys (forests, or
    the letter tuples of words) past the basis on first sight, and the
    keys of grade <= g are the first `ends[g]`.  A subclass supplies two
    things: its integer table `table()`, per basis position the (a, b,
    count) terms of the product's total there, which `times` reads and
    `compiled` compiles; and `product_row(i, j)`: the positions basis[i] *
    basis[j] spreads over, one entry per unit of coefficient.

    `kernel` is the table compiled by `compiled`, or None until a sweep
    asks for it, and `kernel_terms` its number of terms."""

    __slots__ = (
        "key", "N", "basis", "index", "grades", "ends", "keys", "lookup", "kernel", "kernel_terms", "__weakref__",
    )

    def __init__(self, key: tuple, basis: tuple, keys):
        self.key = key
        self.N = N = key[0]
        self.basis = basis
        self.index = {b: i for i, b in enumerate(basis)}
        self.grades = [b.grade for b in basis]
        self.ends = [sum(1 for g in self.grades if g <= b) for b in range(N + 1)]
        self.keys = list(keys)
        self.lookup = {k: i for i, k in enumerate(self.keys)}
        self.kernel = None
        self.kernel_terms = 0

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
        """The row of a * b, zero totals dropped: per basis position h, the
        sum of cnt * f[i] * g[j] over table()[h] in table order, a term with
        a zero factor skipped, on the operands f and g of `dense`.  Two
        exact rows sum numerators from 0, reduced by their gcd with den;
        otherwise the scalars sum from Fraction(0), so floats round in table
        order and a total of exact terms stays exact, and the row goes back
        to numerators when every total is exact."""
        exact = a.den is not None and b.den is not None
        f, g = self.dense(a, exact), self.dense(b, exact)
        zero = 0 if exact else _ZERO
        values = {}
        for h, terms in enumerate(self.table()):
            total = zero
            for i, j, cnt in terms:
                x = f[i]
                if not x:
                    continue
                y = g[j]
                if not y:
                    continue
                total += cnt * x * y
            if total:
                values[h] = total
        return _lowest_terms(a.den * b.den, values) if exact else row_at(values)

    def compiled(self):
        """The compiled kernel, built from `table()` the first time and kept.
        It maps two dense operands (see `dense`) to the totals by basis
        position, a list; its terms are summed in table order."""
        if self.kernel is None:
            table = self.table()
            self.kernel = _straight_line(("f", "g"), table)
            self.kernel_terms = sum(map(len, table))
        return self.kernel

    @staticmethod
    def linear_map(rows: list):
        """A compiled linear function of one dense operand (see `dense`): per
        entry of rows, a list of (position, integer coefficient) terms, the
        function returns the sum of coefficient * v[position] over them.
        Nothing is kept."""
        return _straight_line(("v",), rows)

    def dense(self, row: Row, exact: bool = True) -> list:
        """row by basis position, 0 where absent, as the operand of `times`
        or of the compiled functions in a product or sweep that is exact
        (every row exact) or not: numerators in an exact one, else scalars,
        an integral exact value as an int.  Kept on the row, but for the
        scalars of an exact row over den > 1."""
        fresh = not exact and row.den not in (None, 1)
        if row.dense is not None and not fresh:
            return row.dense
        out = [0] * len(self.basis)
        for k, c in (row.scalars() if fresh else row.values).items():
            out[k] = c.numerator if getattr(c, "denominator", 0) == 1 else c
        if not fresh:
            row.dense = out
        return out

    def fold(self, a: Row, b: Row) -> Row:
        """The row `times` gives, on the compiled kernel, built on first use,
        with a float row's integral exact values as ints.  Two exact rows
        multiply numerators, and the product keeps its dense operand;
        otherwise both rows give their scalars (see `dense`).  The sum runs
        in table order, as in `times`, but starts from no Fraction(0) and
        skips no zero factor.  That changes only the sign of a zero total,
        dropped, a total with a non-finite factor, and a total of exact
        terms beside a float times an absent 0, which comes back a float; a
        lift's rows, where a key's scalar type follows its labels, hold none."""
        exact = a.den is not None and b.den is not None
        totals = self.compiled()(self.dense(a, exact), self.dense(b, exact))
        values = {k: c for k, c in enumerate(totals) if c}
        if not exact:
            return row_at(values)
        den = a.den * b.den
        row = _lowest_terms(den, values)
        common = den // row.den
        row.dense = totals if common == 1 else [c // common for c in totals]
        return row


def _lowest_terms(den: int, values: dict) -> Row:
    """The exact row of the integer totals values over den, both divided by
    their gcd: the one reduction of `Context.times` and `Context.fold`."""
    common = math.gcd(den, *values.values())
    if common > 1:
        den //= common
        values = {k: c // common for k, c in values.items()}
    return Row(values, den, len(values))


def row_at(values: dict, size: int | None = None) -> Row:
    """The row of values by position, as given or, when all are exact, as
    integer numerators over their least common denominator; size counts the
    values unless given: a float product's totals, or a rough path's
    adjacent values (`roughpath._RoughPathBase.pair_rows`)."""
    (nums,), den = numerators(list(values.values()))
    return Row(values if den is None else dict(zip(values, nums)), den, len(values) if size is None else size)


def _straight_line(params: tuple, rows, e: int | None = None) -> object:
    """The one place the package compiles code.  Without e, a function of
    params, the names of dense operand lists, returning per entry of rows
    the sum, left to right, of one term per (position, ..., count) tuple in
    it, count * p[position] * ... over params in order, the count left out
    when it is 1 and an empty sum 0.  With e, one Euler step of `rde._euler`
    in e components, a function of (c, n, y, w) = params, the coefficients,
    slot names, state and weights: rows holds per slot None or per
    component its terms (m, k, ...), c[m] * y[k] * ...  Per slot j whose
    weight v = w[j] is not None, in order, it returns None if rows[j] is
    None; else it adds each component's t = v * (0 + its terms) to a delta
    from 0, and stores (t, ...) under n[j] in the breakdown when a t is
    true.  It returns (y + delta, breakdown).  Every position, count and e
    must be an int, so the source holds nothing but integers, the operand
    names, fixed locals, keywords, operators, brackets and commas."""
    index = operator.index

    def product(names, positions) -> str:
        return "*".join(f"{p}[{index(k)}]" for p, k in zip(names, positions, strict=True))

    if e is None:
        totals = []
        for row in rows:
            terms = []
            for *positions, count in row:
                factors, count = product(params, positions), index(count)
                terms.append(factors if count == 1 else f"{count}*{factors}")
            totals.append(" + ".join(terms) or "0")
        body = [f"return [{', '.join(totals)}]"]
    else:
        c, n, y, w = params
        ds, ts = [f"d{a}" for a in range(index(e))], [f"t{a}" for a in range(index(e))]
        body = ["b = {}", " = ".join(ds) + " = 0"]
        for j, comps in enumerate(rows):
            body.append(f"if (v := {w}[{j}]) is not None:")
            if comps is None:
                body.append("    return None")
                continue
            for t, terms in zip(ts, comps, strict=True):
                total = " + ".join(["0"] + [product((c, *[y] * len(ks)), (m, *ks)) for m, *ks in terms])
                body.append(f"    {t} = v * ({total})")
            body += [f"    if {' or '.join(ts)}:", f"        b[{n}[{j}]] = ({', '.join(ts)},)"]
            body += [f"    {d} += {t}" for d, t in zip(ds, ts)]
        body.append(f"return ({', '.join(f'{y}[{a}] + {d}' for a, d in enumerate(ds))},), b")
    source = f"def kernel({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in body)
    namespace: dict = {}
    exec(compile(source, "<linear._straight_line>", "exec"), namespace)
    return namespace["kernel"]


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
    return _ZERO + dot(small, big)


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
