"""Grid-indexed branched and geometric rough paths.

A rough path is stored as one group-like increment per adjacent grid pair,
so the Chen relation is baked into the representation.  Wider pairs come
from one place, `pair_rows`: `linear.Row`s folded forward from each start
point by `Context.times`, every pair composed once, with no element built
and nothing kept.  `validate` re-checks Chen on every grid triple and reads
the Hölder diagnostic from those rows, and `conversion.certify` pairs them
with the psi images.  `increment(s, t)` still composes one pair as an
element, an uncached left fold, for callers that want a single pair.  Two
lift constructors cover the two sides of the theory: `canonical_lift`
takes exact iterated integrals of the piecewise linear interpolation,
`ito_lift` realizes the left-point Riemann rule.

The two path classes carry what differs between the sides (the `kind`, the
element class and context tuple, the key parser, the Hölder keys and the
`linear.Context` their products run on); the rest asks the path's context.

On each interval the canonical increment is exp(sum_tau delta_tau e_tau),
whose coefficient on a word of k letters is the product of their deltas
over k!.  `canonical_lift` writes that closed form directly instead of
summing the `tensor_exp` series, and its increments are bit-identical to
`tensor_exp` of the grade-1 primitive in both scalar modes: same keys in the
same order, same scalar types, same rounding.  Float sums downstream iterate
the terms in insertion order, so that order is part of the contract.

Exact rational scalars are the default; float mode exists for long grids and
switches validation to tolerance comparisons.  `SampledPath.from_csv`
refuses non-finite values, and `first_non_character` lets a loader refuse a
rough path whose adjacent increments are not characters, in O(M); a key
outside the level-N basis, which no composed pair can hold, counts as not
one.

The text parsers of `expr` and the maps of `morphisms` are imported where
the loader and the geometricity checks call them, at call time, so a lift
that needs neither loads neither.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .hopf import HElem, convolve, forest_context, pair
from .linear import is_character
from .scalars import FLOAT, RATIONAL, parse_rational
from .tensor import TensorElem, Word, concat, word_context
from .trees import EMPTY_FOREST, Forest, Tree, enumerate_forests, leaf


def _close(a, b, mode) -> bool:
    """Equality in rational mode; in float mode a relative tolerance of 1e-9
    between finite values, while a non-finite value is close only to an
    equal one (so never to a finite value, and NaN to nothing)."""
    if mode == RATIONAL or a == b:
        return a == b
    tol = 1e-9 * (1.0 + max(abs(a), abs(b)))
    # tol is infinite only beside an infinite value, and an infinite value
    # is close only to an equal one, which a == b has already accepted
    return abs(a - b) <= tol < math.inf


class Grid:
    """Strictly increasing times t_0 < ... < t_M, M >= 1."""

    __slots__ = ("times",)

    def __init__(self, times: Iterable):
        ts = tuple(times)
        if len(ts) < 2:
            raise ValueError("a grid needs at least two times")
        if any(not a < b for a, b in zip(ts, ts[1:])):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", ts)

    def __setattr__(self, name, value):
        raise AttributeError("Grid is immutable")

    def __len__(self):
        return len(self.times)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def __eq__(self, other):
        return isinstance(other, Grid) and self.times == other.times

    def __hash__(self):
        return hash(self.times)

    def __repr__(self):
        return f"Grid({self.times[0]}..{self.times[-1]}, {self.steps} steps)"


def _grid_csv(grid: Grid, names: Sequence[str], rows: Sequence[Sequence], mode: str) -> str:
    """A header row "t, names...", then one row per grid time; values are
    written with str in rational mode and repr in float mode."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", *names])
    fmt = str if mode == RATIONAL else repr
    for t, row in zip(grid.times, rows):
        w.writerow([fmt(t)] + [fmt(v) for v in row])
    return buf.getvalue()


def _parse_basis_name(name: str) -> Tree:
    from .expr import ParseError, parse_h

    x = parse_h(name.strip(), 10**9)
    if len(x.terms) != 1:
        raise ParseError(f"basis name {name!r} is not a single tree", 1, 1)
    f, c = next(iter(x.terms.items()))
    if c != 1 or not f.is_single_tree():
        raise ParseError(f"basis name {name!r} is not a single tree", 1, 1)
    return f.factors[0]


class SampledPath:
    """Vector-valued samples on a grid, indexed by a tree basis.

    Plain d-dimensional data uses the single-vertex basis (b_1 .. b_d); the
    conversion step extends the basis with higher-grade trees.
    """

    __slots__ = ("grid", "basis", "values", "mode")

    def __init__(self, grid: Grid, basis: Sequence[Tree], values: Sequence[Sequence], mode: str = RATIONAL):
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        basis = tuple(basis)
        if len(set(basis)) != len(basis) or not basis:
            raise ValueError("basis must be non-empty and duplicate-free")
        vals = tuple(tuple(row) for row in values)
        if len(vals) != len(grid):
            raise ValueError("one value row per grid time required")
        if any(len(row) != len(basis) for row in vals):
            raise ValueError("row dimension must match the basis")
        self.grid = grid
        self.basis = basis
        self.values = vals
        self.mode = mode

    @classmethod
    def over_labels(cls, times: Iterable, rows: Sequence[Sequence], d: int, mode: str = RATIONAL) -> "SampledPath":
        return cls(Grid(times), tuple(leaf(i) for i in range(1, d + 1)), rows, mode)

    @property
    def d(self) -> int:
        return max(t.max_label() for t in self.basis)

    def has_label_basis(self) -> bool:
        return all(t.grade == 1 for t in self.basis)

    def delta(self, k: int) -> dict:
        """Increments over adjacent interval k as a basis-tree map."""
        lo, hi = self.values[k], self.values[k + 1]
        return {t: hi[i] - lo[i] for i, t in enumerate(self.basis)}

    def component(self, t: Tree) -> tuple:
        i = self.basis.index(t)
        return tuple(row[i] for row in self.values)

    def extend(self, new_basis: Sequence[Tree], new_columns: Sequence[Sequence]) -> "SampledPath":
        """Append components; new_columns[j][k] is the value of new_basis[j]
        at time k."""
        basis = self.basis + tuple(new_basis)
        rows = [
            tuple(self.values[k]) + tuple(col[k] for col in new_columns)
            for k in range(len(self.grid))
        ]
        return SampledPath(self.grid, basis, rows, self.mode)

    # -- CSV ---------------------------------------------------------------

    def to_csv(self) -> str:
        return _grid_csv(self.grid, [repr(t) for t in self.basis], self.values, self.mode)

    @classmethod
    def from_csv(cls, text: str, mode: str = RATIONAL) -> "SampledPath":
        import csv
        import io

        rows = list(csv.reader(io.StringIO(text)))
        if not rows or not rows[0] or rows[0][0] != "t":
            raise ValueError("CSV must start with a 't' header column")
        basis = tuple(_parse_basis_name(name) for name in rows[0][1:])
        conv = parse_rational if mode == RATIONAL else float
        times = []
        values = []
        for r, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            nums = []
            for c, cell in enumerate(row, start=1):
                try:
                    v = conv(cell)
                except ValueError:
                    raise ValueError(f"row {r}, column {c}: {cell!r} is not a number") from None
                if mode == FLOAT and not math.isfinite(v):
                    raise ValueError(f"row {r}, column {c}: non-finite value {cell!r}")
                nums.append(v)
            times.append(nums[0])
            values.append(tuple(nums[1:]))
        if len(times) < 2:
            raise ValueError("fewer than 2 grid points")
        return cls(Grid(times), basis, values, mode)


# -- rough path containers -------------------------------------------------


class _RoughPathBase:
    """A subclass names its side: `kind` as in reports and JSON, the element
    class and `key_name` of its basis keys, `parse_key(text, *element_ctx)`,
    `context_of(N, *element_ctx)` and the constructor arguments past mode
    (`tree_fields`, tuples of trees kept in JSON under the same names)."""

    __slots__ = ("N", "gamma", "grid", "increments", "d", "mode")

    tree_fields: tuple = ()

    def __init__(self, N, gamma, grid, increments, d, mode):
        if len(increments) != grid.steps:
            raise ValueError("one increment per adjacent grid pair required")
        self.N = N
        self.gamma = gamma
        self.grid = grid
        self.increments = list(increments)
        self.d = d
        self.mode = mode

    @property
    def element_ctx(self) -> tuple:
        """The context tuple of the increments."""
        return (self.d,)

    def context(self):
        """The context of the increments' basis at level N."""
        return self.context_of(self.N, *self.element_ctx)

    def _unit(self):
        return self.element.unit(*self.element_ctx)

    def increment(self, s_index: int, t_index: int):
        """Increment over grid pair (s, t): the left fold of `_compose` over
        the adjacent steps, nothing kept, so (s, s+1) is increments[s]
        itself.  A sweep over many pairs reads `pair_rows` instead."""
        M = self.grid.steps
        if not 0 <= s_index <= t_index <= M:
            raise IndexError(f"need 0 <= {s_index} <= {t_index} <= {M}")
        if s_index == t_index:
            return self._unit()
        return functools.reduce(self._compose, self.increments[s_index + 1 : t_index], self.increments[s_index])

    def pair_rows(self):
        """Every grid pair (s, t), s < t, in itertools.combinations order, as
        (s, t, row): X_st as a `linear.Row` of the path's context, in the
        term order of X.increment(s, t) and of its size.

        For each s the rows of (s, s+2), (s, s+3), ... are folded forward,
        each by `Context.times` of the row before it and the adjacent row
        (t-1, t), which replaces it: every pair is composed once, with O(M)
        rows live and no element built.  This is the one composition of
        wider pairs that the sweeps (`validate`, `conversion.certify`)
        read."""
        ctx = self.context()
        adjacent = [ctx.row_of(inc.terms) for inc in self.increments]
        for s, row in enumerate(adjacent):
            yield s, s + 1, row
            for t in range(s + 2, len(adjacent) + 1):
                row = ctx.times(row, adjacent[t - 1])
                yield s, t, row


class BranchedRoughPath(_RoughPathBase):
    """Adjacent-pair functionals on forests of grade <= N."""

    kind, key_name, element = "branched", "forest", HElem
    context_of = staticmethod(forest_context)

    @staticmethod
    def parse_key(text: str, d: int) -> HElem:
        from .expr import parse_h  # read at call time, as a tracer rebinds it

        return parse_h(text, d)

    def _compose(self, a, b):
        return convolve(a, b, self.N)

    def holder_keys(self) -> list:
        return [f for f in self.context().basis if f.is_single_tree()]


class GeometricRoughPath(_RoughPathBase):
    """Adjacent-pair functionals on words of total grade <= N."""

    __slots__ = ("letters",)

    kind, key_name, element = "geometric", "word", TensorElem
    context_of = staticmethod(word_context)
    tree_fields = ("letters",)

    @staticmethod
    def parse_key(text: str, d: int, n: int) -> TensorElem:
        from .expr import parse_tensor

        return parse_tensor(text, d, n)

    def __init__(self, N, gamma, grid, increments, d, mode, letters):
        super().__init__(N, gamma, grid, increments, d, mode)
        self.letters = tuple(letters)

    @property
    def letter_bound(self) -> int:
        return max(t.grade for t in self.letters)

    @property
    def element_ctx(self) -> tuple:
        return (self.d, self.letter_bound)

    def _compose(self, a, b):
        return concat(a, b, self.N)

    def holder_keys(self) -> list:
        return [w for w in self.context().basis if not w.is_empty()]


# -- level arithmetic ------------------------------------------------------


def gamma_to_level(gamma) -> int:
    """Largest N with N*gamma <= 1, with float products for a float gamma.
    In either mode a gamma whose level would reach 2^53 is refused."""
    g = Fraction(gamma) if not isinstance(gamma, float) else gamma
    if not 0 < g < 1:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    if not isinstance(g, float):
        if 1 // g < 2**53:
            return 1 // g
    elif math.isinf(1 / g):
        raise ValueError(f"gamma is too small for a float level: 1/gamma overflows, got {gamma}")
    else:
        # 1 / g is rounded, so N * g may land on either side of 1; from 2^53
        # on, float(N + 1) may equal float(N), so the steps could not stop
        N = min(int(1 / g), 2**53 - 1)
        while N < 2**53:
            if N * g > 1:
                N -= 1
            elif (N + 1) * g <= 1:
                N += 1
            else:
                return N
    shown = str(g)
    if len(shown) > 24:  # a long fraction, shown to six digits
        from decimal import Decimal

        shown = f"{Decimal(g.numerator) / Decimal(g.denominator):.6g}"
    raise ValueError(f"gamma is too small: the level would reach 2^53, got {shown}")


# -- lift constructors -----------------------------------------------------


def _check_float_range(path: SampledPath, N: int) -> None:
    """Refuse a float path too large to lift: the level-n terms of its lift
    grow like V^n for V its l1 variation, and the Chen sums that compose
    them add up to 2^n such terms, so (2V)^N must be a finite float."""
    if path.mode != FLOAT:
        return
    V = sum(abs(b - a) for col in zip(*path.values) for a, b in zip(col, col[1:]))
    try:
        fits = math.isfinite((2 * V) ** N)
    except OverflowError:
        fits = False
    if not fits:
        V = math.inf if math.isnan(V) else V  # values past the float range give inf - inf
        raise ValueError(f"the path varies by {V:.6g} in total, too much for a float lift at level {N}")


def canonical_lift(path: SampledPath, N: int, gamma=None) -> GeometricRoughPath:
    """Iterated integrals of the piecewise-linear interpolation.

    Per interval the increment is exp(sum_tau delta_tau e_tau) truncated at
    total grade N, exact and valid for tree letters too.  It is written in
    closed form: the coefficient of a word of k letters is the product of
    their deltas times 1/k!.  Words are built once per lift and shared by
    all increments.

    For a path whose values match its mode (Fractions or ints in rational
    mode, floats in float mode) each increment equals tensor_exp of the
    grade-1 primitive bit for bit: the same keys in the same insertion
    order, the same scalar types (the empty word keeps Fraction(1)), the
    same left-to-right products and the same scale, which in float mode is
    float(Fraction(1, k!)), the number Fraction(1, k!) * x multiplies a
    float x by.  As in tensor_exp, a product that reaches 0 is not extended,
    and a coefficient that rounds to 0 is dropped.  The words come from the
    word context, so the increments are built with `TensorElem._trusted`.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    _check_float_range(path, N)
    letters = tuple(t for t in path.basis if t.grade <= N)
    if not letters:
        raise ValueError("no basis letters within the truncation level")
    d = path.d
    n = max(t.grade for t in letters)
    columns = [(j, path.basis.index(t), t.grade) for j, t in enumerate(letters)]
    scales = []  # 1/m! for words of m = 1 .. N letters
    inv_fact = Fraction(1)
    for m in range(1, N + 1):
        inv_fact /= m
        scales.append(float(inv_fact) if path.mode == FLOAT else inv_fact)
    # letter-index tuple -> Word, shared by every increment; the words are
    # the word context's own, so the kernels find them by identity
    ctx = word_context(N, d, n)
    words: dict = {}
    one = Fraction(1)
    increments = []
    for k in range(path.grid.steps):
        lo, hi = path.values[k], path.values[k + 1]
        live = [(j, v, g) for j, i, g in columns if (v := hi[i] - lo[i]) != 0]
        terms = {ctx.basis[0]: one}  # the empty word
        # words of m letters: (letter indices, total grade, product of deltas)
        level = [((), 0, None)]
        for scale in scales:
            deeper = []
            for key, grade, prod in level:
                for j, v, g in live:
                    if grade + g > N:
                        continue
                    p = v if prod is None else prod * v
                    if p == 0:
                        continue
                    key_j = key + (j,)
                    deeper.append((key_j, grade + g, p))
                    w = words.get(key_j)
                    if w is None:
                        w = Word(letters[i] for i in key_j)
                        w = words[key_j] = ctx.basis[ctx.index[w]]
                    if (c := scale * p) != 0:  # a float product can round to 0
                        terms[w] = c
            level = deeper
        increments.append(TensorElem._trusted(terms, d, n))
    return GeometricRoughPath(
        N, gamma if gamma is not None else Fraction(1, N), path.grid, increments, d, path.mode, letters
    )


def ito_lift(path: SampledPath, N: int, gamma=None) -> BranchedRoughPath:
    """Left-point Riemann lift of sampled data.

    On a single adjacent interval the left-point sums for every tree of
    grade >= 2 are empty, so the adjacent increment is the character
    generated by the bare increments; composition over the grid then
    reproduces the left-point recursion.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not path.has_label_basis():
        raise ValueError("ito_lift expects a plain label basis")
    _check_float_range(path, N)
    d = path.d
    # non-unit forests of single vertices, each with its factors' value
    # columns; a label the path lacks reads the 0 past the last column
    column = {t.label: i for i, t in enumerate(path.basis)}
    forests = [(f, [column.get(t.label, len(column)) for t in f]) for f in enumerate_forests(N, d) if 0 < len(f) == f.grade]
    one = Fraction(1)
    increments = []
    for lo, hi in zip(path.values, path.values[1:]):
        delta = [*map(operator.sub, hi, lo), 0]
        terms = {EMPTY_FOREST: one}
        for f, cols in forests:
            v = 1
            for i in cols:
                v = v * delta[i]
            if v != 0:
                terms[f] = v
        increments.append(HElem._trusted(terms, d))
    return BranchedRoughPath(
        N, gamma if gamma is not None else Fraction(1, N), path.grid, increments, d, path.mode
    )


def embed_geometric(Xbar: GeometricRoughPath) -> BranchedRoughPath:
    """Branched view of a geometric rough path over single-vertex letters:
    <X, h> = <Xbar, phi_g(h)>."""
    from .morphisms import phi_g

    if not isinstance(Xbar, GeometricRoughPath):
        raise TypeError("embed_geometric needs a geometric rough path")
    if Xbar.letter_bound > 1:
        raise ValueError("embed_geometric needs single-vertex letters")
    d = Xbar.d
    basis = enumerate_forests(Xbar.N, d)
    images = {h: phi_g(HElem.from_forest(h, d)) for h in basis}
    increments = []
    for g in Xbar.increments:
        terms = {}
        for h, img in images.items():
            v = pair(img, g)
            if v != 0:
                terms[h] = v
        increments.append(HElem(terms, d))
    return BranchedRoughPath(Xbar.N, Xbar.gamma, Xbar.grid, increments, d, Xbar.mode)


# -- validation ------------------------------------------------------------


def first_non_character(X) -> int | None:
    """Index of the first adjacent increment that is not a character (group
    -like, up to float tolerance in float mode), or None; O(M) in the grid.
    An increment with a key outside the level-N basis is not one: no
    composed pair holds such a key, so no other check would see it.

    In float mode the unit coefficient must lie within 1e-9 of 1, absolute;
    the products are compared with the relative tolerance of _close."""
    eq = operator.eq if X.mode == RATIONAL else functools.partial(_close, mode=FLOAT)
    for k, g in enumerate(X.increments):
        ctx = X.context_of(X.N, *g.ctx)
        if (
            not g.terms.keys() <= ctx.index.keys()
            or (X.mode == FLOAT and abs(g.coeff(ctx.basis[0]) - 1) > 1e-9)
            or not is_character(g, ctx, eq)
        ):
            return k
    return None


def validate(X) -> dict:
    """Character, Chen, and Hölder-diagnostic report; failures are reported,
    never raised.

    Chen and Hölder read one map (s, t) -> row, built from `X.pair_rows()`,
    so no pair is composed as an element.  Chen's relation X_st = X_su * X_ut
    is checked on every grid triple by `_check_chen`.  The Hölder diagnostic
    is the largest |<X_st, key>| / |t - s|^(gamma * grade) per Hölder key
    over all pairs, with a value or a time step past the float range giving
    inf."""
    report = {
        "kind": X.kind,
        "character": {"status": "pass", "witness": None},
        "chen": {"status": "pass", "witness": None, "checked_triples": 0},
        "holder": {"gamma": float(X.gamma), "per_basis": {}, "max": 0.0},
    }
    k = first_non_character(X)
    if k is not None:
        report["character"]["status"] = "fail"
        report["character"]["witness"] = f"adjacent increment {k}"
    rows = {(s, t): row for s, t, row in X.pair_rows()}
    _check_chen(X, rows, report["chen"])

    index = X.context().index
    names = [(index[key], repr(key), key.grade) for key in X.holder_keys()]
    gamma = float(X.gamma)
    times = X.grid.times
    per = {}
    for (s, t), row in rows.items():
        values = row.scalars()
        try:
            dt = float(times[t] - times[s])
        except OverflowError:  # exact times past the float range
            dt = math.inf
        for i, name, grade in names:
            try:
                v = abs(float(values.get(i, 0)))
                if v == 0.0:
                    continue
                ratio = v / dt ** (gamma * grade)
            except (OverflowError, ZeroDivisionError):  # values or time steps past the float range
                ratio = math.inf
            if ratio > per.get(name, 0.0):
                per[name] = ratio
    report["holder"]["per_basis"] = per
    report["holder"]["max"] = max(per.values(), default=0.0)
    return report


def _check_chen(X, rows: dict, chen: dict) -> None:
    """The Chen sweep of `validate`, filling its "chen" section from the
    pair rows: per triple in itertools.combinations order, `Context.times`
    of the rows of (s, u) and (u, t) against the row of (s, t), the first
    failure the witness.  Exact rows are reduced, so an exact triple holds
    when the two rows are equal; otherwise the values are, bit for bit, what
    convolve/concat give, compared with _close in the path's mode."""
    ctx = X.context()
    for s, u, t in itertools.combinations(range(X.grid.steps + 1), 3):
        chen["checked_triples"] += 1
        got, want = ctx.times(rows[s, u], rows[u, t]), rows[s, t]
        if got.den is not None and (got.den, got.values) == (want.den, want.values):
            continue
        a, b = got.scalars(), want.scalars()
        if not all(_close(a.get(k, 0), b.get(k, 0), X.mode) for k in a.keys() | b.keys()):
            chen["status"] = "fail"
            chen["witness"] = (s, u, t)
            return


def geometricity_report(X: BranchedRoughPath) -> dict:
    """Shuffle test via the chain embedding: <X_st, h> = <X_st, iota phi_g(h)>
    for all forests of grade <= N, checked on every adjacent increment."""
    from .morphisms import iota_elem, phi_g

    report = {"status": "pass", "witness": None, "defects": 0}
    basis = enumerate_forests(X.N, X.d)
    pulled = {h: iota_elem(phi_g(HElem.from_forest(h, X.d))) for h in basis}
    for k, g in enumerate(X.increments):
        for h, back in pulled.items():
            lhs = g.coeff(h)
            rhs = pair(back, g)
            if not _close(lhs, rhs, X.mode):
                report["defects"] += 1
                if report["status"] == "pass":
                    report["status"] = "fail"
                    report["witness"] = (k, repr(h), lhs, rhs)
    return report


def ibp_defect(X: BranchedRoughPath, i: int, j: int, s_index: int = 0, t_index: int | None = None):
    """Integration-by-parts defect <X,[b_j]_i> + <X,[b_i]_j> - <X,b_i b_j>
    over the given pair; zero exactly for geometric data."""
    if t_index is None:
        t_index = X.grid.steps
    inc = X.increment(s_index, t_index)
    bi, bj = leaf(i), leaf(j)
    return (
        inc.coeff(Forest((Tree(i, (bj,)),)))
        + inc.coeff(Forest((Tree(j, (bi,)),)))
        - inc.coeff(Forest((bi, bj)))
    )


# -- serialization ---------------------------------------------------------


def _scalar_to_json(v, mode):
    return str(v) if mode == RATIONAL else float(v)


def _scalar_from_json(v, mode, where):
    """A JSON time or coefficient: a string or a number (a bool is not one);
    in float mode non-finite values are refused.  Every refusal names where
    the value sits."""
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ValueError(f"{where}: expected a number or a string, got {json.dumps(v)}")
    try:
        x = parse_rational(v) if mode == RATIONAL else float(v)
    except (ValueError, OverflowError) as e:
        raise ValueError(f"{where}: {e}") from None
    if mode == FLOAT and not math.isfinite(x):
        raise ValueError(f"{where}: non-finite value {v!r}")
    return x


def roughpath_obj(X) -> dict:
    obj = {
        "kind": X.kind,
        "level": X.N,
        "gamma": str(X.gamma),
        "d": X.d,
        "mode": X.mode,
        "times": [_scalar_to_json(t, X.mode) for t in X.grid.times],
        "increments": [{repr(key): _scalar_to_json(c, X.mode) for key, c in g.terms.items()} for g in X.increments],
    }
    for field in X.tree_fields:
        obj[field] = [repr(t) for t in getattr(X, field)]
    return obj


def roughpath_to_json(X) -> str:
    return json.dumps(roughpath_obj(X), indent=2, sort_keys=True)


def _check_shape(obj) -> None:
    """Refuse a rough-path JSON object whose structure is wrong, naming the
    field, before any value is read."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for field in ("mode", "kind", "level", "gamma", "d", "times", "increments"):
        if field not in obj:
            raise ValueError(f"{field}: missing")
    for field, allowed in (("mode", (RATIONAL, FLOAT)), ("kind", tuple(_KINDS))):
        if obj[field] not in allowed:
            raise ValueError(f'{field}: expected "{allowed[0]}" or "{allowed[1]}", got {json.dumps(obj[field])}')
    for field in ("level", "d"):
        v = obj[field]
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"{field}: expected a positive integer, got {json.dumps(v)}")
    for field in ("times", "increments"):
        if not isinstance(obj[field], list):
            raise ValueError(f"{field}: expected a list, got {json.dumps(obj[field])}")
    times, rows = obj["times"], obj["increments"]
    if len(times) != len(rows) + 1:
        raise ValueError(f"times: expected {len(rows) + 1} entries, one more than the increments, got {len(times)}")
    for k, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"increment {k}: expected an object, got {json.dumps(row)}")
    for field in _KINDS[obj["kind"]].tree_fields:
        names = obj.get(field)
        if not (isinstance(names, list) and names and all(isinstance(x, str) for x in names)):
            raise ValueError(f"{field}: expected a non-empty list of tree names, got {json.dumps(names)}")


_KINDS = {cls.kind: cls for cls in (BranchedRoughPath, GeometricRoughPath)}


def _check_letters(letters: tuple, d: int, N: int) -> None:
    """Refuse a letter list with a repeat, a label above d or a grade above
    the level N, naming the letter."""
    for k, t in enumerate(letters):
        if t in letters[:k]:
            raise ValueError(f"letters: {t!r} is listed twice")
        if t.max_label() > d:
            raise ValueError(f"letters: {t!r} has a label above d = {d}")
        if t.grade > N:
            raise ValueError(f"letters: {t!r} has grade {t.grade}, above level {N}")


def roughpath_from_obj(obj: dict):
    """The rough path a JSON object holds.  The path is built first, so its
    own parser reads the increment keys; a key above the level, or a word
    over a letter the path does not list, is refused.  A gamma other than 1
    is refused where `gamma_to_level` refuses it, but the level may lie below
    the one gamma gives, as for a truncated path."""
    _check_shape(obj)
    cls = _KINDS[obj["kind"]]
    mode = obj["mode"]
    grid = Grid(_scalar_from_json(t, mode, f"time {i}") for i, t in enumerate(obj["times"]))
    N = obj["level"]
    gamma = _scalar_from_json(obj["gamma"], RATIONAL, "gamma")
    if gamma != 1:  # 1 is 1/N, the default of a level-1 lift
        try:
            gamma_to_level(gamma)
        except ValueError as e:
            raise ValueError(f"gamma: {e}") from None
    fields = [tuple(_parse_basis_name(name) for name in obj[field]) for field in cls.tree_fields]
    X = cls(N, gamma, grid, obj["increments"], obj["d"], mode, *fields)
    letters = getattr(X, "letters", ())
    _check_letters(letters, X.d, N)
    letters = set(letters)
    ectx = X.element_ctx
    for k, row in enumerate(obj["increments"]):
        terms = {}
        for name, v in row.items():
            x = X.parse_key(name, *ectx)
            if len(x.terms) != 1 or next(iter(x.terms.values())) != 1:
                raise ValueError(f"increment key {name!r} is not a basis {X.key_name}")
            (key,) = x.terms
            if key.grade > N:
                raise ValueError(f"increment {k}, {name}: grade {key.grade} above level {N}")
            for t in getattr(key, "letters", ()):
                if t not in letters:
                    raise ValueError(f"increment {k}, {name}: letter {t!r} is not in letters")
            terms[key] = _scalar_from_json(v, mode, f"increment {k}, {name}")
        X.increments[k] = X.element(terms, *ectx)
    return X


def roughpath_from_json(text: str):
    return roughpath_from_obj(json.loads(text))
