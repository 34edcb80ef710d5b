"""Grid-indexed branched and geometric rough paths.

A rough path stores one group-like increment per adjacent grid pair, so the
Chen relation is baked into the representation, as columns by context
position: per position the list of its M adjacent values, None where the
key is absent.  The lifts write columns with no element built per step;
`canonical_lift` takes exact iterated integrals of the piecewise linear
interpolation, in closed form, bit for bit `tensor_exp` of the grade-1
primitive in both scalar modes, `_lift_past_partial` adds letters of the
top grade to such a lift as `canonical_lift` would, and `ito_lift` realizes
the left-point Riemann rule.  Float sums downstream follow a path's key
order, so that order is part of the contract.  Wider pairs come from one
place, `pair_rows`: `linear.Row`s folded forward from each start point on
the context's compiled product kernel, every pair composed once, nothing
kept.  `validate` re-checks Chen on every grid triple and reads the Hölder
diagnostic from those rows, and `conversion.certify` pairs them with the
psi images.  `increment(s, t)` still composes one pair as an element.

The two path classes carry what differs between the sides (the `kind`, the
element class and context tuple, the key parser, the Hölder keys and the
`linear.Context` their products run on); the rest asks the path's context.

Exact rational scalars are the default; float mode exists for long grids and
switches validation to tolerance comparisons.  `SampledPath.from_csv`
refuses non-finite values, and `first_non_character` lets a loader refuse a
rough path whose adjacent increments are not characters, in O(M); a key
outside the level-N basis, which no composed pair can hold, counts as not
one.  The text parsers of `expr` and the maps of `morphisms` are imported
where they are called, so a lift that needs neither loads neither.
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
from .linear import is_character, row_at
from .scalars import FLOAT, RATIONAL, parse_rational
from .tensor import TensorElem, Word, concat, word_context
from .trees import Forest, Tree, enumerate_forests, leaf


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
    conversion step extends the basis with higher-grade trees.  The l1
    variation that a float lift checks (`_check_float_range`) is kept in
    `_variation` once found, and `extend` carries it over.
    """

    __slots__ = ("grid", "basis", "values", "mode", "_variation")

    def __init__(self, grid: Grid, basis: Sequence[Tree], values: Sequence[Sequence], mode: str = RATIONAL):
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        basis = tuple(basis)
        if len(set(basis)) != len(basis) or not basis:
            raise ValueError("basis must be non-empty and duplicate-free")
        vals = tuple(map(tuple, values))
        if len(vals) != len(grid):
            raise ValueError("one value row per grid time required")
        if set(map(len, vals)) != {len(basis)}:
            raise ValueError("row dimension must match the basis")
        self.grid = grid
        self.basis = basis
        self.values = vals
        self.mode = mode
        self._variation = None

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
        at time k.  A column must hold one value per grid time."""
        new_basis = tuple(new_basis)
        n = len(self.grid)
        for t, col in zip(new_basis, new_columns, strict=True):
            if len(col) != n:
                raise ValueError(f"column {t!r}: {len(col)} values for {n} grid times")
        rows = map(operator.add, self.values, zip(*new_columns)) if new_columns else self.values
        out = SampledPath(self.grid, self.basis + new_basis, rows, self.mode)
        if self._variation is not None:
            out._variation = _l1(new_columns, self._variation)
        return out

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
    """`columns` maps a context position to its column of M adjacent values,
    None where the key is absent, so a present 0 stays present; the map's
    order is the path's one key order, the order in which the keys were
    inserted, and a position absent at every step may have none.  The lifts and
    `conversion.simplify_n2` pass columns, and increments None.  A path
    built from elements keeps them as its view and derives its columns once,
    keys in first-seen order and, like `Context.row_of`, a key outside the
    context skipped: the view keeps it, for `first_non_character` to flag.

    A subclass names its side: `kind` as in reports and JSON, the element
    class and `key_name` of its basis keys, `parse_key(text, *element_ctx)`,
    `context_of(N, *element_ctx)` and the constructor arguments past mode
    (`tree_fields`, tuples of trees kept in JSON under the same names)."""

    __slots__ = ("N", "gamma", "grid", "d", "mode", "columns", "_increments")

    tree_fields: tuple = ()

    def __init__(self, N, gamma, grid, increments, d, mode, *fields, columns=None):
        self.N, self.gamma, self.grid, self.d, self.mode = N, gamma, grid, d, mode
        for name, trees in zip(self.tree_fields, fields, strict=True):
            setattr(self, name, tuple(trees))
        self.columns, self._increments = columns, None
        if columns is not None:
            return
        self._increments = increments = tuple(increments)
        if len(increments) != grid.steps:
            raise ValueError("one increment per adjacent grid pair required")
        index, self.columns = self.context().index, {}
        for s, g in enumerate(increments):
            for key, c in g.terms.items():
                if (p := index.get(key)) is not None:
                    if (col := self.columns.get(p)) is None:
                        col = self.columns[p] = [None] * grid.steps
                    col[s] = c

    @property
    def increments(self) -> tuple:
        """The adjacent increments as elements, read-only, built from the
        columns on first read, keys in the key order."""
        if self._increments is None:
            basis, ectx, make = self.context().basis, self.element_ctx, self.element._trusted
            cols = [(basis[p], col) for p, col in self.columns.items()]
            self._increments = tuple(
                make({key: v for key, col in cols if (v := col[s]) is not None}, *ectx) for s in range(self.grid.steps)
            )
        return self._increments

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
        (s, t, row): X_st as a `linear.Row` of the path's context.

        An adjacent row is read off the columns, in the key order, with the
        values and size of `ctx.row_of(increments[s].terms)`.  For each s
        the rows of (s, s+2), (s, s+3), ... are folded forward, each the
        product of the row before it and the adjacent row (t-1, t), which
        replaces it: every pair is composed once, O(M) rows live.  Each fold
        is a `Context.fold` on the context's compiled kernel, exact or
        float, so a folded row's terms come in basis-position order, with
        the values of X.increment(s, t): the one composition of wider pairs
        that the sweeps (`validate`, `conversion.certify`) read."""
        ctx, cols, view = self.context(), list(self.columns.items()), self._increments
        adjacent = []
        for s in range(self.grid.steps):
            values = {p: v for p, col in cols if (v := col[s]) is not None}
            adjacent.append(row_at(values, len(values) if view is None else len(view[s].terms)))
        for s, row in enumerate(adjacent):
            yield s, s + 1, row
            for t in range(s + 2, len(adjacent) + 1):
                row = ctx.fold(row, adjacent[t - 1])
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


def _l1(columns, start=0):
    """start plus the absolute differences of each column, summed column by
    column in order: the l1 variation of a path from its columns, or of an
    extended path from its base's and the new columns."""
    return sum(map(abs, itertools.chain.from_iterable(map(operator.sub, col[1:], col) for col in columns)), start)


def _check_float_range(path: SampledPath, N: int) -> None:
    """Refuse a float path too large to lift: the level-n terms of its lift
    grow like V^n for V its l1 variation, and the Chen sums that compose
    them add up to 2^n such terms, so (2V)^N must be a finite float.  V is
    found once per path and kept on it."""
    if path.mode != FLOAT:
        return
    V = path._variation
    if V is None:
        V = path._variation = _l1(zip(*path.values))
    try:
        fits = math.isfinite((2 * V) ** N)
    except OverflowError:
        fits = False
    if not fits:
        V = math.inf if math.isnan(V) else V  # values past the float range give inf - inf
        raise ValueError(f"the path varies by {V:.6g} in total, too much for a float lift at level {N}")


def _deltas(path: SampledPath, i: int) -> list:
    """Component i's adjacent increments hi - lo, one per grid step."""
    col = [row[i] for row in path.values]
    return list(map(operator.sub, col[1:], col))


def canonical_lift(path: SampledPath, N: int, gamma=None) -> GeometricRoughPath:
    """Iterated integrals of the piecewise-linear interpolation.

    Per interval the increment is exp(sum_tau delta_tau e_tau) truncated at
    total grade N, exact and valid for tree letters too, in closed form: a
    word of k letters has the product of their deltas times 1/k!, one column
    per word, from its prefix's column of products.  For a path whose values
    match its mode (Fractions or ints in rational mode, floats in float
    mode) each increment is tensor_exp of the grade-1 primitive bit for bit:
    the same keys in the same order (by number of letters, then by letter
    index), the same scalar types (the empty word keeps Fraction(1)), the
    same left-to-right products and the same scale, float(Fraction(1, k!))
    in float mode.  As in tensor_exp, a product that reaches 0 is not
    extended, and a coefficient that rounds to 0 is absent.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    _check_float_range(path, N)
    letters = tuple(t for t in path.basis if t.grade <= N)
    if not letters:
        raise ValueError("no basis letters within the truncation level")
    d = path.d
    n = max(t.grade for t in letters)
    # per letter its grade and its deltas, None where it stands still
    live = [(t.grade, [v if v != 0 else None for v in _deltas(path, path.basis.index(t))]) for t in letters]
    scales = [Fraction(1, math.factorial(m)) for m in range(1, N + 1)]  # for words of m letters
    scales = list(map(float, scales)) if path.mode == FLOAT else scales
    index = word_context(N, d, n).index
    columns = {0: [Fraction(1)] * path.grid.steps}  # the empty word
    # words of m letters: (letter indices, total grade, column of products)
    level = [((), 0, None)]
    for scale in scales:
        deeper = []
        for key, grade, prods in level:
            for j, (g, v) in enumerate(live):
                if grade + g > N:
                    continue
                if prods is not None:
                    v = [x if a is not None and b is not None and (x := a * b) != 0 else None for a, b in zip(prods, v)]
                if all(p is None for p in v):
                    continue
                key_j = key + (j,)
                deeper.append((key_j, grade + g, v))
                # a float product can round to 0
                col = [c if p is not None and (c := scale * p) != 0 else None for p in v]
                columns[index[Word(letters[i] for i in key_j)]] = col
        level = deeper
    gamma = Fraction(1, N) if gamma is None else gamma
    return GeometricRoughPath(N, gamma, path.grid, None, d, path.mode, letters, columns=columns)


def _lift_past_partial(partial: GeometricRoughPath, path: SampledPath) -> GeometricRoughPath:
    """canonical_lift(path, N, partial.gamma), for partial the level-N lift
    of path's first columns and path's other columns trees of grade N.  A
    grade-N letter enters a level-N lift only as a one-letter word, so the
    lift is partial's own columns, moved to word_context(N, d, N), with each
    grade-N letter's column, its delta times the m=1 scale, after the lower
    one-letter words: canonical_lift's keys, order, types and float bits."""
    N, d, k = partial.N, partial.d, len(partial.letters)
    _check_float_range(path, N)
    index, basis = word_context(N, d, N).index, partial.context().basis
    scale = 1.0 if path.mode == FLOAT else Fraction(1)
    tops = {
        index[Word((t,))]: [c if v != 0 and (c := scale * v) != 0 else None for v in _deltas(path, i)]
        for i, t in enumerate(path.basis[k:], k)
    }
    moved = [(len(basis[p]) > 1, index[basis[p]], col) for p, col in partial.columns.items()]
    columns = {**{p: c for longer, p, c in moved if not longer}, **tops, **{p: c for longer, p, c in moved if longer}}
    return GeometricRoughPath(N, partial.gamma, path.grid, None, d, path.mode, path.basis, columns=columns)


def ito_lift(path: SampledPath, N: int, gamma=None) -> BranchedRoughPath:
    """Left-point Riemann lift of sampled data.

    On a single adjacent interval the left-point sums for every tree of
    grade >= 2 are empty, so the adjacent increment is the character
    generated by the bare increments; composition over the grid then
    reproduces the left-point recursion.  Each forest of single vertices
    gets the column of its factors' deltas multiplied from 1 left to right,
    from its prefix forest's products; a product equal to 0 is absent.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not path.has_label_basis():
        raise ValueError("ito_lift expects a plain label basis")
    _check_float_range(path, N)
    d, M = path.d, path.grid.steps
    # each label's deltas; a label the path lacks reads the 0s past the last
    column = {t.label: i for i, t in enumerate(path.basis)}
    deltas = [_deltas(path, i) for i in range(len(column))] + [[0] * M]
    # the forests' positions in forest_context(N, d), whose basis is this
    # enumeration; a forest's prefix forest has a lower grade, so it comes first
    columns, products = {0: [Fraction(1)] * M}, {(): [1] * M}
    for p, f in enumerate(enumerate_forests(N, d)):
        if 0 < len(f) == f.grade:
            key = tuple(column.get(t.label, len(column)) for t in f)
            prod = products[key] = list(map(operator.mul, products[key[:-1]], deltas[key[-1]]))
            columns[p] = [v if v != 0 else None for v in prod]
    gamma = Fraction(1, N) if gamma is None else gamma
    return BranchedRoughPath(N, gamma, path.grid, None, d, path.mode, columns=columns)


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
    increments = [HElem({h: pair(img, g) for h, img in images.items()}, d) for g in Xbar.increments]
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
        get, den = row.values.get, row.den
        try:
            dt = float(times[t] - times[s])
        except OverflowError:  # exact times past the float range
            dt = math.inf
        for i, name, grade in names:
            try:
                # an int over den divides to the float nearest the Fraction
                v = abs(float(get(i, 0)) if den is None else get(i, 0) / den)
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
    pair rows: per triple in itertools.combinations order, the product of
    the rows of (s, u) and (u, t) on the context's compiled kernel against
    the row of (s, t), the first failure the witness.  A grid of one step
    has no triple, and compiles nothing.

    When every row is exact, the kernel's totals over a.den * b.den are
    compared with the row of (s, t) by cross-multiplying the dense
    numerators, tot * want.den == w * a.den * b.den, with no dict built and
    no gcd taken.  The row of (s, t) is reduced, so its den divides a.den *
    b.den whenever the two agree, and the test is tot == w * q with q the
    quotient; a non-zero remainder or a total that differs proves the rows
    differ.  Otherwise the operands are the scalars (`Context.dense`), and
    the totals, bit for bit those of convolve/concat, are compared with
    (s, t)'s by _close in the path's mode."""
    if X.grid.steps < 2:
        return
    ctx = X.context()
    kernel = ctx.compiled()
    exact = all(row.den is not None for row in rows.values())
    dense = {pair: ctx.dense(row, exact) for pair, row in rows.items()}
    close = functools.partial(_close, mode=X.mode)
    mul, repeat = operator.mul, itertools.repeat
    for s, u, t in itertools.combinations(range(X.grid.steps + 1), 3):
        chen["checked_triples"] += 1
        got, want = kernel(dense[s, u], dense[u, t]), dense[s, t]
        if exact:
            q, r = divmod(rows[s, u].den * rows[u, t].den, rows[s, t].den)
            if not r and got == list(map(mul, want, repeat(q))):
                continue
        elif got == want or all(map(close, got, want)):
            continue
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
    """The rough path a JSON object holds.  Each distinct increment key is
    parsed once per load, by the path class's own parser; a key above the
    level, or a word over a letter the path does not list, is refused.  A
    gamma other than 1 is refused where `gamma_to_level` refuses it, but the
    level may lie below the one gamma gives, as for a truncated path.  The
    path is built once, from the checked elements."""
    _check_shape(obj)
    cls = _KINDS[obj["kind"]]
    mode = obj["mode"]
    grid = Grid(_scalar_from_json(t, mode, f"time {i}") for i, t in enumerate(obj["times"]))
    N, d = obj["level"], obj["d"]
    gamma = _scalar_from_json(obj["gamma"], RATIONAL, "gamma")
    if gamma != 1:  # 1 is 1/N, the default of a level-1 lift
        try:
            gamma_to_level(gamma)
        except ValueError as e:
            raise ValueError(f"gamma: {e}") from None
    fields = [tuple(_parse_basis_name(name) for name in obj[field]) for field in cls.tree_fields]
    letters = fields[0] if fields else ()
    _check_letters(letters, d, N)
    # the element context: d, and for a geometric path its letters' top grade
    ectx = (d, *(max(t.grade for t in trees) for trees in fields))
    letters, keys, increments = set(letters), {}, []  # keys: name -> its checked key
    for k, row in enumerate(obj["increments"]):
        terms = {}
        for name, v in row.items():
            key = keys.get(name)
            if key is None:
                x = cls.parse_key(name, *ectx)
                if len(x.terms) != 1 or next(iter(x.terms.values())) != 1:
                    raise ValueError(f"increment key {name!r} is not a basis {cls.key_name}")
                (key,) = x.terms
                if key.grade > N:
                    raise ValueError(f"increment {k}, {name}: grade {key.grade} above level {N}")
                for t in getattr(key, "letters", ()):
                    if t not in letters:
                        raise ValueError(f"increment {k}, {name}: letter {t!r} is not in letters")
                keys[name] = key
            terms[key] = _scalar_from_json(v, mode, f"increment {k}, {name}")
        increments.append(cls.element(terms, *ectx))
    return cls(N, gamma, grid, increments, d, mode, *fields)


def roughpath_from_json(text: str):
    return roughpath_from_obj(json.loads(text))
