"""Grid-indexed branched and geometric rough paths.

A rough path is stored as one group-like increment per adjacent grid pair;
increments over wider pairs are composed on demand (and cached), so the Chen
relation is baked into the representation and `validate` re-checks it as a
constructor consistency check.  Two lift constructors cover the two sides of
the theory: `canonical_lift` takes exact iterated integrals of the piecewise
linear interpolation, `ito_lift` realizes the left-point Riemann rule.

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
rough path whose adjacent increments are not characters, in O(M).
"""

from __future__ import annotations

import functools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .expr import ParseError, parse_h, parse_rational, parse_tensor, print_h, print_tensor
from .hopf import HElem, convolve, is_group_like, pair
from .morphisms import iota_elem, phi_g
from .tensor import (
    EMPTY_WORD,
    TensorElem,
    Word,
    concat,
    enumerate_words,
    is_tensor_group_like,
    pair_tensor,
)
from .trees import EMPTY_FOREST, Forest, Tree, enumerate_forests, enumerate_trees, leaf

RATIONAL = "rational"
FLOAT = "float"


def _close(a, b, mode) -> bool:
    if mode == RATIONAL:
        return a == b
    return abs(a - b) <= 1e-9 * (1.0 + max(abs(a), abs(b)))


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


def _parse_basis_name(name: str) -> Tree:
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
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t"] + [repr(t) for t in self.basis])
        fmt = str if self.mode == RATIONAL else repr
        for t, row in zip(self.grid.times, self.values):
            w.writerow([fmt(t)] + [fmt(v) for v in row])
        return buf.getvalue()

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
    __slots__ = ("N", "gamma", "grid", "increments", "d", "mode", "_cache")

    def __init__(self, N, gamma, grid, increments, d, mode):
        if len(increments) != grid.steps:
            raise ValueError("one increment per adjacent grid pair required")
        self.N = N
        self.gamma = gamma
        self.grid = grid
        self.increments = list(increments)
        self.d = d
        self.mode = mode
        self._cache = {}

    def _compose(self, a, b):
        raise NotImplementedError

    def _unit(self):
        raise NotImplementedError

    def increment(self, s_index: int, t_index: int):
        """Increment over grid pair (s, t), composed from adjacent steps."""
        M = self.grid.steps
        if not 0 <= s_index <= t_index <= M:
            raise IndexError(f"need 0 <= {s_index} <= {t_index} <= {M}")
        if s_index == t_index:
            return self._unit()
        # left fold from the widest pair (s, u) at hand, caching each (s, v)
        cache = self._cache
        u = t_index
        while u > s_index + 1 and (s_index, u) not in cache:
            u -= 1
        got = self.increments[s_index] if u == s_index + 1 else cache[(s_index, u)]
        for v in range(u + 1, t_index + 1):
            got = self._compose(got, self.increments[v - 1])
            cache[(s_index, v)] = got
        return got


class BranchedRoughPath(_RoughPathBase):
    """Adjacent-pair functionals on forests of grade <= N."""

    def _compose(self, a, b):
        return convolve(a, b, self.N)

    def _unit(self):
        return HElem.unit(self.d)


class GeometricRoughPath(_RoughPathBase):
    """Adjacent-pair functionals on words of total grade <= N."""

    __slots__ = ("letters",)

    def __init__(self, N, gamma, grid, increments, d, mode, letters):
        super().__init__(N, gamma, grid, increments, d, mode)
        self.letters = tuple(letters)

    @property
    def letter_bound(self) -> int:
        return max(t.grade for t in self.letters)

    def _compose(self, a, b):
        return concat(a, b, self.N)

    def _unit(self):
        return TensorElem.unit(self.d, self.letter_bound)


# -- level arithmetic ------------------------------------------------------


def gamma_to_level(gamma) -> int:
    """Largest N with N*gamma <= 1."""
    g = Fraction(gamma) if not isinstance(gamma, float) else gamma
    if not 0 < g < 1:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    N = 1
    while (N + 1) * g <= 1:
        N += 1
    return N


def _default_gamma(N: int) -> Fraction:
    return Fraction(1, N)


# -- lift constructors -----------------------------------------------------


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
    and a coefficient that rounds to 0 is dropped (by TensorElem).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
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
    words: dict = {}  # letter-index tuple -> Word, shared by every increment
    one = Fraction(1)
    increments = []
    for k in range(path.grid.steps):
        lo, hi = path.values[k], path.values[k + 1]
        live = [(j, v, g) for j, i, g in columns if (v := hi[i] - lo[i]) != 0]
        terms = {EMPTY_WORD: one}
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
                        w = words[key_j] = Word(letters[i] for i in key_j)
                    terms[w] = scale * p
            level = deeper
        increments.append(TensorElem(terms, d, n))
    return GeometricRoughPath(
        N, gamma if gamma is not None else _default_gamma(N), path.grid, increments, d, path.mode, letters
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
    d = path.d
    basis_forests = enumerate_forests(N, d)
    increments = []
    for k in range(path.grid.steps):
        delta = path.delta(k)
        by_label = {t.label: delta[t] for t in path.basis}
        terms = {EMPTY_FOREST: Fraction(1)}
        for f in basis_forests:
            if f.is_unit() or any(t.grade > 1 for t in f.factors):
                continue
            v = 1
            for t in f.factors:
                v = v * by_label.get(t.label, 0)
            if v != 0:
                terms[f] = v
        increments.append(HElem(terms, d))
    return BranchedRoughPath(
        N, gamma if gamma is not None else _default_gamma(N), path.grid, increments, d, path.mode
    )


def embed_geometric(Xbar: GeometricRoughPath) -> BranchedRoughPath:
    """Branched view of a geometric rough path over single-vertex letters:
    <X, h> = <Xbar, phi_g(h)>."""
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
            v = pair_tensor(img, g)
            if v != 0:
                terms[h] = v
        increments.append(HElem(terms, d))
    return BranchedRoughPath(Xbar.N, Xbar.gamma, Xbar.grid, increments, d, Xbar.mode)


def coarsen(X, stride: int):
    """Subsample the grid by a stride, composing the skipped increments."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    idx = list(range(0, X.grid.steps + 1, stride))
    if idx[-1] != X.grid.steps:
        idx.append(X.grid.steps)
    times = [X.grid.times[i] for i in idx]
    incs = [X.increment(a, b) for a, b in zip(idx, idx[1:])]
    if isinstance(X, GeometricRoughPath):
        return GeometricRoughPath(X.N, X.gamma, Grid(times), incs, X.d, X.mode, X.letters)
    return BranchedRoughPath(X.N, X.gamma, Grid(times), incs, X.d, X.mode)


# -- validation ------------------------------------------------------------


def first_non_character(X) -> int | None:
    """Index of the first adjacent increment that is not a character (group
    -like, up to float tolerance in float mode), or None; O(M) in the grid.

    In float mode the unit coefficient must lie within 1e-9 of 1, absolute;
    the products are compared with the relative tolerance of _close."""
    branched = isinstance(X, BranchedRoughPath)
    is_character = is_group_like if branched else is_tensor_group_like
    unit = EMPTY_FOREST if branched else EMPTY_WORD
    eq = operator.eq if X.mode == RATIONAL else functools.partial(_close, mode=FLOAT)
    for k, g in enumerate(X.increments):
        if X.mode == FLOAT and abs(g.coeff(unit) - 1) > 1e-9:
            return k
        if not is_character(g, X.N, eq):
            return k
    return None


def validate(X) -> dict:
    """Character, Chen, and Hölder-diagnostic report; failures are reported,
    never raised."""
    branched = isinstance(X, BranchedRoughPath)
    report = {
        "kind": "branched" if branched else "geometric",
        "character": {"status": "pass", "witness": None},
        "chen": {"status": "pass", "witness": None, "checked_triples": 0},
        "holder": {"gamma": float(X.gamma), "per_basis": {}, "max": 0.0},
    }
    k = first_non_character(X)
    if k is not None:
        report["character"]["status"] = "fail"
        report["character"]["witness"] = f"adjacent increment {k}"

    M = X.grid.steps
    eq = (lambda a, b: a.terms == b.terms) if X.mode == RATIONAL else _elems_close

    def chen_row(s):
        n = 0
        for u in range(s + 1, M + 1):
            for t in range(u + 1, M + 1):
                n += 1
                lhs = X.increment(s, t)
                rhs = X._compose(X.increment(s, u), X.increment(u, t))
                if not eq(lhs, rhs):
                    return n, (s, u, t)
        return n, None

    for n, witness in map(chen_row, range(M + 1)):
        report["chen"]["checked_triples"] += n
        if witness is not None:
            report["chen"]["status"] = "fail"
            report["chen"]["witness"] = witness
            break

    if branched:
        names = [
            (Forest((t,)), repr(t), t.grade) for t in enumerate_trees(X.N, X.d)
        ]
    else:
        names = [
            (w, print_tensor(TensorElem.from_word(w, X.d, X.letter_bound)), w.grade)
            for w in enumerate_words(X.N, X.d, X.letter_bound)
            if not w.is_empty()
        ]
    gamma = float(X.gamma)
    per = {}
    for s in range(M + 1):
        for t in range(s + 1, M + 1):
            inc = X.increment(s, t)
            dt = float(X.grid.times[t] - X.grid.times[s])
            for key, name, grade in names:
                v = abs(float(inc.coeff(key)))
                if v == 0.0:
                    continue
                ratio = v / dt ** (gamma * grade)
                if ratio > per.get(name, 0.0):
                    per[name] = ratio
    report["holder"]["per_basis"] = per
    report["holder"]["max"] = max(per.values(), default=0.0)
    return report


def _elems_close(a, b) -> bool:
    keys = set(a.terms) | set(b.terms)
    return all(_close(a.terms.get(k, 0), b.terms.get(k, 0), FLOAT) for k in keys)


def geometricity_report(X: BranchedRoughPath) -> dict:
    """Shuffle test via the chain embedding: <X_st, h> = <X_st, iota phi_g(h)>
    for all forests of grade <= N, checked on every adjacent increment."""
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


def _scalar_from_json(v, mode):
    return parse_rational(v) if mode == RATIONAL else float(v)


def roughpath_obj(X) -> dict:
    branched = isinstance(X, BranchedRoughPath)
    obj = {
        "kind": "branched" if branched else "geometric",
        "level": X.N,
        "gamma": str(X.gamma),
        "d": X.d,
        "mode": X.mode,
        "times": [_scalar_to_json(t, X.mode) for t in X.grid.times],
        "increments": [],
    }
    if not branched:
        obj["letters"] = [repr(t) for t in X.letters]
    for g in X.increments:
        if branched:
            row = {print_h(HElem.from_forest(f, X.d)): _scalar_to_json(c, X.mode) for f, c in g.terms.items()}
        else:
            row = {
                print_tensor(TensorElem.from_word(w, X.d, X.letter_bound)): _scalar_to_json(c, X.mode)
                for w, c in g.terms.items()
            }
        obj["increments"].append(row)
    return obj


def roughpath_to_json(X) -> str:
    return json.dumps(roughpath_obj(X), indent=2, sort_keys=True)


def roughpath_from_obj(obj: dict):
    mode = obj["mode"]
    grid = Grid(_scalar_from_json(t, mode) for t in obj["times"])
    d = obj["d"]
    N = obj["level"]
    gamma = parse_rational(obj["gamma"])
    if obj["kind"] == "branched":
        incs = []
        for row in obj["increments"]:
            terms = {}
            for name, v in row.items():
                x = parse_h(name, d)
                (f, c), = x.terms.items()
                if c != 1:
                    raise ValueError(f"increment key {name!r} is not a basis forest")
                terms[f] = _scalar_from_json(v, mode)
            incs.append(HElem(terms, d))
        return BranchedRoughPath(N, gamma, grid, incs, d, mode)
    letters = tuple(_parse_basis_name(name) for name in obj["letters"])
    n = max(t.grade for t in letters)
    incs = []
    for row in obj["increments"]:
        terms = {}
        for name, v in row.items():
            x = parse_tensor(name, d, n)
            (w, c), = x.terms.items()
            if c != 1:
                raise ValueError(f"increment key {name!r} is not a basis word")
            terms[w] = _scalar_from_json(v, mode)
        incs.append(TensorElem(terms, d, n))
    return GeometricRoughPath(N, gamma, grid, incs, d, mode, letters)


def roughpath_from_json(text: str):
    return roughpath_from_obj(json.loads(text))
