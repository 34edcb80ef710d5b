"""Rough differential equations with exact polynomial vector fields.

Vector fields are polynomial so every derivative identity in the calculus
(the Butcher recurrence, the grafting identity behind it, the word
recurrence on the geometric side) is checkable as an exact symbolic
equality rather than a numerical approximation.  Trajectories are grid
Euler iterates: one step per adjacent pair, summing tree (or word)
coefficients against the driver's increment.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .expr import parse_rational
from .hopf import HElem, _forest_coproduct
from .roughpath import RATIONAL, BranchedRoughPath, GeometricRoughPath, Grid, SampledPath
from .tensor import TensorElem, Word
from .trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    enumerate_forests,
    enumerate_trees,
    leaf,
    symmetry_factor,
)


# -- polynomials -----------------------------------------------------------


class Poly:
    """Multivariate polynomial, dict of exponent tuples over Fraction."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping, nvars: int):
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self.nvars = nvars

    @classmethod
    def const(cls, c, nvars: int) -> "Poly":
        return cls({(0,) * nvars: Fraction(c)} if c else {}, nvars)

    @classmethod
    def var(cls, i: int, nvars: int) -> "Poly":
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} outside 1..{nvars}")
        e = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls({e: Fraction(1)}, nvars)

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(out, self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return Poly(out, self.nvars)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(out, self.nvars)

    def scale(self, c) -> "Poly":
        return Poly({e: c * v for e, v in self.terms.items()}, self.nvars)

    def diff(self, i: int) -> "Poly":
        """Partial derivative in variable i (1-based)."""
        out: dict = {}
        k = i - 1
        for e, c in self.terms.items():
            if e[k]:
                e2 = e[:k] + (e[k] - 1,) + e[k + 1 :]
                out[e2] = out.get(e2, 0) + c * e[k]
        return Poly(out, self.nvars)

    def eval(self, point: Sequence):
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, p in zip(point, e):
                for _ in range(p):
                    v = v * x
            total = total + v
        return total

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return print_poly(self)


def parse_poly(text: str, nvars: int) -> Poly:
    """Grammar: terms joined by + or -, factors joined by *, a factor is a
    rational or yk or yk^int."""
    out = Poly.const(0, nvars)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    i = 0
    sign = 1
    if s[i] in "+-":
        sign = -1 if s[i] == "-" else 1
        i += 1
    while i <= len(s):
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        term_text = s[i:j]
        if not term_text:
            raise ValueError(f"empty term in {text!r}")
        term = Poly.const(sign, nvars)
        for factor in term_text.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0] == "y":
                base, caret, exp = factor[1:].partition("^")
                if caret and not exp:
                    raise ValueError(f"dangling power in {factor!r}")
                try:
                    k = int(base)
                    p = int(exp) if exp else 1
                except ValueError:
                    raise ValueError(f"bad factor {factor!r} in {text!r}") from None
                v = Poly.var(k, nvars)
                for _ in range(p):
                    term = term * v
            else:
                try:
                    term = term.scale(parse_rational(factor))
                except ValueError:
                    raise ValueError(f"bad factor {factor!r} in {text!r}") from None
        out = out + term
        if j == len(s):
            break
        sign = -1 if s[j] == "-" else 1
        i = j + 1
    return out


def print_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    out = ""
    for e in sorted(p.terms, key=lambda e: (sum(e), e)):
        c = p.terms[e]
        mag = -c if c < 0 else c
        factors = []
        if mag != 1 or not any(e):
            factors.append(str(mag))
        for k, power in enumerate(e):
            if power == 1:
                factors.append(f"y{k + 1}")
            elif power > 1:
                factors.append(f"y{k + 1}^{power}")
        term = "*".join(factors)
        if not out:
            out = term if c > 0 else f"-{term}"
        else:
            out += f" + {term}" if c > 0 else f" - {term}"
    return out


class PolyVectorField:
    """Map R^e -> R^e with polynomial components."""

    __slots__ = ("components", "e")

    def __init__(self, components: Sequence[Poly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        e = comps[0].nvars
        if any(p.nvars != e for p in comps) or len(comps) != e:
            raise ValueError("need e components in e variables")
        self.components = comps
        self.e = e

    @classmethod
    def parse(cls, texts: Sequence[str]) -> "PolyVectorField":
        e = len(texts)
        return cls(tuple(parse_poly(t, e) for t in texts))

    @classmethod
    def zero(cls, e: int) -> "PolyVectorField":
        return cls(tuple(Poly.const(0, e) for _ in range(e)))

    @classmethod
    def identity(cls, e: int) -> "PolyVectorField":
        return cls(tuple(Poly.var(i + 1, e) for i in range(e)))

    @classmethod
    def linear(cls, matrix: Sequence[Sequence]) -> "PolyVectorField":
        e = len(matrix)
        comps = []
        for row in matrix:
            p = Poly.const(0, e)
            for j, c in enumerate(row):
                p = p + Poly.var(j + 1, e).scale(Fraction(c))
            comps.append(p)
        return cls(comps)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField(tuple(p.scale(c) for p in self.components))

    def eval(self, point: Sequence) -> tuple:
        return tuple(p.eval(point) for p in self.components)

    __call__ = eval

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def __eq__(self, other):
        return isinstance(other, PolyVectorField) and self.components == other.components

    def __repr__(self):
        return "(" + ", ".join(print_poly(p) for p in self.components) + ")"


def apply_derivative(f: PolyVectorField, args: Sequence[PolyVectorField]) -> PolyVectorField:
    """D^n f : (g_1, ..., g_n) as an exact polynomial vector field."""
    e = f.e
    for g in args:
        if g.e != e:
            raise ValueError("dimension mismatch in derivative application")
    n = len(args)
    if n == 0:
        return f
    out = []
    for comp in f.components:
        acc = Poly.const(0, e)
        for beta in _multi_indices(e, n):
            part = comp
            for b in beta:
                part = part.diff(b)
                if part.is_zero():
                    break
            if part.is_zero():
                continue
            for g, b in zip(args, beta):
                part = part * g.components[b - 1]
            acc = acc + part
        out.append(acc)
    return PolyVectorField(out)


def _multi_indices(e: int, n: int):
    if n == 0:
        yield ()
        return
    for head in range(1, e + 1):
        for rest in _multi_indices(e, n - 1):
            yield (head,) + rest


def _numeric_derivative(f: PolyVectorField, point: Sequence, vectors: Sequence[Sequence]) -> tuple:
    """D^n f(point) : (v_1, ..., v_n) with numeric arguments."""
    e = f.e
    n = len(vectors)
    out = []
    for comp in f.components:
        total = 0
        for beta in _multi_indices(e, n):
            part = comp
            for b in beta:
                part = part.diff(b)
                if part.is_zero():
                    break
            if part.is_zero():
                continue
            v = part.eval(point)
            for vec, b in zip(vectors, beta):
                v = v * vec[b - 1]
            total = total + v
        out.append(total)
    return tuple(out)


# -- Butcher coefficients --------------------------------------------------


class ButcherTable:
    """Tree-indexed coefficient fields over a base family f_i.

    The cache is filled through the recurrence
    f_{[tau_1 .. tau_n]_i} = D^n f_i : (f_{tau_1}, ..., f_{tau_n}).
    """

    def __init__(self, base: Mapping[int, PolyVectorField]):
        if not base:
            raise ValueError("need at least one base field")
        dims = {f.e for f in base.values()}
        if len(dims) != 1:
            raise ValueError("base fields must share a dimension")
        self.base = dict(base)
        self.e = dims.pop()
        self.cache: dict = {}

    @classmethod
    def parse(cls, fields: Mapping[int, Sequence[str]]) -> "ButcherTable":
        return cls({i: PolyVectorField.parse(texts) for i, texts in fields.items()})

    def field(self, tau: Tree) -> PolyVectorField:
        got = self.cache.get(tau)
        if got is None:
            f_i = self.base.get(tau.label)
            if f_i is None:
                raise ValueError(f"no vector field for label {tau.label}")
            got = apply_derivative(f_i, tuple(self.field(c) for c in tau.children))
            self.cache[tau] = got
        return got


def butcher(f: ButcherTable, tau: Tree) -> PolyVectorField:
    return f.field(tau)


def butcher_h(f: ButcherTable, x: HElem) -> PolyVectorField:
    """<x, 1> Id plus the linear extension over single trees; nontrivial
    products contribute nothing.

    Each tree term carries 1/sigma(tau).  The extension pairs coefficient
    functionals against plain tree coefficients, and the automorphism factor
    is what makes that pairing match Taylor expansions exactly: it gives the
    classical flow expansion for smooth drivers and the exact step equality
    with the geometric side.
    """
    out = PolyVectorField.identity(f.e).scale(x.coeff(EMPTY_FOREST))
    for h, c in x.terms.items():
        if h.is_single_tree():
            tau = h.factors[0]
            out = out + f.field(tau).scale(c / symmetry_factor(tau))
    return out


# -- trajectories ----------------------------------------------------------


class Trajectory:
    """Euler iterates with a per-step breakdown of the increment by basis
    element name."""

    __slots__ = ("grid", "values", "steps", "mode")

    def __init__(self, grid: Grid, values: Sequence[tuple], steps: Sequence[dict], mode: str):
        self.grid = grid
        self.values = list(values)
        self.steps = list(steps)
        self.mode = mode

    @property
    def e(self) -> int:
        return len(self.values[0])

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t"] + [f"y_{i + 1}" for i in range(self.e)])
        fmt = str if self.mode == RATIONAL else repr
        for t, row in zip(self.grid.times, self.values):
            w.writerow([fmt(t)] + [fmt(v) for v in row])
        return buf.getvalue()

    def to_obj(self) -> dict:
        fmt = (lambda v: str(v)) if self.mode == RATIONAL else float
        return {
            "e": self.e,
            "mode": self.mode,
            "times": [fmt(t) for t in self.grid.times],
            "values": [[fmt(v) for v in row] for row in self.values],
            "steps": [
                {name: [fmt(v) for v in vec] for name, vec in step.items()}
                for step in self.steps
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)


def _euler(grid: Grid, mode: str, e: int, xi: Sequence, step_terms: Iterable) -> Trajectory:
    """Euler iterates y <- y + sum_j w_j F_j(y), one step per adjacent pair.

    Each item of step_terms yields that step's (key, w, F) terms in
    summation order, which fixes the float rounding and the order of the
    breakdown; a term with a non-zero contribution is named str(key) there.
    """
    if len(xi) != e:
        raise ValueError(f"initial state has dimension {len(xi)}, fields have {e}")
    y = tuple(xi)
    values = [y]
    breakdowns = []
    for terms in step_terms:
        delta = [0] * e
        breakdown = {}
        for key, w, F in terms:
            contrib = tuple(w * vi for vi in F.eval(y))
            if any(contrib):
                breakdown[str(key)] = contrib
            delta = [a + b for a, b in zip(delta, contrib)]
        y = tuple(a + b for a, b in zip(y, delta))
        values.append(y)
        breakdowns.append(breakdown)
    return Trajectory(grid, values, breakdowns, mode)


def _tree_terms(g: HElem, trees: Sequence, f: ButcherTable):
    for tau, h, sigma in trees:
        c = g.coeff(h)
        if c != 0:
            yield tau, c / sigma, f.field(tau)


def solve_branched(X: BranchedRoughPath, f: ButcherTable, xi: Sequence) -> Trajectory:
    """One Euler step per adjacent pair: the butcher_h extension of the
    increment, so each tree contributes (f_tau / sigma(tau)) <X, tau>."""
    if not isinstance(X, BranchedRoughPath):
        raise TypeError("solve_branched needs a branched driver")
    trees = [(tau, Forest((tau,)), symmetry_factor(tau)) for tau in enumerate_trees(X.N, X.d)]
    steps = (_tree_terms(g, trees, f) for g in X.increments)
    return _euler(X.grid, X.mode, f.e, xi, steps)


# -- geometric side --------------------------------------------------------


class WordFieldTable:
    """Letter-indexed fields extended to words by F_{l (x) w} = F_l . DF_w."""

    def __init__(self, letter_fields: Mapping[Tree, PolyVectorField]):
        if not letter_fields:
            raise ValueError("need at least one letter field")
        dims = {f.e for f in letter_fields.values()}
        if len(dims) != 1:
            raise ValueError("letter fields must share a dimension")
        self.base = dict(letter_fields)
        self.e = dims.pop()
        self.cache: dict = {}

    def field(self, w: Word) -> PolyVectorField:
        if w.is_empty():
            return PolyVectorField.identity(self.e)
        got = self.cache.get(w)
        if got is None:
            head = self.base.get(w.letters[0])
            if head is None:
                raise ValueError(f"no vector field for letter {w.letters[0]!r}")
            rest = self.field(Word(w.letters[1:]))
            got = apply_derivative(rest, (head,))
            self.cache[w] = got
        return got


def geometric_F(letter_fields, w: Word) -> PolyVectorField:
    table = letter_fields if isinstance(letter_fields, WordFieldTable) else WordFieldTable(letter_fields)
    return table.field(w)


def _word_terms(g: TensorElem, table: WordFieldTable):
    for w in sorted(g.terms, key=Word.sort_key):
        if not w.is_empty():
            yield w, g.terms[w], table.field(w)


def solve_geometric(Xbar: GeometricRoughPath, letter_fields, xi: Sequence) -> Trajectory:
    if not isinstance(Xbar, GeometricRoughPath):
        raise TypeError("solve_geometric needs a geometric driver")
    table = letter_fields if isinstance(letter_fields, WordFieldTable) else WordFieldTable(letter_fields)
    steps = (_word_terms(g, table) for g in Xbar.increments)
    return _euler(Xbar.grid, Xbar.mode, table.e, xi, steps)


def tree_letter_fields(f: ButcherTable, letters: Iterable[Tree]) -> dict:
    """Fields for tree letters: each letter gets its Butcher coefficient
    field with the 1/sigma weight of butcher_h, which is what makes the
    geometric trajectory reproduce the branched one."""
    return {tau: f.field(tau).scale(Fraction(1, symmetry_factor(tau))) for tau in letters}


def convert_rde(f: ButcherTable, result) -> dict:
    """Letter fields for the driver that encode produced."""
    return tree_letter_fields(f, result.geometric.letters)


def sym_correction_fields(f: ButcherTable, pairs: Iterable[tuple]) -> dict:
    """Weights for the symmetric components of the level-2 shortcut: half
    the symmetrized f_l . Df_k, with the diagonal halved once."""
    out = {}
    half = Fraction(1, 2)
    for (k, l) in pairs:
        fk, fl = f.base[k], f.base[l]
        if k == l:
            out[(k, l)] = apply_derivative(fk, (fk,)).scale(half)
        else:
            g = apply_derivative(fk, (fl,)) + apply_derivative(fl, (fk,))
            out[(k, l)] = g.scale(half)
    return out


def solve_simplified(sd, f: ButcherTable, xi: Sequence) -> Trajectory:
    """Euler steps for the level-2 shortcut driver: plain-letter words of
    xhat plus the symmetric scalar components with their paired weights."""
    table = WordFieldTable({leaf(i): fi for i, fi in f.base.items()})
    weights = sym_correction_fields(f, sd.pairs)

    def terms(g, sym):
        yield from _word_terms(g, table)
        for (k, l), c in sym.items():
            if c != 0:
                yield f"s_{k}{l}", c, weights[(k, l)]

    steps = (terms(g, sym) for g, sym in zip(sd.xhat.increments, sd.symmetric_increments))
    return _euler(sd.xhat.grid, sd.xhat.mode, f.e, xi, steps)


# -- grafting identity verifier --------------------------------------------


class LglResult:
    """Truthy outcome of the derivative-vs-grafting comparison; on failure
    the first differing monomial is kept."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"LglResult(ok={self.ok}, witness={self.witness})"


def _vertex_addresses(t: Tree) -> list:
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


def check_lgl(f: ButcherTable, lam, h, N: int) -> LglResult:
    """D^q f_h : (f_{lam_1}, ..., f_{lam_q}) = f_{lam * h} as polynomials.

    lam may be a single tree or a forest (q = number of factors); h a tree,
    forest or HElem.  The product grafts every lam factor onto a vertex of
    each tree of h, one term per assignment; disjoint-product terms vanish
    under the coefficient extension, so they are skipped.
    """
    factors = (lam,) if isinstance(lam, Tree) else tuple(lam.factors)
    lam_forest = Forest(factors)
    if isinstance(h, (Tree, Forest)):
        hf = Forest((h,)) if isinstance(h, Tree) else h
        h = HElem.from_forest(hf, max(hf.max_label(), lam_forest.max_label(), 1))
    if lam_forest.grade + h.max_grade() > N:
        raise ValueError("grade(lam) + grade(h) must stay within N")
    lhs = apply_derivative(butcher_h(f, h), tuple(f.field(t) for t in factors))
    rhs = PolyVectorField.zero(f.e)
    c0 = h.coeff(EMPTY_FOREST)
    if c0 and len(factors) == 1:
        rhs = rhs + f.field(factors[0]).scale(c0)
    for mono, c in h.terms.items():
        if not mono.is_single_tree():
            continue
        tau = mono.factors[0]
        w = c / symmetry_factor(tau)
        addresses = _vertex_addresses(tau)
        for assign in itertools.product(addresses, repeat=len(factors)):
            additions: dict = {}
            for fac, a in zip(factors, assign):
                additions.setdefault(a, []).append(fac)
            rhs = rhs + f.field(_attach_at(tau, additions)).scale(w)
    for a in range(f.e):
        diff = lhs.components[a] - rhs.components[a]
        if not diff.is_zero():
            mono = next(iter(diff.terms))
            return LglResult(
                False,
                {
                    "component": a + 1,
                    "monomial": mono,
                    "lhs": lhs.components[a].terms.get(mono, Fraction(0)),
                    "rhs": rhs.components[a].terms.get(mono, Fraction(0)),
                },
            )
    return LglResult(True)


# -- controlled rough paths ------------------------------------------------


class ControlledPath:
    """Forest-indexed coefficient data at each grid time.

    coeffs[k] maps forests of grade <= N-1 to R^e vectors; the unit forest
    holds the state.
    """

    __slots__ = ("grid", "coeffs", "N", "d", "e", "mode")

    def __init__(self, grid: Grid, coeffs: Sequence[Mapping], N: int, d: int, mode: str = RATIONAL):
        coeffs = [dict(c) for c in coeffs]
        if len(coeffs) != len(grid):
            raise ValueError("one coefficient map per grid time required")
        states = [c.get(EMPTY_FOREST) for c in coeffs]
        if any(s is None for s in states):
            raise ValueError("every time needs a state at the unit forest")
        es = {len(s) for s in states}
        if len(es) != 1:
            raise ValueError("state dimension must be constant")
        for c in coeffs:
            for h in c:
                if h.grade > N - 1:
                    raise ValueError(f"coefficient forest {h!r} above grade {N - 1}")
        self.grid = grid
        self.coeffs = coeffs
        self.N = N
        self.d = d
        self.e = es.pop()
        self.mode = mode

    def state(self, k: int) -> tuple:
        return tuple(self.coeffs[k][EMPTY_FOREST])

    def coeff(self, k: int, h: Forest) -> tuple:
        got = self.coeffs[k].get(h)
        return tuple(got) if got is not None else (0,) * self.e


def constant_controlled(grid: Grid, value: Sequence, N: int, d: int, mode: str = RATIONAL) -> ControlledPath:
    v = tuple(value)
    return ControlledPath(grid, [{EMPTY_FOREST: v} for _ in range(len(grid))], N, d, mode)


def path_controlled(path: SampledPath, N: int) -> ControlledPath:
    """The canonical controlled view of the path itself: state X_t, unit
    vectors on the single-vertex trees."""
    if not path.has_label_basis():
        raise ValueError("path_controlled expects a plain label basis")
    d = path.d
    coeffs = []
    for row in path.values:
        c = {EMPTY_FOREST: tuple(row)}
        if N >= 2:
            for t in path.basis:
                c[Forest((t,))] = tuple(
                    1 if i == t.label - 1 else 0 for i in range(len(row))
                )
        coeffs.append(c)
    return ControlledPath(path.grid, coeffs, N, d, path.mode)


def integrate_controlled(Z: ControlledPath, X: BranchedRoughPath, i: int) -> ControlledPath:
    """Grid sewing of Ztilde_st = sum_h <h, Z_s> <X_st, [h]_i>.

    The new state starts at 0 and accumulates the adjacent Ztilde values;
    coefficients move up one grade under h -> [h]_i and vanish elsewhere.
    """
    if Z.grid != X.grid:
        raise ValueError("controlled path and driver must share the grid")
    if not 1 <= i <= X.d:
        raise ValueError(f"component {i} outside 1..{X.d}")
    N, d, e = X.N, X.d, Z.e
    zero = (Fraction(0) if X.mode == RATIONAL else 0.0,) * e
    states = [zero]
    acc = zero
    for k in range(X.grid.steps):
        g = X.increments[k]
        tilde = [0] * e
        for h, vec in Z.coeffs[k].items():
            c = g.coeff(Forest((Tree(i, h.factors),)))
            if c == 0:
                continue
            tilde = [a + c * v for a, v in zip(tilde, vec)]
        acc = tuple(a + b for a, b in zip(acc, tilde))
        states.append(acc)
    coeffs = []
    for k in range(len(X.grid)):
        c = {EMPTY_FOREST: states[k]}
        for h, vec in Z.coeffs[k].items():
            if h.grade <= N - 2:
                c[Forest((Tree(i, h.factors),))] = tuple(vec)
        coeffs.append(c)
    return ControlledPath(X.grid, coeffs, N, d, X.mode)


def compose_controlled(phi: PolyVectorField, Z: ControlledPath) -> ControlledPath:
    """Push a controlled path through a polynomial map via its Taylor
    expansion: coefficients sum 1/n! D^n phi over ordered factorizations."""
    if phi.e != Z.e:
        raise ValueError(f"map acts on dimension {phi.e}, path has {Z.e}")
    coeffs = []
    for k in range(len(Z.grid)):
        z = Z.state(k)
        out = {EMPTY_FOREST: phi.eval(z)}
        for h in _nonunit_forests(Z):
            total = None
            for n in range(1, Z.N):
                inv = Fraction(1, math.factorial(n))
                for split in _ordered_splits(h.factors, n):
                    vecs = [Z.coeff(k, part) for part in split]
                    if any(all(v == 0 for v in vec) for vec in vecs):
                        continue
                    term = _numeric_derivative(phi, z, vecs)
                    term = tuple(inv * v for v in term)
                    total = term if total is None else tuple(a + b for a, b in zip(total, term))
            if total is not None and any(total):
                out[h] = total
        coeffs.append(out)
    return ControlledPath(Z.grid, coeffs, Z.N, Z.d, Z.mode)


def _nonunit_forests(Z: ControlledPath):
    return [h for h in enumerate_forests(Z.N - 1, Z.d) if not h.is_unit()]


def _ordered_splits(factors: tuple, n: int):
    """All ordered n-tuples of disjoint non-empty sub-multisets covering the
    factors, without double-counting equal trees."""
    m = len(factors)
    if n > m:
        return
    if n == 1:
        yield (Forest(factors),)
        return
    seen = set()
    for mask in range(1, 1 << m):
        if mask == (1 << m) - 1:
            continue
        first = tuple(factors[i] for i in range(m) if mask >> i & 1)
        key = Forest(first)
        if key in seen:
            continue
        seen.add(key)
        rest = tuple(factors[i] for i in range(m) if not mask >> i & 1)
        for tail in _ordered_splits(rest, n - 1):
            yield (key,) + tail


def consistency_report(Z: ControlledPath, X: BranchedRoughPath) -> dict:
    """Residuals R^h_st = <h, Z_t> - <X_st * h, Z_s> over all grid pairs.

    The transported term pairs the coproduct: <X * delta_h, g> picks the
    terms of Delta(g) whose right factor is h.
    """
    if Z.grid != X.grid:
        raise ValueError("controlled path and driver must share the grid")
    basis = enumerate_forests(Z.N - 1, Z.d)
    action = {h: [] for h in basis}
    for g in basis:
        for (left, right, cnt) in _forest_coproduct(g):
            if right in action:
                action[right].append((g, left, cnt))
    M = X.grid.steps
    per = {repr(h): 0.0 for h in basis}
    pairs = []
    for s in range(M + 1):
        for t in range(s + 1, M + 1):
            inc = X.increment(s, t)
            residuals = {}
            for h in basis:
                transported = (0,) * Z.e
                for g, left, cnt in action[h]:
                    x = inc.coeff(left)
                    if x == 0:
                        continue
                    vec = Z.coeffs[s].get(g)
                    if vec is None:
                        continue
                    transported = tuple(
                        a + cnt * x * v for a, v in zip(transported, vec)
                    )
                actual = Z.coeff(t, h)
                r = max(abs(float(a - b)) for a, b in zip(actual, transported))
                name = repr(h)
                residuals[name] = r
                if r > per[name]:
                    per[name] = r
            pairs.append(
                {
                    "s": s,
                    "t": t,
                    "span": float(X.grid.times[t] - X.grid.times[s]),
                    "residuals": residuals,
                }
            )
    return {
        "per_forest": per,
        "pairs": pairs,
        "max": max(per.values(), default=0.0),
    }


def solution_controlled(traj: Trajectory, f: ButcherTable, N: int, d: int) -> ControlledPath:
    """Controlled view of an RDE solution: the butcher_h coefficients
    f_tau(Y_t)/sigma(tau) on single trees, zero on products."""
    basis = enumerate_forests(N - 1, d)
    coeffs = []
    for y in traj.values:
        c = {}
        for h in basis:
            if h.is_unit():
                c[h] = tuple(y)
            elif h.is_single_tree():
                tau = h.factors[0]
                w = Fraction(1, symmetry_factor(tau))
                v = tuple(w * vi for vi in f.field(tau).eval(y))
                if any(v):
                    c[h] = v
        coeffs.append(c)
    return ControlledPath(traj.grid, coeffs, N, d, traj.mode)
