"""Rough differential equations with exact polynomial vector fields.

Vector fields are polynomial so every derivative identity in the calculus
(the Butcher recurrence, the grafting identity behind it, the word
recurrence on the geometric side) is checkable as an exact symbolic
equality rather than a numerical approximation.  Trajectories are grid
Euler iterates: one step per adjacent pair, summing tree (or word)
coefficients against the driver's increment.

`apply_derivative` (behind both recurrences) and `check_lgl` run on term
dicts: on integer numerators over one denominator when every coefficient is
a Fraction, else on the values as given, so float fields keep every bit.

The rough-path classes of `roughpath` and the words of `tensor` are imported
where the solvers use them, so the Butcher and derivative code runs
without either layer.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .hopf import HElem, _attach_at, _vertex_addresses
from .linear import Linear, context_field
from .scalars import FLOAT, RATIONAL, numerators, parse_rational
from .trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    enumerate_trees,
    leaf,
    symmetry_factor,
)

if TYPE_CHECKING:  # the solvers import these where they run
    from .roughpath import BranchedRoughPath, GeometricRoughPath, Grid
    from .tensor import TensorElem, Word


# -- polynomials -----------------------------------------------------------


def _monomial(e: tuple) -> str:
    """y1^2*y2 for the exponents (2, 1); "" for the constant monomial."""
    return "*".join(f"y{k + 1}" if p == 1 else f"y{k + 1}^{p}" for k, p in enumerate(e) if p)


def _diff(terms: dict, k: int) -> dict:
    """d/dy_(k+1) of a term dict; monomials map one to one."""
    return {e[:k] + (e[k] - 1,) + e[k + 1 :]: c * e[k] for e, c in terms.items() if e[k]}


def _mul(a: dict, b: dict) -> dict:
    """Product of term dicts, a's terms outer; zeros dropped at the end."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _add_into(acc: dict, terms: dict, m=1) -> None:
    """acc += m * terms in place, keys in the order `Linear.__add__` gives."""
    for e, c in terms.items():
        v = acc[e] = acc.get(e, 0) + m * c
        if not v:
            del acc[e]


def _partial(memo: dict, beta: tuple) -> list:
    """d_beta (0-based variables) of each component, memo[()] holding them."""
    got = memo.get(beta)
    if got is None:
        got = memo[beta] = [_diff(t, beta[-1]) for t in _partial(memo, beta[:-1])]
    return got


def _monomials(terms: dict) -> tuple:
    """The terms as (coefficient, variable indices) pairs in term order, the
    0-based index k listed e[k] times: a polynomial compiled for `_evaluate`."""
    return tuple((c, tuple(k for k, p in enumerate(e) for _ in range(p))) for e, c in terms.items())


def _evaluate(components, point) -> list:
    """Each compiled polynomial at point: per term its coefficient times
    each listed variable, left to right, the terms summed from 0 in order."""
    out = []
    for monos in components:
        total = 0
        for c, idx in monos:
            v = c
            for k in idx:
                v = v * point[k]
            total = total + v
        out.append(total)
    return out


def _views(fields, exact: bool = True) -> tuple:
    """(views, exact): per field (q, memo), kept with it: memo[()] its terms on
    integer numerators over their lcm q, memo[beta] its partials (`_partial`);
    if a field (or the caller) is not all Fractions, unkept views as given."""
    for F in fields:
        if F._view is None:
            comps, q = [p.terms for p in F.components], None
            col = [c for t in comps for c in t.values()]
            if all(type(c) is Fraction for c in col):
                (col,), q = numerators(col)
                it = iter(col)
                comps = [dict(zip(t, it)) for t in comps]
            F._view = (q, {(): comps})
    if exact and all(F._view[0] is not None for F in fields):
        return [F._view for F in fields], True
    return [(1, {(): [p.terms for p in F.components]}) for F in fields], False


class Poly(Linear):
    """Multivariate polynomial, dict of exponent tuples over Fraction;
    context is the variable count."""

    __slots__ = ()

    _zero = 0
    _grade = sum
    _order = staticmethod(lambda e: (sum(e), e))
    _show = staticmethod(lambda e: _monomial(e) or "1")

    nvars = context_field(0, "number of variables")

    @classmethod
    def const(cls, c, nvars: int) -> "Poly":
        return cls({(0,) * nvars: Fraction(c)} if c else {}, nvars)

    @classmethod
    def var(cls, i: int, nvars: int) -> "Poly":
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} outside 1..{nvars}")
        e = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls({e: Fraction(1)}, nvars)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(_mul(self.terms, other.terms), self.nvars)

    def diff(self, i: int) -> "Poly":
        """Partial derivative in variable i (1-based)."""
        return Poly(_diff(self.terms, i - 1), self.nvars)

    def eval(self, point: Sequence):
        return _evaluate((_monomials(self.terms),), point)[0]

    degree = Linear.max_grade


# largest power parse_poly expands: yk^p costs p products, so a larger one
# is refused before any of them
MAX_POWER = 1024


def parse_poly(text: str, nvars: int) -> Poly:
    """Grammar: terms joined by + or -, factors joined by *, a factor is a
    rational or yk or yk^int, with int at most MAX_POWER."""
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
                if p > MAX_POWER:
                    raise ValueError(f"power {p} in {factor!r} is above the bound {MAX_POWER}")
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
    for e in sorted(p.terms, key=Poly._order):
        c = p.terms[e]
        mag = -c if c < 0 else c
        mono = _monomial(e)
        if not mono:
            term = str(mag)
        elif mag == 1:
            term = mono
        else:
            term = f"{mag}*{mono}"
        if not out:
            out = term if c > 0 else f"-{term}"
        else:
            out += f" + {term}" if c > 0 else f" - {term}"
    return out


class PolyVectorField:
    """Map R^e -> R^e with polynomial components."""

    __slots__ = ("components", "e", "_view")  # _view: see _views

    def __init__(self, components: Sequence[Poly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        e = comps[0].nvars
        if any(p.nvars != e for p in comps) or len(comps) != e:
            raise ValueError("need e components in e variables")
        self.components = comps
        self.e = e
        self._view = None

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
        return tuple(_evaluate([_monomials(p.terms) for p in self.components], point))

    __call__ = eval

    def to_float(self) -> "PolyVectorField":
        """The field with float coefficients; `Fraction * float` is computed
        as `float(c) * x`, so evaluating at a float point keeps every bit."""
        return PolyVectorField(
            [Poly({e: float(c) for e, c in p.terms.items()}, p.nvars) for p in self.components]
        )

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
    if not args:
        return f
    views, exact = _views((f, *args))
    den, out = math.prod(q for q, _ in views), _derivative([m for _, m in views], e)
    return PolyVectorField([Poly({k: Fraction(c, den) for k, c in t.items()} if exact else t, e) for t in out])


def _derivative(memos: list, e: int) -> list:
    """D^n f : (g_1, ..., g_n) per component as term dicts, from the view
    memos of f, g_1, ..., g_n, summed over beta as `Linear.__add__` sums."""
    fm, *gs = memos
    out = []
    for a in range(e):
        acc: dict = {}
        for beta in itertools.product(range(e), repeat=len(gs)):
            part = _partial(fm, beta)[a]
            if part:
                for g, b in zip(gs, beta):
                    part = _mul(part, g[()][b])
                _add_into(acc, part)
        out.append(acc)
    return out


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


def _weighted(ws: list, views: list, unit: int, e: int) -> dict:
    """The memo of the sum of w * (unit // q) * F over weights and views
    (q, memo of F); a lone view whose multiplier is the int 1 is itself."""
    ms = [w * (unit // q) for w, (q, _) in zip(ws, views)]
    if ms == [1] and type(ms[0]) is int:
        return views[0][1]
    comps: list = [{} for _ in range(e)]
    for m, (_, memo) in zip(ms, views):
        for acc, terms in zip(comps, memo[()]):
            _add_into(acc, terms, m)
    return {(): comps}


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
        from .roughpath import _grid_csv

        return _grid_csv(self.grid, [f"y_{i + 1}" for i in range(self.e)], self.values, self.mode)

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
    Each field is compiled once per solve (`_monomials`, of its float copy
    in float mode) and each key named once.
    """
    if len(xi) != e:
        raise ValueError(f"initial state has dimension {len(xi)}, fields have {e}")
    y = tuple(xi)
    values = [y]
    breakdowns = []
    compiled: dict = {}  # id(F) -> (F, its compiled components); F is held, so its id is not reused
    names: dict = {}
    for terms in step_terms:
        delta = [0] * e
        breakdown = {}
        for key, w, F in terms:
            got = compiled.get(id(F))
            if got is None:
                G = F
                if mode == FLOAT:
                    try:
                        G = F.to_float()
                    except OverflowError:
                        raise ValueError(f"the field of {key} has a coefficient too large for a float") from None
                got = compiled[id(F)] = (F, [_monomials(p.terms) for p in G.components])
            contrib = tuple([w * v for v in _evaluate(got[1], y)])
            if any(contrib):
                breakdown[names.get(key) or names.setdefault(key, str(key))] = contrib
            delta = [a + b for a, b in zip(delta, contrib)]
        y = tuple(a + b for a, b in zip(y, delta))
        if mode == FLOAT and not all(map(math.isfinite, y)):
            i = [math.isfinite(v) for v in y].index(False)
            raise ValueError(f"the float solve leaves the float range at step {len(values)}: y_{i + 1} = {y[i]}")
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
    from .roughpath import BranchedRoughPath

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
            from .tensor import Word

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
    for w in sorted(g.terms, key=g._order):
        if not w.is_empty():
            yield w, g.terms[w], table.field(w)


def solve_geometric(Xbar: GeometricRoughPath, letter_fields, xi: Sequence) -> Trajectory:
    from .roughpath import GeometricRoughPath

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


def check_lgl(f: ButcherTable, lam, h, N: int) -> LglResult:
    """D^q f_h : (f_{lam_1}, ..., f_{lam_q}) = f_{lam * h} as polynomials.

    lam may be a single tree or a forest (q = number of factors); h a tree,
    forest or HElem.  The product grafts every lam factor onto a vertex of
    each tree of h, one term per assignment; disjoint-product terms vanish
    under the coefficient extension, so they are skipped.

    Both sides are weighted sums of the fields in `f.cache`, summed as by
    butcher_h and apply_derivative: on integer numerators over one
    denominator if every weight and coefficient is a Fraction (`_views`).
    """
    factors = (lam,) if isinstance(lam, Tree) else tuple(lam.factors)
    lam_forest = Forest(factors)
    if isinstance(h, (Tree, Forest)):
        hf = Forest((h,)) if isinstance(h, Tree) else h
        h = HElem.from_forest(hf, max(hf.max_label(), lam_forest.max_label(), 1))
    if lam_forest.grade + h.max_grade() > N:
        raise ValueError("grade(lam) + grade(h) must stay within N")
    c0 = h.coeff(EMPTY_FOREST)
    trees = [(m.factors[0], c / symmetry_factor(m.factors[0])) for m, c in h.terms.items() if m.is_single_tree()]
    lhs = ([(c0, PolyVectorField.identity(f.e))] if c0 else []) + [(w, f.field(tau)) for tau, w in trees]
    args = [f.field(t) for t in factors]
    rhs = [(c0, f.field(factors[0]))] if c0 and len(factors) == 1 else []
    for tau, w in trees:
        for assign in itertools.product(_vertex_addresses(tau), repeat=len(factors)):
            additions: dict = {}
            for fac, a in zip(factors, assign):
                additions.setdefault(a, []).append(fac)
            rhs.append((w, f.field(_attach_at(tau, additions))))
    nl, ws = len(lhs), [w for w, _ in lhs + rhs]
    views, exact = _views([F for _, F in lhs + rhs] + args, all(type(w) is Fraction for w in ws))
    (ws,), den = numerators(ws) if exact else ((ws,), None)
    D, Q = math.lcm(*(q for q, _ in views[: len(ws)])), math.prod(q for q, _ in views[len(ws) :])  # den * D * Q
    lhs = _weighted(ws[:nl], views[:nl], D, f.e)
    rhs = _weighted([w * Q for w in ws[nl:]], views[nl : len(ws)], D, f.e)
    for a, (got, want) in enumerate(zip(_derivative([lhs] + [m for _, m in views[len(ws) :]], f.e), rhs[()])):
        if got != want:
            # the first key of got - want in Linear.__sub__'s order
            mono = next(k for k in itertools.chain(got, want) if got.get(k, 0) != want.get(k, 0))
            lc, rc = (Fraction(d.get(mono, 0), den * D * Q) if exact else d.get(mono, Fraction(0)) for d in (got, want))
            return LglResult(False, {"component": a + 1, "monomial": mono, "lhs": lc, "rhs": rc})
    return LglResult(True)
