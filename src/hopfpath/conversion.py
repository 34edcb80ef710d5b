"""Encoding a branched rough path as a geometric one over tree letters.

The encoder walks up one grade at a time: the functionals of grade-(n+1)
trees that the level-n geometric lift fails to reproduce become new scalar
path components, and the canonical lift of the extended piecewise-linear
path is rebuilt.  At the top the defining identity

    <X_st, h> = <Xbar_st, psi(h)>

is certified exactly for every forest of grade <= N and every grid pair.
The analytic construction behind this picks an arbitrary extension at each
level; here the canonical lift of the interpolated path replaces it, which
keeps everything rational and deterministic.

`encode` returns a `ConversionResult`: `extended_path`, the sampled path
with one component per tree letter; `geometric`, its canonical lift over
those letters; and `certificate`, the report of `certify` (or
`{"status": "skipped"}`).  Its JSON form adds each tree's psi image.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction

from .expr import print_tensor
from .hopf import HElem
from .morphisms import psi
from .roughpath import (
    RATIONAL,
    BranchedRoughPath,
    GeometricRoughPath,
    SampledPath,
    _close,
    canonical_lift,
    roughpath_obj,
)
from .scalars import numerators
from .tensor import TensorElem, Word, is_tensor_group_like, pair_functional, word_context
from .trees import Forest, Tree, enumerate_forests, enumerate_trees, leaf, trees_of_grade


class ConversionError(RuntimeError):
    """Internal consistency violated; indicates a broken input precondition."""


def base_path_of(X: BranchedRoughPath) -> SampledPath:
    """Grade-1 components of a branched rough path, started at 0."""
    zero = Fraction(0) if X.mode == RATIONAL else 0.0
    basis = tuple(leaf(i) for i in range(1, X.d + 1))
    cols = [
        list(itertools.accumulate([g.coeff(Forest((b,))) for g in X.increments], initial=zero))
        for b in basis
    ]
    rows = [tuple(col[k] for col in cols) for k in range(len(X.grid))]
    return SampledPath(X.grid, basis, rows, X.mode)


def extract_extended_path(X: BranchedRoughPath, partial: GeometricRoughPath, check_cocycle: bool = True) -> dict:
    """New components for trees one grade above the partial lift's letters.

    For each tree tau of grade n+1 the adjacent increments are
    delta Xbar^tau = <X, tau> - <partial, psi(tau) without the tau letter>;
    additivity over all grid triples is verified exactly before returning.
    """
    n = max(t.grade for t in partial.letters)
    M = X.grid.steps
    ctx = word_context(n + 1, partial.d, partial.letter_bound)
    # exact values are compared as integer numerators over one common
    # denominator, float ones with the float tolerance
    same = operator.eq if X.mode == RATIONAL else functools.partial(_close, mode=X.mode)
    # the output only uses adjacent pairs; wider ones exist to feed the
    # additivity check
    if check_cocycle:
        pairs = list(itertools.combinations(range(M + 1), 2))
    else:
        pairs = [(k, k + 1) for k in range(M)]
    taus = trees_of_grade(n + 1, X.d)
    lowers = []
    for tau in taus:
        img = psi(HElem.from_tree(tau, X.d), n + 1)
        lower = ctx.functional({w: c for w, c in img.terms.items() if w != Word((tau,))})
        lowers.append((Forest((tau,)), lower))
    values = [{} for _ in taus]
    for s, t in pairs:
        vec = None  # the partial increment over (s, t), shared by every tau
        for (tree, lower), f in zip(lowers, values):
            inc = partial.increment(s, t)  # a cache hit after the first tau
            if vec is None:
                vec = ctx.vector(inc.terms)
            rhs = pair_functional(lower, vec)
            if vec.den is not None:
                rhs = Fraction(rhs, vec.den)
            f[(s, t)] = X.increment(s, t).coeff(tree) - rhs
    out = {}
    for tau, f in zip(taus, values):
        if check_cocycle:
            (vals,), _ = numerators(list(f.values()))
            g = dict(zip(f, vals))
            for s, u, t in itertools.combinations(range(M + 1), 3):
                if not same(g[(s, t)], g[(s, u)] + g[(u, t)]):
                    raise ConversionError(
                        f"extracted component for {tau!r} is not additive "
                        f"on triple ({s}, {u}, {t}); the partial lift does "
                        f"not reproduce X below grade {n + 1}"
                    )
        out[tau] = [f[(k, k + 1)] for k in range(M)]
    return out


@dataclass
class ConversionResult:
    extended_path: SampledPath
    geometric: GeometricRoughPath
    certificate: dict

    def to_obj(self) -> dict:
        d = self.geometric.d
        N = self.geometric.N
        psi_map = {}
        for tau in enumerate_trees(N, d):
            psi_map[repr(tau)] = print_tensor(psi(HElem.from_tree(tau, d), N))
        return {
            "extended_path_csv": self.extended_path.to_csv(),
            "geometric": roughpath_obj(self.geometric),
            "psi": psi_map,
            "certificate": self.certificate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)


def certify(X: BranchedRoughPath, Xbar: GeometricRoughPath) -> dict:
    """Check <X_st, h> = <Xbar_st, psi(h)> for all forests of grade <= N and
    all grid pairs; first failure is recorded with a full witness.

    Exact values are compared by cross-multiplying integer numerators, float
    ones with the float tolerance."""
    N, d, M = X.N, X.d, X.grid.steps
    basis = enumerate_forests(N, d)
    ctx = word_context(N, Xbar.d, Xbar.letter_bound)
    images = [ctx.functional(psi(HElem.from_forest(h, d), N).terms) for h in basis]
    exact = X.mode == RATIONAL
    cert = {
        "status": "pass",
        "checked_forests": len(basis),
        "checked_pairs": 0,
        "witness": None,
    }

    for s, t in itertools.combinations(range(M + 1), 2):
        cert["checked_pairs"] += 1
        lhs_inc = X.increment(s, t)
        vec = ctx.vector(Xbar.increment(s, t).terms)
        den = vec.den
        for h, img in zip(basis, images):
            lhs = lhs_inc.coeff(h)
            rhs = pair_functional(img, vec)
            if exact and den is not None:
                if lhs.numerator * den == rhs * lhs.denominator:
                    continue
                rhs = Fraction(rhs, den)
            else:
                if den is not None:
                    rhs = Fraction(rhs, den)
                if _close(lhs, rhs, X.mode):
                    continue
            cert["status"] = "fail"
            cert["witness"] = {
                "forest": repr(h),
                "s": str(X.grid.times[s]),
                "t": str(X.grid.times[t]),
                "branched_value": str(lhs),
                "geometric_value": str(rhs),
            }
            return cert
    gamma = X.gamma
    if not isinstance(gamma, float) and Fraction(gamma).numerator == 1:
        cert["gamma_caveat"] = (
            "1/gamma is an integer; the continuum extension theorem excludes "
            "this case, the grid construction does not"
        )
    return cert


def encode(X: BranchedRoughPath, certify_result: bool = True, check_cocycle: bool = True) -> ConversionResult:
    """Extend the underlying path tree by tree and lift it geometrically.

    Levels run n = 1 .. N: each pass extracts the grade-(n+1) components and
    rebuilds the canonical lift of the extended path, so the level-n values
    never change once set (rebuilding is deterministic in the components).
    """
    N = X.N
    ext = base_path_of(X)
    for n in range(1, N):
        partial = canonical_lift(ext, n + 1, X.gamma)
        new = extract_extended_path(X, partial, check_cocycle)
        zero = Fraction(0) if X.mode == RATIONAL else 0.0
        cols = [list(itertools.accumulate(new[tau], initial=zero)) for tau in sorted(new)]
        ext = ext.extend(sorted(new), cols)
    geometric = canonical_lift(ext, N, X.gamma)
    cert = certify(X, geometric) if certify_result else {"status": "skipped"}
    return ConversionResult(ext, geometric, cert)


def extend_alphabet(X1: BranchedRoughPath, new_components: SampledPath) -> BranchedRoughPath:
    """Adjoin extra labels to a branched rough path.

    Trees labelled entirely inside the old alphabet keep their values; any
    tree that mentions a new label gets the left-point rule, so its adjacent
    increments vanish beyond grade 1 and composition fills in the rest.
    """
    if new_components.grid != X1.grid:
        raise ValueError("new components must share the grid")
    if not new_components.has_label_basis():
        raise ValueError("new components must use a plain label basis")
    d1 = X1.d
    new_labels = sorted(t.label for t in new_components.basis)
    if new_labels != list(range(d1 + 1, d1 + 1 + len(new_labels))):
        raise ValueError(
            f"new labels must be contiguous above {d1}, got {new_labels}"
        )
    d2 = d1 + len(new_labels)
    increments = []
    for k in range(X1.grid.steps):
        delta = new_components.delta(k)
        by_label = {t.label: delta[t] for t in new_components.basis}
        old = X1.increments[k]
        terms = {}
        for f in enumerate_forests(X1.N, d2):
            v = 1
            for t in f.factors:
                if t.max_label() <= d1:
                    v = v * old.coeff(Forest((t,)))
                elif t.grade == 1:
                    v = v * by_label[t.label]
                else:
                    v = 0
                if v == 0:
                    break
            if v != 0 or f.is_unit():
                terms[f] = v
        increments.append(HElem(terms, d2))
    return BranchedRoughPath(X1.N, X1.gamma, X1.grid, increments, d2, X1.mode)


# -- the level-2 shortcut --------------------------------------------------


@dataclass
class SimplifiedDriver:
    """Level-2 driver with the cherry letters folded away.

    xhat is a geometric rough path over the plain letters whose grade-2
    words absorb half the antisymmetric cherry part; the symmetric part
    survives as one scalar path per unordered label pair (k, l), k <= l,
    with the diagonal entries doubled.
    """

    xhat: GeometricRoughPath
    pairs: tuple
    symmetric_increments: list

    def symmetric_path(self, k: int, l: int) -> list:
        if (k, l) not in self.pairs:
            raise KeyError(f"no symmetric component for pair ({k}, {l})")
        zero = Fraction(0) if self.xhat.mode == RATIONAL else 0.0
        return list(itertools.accumulate([row[(k, l)] for row in self.symmetric_increments], initial=zero))

    def covariation(self, k: int, l: int) -> list:
        """Discrete covariation sum of delta X^k delta X^l; for a left-point
        lift this is the negated symmetric component."""
        return [-v for v in self.symmetric_path(k, l)]


def simplify_n2(result: ConversionResult) -> SimplifiedDriver:
    """Rewrite a level-2 encoding over d + d(d+1)/2 driver components.

    The d^2 cherry letters split into symmetric and antisymmetric parts;
    the antisymmetric half moves into the grade-2 word coefficients of a
    new geometric rough path xhat (still a shuffle character, since the
    addition cancels in every e_i shuffle e_j), and the symmetric half is
    returned as scalar paths.
    """
    Xbar = result.geometric
    if Xbar.N != 2:
        raise ValueError(f"simplification applies at level 2 only, got {Xbar.N}")
    d = Xbar.d
    path = result.extended_path
    letters = tuple(leaf(i) for i in range(1, d + 1))
    cherry = {(i, j): Tree(i, (leaf(j),)) for i in range(1, d + 1) for j in range(1, d + 1)}
    pairs = tuple((k, l) for k in range(1, d + 1) for l in range(k, d + 1))
    half = Fraction(1, 2)
    word_incs = []
    sym_incs = []
    for step, g in enumerate(Xbar.increments):
        delta = path.delta(step)
        terms = {}
        for w, c in g.terms.items():
            if all(t.grade == 1 for t in w.letters):
                terms[w] = c
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                # <xhat, e_j (x) e_i> gains half the antisymmetric cherry part
                corr = half * (delta[cherry[(i, j)]] - delta[cherry[(j, i)]])
                if corr:
                    w = Word((leaf(j), leaf(i)))
                    terms[w] = terms.get(w, 0) + corr
                    if terms[w] == 0:
                        del terms[w]
        word_incs.append(TensorElem(terms, d, 1))
        sym_incs.append(
            {(k, l): delta[cherry[(k, l)]] + delta[cherry[(l, k)]] for k, l in pairs}
        )
    xhat = GeometricRoughPath(2, Xbar.gamma, Xbar.grid, word_incs, d, Xbar.mode, letters)
    for g in xhat.increments:
        if Xbar.mode == RATIONAL and not is_tensor_group_like(g, 2):
            raise ConversionError("antisymmetric correction broke the shuffle character")
    return SimplifiedDriver(xhat, pairs, sym_incs)
