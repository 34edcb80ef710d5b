"""Encoding a branched rough path as a geometric one over tree letters.

The encoder walks up one grade at a time: the functionals of grade-n trees
that the level-n lift of the path so far fails to reproduce become new path
components, read off the adjacent values: X's column of each tree minus
the psi image rows times the lift's columns (`extract_extended_path`).
Grade-N letters enter a level-N lift only as one-letter words, so the last
level's lift gives the final one (`roughpath._lift_past_partial`), built on
its first read: a caller that never reads it, such as `simplify_n2`, never
pays for it.  `encode` still checks at once that a float path fits a
level-N lift.  Nothing is checked until one `certify` sweep over every grid
pair, the only all-pairs pass, checks the identity

    <X_st, h> = <Xbar_st, psi(h)>

for every forest h of grade <= N, on the `linear.Row`s that
`_RoughPathBase.pair_rows` folds forward on each path's compiled kernel,
with the psi images a compiled linear map of the geometric row: each pair
is composed once, no element is built, and exact values stay integer
numerators over one denominator until a witness prints them.  It is every
level's check as well: for an extracted tree tau, with f_tau(s, t) =
<X_st, tau> - <Xbar_st, psi(tau) without the tau letter> and F_tau the
prefix sums of its adjacent values, <Xbar_st, psi(tau)> - <X_st, tau> =
F_tau(t) - F_tau(s) - f_tau(s, t); on product forests it also catches
increments that are not characters.  The canonical lift of the
interpolated path replaces the analytic construction's arbitrary extension
at each level, which keeps everything rational and deterministic.

At level 2, `simplify_n2` folds the cherry letters away by column
operations on the plain letters' lift, which `encode` keeps for it.
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction

from .expr import print_tensor
from .hopf import HElem
from .linear import dot
from .morphisms import psi
from .roughpath import (
    RATIONAL,
    BranchedRoughPath,
    GeometricRoughPath,
    SampledPath,
    _check_float_range,
    _close,
    _deltas,
    _lift_past_partial,
    canonical_lift,
    roughpath_obj,
)
from .tensor import Word, is_tensor_group_like, word_context
from .trees import Forest, Tree, enumerate_forests, enumerate_trees, forests_of_grade, leaf, trees_of_grade

_ZERO = Fraction(0)


class ConversionError(RuntimeError):
    """Internal consistency violated; indicates a broken input precondition."""


def _running_sums(increments: list, mode: str) -> list:
    """The values, from 0, of a scalar path with these adjacent increments."""
    return list(itertools.accumulate(increments, initial=Fraction(0) if mode == RATIONAL else 0.0))


def base_path_of(X: BranchedRoughPath) -> SampledPath:
    """Grade-1 components of a branched rough path, started at 0, read off
    its grade-1 columns, an absent value as Fraction(0)."""
    leaves, index = forests_of_grade(1, X.d), X.context().index
    cols = [X.columns.get(index[h]) or [None] * X.grid.steps for h in leaves]
    sums = [_running_sums([_ZERO if v is None else v for v in col], X.mode) for col in cols]
    return SampledPath(X.grid, tuple(h.factors[0] for h in leaves), list(zip(*sums)), X.mode)


def _same_grid(X: BranchedRoughPath, Xbar: GeometricRoughPath) -> None:
    """Refuse two paths on different grids.  The message names both grids
    and, when their step counts agree, the first time at which they differ."""
    a, b = X.grid, Xbar.grid
    if a == b:
        return
    where = ""
    if a.steps == b.steps:
        k = next(k for k, (u, v) in enumerate(zip(a.times, b.times)) if u != v)
        where = f"; time {k} is {a.times[k]} against {b.times[k]}"
    raise ValueError(f"the branched path is on {a!r} and the geometric one on {b!r}{where}")


def _psi_rows(X: BranchedRoughPath, Xbar: GeometricRoughPath, level: int, forests: list) -> list:
    """psi(h) for each forest h as a row of Xbar's context over 1: psi's
    coefficients are integers.  Words over letters that Xbar lacks, or
    above the level, are left out: for a partial lift, the tree letter of h
    itself."""
    ctx, own = word_context(level, Xbar.d, Xbar.letter_bound), Xbar.context()
    images = [psi(HElem.from_forest(h, X.d), level).terms for h in forests]
    images = [own.row_of({w: c for w, c in img.items() if w in ctx.index}) for img in images]
    if any(img.den != 1 for img in images):
        raise ValueError("the psi images need integer coefficients")
    return images


def extract_extended_path(X: BranchedRoughPath, partial: GeometricRoughPath) -> dict:
    """New components for trees one grade above the partial lift's letters.

    For each tree tau of grade n+1 the value on step k is f_tau(k, k+1),
    f_tau(s, t) = <X_st, tau> - <partial_st, psi(tau) without the tau letter>,
    X's column of tau minus the image row times partial's columns, each
    pairing summed from 0 in `linear.dot`'s order: over the image, unless it
    has more terms than the step's present keys, then over those in
    partial's key order.  Nothing here checks the values: `certify`'s sweep
    of the final lift does (see the module docstring).
    """
    _same_grid(X, partial)
    n = max(t.grade for t in partial.letters)
    taus = trees_of_grade(n + 1, X.d)
    cols, M = partial.columns, X.grid.steps
    images = _psi_rows(X, partial, n + 1, [Forest((tau,)) for tau in taus])
    # the present keys per step; a one-term image sums alike in either order
    big = any(img.size > 1 for img in images)
    sizes = [sum(col[k] is not None for col in cols.values()) for k in range(M)] if big else ()
    index, out = X.context().index, {}
    for tau, img in zip(taus, images):
        rhs = [0] * M
        for p, c in img.values.items():
            if (col := cols.get(p)) is not None:
                rhs = [r if v is None else r + c * v for r, v in zip(rhs, col)]
        for k, size in enumerate(sizes):
            if img.size > size:
                rhs[k] = dot({p: v for p, col in cols.items() if (v := col[k]) is not None}, img.values)
        lhs = X.columns.get(index[Forest((tau,))]) or [None] * M
        # an absent <X_st, tau> reads 0, a Fraction unless rhs is a float
        out[tau] = [(x if x is not None else 0 if type(r) is float else _ZERO) - r for x, r in zip(lhs, rhs)]
    return out


class ConversionResult:
    """What `encode` returns: the extended path, its canonical lift, the
    certificate (or `{"status": "skipped"}`) and, at N = 2, the level-2 lift
    of the plain letters that `simplify_n2` starts from (else None; never in
    the JSON form, which adds each tree's psi image).

    `geometric` may be given as the final lift or, as `encode` gives it, as
    the last level's lift, which lacks the extended path's grade-N letters:
    then the first read of `geometric` builds the final lift from it
    (`roughpath._lift_past_partial`), keeps it and drops the partial one."""

    __slots__ = ("extended_path", "_geometric", "certificate", "plain_lift")

    def __init__(self, extended_path: SampledPath, geometric: GeometricRoughPath, certificate: dict, plain_lift):
        self.extended_path = extended_path
        self._geometric = geometric
        self.certificate = certificate
        self.plain_lift = plain_lift

    @property
    def geometric(self) -> GeometricRoughPath:
        if len(self._geometric.letters) < len(self.extended_path.basis):
            self._geometric = _lift_past_partial(self._geometric, self.extended_path)
        return self._geometric

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
    all grid pairs; first failure is recorded with a full witness.  Paths on
    different grids are refused with ValueError before any work.

    Every pair is read from the rows `pair_rows` folds, <X_st, h> straight
    from X's row (an absent forest reads int 0 in both modes) and Xbar's row
    paired with the integer psi images.  Exact
    values are compared by cross-multiplying integer numerators, the others
    with `_close` in X's mode; a witness prints each value as a reduced
    Fraction, or as the value itself when it is not exact."""
    _same_grid(X, Xbar)
    basis = enumerate_forests(X.N, X.d)
    cert = {
        "status": "pass",
        "checked_forests": len(basis),
        "checked_pairs": 0,
        "witness": None,
    }
    own = Xbar.context()
    where = [X.context().index.get(h) for h in basis]
    images_of = own.linear_map([img.values.items() for img in _psi_rows(X, Xbar, X.N, basis)])
    for (s, t, row), (_, _, vec) in zip(X.pair_rows(), Xbar.pair_rows()):
        cert["checked_pairs"] += 1
        get, lden, rden = row.values.get, row.den, vec.den
        for h, k, rhs in zip(basis, where, images_of(own.dense(vec))):
            lhs = get(k, 0)
            if lden is not None and rden is not None and lhs * rden == rhs * lden:
                continue
            lhs = lhs if lden is None else Fraction(lhs, lden)
            rhs = rhs if rden is None else Fraction(rhs, rden)
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

    Levels n = 2 .. N each read the grade-n components off the level-n
    lift's adjacent increments; levels below N lift the extended path once.
    The final lift, the last level's lift with the grade-N letters added, is
    built on the first read of the result's `geometric`, and not before; a
    float path too large for it is refused here all the same.  Then one
    `certify` sweep checks the final lift, every level's check included: with
    certify_result it is the certificate; otherwise, with check_cocycle,
    `certify` still runs and a failure raises ConversionError naming the
    forest, the pair and both values.  With both flags off nothing is swept,
    and the final lift is left for its first reader.
    """
    ext = base_path_of(X)
    geometric = plain = canonical_lift(ext, min(X.N, 2), X.gamma)  # the level-2 lift, or at N=1 the final one
    for n in range(2, X.N + 1):
        new = extract_extended_path(X, geometric)
        taus = sorted(new)
        ext = ext.extend(taus, [_running_sums(new[tau], X.mode) for tau in taus])
        if n < X.N:
            geometric = canonical_lift(ext, n + 1, X.gamma)
    _check_float_range(ext, X.N)
    result = ConversionResult(ext, geometric, {"status": "skipped"}, plain if X.N == 2 else None)
    if certify_result or check_cocycle:
        cert = certify(X, result.geometric)
        if certify_result:
            result.certificate = cert
        elif cert["status"] == "fail":
            raise ConversionError(f"<X_st, h> != <Xbar_st, psi(h)> at {json.dumps(cert['witness'])}")
    return result


# -- the level-2 shortcut --------------------------------------------------


class SimplifiedDriver:
    """Level-2 driver with the cherry letters folded away.

    xhat is a geometric rough path over the plain letters whose grade-2
    words absorb half the antisymmetric cherry part; the symmetric part
    survives as one scalar path per unordered label pair (k, l), k <= l,
    with the diagonal entries doubled: `symmetric` maps each pair to the
    column of its adjacent increments.
    """

    __slots__ = ("xhat", "pairs", "symmetric")

    def __init__(self, xhat: GeometricRoughPath, pairs: tuple, symmetric: dict):
        self.xhat = xhat
        self.pairs = pairs
        self.symmetric = symmetric

    @property
    def symmetric_increments(self) -> list:
        """Per step the map from each pair to its symmetric increment."""
        return [dict(zip(self.pairs, row)) for row in zip(*map(self.symmetric.get, self.pairs))]

    def symmetric_path(self, k: int, l: int) -> list:
        if (k, l) not in self.pairs:
            raise KeyError(f"no symmetric component for pair ({k}, {l})")
        return _running_sums(self.symmetric[k, l], self.xhat.mode)

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

    xhat starts from `result.plain_lift`, Xbar's plain-letter words, and
    reads its d, gamma, grid and mode there; the final lift Xbar is never
    read, so it is not built.  xhat keeps each plain lift column whose word
    no step corrects, and a corrected word gets a new column, a sum that
    reaches 0 absent.  The columns come in position order, the plain lift's
    key order, so a word that a step adds takes its place there, not last.
    """
    path = result.extended_path
    N = max(t.grade for t in path.basis)  # the final lift's level, read without building it
    if N != 2:
        raise ValueError(f"simplification applies at level 2 only, got {N}")
    plain = result.plain_lift
    d, labels = plain.d, range(1, plain.d + 1)
    cherries = itertools.product(labels, repeat=2)
    deltas = {(i, j): _deltas(path, path.basis.index(Tree(i, (leaf(j),)))) for i, j in cherries}  # of [b_j]_i
    index, columns = plain.context().index, dict(plain.columns)
    half = Fraction(1, 2) if plain.mode == RATIONAL else 0.5
    for (i, j), a in deltas.items():
        # <xhat, e_j (x) e_i> gains half the antisymmetric cherry part, none on the diagonal
        corr = [half * (x - y) for x, y in zip(a, deltas[j, i])] if i != j else ()
        if any(corr):
            p = index[Word((leaf(j), leaf(i)))]
            old = columns.get(p) or [None] * len(corr)
            columns[p] = [v if not c else None if (t := (v or 0) + c) == 0 else t for v, c in zip(old, corr)]
    columns = dict(sorted(columns.items()))
    xhat = GeometricRoughPath(2, plain.gamma, plain.grid, None, d, plain.mode, plain.letters, columns=columns)
    if plain.mode == RATIONAL:
        for g in xhat.increments:
            if not is_tensor_group_like(g, 2):
                raise ConversionError("antisymmetric correction broke the shuffle character")
    pairs = tuple((k, l) for k in labels for l in range(k, d + 1))
    symmetric = {(k, l): list(map(operator.add, deltas[k, l], deltas[l, k])) for k, l in pairs}
    return SimplifiedDriver(xhat, pairs, symmetric)
