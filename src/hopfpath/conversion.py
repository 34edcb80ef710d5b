"""Encoding a branched rough path as a geometric one over tree letters.

The encoder walks up one grade at a time: the functionals of grade-n trees
that the level-n lift of the path so far fails to reproduce, read off the
adjacent increments, become new path components; grade-N letters enter a
level-N lift only as one-letter words, so the last level's lift gives the
final one (`roughpath._lift_past_partial`), built on its first read: a
caller that never reads it, such as `simplify_n2`, never pays for it.
`encode` still checks at once that a float path fits a level-N lift.
Nothing is checked until one `certify` sweep over every grid pair, the only
all-pairs pass, checks the identity

    <X_st, h> = <Xbar_st, psi(h)>

for every forest h of grade <= N.  The sweep reads each pair's increments
as the `linear.Row`s that `_RoughPathBase.pair_rows` folds forward from
each start point on each path's context, and pairs the geometric ones with
the psi images: each pair is composed once, O(M) rows are live, no element
is built or cached, and exact values stay integer numerators over one
denominator until a witness prints them.  In both scalar modes the fold
and the psi images run as straight-line functions generated from integer
tables (`linear.Context.compiled`, `Context.linear_map`): the images give
every forest's value from one call on the geometric row.  It is every
level's check as well: for an extracted tree tau, with f_tau(s, t) =
<X_st, tau> - <Xbar_st, psi(tau) without the tau letter> and F_tau the
prefix sums of its adjacent values, <Xbar_st, psi(tau)> - <X_st, tau> =
F_tau(t) - F_tau(s) - f_tau(s, t); on product forests it also catches
increments that are not characters.  The analytic construction picks an
arbitrary extension at each level; here the canonical lift of the
interpolated path replaces it, which keeps everything rational and
deterministic.

`encode` returns a `ConversionResult`: `extended_path`, the sampled path
with one component per tree letter; `geometric`, its canonical lift over
those letters, built when first read (`certify` reads it when `encode`
sweeps); `certificate`, the report of `certify` (or `{"status":
"skipped"}`); and at N = 2 `plain_lift`, the first level-2 lift, the only
lift `simplify_n2` reads.  Its JSON form adds each tree's psi image.
"""

from __future__ import annotations

import itertools
import json
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
    _lift_past_partial,
    canonical_lift,
    roughpath_obj,
)
from .tensor import TensorElem, Word, is_tensor_group_like, word_context
from .trees import Forest, Tree, enumerate_forests, enumerate_trees, forests_of_grade, leaf, trees_of_grade

_ZERO = Fraction(0)


class ConversionError(RuntimeError):
    """Internal consistency violated; indicates a broken input precondition."""


def _running_sums(increments: list, mode: str) -> list:
    """The values, from 0, of a scalar path with these adjacent increments."""
    return list(itertools.accumulate(increments, initial=Fraction(0) if mode == RATIONAL else 0.0))


def base_path_of(X: BranchedRoughPath) -> SampledPath:
    """Grade-1 components of a branched rough path, started at 0, read with
    the forests `ito_lift` stores as keys, so each lookup hits by identity."""
    leaves = forests_of_grade(1, X.d)
    cols = [_running_sums([g.terms.get(h, _ZERO) for g in X.increments], X.mode) for h in leaves]
    return SampledPath(X.grid, tuple(h.factors[0] for h in leaves), list(zip(*cols)), X.mode)


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
    read from the adjacent increments alone.  Each image is paired with the
    increment's terms on their words by `linear.dot`, iterating the image
    unless it has more terms.  Nothing here checks the values:
    `certify`'s sweep of the final lift does (see the module docstring).
    """
    _same_grid(X, partial)
    n = max(t.grade for t in partial.letters)
    taus = trees_of_grade(n + 1, X.d)
    forests = [Forest((tau,)) for tau in taus]
    basis = partial.context().basis
    images = [({basis[i]: c for i, c in img.values.items()}, img.size) for img in _psi_rows(X, partial, n + 1, forests)]
    out = {tau: [] for tau in taus}
    for branched, geometric in zip(X.increments, partial.increments):
        terms, size, get = geometric.terms, len(geometric.terms), branched.terms.get
        for h, f, (img, n_img) in zip(forests, out.values(), images):
            rhs = dot(terms, img) if n_img > size else dot(img, terms)
            # an absent <X_st, h> reads 0, a Fraction unless rhs is a float
            f.append(get(h, 0 if type(rhs) is float else _ZERO) - rhs)
    return out


class ConversionResult:
    """What `encode` returns: the extended path, its canonical lift, the
    certificate and, at N = 2, the level-2 lift of the plain letters that
    `simplify_n2` starts from (else None; never in the JSON form).

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
    with the diagonal entries doubled.
    """

    __slots__ = ("xhat", "pairs", "symmetric_increments")

    def __init__(self, xhat: GeometricRoughPath, pairs: tuple, symmetric_increments: list):
        self.xhat = xhat
        self.pairs = pairs
        self.symmetric_increments = symmetric_increments

    def symmetric_path(self, k: int, l: int) -> list:
        if (k, l) not in self.pairs:
            raise KeyError(f"no symmetric component for pair ({k}, {l})")
        return _running_sums([row[(k, l)] for row in self.symmetric_increments], self.xhat.mode)

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
    read, so it is not built.  A step with no antisymmetric correction,
    every step at d = 1, keeps that increment itself, another a copy with
    the corrections.  xhat's words are plain letters within d, so its
    increments are trusted.
    """
    path = result.extended_path
    N = max(t.grade for t in path.basis)  # the final lift's level, read without building it
    if N != 2:
        raise ValueError(f"simplification applies at level 2 only, got {N}")
    plain = result.plain_lift
    d = plain.d
    labels = range(1, d + 1)
    cols = {(i, j): path.basis.index(Tree(i, (leaf(j),))) for i, j in itertools.product(labels, repeat=2)}  # [b_j]_i
    ctx = plain.context()
    # the columns of [b_j]_i and [b_i]_j, and e_j (x) e_i; a diagonal cherry has no antisymmetric part
    flips = [(a, cols[j, i], ctx.basis[ctx.index[Word((leaf(j), leaf(i)))]]) for (i, j), a in cols.items() if i != j]
    pairs = tuple((k, l) for k in labels for l in range(k, d + 1))
    sums = [((k, l), cols[k, l], cols[l, k]) for k, l in pairs]
    half = Fraction(1, 2) if plain.mode == RATIONAL else 0.5
    word_incs = []
    sym_incs = []
    for g, lo, hi in zip(plain.increments, path.values, path.values[1:]):
        terms = None
        for a, b, w in flips:
            # <xhat, e_j (x) e_i> gains half the antisymmetric cherry part
            corr = half * ((hi[a] - lo[a]) - (hi[b] - lo[b]))
            if corr:
                terms = dict(g.terms) if terms is None else terms
                terms[w] = terms.get(w, 0) + corr
                if terms[w] == 0:
                    del terms[w]
        word_incs.append(g if terms is None else TensorElem._trusted(terms, d, 1))
        sym_incs.append({p: (hi[a] - lo[a]) + (hi[b] - lo[b]) for p, a, b in sums})
    xhat = GeometricRoughPath(2, plain.gamma, plain.grid, word_incs, d, plain.mode, plain.letters)
    if plain.mode == RATIONAL:
        for g in xhat.increments:
            if not is_tensor_group_like(g, 2):
                raise ConversionError("antisymmetric correction broke the shuffle character")
    return SimplifiedDriver(xhat, pairs, sym_incs)
