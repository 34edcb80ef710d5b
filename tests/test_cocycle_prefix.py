"""`extract_extended_path` against the per-pair loop it replaced, and
`certify` as the encoding's one check.

The extraction reads adjacent increments only and checks nothing; the loop
written out here as the reference builds each psi image as a row and pairs
it with the partial lift's increment on every adjacent pair.  Both run on
Ito lifts of random exact and float walks, with the correct partial lift of
every level and with partial lifts over a path with one value changed: they
must return the same keys in the same order with the same scalar types and
values (in float mode the same bits).  Continuing the encoder's level loop
from each path and certifying the level-N lift must pass for the correct
path and fail for every changed one: `certify`'s sweep is every level's
check.
"""

import itertools
from fractions import Fraction as Q
from random import Random

import pytest

from hopfpath.conversion import base_path_of, certify, extract_extended_path
from hopfpath.hopf import HElem
from hopfpath.morphisms import psi
from hopfpath.roughpath import RATIONAL, SampledPath, _lift_past_partial, canonical_lift, ito_lift
from hopfpath.tensor import Word, word_context
from hopfpath.trees import Forest, trees_of_grade

from oracles import row_pair_reference


def extract_reference(X, partial):
    n = max(t.grade for t in partial.letters)
    ctx = word_context(n + 1, partial.d, partial.letter_bound)
    taus = trees_of_grade(n + 1, X.d)
    lowers = []
    for tau in taus:
        img = psi(HElem.from_tree(tau, X.d), n + 1)
        lower = ctx.row_of({w: c for w, c in img.terms.items() if w != Word((tau,))})
        lowers.append((Forest((tau,)), lower))
    out = {tau: [] for tau in taus}
    for k in range(X.grid.steps):
        vec = ctx.row_of(partial.increment(k, k + 1).terms)
        for (tree, lower), f in zip(lowers, out.values()):
            rhs = row_pair_reference(lower, vec)
            if vec.den is not None:
                rhs = Q(rhs, vec.den)
            f.append(X.increment(k, k + 1).coeff(tree) - rhs)
    return out


def _walk(seed, d, M, mode):
    rng = Random(seed)
    exact = mode == RATIONAL
    rows = [[Q(0) if exact else 0.0] * d]
    for _ in range(M):
        steps = [Q(rng.randint(-4, 4), rng.randint(1, 3)) if exact else rng.uniform(-1.0, 1.0) for _ in range(d)]
        rows.append([v + dv for v, dv in zip(rows[-1], steps)])
    times = [Q(k, M) if exact else k / M for k in range(M + 1)]
    return SampledPath.over_labels(times, rows, d, mode)


def _typed(out):
    return [(tau, [(type(v), repr(v)) for v in vals]) for tau, vals in out.items()]


def _extended(path, new):
    zero = Q(0) if path.mode == RATIONAL else 0.0
    return path.extend(sorted(new), [list(itertools.accumulate(new[t], initial=zero)) for t in sorted(new)])


def _certified(X, path, n):
    """The status of `certify` on the level-N lift that `encode`'s level
    loop reaches from path, whose letters stop at grade n < N: the last
    level's lift with the grade-N letters added."""
    for m in range(n, X.N):
        partial = canonical_lift(path, m + 1, X.gamma)
        path = _extended(path, extract_extended_path(X, partial))
    return certify(X, _lift_past_partial(partial, path))["status"]


def _changed(path, rng):
    """The path with one value, past the first row, moved by 1."""
    rows = [list(r) for r in path.values]
    k, i = rng.randrange(1, len(rows)), rng.randrange(len(path.basis))
    rows[k][i] += 1
    return SampledPath(path.grid, path.basis, rows, path.mode)


@pytest.mark.parametrize("mode", [RATIONAL, "float"])
@pytest.mark.parametrize("seed, d, N, M", [(0, 1, 3, 5), (1, 2, 2, 6), (2, 2, 3, 4), (3, 1, 4, 4)])
def test_extraction_matches_the_adjacent_loop_and_certify_judges_it(mode, seed, d, N, M):
    X = ito_lift(_walk(seed, d, M, mode), N)
    rng = Random(seed)
    ext = base_path_of(X)
    for n in range(1, N):
        changed = _changed(ext, rng)
        for path in (ext, changed):
            partial = canonical_lift(path, n + 1)
            assert _typed(extract_extended_path(X, partial)) == _typed(extract_reference(X, partial))
        # every changed path is caught, and no correct one is refused
        assert (_certified(X, ext, n), _certified(X, changed, n)) == ("pass", "fail")
        ext = _extended(ext, extract_reference(X, canonical_lift(ext, n + 1)))
