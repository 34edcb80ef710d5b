"""The prefix-sum cocycle check of `extract_extended_path` against the
triple loop it replaced.

`extract_extended_path(..., check_cocycle=True)` tests f(s, t) = F(t) - F(s)
on every grid pair, F the prefix sums of the adjacent values; the loop it
replaced tested f(s, t) = f(s, u) + f(u, t) on every grid triple.  That
loop is written out here as the reference.  Both run on Ito lifts of random
exact and float walks, with the correct partial lift of every level and
with partial lifts over a path with one value changed: they must raise
`ConversionError` on the same inputs, and otherwise return the same keys in
the same order with the same scalar types and values (in float mode the
same bits).
"""

import functools
import itertools
import operator
from fractions import Fraction as Q
from random import Random

import pytest

from hopfpath.conversion import ConversionError, base_path_of, extract_extended_path
from hopfpath.hopf import HElem
from hopfpath.morphisms import psi
from hopfpath.roughpath import RATIONAL, SampledPath, _close, canonical_lift, ito_lift
from hopfpath.scalars import numerators
from hopfpath.tensor import Word, word_context
from hopfpath.trees import Forest, trees_of_grade


def extract_reference(X, partial, check_cocycle=True):
    n = max(t.grade for t in partial.letters)
    M = X.grid.steps
    ctx = word_context(n + 1, partial.d, partial.letter_bound)
    same = operator.eq if X.mode == RATIONAL else functools.partial(_close, mode=X.mode)
    if check_cocycle:
        pairs = list(itertools.combinations(range(M + 1), 2))
    else:
        pairs = [(k, k + 1) for k in range(M)]
    taus = trees_of_grade(n + 1, X.d)
    lowers = []
    for tau in taus:
        img = psi(HElem.from_tree(tau, X.d), n + 1)
        lower = ctx.row_of({w: c for w, c in img.terms.items() if w != Word((tau,))})
        lowers.append((Forest((tau,)), lower))
    values = [{} for _ in taus]
    for s, t in pairs:
        vec = None
        for (tree, lower), f in zip(lowers, values):
            inc = partial.increment(s, t)
            if vec is None:
                vec = ctx.row_of(inc.terms)
            rhs = lower.pair(vec)
            if vec.den is not None:
                rhs = Q(rhs, vec.den)
            f[(s, t)] = X.increment(s, t).coeff(tree) - rhs
    out = {}
    for tau, f in zip(taus, values):
        if check_cocycle:
            (vals,), _ = numerators(list(f.values()))
            g = dict(zip(f, vals))
            for s, u, t in itertools.combinations(range(M + 1), 3):
                if not same(g[(s, t)], g[(s, u)] + g[(u, t)]):
                    raise ConversionError(f"{tau!r} is not additive on ({s}, {u}, {t})")
        out[tau] = [f[(k, k + 1)] for k in range(M)]
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


def _outcome(extract, X, partial, check_cocycle):
    try:
        out = extract(X, partial, check_cocycle)
    except ConversionError:
        return "raised"
    return [(tau, [(type(v), repr(v)) for v in vals]) for tau, vals in out.items()]


def _changed(path, rng):
    """The path with one value, past the first row, moved by 1."""
    rows = [list(r) for r in path.values]
    k, i = rng.randrange(1, len(rows)), rng.randrange(len(path.basis))
    rows[k][i] += 1
    return SampledPath(path.grid, path.basis, rows, path.mode)


@pytest.mark.parametrize("mode", [RATIONAL, "float"])
@pytest.mark.parametrize("seed, d, N, M", [(0, 1, 3, 5), (1, 2, 2, 6), (2, 2, 3, 4), (3, 1, 4, 4)])
def test_prefix_check_matches_the_triple_loop(mode, seed, d, N, M):
    X = ito_lift(_walk(seed, d, M, mode), N)
    rng = Random(seed)
    ext = base_path_of(X)
    raised = 0
    for n in range(1, N):
        for path in (ext, _changed(ext, rng)):
            partial = canonical_lift(path, n + 1)
            for check in (True, False):
                want = _outcome(extract_reference, X, partial, check)
                assert _outcome(extract_extended_path, X, partial, check) == want
                raised += want == "raised"
        new = extract_reference(X, canonical_lift(ext, n + 1), False)
        zero = Q(0) if mode == RATIONAL else 0.0
        ext = ext.extend(sorted(new), [list(itertools.accumulate(new[t], initial=zero)) for t in sorted(new)])
    # every changed path is caught, and no correct partial lift is refused
    assert raised == N - 1
