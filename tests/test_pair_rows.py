"""The row fold of `_RoughPathBase.pair_rows` and the certificate sweep on it.

`pair_rows` gives every grid pair's increment as a row of the path's
context, folded forward from each start point on the compiled kernel in
either scalar mode.  Each row is checked against `increment(s, t).terms`:
the same positions in the same order (basis order for a folded row), the
same number of terms, and the same values with the same scalar types (exact
rows as `Fraction(num, den)`, reduced; float rows bit for bit, with a folded
row's unit the int 1).  The float walk stands still for two steps, so some
of its rows are exact and the fold crosses between the two kinds of step.

`certify` reads those rows; `oracles.certify_reference` is the element-based
sweep it replaced.  Both run on Ito lifts and their encodings, intact and
with seeded one-coefficient corruptions of an adjacent increment or of a
planted composed pair on either side, and must give the same report,
witness text included.
"""

import itertools
import math
from fractions import Fraction as Q
from random import Random

import pytest

from hopfpath.conversion import certify, encode
from hopfpath.hopf import convolve
from hopfpath.linear import Row
from hopfpath.roughpath import RATIONAL, BranchedRoughPath, GeometricRoughPath, SampledPath, _RoughPathBase
from hopfpath.roughpath import canonical_lift, ito_lift
from hopfpath.tensor import concat

from oracles import certify_reference
from seams import count_calls, planted, sweeps


def _walk(seed, d, M, mode):
    rng = Random(seed)
    exact = mode == RATIONAL
    rows = [[Q(0) if exact else 0.0] * d]
    for k in range(M):
        if not exact and k in (1, 2):  # two steps standing still: unit-only increments
            rows.append(list(rows[-1]))
            continue
        steps = [Q(rng.randint(-4, 4), rng.randint(1, 3)) if exact else rng.uniform(-1.0, 1.0) for _ in range(d)]
        rows.append([v + dv for v, dv in zip(rows[-1], steps)])
    times = [Q(k, M) if exact else k / M for k in range(M + 1)]
    return SampledPath.over_labels(times, rows, d, mode)


def _scalars(values) -> list:
    return [(type(v), repr(v)) for v in values]


@pytest.mark.parametrize("mode", [RATIONAL, "float"])
@pytest.mark.parametrize("lift", [ito_lift, canonical_lift], ids=["ito", "canonical"])
def test_pair_rows_are_the_increments(lift, mode, monkeypatch):
    M = 6
    X = lift(_walk(5, 2, M, mode), 3)
    calls = count_calls(monkeypatch, convolve, concat, (_RoughPathBase, "increment"))
    with sweeps() as kernels:
        rows = list(X.pair_rows())
    assert calls == {"convolve": 0, "concat": 0, "_RoughPathBase.increment": 0}
    # the compiled kernel folds the rows of either scalar mode
    assert kernels == {"kernel(f, g)": M * (M - 1) // 2}
    assert [(s, t) for s, t, *_ in rows] == list(itertools.combinations(range(M + 1), 2))
    index = X.context().index
    kinds = set()
    for s, t, row in rows:
        values, den, size = row.values, row.den, row.size
        terms = X.increment(s, t).terms
        if t > s + 1:
            # a folded row comes in basis order, and a float one holds its
            # integral exact values, the unit, as ints
            terms = {k: terms[k] for k in sorted(terms, key=index.get)}
            if den is None:
                terms = {k: v.numerator if type(v) is Q and v.denominator == 1 else v for k, v in terms.items()}
        assert list(values) == [index[k] for k in terms], (s, t)
        assert size == len(terms)
        if den is None:
            got = list(values.values())
        else:
            if t > s + 1:
                assert math.gcd(den, *values.values()) == 1, (s, t)
            got = [Q(v, den) for v in values.values()]
        assert _scalars(got) == _scalars(terms.values()), (s, t)
        kinds.add(den is None)
    # exact rows only in rational mode; both kinds in float mode
    assert kinds == ({False} if mode == RATIONAL else {False, True})


# -- the certificate against the element-based sweep ---------------------------

CASES = [(2, 1), (3, 2), (4, 1)]


def _fixture(N, d, mode):
    X = ito_lift(_walk(N * 10 + d, d, 4, mode), N)
    return X, encode(X, False, False).geometric


def _replaced(path, k, key, value):
    """A copy of path with one coefficient of adjacent increment k set."""
    incs = list(path.increments)
    g = incs[k]
    incs[k] = type(g)({**g.terms, key: value}, *g.ctx)
    if isinstance(path, GeometricRoughPath):
        return GeometricRoughPath(path.N, path.gamma, path.grid, incs, path.d, path.mode, path.letters)
    return BranchedRoughPath(path.N, path.gamma, path.grid, incs, path.d, path.mode)


def _corruptions(X, Xbar, seed, count=30):
    """(side, step, key, kind, value) per corruption, each kind in turn: a
    zero, a tiny shift (below the float tolerance in float mode), a larger
    shift and, in exact mode, a float shift, on either path."""
    rng = Random(seed)
    exact = X.mode == RATIONAL
    kinds = ["zero", "tiny", "shift"] + (["float"] if exact else [])
    out = []
    for i in range(count):
        side = rng.choice(("X", "Xbar"))
        path = X if side == "X" else Xbar
        k = rng.randrange(path.grid.steps)
        key = rng.choice(sorted(path.increments[k].terms, key=lambda w: w.sort_key()))
        c = path.increments[k].terms[key]
        kind = kinds[i % len(kinds)]
        if kind == "zero":
            value = 0
        elif kind == "tiny":
            value = c + (Q(1, 10**15) if exact else 1e-13)
        elif kind == "shift":
            value = c + (Q(1, 7) if exact else 0.125)
        else:
            value = c + 0.5
        out.append((side, k, key, kind, value))
    return out


@pytest.mark.parametrize("mode", [RATIONAL, "float"])
@pytest.mark.parametrize("N, d", CASES)
def test_certify_matches_the_element_sweep(N, d, mode, monkeypatch):
    X, Xbar = _fixture(N, d, mode)
    with sweeps():
        assert certify(X, Xbar) == certify_reference(X, Xbar)
        assert certify(X, Xbar)["status"] == "pass"
    failed = 0
    for side, k, key, kind, value in _corruptions(X, Xbar, N * 100 + d):
        bad_X = _replaced(X, k, key, value) if side == "X" else X
        bad_Xbar = _replaced(Xbar, k, key, value) if side == "Xbar" else Xbar
        with monkeypatch.context() as patch, sweeps():
            calls = count_calls(patch, convolve, concat)
            got = certify(bad_X, bad_Xbar)
        assert calls == {"convolve": 0, "concat": 0}
        if side == "X" and kind == "float":
            # the element sweep cross-multiplies lhs.numerator, which a float
            # lacks; the rows report the failure at the pair and forest where
            # the same shift made exactly fails
            with pytest.raises(AttributeError):
                certify_reference(bad_X, bad_Xbar)
            want = certify_reference(_replaced(X, k, key, X.increments[k].terms[key] + Q(1, 2)), Xbar)
            assert got["status"] == want["status"] == "fail"
            assert got["checked_pairs"] == want["checked_pairs"]
            assert [got["witness"][f] for f in ("forest", "s", "t")] == [want["witness"][f] for f in ("forest", "s", "t")]
        else:
            assert got == certify_reference(bad_X, bad_Xbar), (side, k, key, kind)
        failed += got["status"] == "fail"
    assert failed >= 1


@pytest.mark.parametrize("mode", [RATIONAL, "float"])
def test_certify_matches_the_element_sweep_across_levels(mode):
    # a geometric lift above or below X's level is paired in the word
    # context of X's level, so the fold's rows are renumbered into it
    path = _walk(7, 2, 4, mode)
    X2, X3 = ito_lift(path, 2), ito_lift(path, 3)
    for X, Y in ((X2, X3), (X3, X2)):
        Xbar = encode(Y, False, False).geometric
        got = certify(X, Xbar)
        assert got == certify_reference(X, Xbar)
        assert got["status"] == ("pass" if X is X2 else "fail")


@pytest.mark.parametrize("mode", [RATIONAL, "float"])
@pytest.mark.parametrize("N, d", CASES)
def test_certify_pairs_on_the_compiled_kernel_in_either_mode(N, d, mode):
    # exact or float rows: both folds run on their compiled kernels, and one
    # call of the compiled psi map per grid pair gives every forest's value,
    # and rows have no pairing of their own left to run
    X, Xbar = _fixture(N, d, mode)
    M = X.grid.steps
    with sweeps() as compiled:
        cert = certify(X, Xbar)
    pairs = math.comb(M + 1, 2)
    assert (cert["status"], cert["checked_pairs"]) == ("pass", pairs)
    assert compiled == {"kernel(f, g)": 2 * math.comb(M, 2), "kernel(v)": pairs}
    assert not hasattr(Row, "pair")


@pytest.mark.parametrize("mode", [RATIONAL, "float"])
def test_certify_finds_planted_pairs(mode):
    # one composed pair's coefficient shifted on either side, through the
    # test seam: the fold past it and every other pair stay the path's own
    X, Xbar = _fixture(3, 2, mode)
    rng = Random(mode)
    exact = mode == RATIONAL
    failed = 0
    for i in range(12):
        path = X if i % 2 else Xbar
        s = rng.randrange(path.grid.steps - 1)
        pair = (s, rng.randrange(s + 2, path.grid.steps + 1))
        g = path.increment(*pair)
        key = rng.choice(sorted(g.terms, key=lambda k: k.sort_key()))
        shift = (Q(1, 10**15) if exact else 1e-13) if i % 3 == 0 else (Q(1, 7) if exact else 0.125)
        bad = planted(path, pair, type(g)({**g.terms, key: g.terms[key] + shift}, *g.ctx))
        bad_X, bad_Xbar = (bad, Xbar) if path is X else (X, bad)
        with sweeps():
            got = certify(bad_X, bad_Xbar)
        assert got == certify_reference(bad_X, bad_Xbar), (i, pair, key)
        failed += got["status"] == "fail"
    assert failed >= 6
