"""The derivative rule on integer numerators against the loops it replaced.

`apply_derivative` and `check_lgl` run on term dicts: on integer numerators
over one denominator when every coefficient is a Fraction, else on the
values as given.  The `Poly`/`Fraction` loops they replaced are written out
here as references.  Both are run on random fields and compared term by
term: the same keys in the same order, the same scalar types and values,
in float mode the same bits, and for `check_lgl` the same outcome and
witness.
"""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfpath.hopf import HElem, _attach_at, _vertex_addresses
from hopfpath.rde import (
    ButcherTable,
    Poly,
    PolyVectorField,
    apply_derivative,
    butcher,
    check_lgl,
)
from hopfpath.scalars import numerators
from hopfpath.trees import EMPTY_FOREST, Forest, Tree, enumerate_trees, leaf, symmetry_factor

EXACT, MIXED, FLOATS = "exact", "mixed", "floats"


def diff_reference(p, i):
    out = {}
    k = i - 1
    for e, c in p.terms.items():
        if e[k]:
            e2 = e[:k] + (e[k] - 1,) + e[k + 1 :]
            out[e2] = out.get(e2, 0) + c * e[k]
    return Poly(out, p.nvars)


def mul_reference(p, q):
    a, b = p.terms, q.terms
    av, bv, den = a.values(), b.values(), None
    if all(type(c) is Q for c in itertools.chain(av, bv)):
        (av, bv), den = numerators(list(av), list(bv))
    out = {}
    for e1, c1 in zip(a, av):
        for e2, c2 in zip(b, bv):
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    if den is not None:
        out = {e: Q(c, den) for e, c in out.items() if c}
    return Poly(out, p.nvars)


def apply_derivative_reference(f, args):
    e = f.e
    n = len(args)
    if n == 0:
        return f
    out = []
    for comp in f.components:
        acc = Poly.const(0, e)
        for beta in itertools.product(range(1, e + 1), repeat=n):
            part = comp
            for b in beta:
                part = diff_reference(part, b)
                if part.is_zero():
                    break
            if part.is_zero():
                continue
            for g, b in zip(args, beta):
                part = mul_reference(part, g.components[b - 1])
            acc = acc + part
        out.append(acc)
    return PolyVectorField(out)


def butcher_h_reference(f, x):
    out = PolyVectorField.identity(f.e).scale(x.coeff(EMPTY_FOREST))
    for h, c in x.terms.items():
        if h.is_single_tree():
            tau = h.factors[0]
            out = out + f.field(tau).scale(c / symmetry_factor(tau))
    return out


def check_lgl_reference(f, lam, h, N):
    factors = (lam,) if isinstance(lam, Tree) else tuple(lam.factors)
    if isinstance(h, (Tree, Forest)):
        hf = Forest((h,)) if isinstance(h, Tree) else h
        h = HElem.from_forest(hf, max(hf.max_label(), Forest(factors).max_label(), 1))
    lhs = apply_derivative_reference(butcher_h_reference(f, h), tuple(f.field(t) for t in factors))
    rhs = PolyVectorField.zero(f.e)
    c0 = h.coeff(EMPTY_FOREST)
    if c0 and len(factors) == 1:
        rhs = rhs + f.field(factors[0]).scale(c0)
    for mono, c in h.terms.items():
        if not mono.is_single_tree():
            continue
        tau = mono.factors[0]
        w = c / symmetry_factor(tau)
        for assign in itertools.product(_vertex_addresses(tau), repeat=len(factors)):
            additions = {}
            for fac, a in zip(factors, assign):
                additions.setdefault(a, []).append(fac)
            rhs = rhs + f.field(_attach_at(tau, additions)).scale(w)
    for a in range(f.e):
        diff = lhs.components[a] - rhs.components[a]
        if not diff.is_zero():
            mono = next(iter(diff.terms))
            return False, {
                "component": a + 1,
                "monomial": mono,
                "lhs": lhs.components[a].terms.get(mono, Q(0)),
                "rhs": rhs.components[a].terms.get(mono, Q(0)),
            }
    return True, None


def _exact(x):
    """A scalar by type and repr, so floats compare bit for bit."""
    return type(x), repr(x)


def _same_field(got, want):
    for p, q in zip(got.components, want.components):
        assert [(e, _exact(c)) for e, c in p.terms.items()] == [(e, _exact(c)) for e, c in q.terms.items()]


def _same_outcome(r, want):
    ok, witness = want
    assert r.ok is ok
    if witness is None:
        assert r.witness is None
    else:
        assert {k: _exact(v) if k in ("lhs", "rhs") else v for k, v in r.witness.items()} == {
            k: _exact(v) if k in ("lhs", "rhs") else v for k, v in witness.items()
        }


def _coefficient(draw, mode):
    """Exact: a Fraction, mostly not an integer.  Mixed: an int or a
    Fraction.  Floats: quotients by a prime, which round.  Few values, so
    that sums often cancel."""
    n = draw(st.sampled_from((-2, -1, 1, 2)))
    if mode == FLOATS:
        return n * draw(st.integers(1, 3)) / 997
    if mode == MIXED and draw(st.booleans()):
        return n
    return Q(n, draw(st.integers(1, 3)))


def _field(draw, e, mode):
    monos = [m for m in itertools.product(range(3), repeat=e) if sum(m) <= 2]
    comps = []
    for _ in range(e):
        keys = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        comps.append(Poly({m: _coefficient(draw, mode) for m in keys}, e))
    return PolyVectorField(comps)


@st.composite
def derivative_cases(draw):
    mode = draw(st.sampled_from((EXACT, MIXED, FLOATS)))
    e = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3 if e < 3 else 2))
    return _field(draw, e, mode), [_field(draw, e, mode) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(derivative_cases())
def test_apply_derivative_matches_the_reference(case):
    f, args = case
    _same_field(apply_derivative(f, args), apply_derivative_reference(f, args))


@st.composite
def lgl_cases(draw):
    mode = draw(st.sampled_from((EXACT, MIXED, FLOATS)))
    e = draw(st.integers(1, 2))
    d = draw(st.integers(1, 2))
    f = ButcherTable({i: _field(draw, e, mode) for i in range(1, d + 1)})
    trees = enumerate_trees(2, d)
    lam = Forest(tuple(draw(st.lists(st.sampled_from(trees), min_size=draw(st.sampled_from((0, 1, 1))), max_size=2))))
    terms = {}
    if draw(st.booleans()):
        terms[EMPTY_FOREST] = _coefficient(draw, EXACT)
    for t in draw(st.lists(st.sampled_from(trees), min_size=1, max_size=3, unique=True)):
        terms[Forest((t,))] = _coefficient(draw, EXACT)
    if draw(st.booleans()):
        # a product of trees, which the coefficient extension sends to 0
        terms[Forest((leaf(1), leaf(d)))] = Q(3, 4)
    h = HElem(terms, d)
    N = lam.grade + h.max_grade()
    if draw(st.booleans()):
        # a corrupted cache entry, so that some checks fail with a witness:
        # a tree of the right side, or any tree
        grafted = [_attach_at(m.factors[0], {(): list(lam.factors)}) for m in h.terms if m.is_single_tree()]
        tau = draw(st.sampled_from(grafted if draw(st.booleans()) else enumerate_trees(N, d)))
        butcher(f, tau)
        f.cache[tau] = f.cache[tau] + _field(draw, e, mode)
    return f, lam, h, N


@settings(max_examples=150, deadline=None)
@given(lgl_cases())
def test_check_lgl_matches_the_reference(case):
    f, lam, h, N = case
    want = check_lgl_reference(f, lam, h, N)
    _same_outcome(check_lgl(f, lam, h, N), want)
    # a second run reads the memoized views and must not change the answer
    _same_outcome(check_lgl(f, lam, h, N), want)


@pytest.mark.parametrize("mode", [EXACT, FLOATS])
def test_butcher_fields_match_the_reference_recurrence(mode):
    base = {1: PolyVectorField.parse(["1/3*y1^2 + y2", "y1*y2 - 5/7"]), 2: PolyVectorField.parse(["y2^2", "2/9*y1 + 1"])}
    if mode == FLOATS:
        base = {i: F.to_float() for i, F in base.items()}
    f = ButcherTable(base)
    want = {}
    for tau in enumerate_trees(4, 2):
        want[tau] = apply_derivative_reference(base[tau.label], tuple(want[c] for c in tau.children))
        _same_field(f.field(tau), want[tau])


def test_a_cache_entry_replaced_after_a_check_is_read_afresh():
    f = ButcherTable.parse({1: ["y1^2 + 1/2*y2", "y1*y2"], 2: ["y2^2", "1/3*y1 + 1"]})
    lam, t = leaf(1), Tree(2, (leaf(1),))
    h = HElem({EMPTY_FOREST: Q(2), Forest((leaf(2),)): Q(1), Forest((leaf(1),)): Q(-1, 3)}, 2)
    assert check_lgl(f, lam, h, 3)
    f.cache[t] = f.cache[t] + PolyVectorField.parse(["1/5*y1^3", "0*y1"])
    r = check_lgl(f, lam, h, 3)
    assert not r
    _same_outcome(r, check_lgl_reference(f, lam, h, 3))
    assert r.witness["monomial"] == (3, 0)


def test_a_product_that_cancels_keeps_the_order_of_the_reference():
    # d^2 f = y^2 + y, times (y - 1) cancels y^2 between y^3 and y; the
    # next factor must not see that key, or y^2 comes before y
    f = PolyVectorField.parse(["1/12*y1^4 + 1/6*y1^3"])
    args = (PolyVectorField.parse(["y1 - 1"]), PolyVectorField.parse(["1 + y1"]))
    got = apply_derivative(f, args)
    _same_field(got, apply_derivative_reference(f, args))
    assert list(got.components[0].terms) == [(3,), (4,), (1,), (2,)]


def test_int_fields_give_the_witness_types_of_the_reference():
    # int coefficients run as given; the weight Fraction(1) of a lone tree
    # still makes every value of either side a Fraction
    def field(*comps):
        return PolyVectorField([Poly(c, 2) for c in comps])

    f = ButcherTable({1: field({(2, 0): 1, (0, 1): 1}, {(1, 1): 1}), 2: field({(0, 2): 1}, {(1, 0): 1, (0, 0): 1})})
    t = Tree(2, (leaf(1),))
    butcher(f, t)
    f.cache[t] = f.cache[t] + field({(3, 0): 1}, {})
    r = check_lgl(f, leaf(1), leaf(2), 2)
    assert not r
    _same_outcome(r, check_lgl_reference(f, leaf(1), leaf(2), 2))
    assert type(r.witness["lhs"]) is Q
