"""The compiled exact kernels against plain dict references.

`convolve`, `concat` and the psi pairing run index loops over a prepared
context, on integer numerators when the coefficients are exact.  Here they
are compared with the plain dict loops they replaced, written out in this
file: the same terms, the same insertion order and the same scalar types,
and in float mode the same bits.  The convolution reference takes its cuts
from the brute-force oracle, not from the library's coproduct tables.
Negative controls show that a single corrupted coefficient is still
reported, with the witness the plain dict loops gave.
"""

import functools
import hashlib
import math
import struct
from fractions import Fraction as Q
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopfpath
from hopfpath import hopf, morphisms, tensor
from hopfpath.conversion import certify, encode
from hopfpath.hopf import HElem, convolve
from hopfpath.morphisms import psi, verify_hopf_morphism
from hopfpath.rde import Poly
from hopfpath.roughpath import (
    FLOAT,
    GeometricRoughPath,
    SampledPath,
    _close,
    canonical_lift,
    ito_lift,
    validate,
)
from hopfpath.tensor import TensorElem, Word, concat, enumerate_words, word_context
from hopfpath.trees import EMPTY_FOREST, Forest, Tree, enumerate_forests, leaf

from oracles import forest_coproduct_oracle, row_pair_reference
from seams import planted, sweeps

EXACT, DYADIC, FLOATS = "exact", "dyadic", "floats"


@functools.lru_cache(maxsize=None)
def _oracle_cuts(h: Forest) -> tuple:
    return tuple(forest_coproduct_oracle(h).items())


def convolve_reference(f: HElem, g: HElem, N: int) -> dict:
    out = {}
    for h in enumerate_forests(N, f.d):
        total = Q(0)
        for (a, b), cnt in _oracle_cuts(h):
            ca = f.terms.get(a)
            if not ca:
                continue
            cb = g.terms.get(b)
            if not cb:
                continue
            total += cnt * ca * cb
        if total != 0:
            out[h] = total
    return out


def concat_reference(x: TensorElem, y: TensorElem, N: int) -> dict:
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            if w1.grade + w2.grade > N:
                continue
            w = Word(w1.letters + w2.letters)
            out[w] = out.get(w, Q(0)) + c1 * c2
    return {w: c for w, c in out.items() if c != 0}


def pair_reference(a_terms: dict, b_terms: dict):
    if len(a_terms) > len(b_terms):
        a_terms, b_terms = b_terms, a_terms
    total = 0
    for w, c in a_terms.items():
        v = b_terms.get(w)
        if v is not None:
            total += c * v
    return total


def _coefficient(draw, mode):
    """Exact: a Fraction or an int.  Dyadic: a float with few bits, so every
    sum is exact in any order.  Floats: quotients by a prime, whose sums
    round differently in different orders."""
    if mode == EXACT:
        if draw(st.booleans()):
            return draw(st.integers(-5, 5))
        return Q(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
    if mode == DYADIC:
        return draw(st.integers(-16, 16)) / 8
    return draw(st.integers(-4000, 4000)) / 997


def _terms(draw, basis, unit, mode, max_size):
    """Random sparse coefficients on a basis whose first element is the
    unit, which comes first when drawn.  Float elements may hold the unit as
    Fraction(1), as increments do, or as the int 1, as a library caller may
    write it."""
    terms = {}
    if draw(st.booleans()):
        c = _coefficient(draw, mode)
        terms[unit] = c if mode == EXACT else draw(st.sampled_from((c, Q(1), 1)))
    rest = basis[1:]
    keys = draw(st.lists(st.sampled_from(rest), max_size=max_size, unique=True)) if rest else []
    for k in keys:
        terms[k] = _coefficient(draw, mode)
    return terms


def _same(got: dict, want: dict, mode):
    assert list(got) == list(want)
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
    if mode == FLOATS:
        for k in want:
            assert math.isclose(got[k], want[k], rel_tol=1e-12, abs_tol=1e-12)
    else:
        assert [got[k] for k in want] == list(want.values())


@st.composite
def convolve_cases(draw):
    mode = draw(st.sampled_from((EXACT, DYADIC, FLOATS)))
    N = draw(st.integers(0, 5))
    d = draw(st.integers(1, 2))
    # forests one grade above N lie outside the context and must be ignored;
    # low grades are drawn more often so that products meet
    wide = enumerate_forests(min(N + 1, 5), d)
    low = enumerate_forests(min(N, 2), d)
    f = {**_terms(draw, low, EMPTY_FOREST, mode, 8), **_terms(draw, wide, EMPTY_FOREST, mode, 12)}
    g = {**_terms(draw, low, EMPTY_FOREST, mode, 8), **_terms(draw, wide, EMPTY_FOREST, mode, 12)}
    return mode, N, HElem(f, d), HElem(g, d)


# an int unit times an int unit among floats: the plain loop's Fraction(0)
# start makes that sum a Fraction
_INT_UNIT_F = HElem({EMPTY_FOREST: 1, Forest((leaf(1),)): 0.5}, 1)
_INT_UNIT_W = TensorElem({Word(): 1, Word((leaf(1),)): 0.5}, 1, 1)


@settings(max_examples=60, deadline=None)
@given(convolve_cases())
@example((FLOATS, 2, _INT_UNIT_F, _INT_UNIT_F))
def test_convolve_matches_oracle_reference(case):
    mode, N, f, g = case
    _same(convolve(f, g, N).terms, convolve_reference(f, g, N), mode)


@st.composite
def concat_cases(draw):
    mode = draw(st.sampled_from((EXACT, FLOATS)))
    n = draw(st.integers(1, 3))
    N = draw(st.integers(0, 4))
    d = draw(st.integers(1, 2))
    wide = enumerate_words(min(N + 1, 4), d, n)
    x = _terms(draw, wide, Word(), mode, 20)
    y = _terms(draw, wide, Word(), mode, 20)
    return mode, N, TensorElem(x, d, n), TensorElem(y, d, n)


@settings(max_examples=150, deadline=None)
@given(concat_cases())
@example((FLOATS, 2, _INT_UNIT_W, _INT_UNIT_W))
def test_concat_matches_plain_reference(case):
    mode, N, x, y = case
    got = concat(x, y, N).terms
    want = concat_reference(x, y, N)
    assert list(got) == list(want)
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
    # the same products summed in the same order: equal bit for bit
    assert list(got.values()) == list(want.values())


def _same_as_checked(got, want):
    """got, from a kernel through the trusted constructor, is what the
    checking constructor builds from its terms: the same class and context,
    keys, insertion order, scalar types and values, nothing pruned."""
    assert type(got) is type(want) and got.ctx == want.ctx
    assert list(got.terms) == list(want.terms)
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
    assert list(got.terms.values()) == list(want.terms.values())


@settings(max_examples=60, deadline=None)
@given(convolve_cases())
@example((FLOATS, 2, _INT_UNIT_F, _INT_UNIT_F))
def test_trusted_convolve_output_is_a_checked_forest_element(case):
    _, N, f, g = case
    got = convolve(f, g, N)
    _same_as_checked(got, HElem(got.terms, f.d))


@settings(max_examples=100, deadline=None)
@given(concat_cases())
@example((FLOATS, 2, _INT_UNIT_W, _INT_UNIT_W))
def test_trusted_concat_output_is_a_checked_word_element(case):
    _, N, x, y = case
    got = concat(x, y, N)
    # TensorElem re-runs its label and letter-grade checks
    _same_as_checked(got, TensorElem(got.terms, x.d, x.n))


def test_hand_built_out_of_range_words_still_raise():
    w = Word((leaf(1),))
    x = TensorElem({Word(): Q(1), w: Q(1, 2)}, 1, 1)
    assert concat(x, x, 3).terms[Word((leaf(1),) * 2)] == Q(1, 4)
    with pytest.raises(ValueError, match="out of range"):
        TensorElem({Word((leaf(2),)): Q(1)}, 1, 1)
    with pytest.raises(ValueError, match="grade above bound"):
        TensorElem({Word((Tree(1, (leaf(1),)),)): Q(1)}, 1, 1)


@st.composite
def pairing_cases(draw):
    mode = draw(st.sampled_from((EXACT, FLOATS)))
    N = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, min(N, 3)))
    h = draw(st.sampled_from(enumerate_forests(N, d)))
    image = psi(HElem.from_forest(h, d), N).terms
    words = enumerate_words(N, d, n)
    if draw(st.booleans()):
        # few terms or many, so either side can be the one iterated
        x = _terms(draw, words, Word(), mode, draw(st.sampled_from((2, 40))))
    else:
        # all but one of the image's words in a shuffled order: x is the
        # shorter side and every term of it is common
        inside = draw(st.permutations([w for w in image if w.max_letter_grade() <= n]))
        x = {w: _coefficient(draw, mode) for w in inside[1:]}
    return mode, N, d, n, image, TensorElem(x, d, n)


@settings(max_examples=150, deadline=None)
@given(pairing_cases())
def test_psi_pairing_matches_plain_reference(case):
    mode, N, d, n, image, x = case
    ctx = word_context(N, d, n)
    vec = ctx.row_of(x.terms)
    got = row_pair_reference(ctx.row_of(image), vec)
    want = pair_reference(image, x.terms)
    if vec.den is None:
        # the image enters with int coefficients: a float sum is the same
        # float, an exact one the same value (an int where all products are)
        assert got == want and isinstance(got, float) == isinstance(want, float)
        assert not isinstance(want, float) or struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert Q(got, vec.den) == want
        # what a certificate witness prints
        assert str(Q(got, vec.den)) == str(want)


@st.composite
def float_pairing_cases(draw):
    """An integer functional on words, its coefficients as Fractions, and a
    float row: floats everywhere, or a Fraction or int unit among them."""
    N = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    words = enumerate_words(N, d, 1)
    keys = draw(st.lists(st.sampled_from(words), max_size=30, unique=True))
    f = {w: Q(draw(st.integers(-6, 6).filter(bool))) for w in keys}
    x = _terms(draw, words, Word(), FLOATS, draw(st.sampled_from((2, 40))))
    x[draw(st.sampled_from(words[1:]))] = draw(st.integers(1, 4000)) / 997  # one float at least
    return N, d, f, TensorElem(x, d, 1)


@settings(max_examples=150, deadline=None)
@given(float_pairing_cases())
def test_int_coefficients_pair_with_a_float_row_as_their_fractions(case):
    N, d, f, x = case
    ctx = word_context(N, d, 1)
    row, vec = ctx.row_of(f), ctx.row_of(x.terms)
    assert row.den == 1 and all(type(c) is int for c in row.values.values()) and vec.den is None
    got, want = row_pair_reference(row, vec), pair_reference(f, x.terms)
    assert got == want and isinstance(got, float) == isinstance(want, float)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)


def poly_product_reference(p: Poly, q: Poly) -> dict:
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


POLY_SCALARS = {
    "fraction": st.fractions(min_value=-5, max_value=5, max_denominator=12),
    "int": st.integers(-6, 6),
    "float": st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    "mixed": st.one_of(st.integers(-6, 6), st.fractions(min_value=-5, max_value=5, max_denominator=12)),
}


@st.composite
def poly_pairs(draw):
    scalars = POLY_SCALARS[draw(st.sampled_from(sorted(POLY_SCALARS)))]
    nvars = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * nvars)
    p, q = (Poly(draw(st.dictionaries(exponents, scalars, max_size=6)), nvars) for _ in range(2))
    return p, q


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_poly_product_matches_plain_reference(case):
    p, q = case
    got = (p * q).terms
    want = poly_product_reference(p, q)
    assert list(got) == list(want)
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
    assert list(got.values()) == list(want.values())


def _float_walk(M, seed):
    rng = Random(seed)
    rows = [[0.0, 0.0]]
    for _ in range(M):
        rows.append([v + rng.gauss(0.0, 0.3) for v in rows[-1]])
    return SampledPath.over_labels([k / M for k in range(M + 1)], rows, 2, FLOAT)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_float_kernel_rounding_is_pinned():
    """Float sums round in the term order of the plain dict loops; these
    digests were taken from those loops.  They cover convolve (a composed
    Ito increment), concat (a composed canonical increment) and the psi
    pairing (the extended path and geometric lift that encode writes)."""
    X = ito_lift(_float_walk(8, 1), 3)
    assert _sha(repr(list(X.increment(0, 8).terms.items()))) == "e9b7d4309ae13fcf"
    G = canonical_lift(_float_walk(8, 2), 3)
    assert _sha(repr(list(G.increment(0, 8).terms.items()))) == "417ad10e5528038c"
    assert _sha(encode(X).to_json()) == "91e3e38c33bdb98f"


# -- negative controls --------------------------------------------------------


def _walk(M, seed):
    rng = Random(seed)
    rows = [[Q(0), Q(0)]]
    for _ in range(M):
        rows.append([v + rng.choice((Q(1, 2), Q(-1, 2))) for v in rows[-1]])
    return SampledPath.over_labels([Q(k, M) for k in range(M + 1)], rows, 2)


def test_perturbed_composed_increment_fails_chen():
    X = ito_lift(_walk(6, 3), 3)
    h = Forest((Tree(1, (Tree(2, (leaf(1),)),)),))
    g = X.increment(1, 4)
    with sweeps():
        chen = validate(planted(X, (1, 4), HElem({**g.terms, h: g.coeff(h) + Q(1, 2**40)}, 2)))["chen"]
    assert chen == {"status": "fail", "witness": (0, 1, 4), "checked_triples": 3}


def test_shifted_adjacent_increment_fails_certificate():
    X = ito_lift(_walk(6, 3), 3)
    Xbar = encode(X).geometric
    w = Word((leaf(1), leaf(2)))
    incs = list(Xbar.increments)
    g = incs[2]
    incs[2] = TensorElem({**g.terms, w: g.coeff(w) + Q(1, 1024)}, g.d, g.n)
    bad = GeometricRoughPath(Xbar.N, Xbar.gamma, Xbar.grid, incs, Xbar.d, Xbar.mode, Xbar.letters)
    with sweeps():
        cert = certify(X, bad)
    assert cert["status"] == "fail"
    assert cert["checked_pairs"] == 3
    assert cert["witness"] == {
        "forest": "[b_1]_2",
        "s": "0",
        "t": "1/2",
        "branched_value": "-1/4",
        "geometric_value": "-255/1024",
    }


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def test_float_certificate_flips_one_ulp_past_the_tolerance():
    """On a one-step path only the forest b_1 pairs with the word b_1.  A
    geometric value at the edge of the float tolerance passes and the next
    float up fails, exactly where _close flips."""
    path = SampledPath.over_labels([0.0, 1.0], [[0.0, 0.0], [0.75, -0.5]], 2, FLOAT)
    X = ito_lift(path, 2)
    Xbar = encode(X).geometric
    a = X.increments[0].coeff(Forest((leaf(1),)))
    # the largest float still close to a
    lo, hi = _float_bits(a), _float_bits(a + 1e-8)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _close(a, _from_bits(mid), FLOAT) else (lo, mid)
    edge, past = _from_bits(lo), _from_bits(hi)
    assert past == math.nextafter(edge, math.inf)
    w = Word((leaf(1),))
    g = Xbar.increments[0]

    def shifted(b):
        inc = TensorElem({**g.terms, w: b}, g.d, g.n)
        return GeometricRoughPath(Xbar.N, Xbar.gamma, Xbar.grid, [inc], Xbar.d, Xbar.mode, Xbar.letters)

    assert certify(X, shifted(edge))["status"] == "pass"
    cert = certify(X, shifted(past))
    assert cert["status"] == "fail"
    assert cert["witness"]["forest"] == "b_1"
    assert cert["witness"]["geometric_value"] == str(past)


# -- cache visibility -----------------------------------------------------------


def test_cache_sizes_grow_with_new_contexts(capsys):
    hopf.forest_context.cache_clear()
    tensor.word_context.cache_clear()
    before = hopfpath.cache_sizes()
    assert before["hopf.forest_context"] == 0 and before["tensor.word_context"] == 0
    assert {"trees.trees_of_grade", "tensor._shuffle_words", "morphisms._tree_rows"} <= set(before)
    f = HElem({EMPTY_FOREST: Q(1), Forest((leaf(1),)): Q(1, 2)}, 1)
    convolve(f, f, 2)
    x = TensorElem({Word(): Q(1), Word((leaf(1),)): Q(1, 3)}, 1, 1)
    # concat is a plain word loop and builds no context; the character test
    # reads the shuffle rows of one
    concat(x, x, 2)
    assert hopfpath.cache_sizes()["tensor.word_context"] == 0
    tensor.is_tensor_group_like(x, 2)
    after = hopfpath.cache_sizes()
    assert after["hopf.forest_context"] == 1 and after["tensor.word_context"] == 1
    assert all(after[k] >= v for k, v in before.items())
    # a single product or character test compiles nothing; an exact sweep of any size
    # compiles its context's kernel, reported by its term count
    assert after["hopf.forest_context(2, 1).kernel_terms"] == 0
    assert after["tensor.word_context(2, 1, 1).kernel_terms"] == 0
    validate(ito_lift(_walk(3, 1), 3))
    ctx = hopf.forest_context(3, 2)
    assert hopfpath.cache_sizes()["hopf.forest_context(3, 2).kernel_terms"] == ctx.kernel_terms == 153
    assert capsys.readouterr().out == ""


def test_cache_sizes_count_filled_context_rows(capsys):
    import gc
    from types import SimpleNamespace

    from hopfpath.cli import _suite_hopf

    hopf.forest_context.cache_clear()
    tensor.word_context.cache_clear()
    morphisms._tree_rows.cache_clear()  # its tables hold their contexts
    gc.collect()  # a context is reported until it is collected
    before = hopfpath.cache_sizes()
    assert not any(k.startswith(("tensor.word_context(", "hopf.forest_context(")) for k in before)
    verify_hopf_morphism("psi", 3, 1)
    _suite_hopf(SimpleNamespace(N=3, d=1, mutate=False), None)
    after = hopfpath.cache_sizes()
    for kind in ("shuffle", "split"):
        assert after[f"tensor.word_context(3, 1, 3).{kind}_rows"] > 0
    assert after["hopf.forest_context(3, 1).antipode_rows"] == len(hopf.forest_context(3, 1).basis)
    # the algebra checks make single products only: no kernel is compiled
    kernels = {k: v for k, v in after.items() if k.endswith(".kernel_terms")}
    assert "tensor.word_context(3, 1, 3).kernel_terms" in kernels and "hopf.forest_context(3, 1).kernel_terms" in kernels
    assert set(kernels.values()) == {0}
    verify_hopf_morphism("psi", 3, 1)
    assert hopfpath.cache_sizes() == after
    # a compiled kernel is counted on the context that holds it, once
    with sweeps():
        tensor.word_context(3, 1, 3).compiled()
        assert hopfpath.cache_sizes() == {**after, "tensor.word_context(3, 1, 3).kernel_terms": 22}
    assert hopfpath.cache_sizes() == after
    assert capsys.readouterr().out == ""
