"""The contract every linear-combination container keeps.

HElem, PairElem, TensorElem, WordPairElem and Poly share their linear
structure; each keeps its own zero for a missing key (Fraction(0) for the
algebra containers, 0 for polynomials).  Float-mode sums must keep their
term order and scalar types, since later float sums round in that order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfpath.hopf import HElem, PairElem
from hopfpath.linear import pair, summed
from hopfpath.rde import Poly
from hopfpath.tensor import EMPTY_WORD, TensorElem, Word, WordPairElem, word_context
from hopfpath.trees import EMPTY_FOREST, Forest, Tree, enumerate_forests, leaf

import oracles

B1, B2 = leaf(1), leaf(2)
F1, F2, F12 = Forest((B1,)), Forest((B2,)), Forest((B1, B2))
W1, W2, W12 = Word((B1,)), Word((B2,)), Word((B1, B2))

# (class, three distinct keys, its context, another context, missing-key zero)
CONTAINERS = [
    pytest.param(HElem, (F1, F2, F12), (2,), (3,), Fraction(0), id="HElem"),
    pytest.param(
        PairElem, ((F1, EMPTY_FOREST), (EMPTY_FOREST, F1), (F1, F2)), (2,), (1,), Fraction(0), id="PairElem"
    ),
    pytest.param(TensorElem, (W1, W2, W12), (2, 1), (2, 2), Fraction(0), id="TensorElem"),
    pytest.param(
        WordPairElem, ((W1, EMPTY_WORD), (EMPTY_WORD, W1), (W1, W2)), (2, 1), (3, 1), Fraction(0), id="WordPairElem"
    ),
    pytest.param(Poly, ((1, 0), (0, 1), (1, 1)), (2,), (3,), 0, id="Poly"),
]


def _typed(x) -> list:
    return [(k, c, type(c)) for k, c in x.terms.items()]


@pytest.mark.parametrize("cls, keys, ctx, other_ctx, zero", CONTAINERS)
def test_container_contract(cls, keys, ctx, other_ctx, zero):
    k1, k2, k3 = keys

    # zero coefficients of every scalar type are pruned
    assert cls({k1: 0, k2: 0.0, k3: Fraction(0)}, *ctx).terms == {}
    assert cls({k1: 0, k2: 1.5, k3: Fraction(0)}, *ctx).terms == {k2: 1.5}
    assert cls.zero(*ctx).is_zero()

    # a missing key reads as the class's own zero
    x = cls({k1: Fraction(1), k2: 0.5}, *ctx)
    missing = x.coeff(*k3) if cls in (PairElem, WordPairElem) else x.coeff(k3)
    assert missing == zero and type(missing) is type(zero)

    # contexts must agree
    y = cls({k2: 0.25, k3: 1.5}, *ctx)
    far = cls({k1: Fraction(1)}, *other_ctx)
    with pytest.raises(ValueError):
        x + far
    with pytest.raises(ValueError):
        x - far

    # float mode: self's keys first in self's order, then other's new keys;
    # a Fraction unit stays a Fraction, floats stay floats
    assert _typed(x + y) == [(k1, Fraction(1), Fraction), (k2, 0.75, float), (k3, 1.5, float)]
    # a key present only on the right of "-" starts from the class's zero
    assert _typed(x - y) == [(k1, Fraction(1), Fraction), (k2, 0.25, float), (k3, -1.5, float)]
    assert _typed(y - x) == [(k2, -0.25, float), (k3, 1.5, float), (k1, -Fraction(1), Fraction)]
    # an int among floats sums with the missing-key zero: a Fraction for the
    # algebra containers, an int for polynomials
    for combined in (y + cls({k1: 1}, *ctx), y - cls({k1: 1}, *ctx)):
        last_key, _, last_type = _typed(combined)[-1]
        assert last_key == k1 and last_type is type(zero + 1)
    assert _typed(x.scale(0.5)) == [(k1, 0.5, float), (k2, 0.25, float)]
    assert _typed(x.scale(Fraction(2))) == [(k1, Fraction(2), Fraction), (k2, 1.0, float)]
    assert _typed(3 * x) == _typed(x.scale(3))
    assert _typed(-x) == [(k1, -Fraction(1), Fraction), (k2, -0.5, float)]
    assert (x - x).is_zero() and x.scale(0).is_zero()

    # equality ignores insertion order and agrees with hashing
    a = cls({k1: Fraction(1, 2), k2: Fraction(-3)}, *ctx)
    b = cls({k2: Fraction(-3), k1: Fraction(1, 2), k3: 0}, *ctx)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, (a + y) - y}) == 1
    assert a != cls(dict(a.terms), *other_ctx)
    assert a != a.scale(2)
    assert a != dict(a.terms)


# the algebra containers: polynomials do not sum through `summed`
@pytest.mark.parametrize("cls, keys, ctx, other_ctx, zero", CONTAINERS[:-1])
def test_summed_adds_per_key_from_fraction_zero_in_first_seen_order(cls, keys, ctx, other_ctx, zero):
    a, b, c = keys
    got = summed([(a, 1), (b, 0.5), (a, 2), (c, 0), (b, -0.5)])
    assert list(got) == [a, b, c]
    assert [(v, type(v)) for v in got.values()] == [(3, Fraction), (0.0, float), (0, Fraction)]
    assert cls(got, *ctx).terms == {a: 3}  # zero totals kept: the container drops them


def test_editing_a_rows_scalars_leaves_the_row_as_it_was():
    # word context (3, 1, 3): a product row over den 1, and a float one,
    # once handed out their own values
    ctx = word_context(3, 1, 3)
    rows = [ctx.row_of({EMPTY_WORD: c, W1: c}) for c in (1, Fraction(1, 2), 0.5)]
    for a in rows:
        row = ctx.times(a, a)
        before = (row.den, dict(row.values))
        scalars = row.scalars()
        k = next(iter(scalars))
        scalars[k] += 1
        assert (row.den, row.values) == before
        assert row.scalars()[k] == scalars[k] - 1


def test_tensor_context_range_errors():
    with pytest.raises(ValueError, match="out of range"):
        TensorElem({Word((leaf(3),)): 1}, 2, 1)
    with pytest.raises(ValueError, match="grade above bound"):
        TensorElem({Word((Tree(1, (B1,)),)): 1}, 1, 1)
    # a zero coefficient is dropped before its word is range-checked
    assert TensorElem({Word((leaf(3),)): 0}, 2, 1).is_zero()
    with pytest.raises(ValueError):
        TensorElem({}, 0, 1)
    with pytest.raises(ValueError):
        TensorElem({}, 1, 0)
    with pytest.raises(ValueError):
        HElem({}, 0)


@pytest.mark.parametrize(
    "series, arg",
    [
        ("exp_star", lambda: HElem({F1: Fraction(1)}, 2)),
        ("log_star", lambda: HElem({EMPTY_FOREST: Fraction(1), F1: Fraction(1)}, 2)),
        ("tensor_exp", lambda: TensorElem({W1: Fraction(1)}, 2, 1)),
        ("tensor_log", lambda: TensorElem({EMPTY_WORD: Fraction(1), W1: Fraction(1)}, 2, 1)),
    ],
)
def test_exp_and_log_refuse_a_negative_level(series, arg):
    import hopfpath

    with pytest.raises(ValueError, match=r"^truncation level must be >= 0, got -1$"):
        getattr(hopfpath, series)(arg(), -1)


# ints, Fractions and floats, with the floats' edges: signed zeros (a
# product of subnormals underflows to one), subnormals, huge values and
# infinities
_SCALARS = st.one_of(
    st.integers(-5, 5),
    st.fractions(-4, 4, max_denominator=9),
    st.floats(allow_nan=False),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300, float("inf"), float("-inf"))),
)
# a forest container, whose zero is Fraction(0), and a polynomial, whose is 0
_BUILDERS = {
    "HElem": (lambda terms: HElem(terms, 2), enumerate_forests(2, 2)),
    "Poly": (lambda terms: Poly(terms, 2), [(i, j) for i in range(3) for j in range(3)]),
}


def _reprs(x) -> list:
    return [(k, repr(c)) for k, c in x.terms.items()]


@pytest.mark.parametrize("kind", list(_BUILDERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pair_and_difference_give_their_hand_written_loops_bit_for_bit(kind, data):
    # pair runs linear.dot and __sub__ adds the negation; both must give the
    # loops they replaced: the same keys in the same order, the same reprs
    build, keys = _BUILDERS[kind]
    x, y = (build(data.draw(st.dictionaries(st.sampled_from(keys), _SCALARS, max_size=len(keys)))) for _ in range(2))
    for f, h in ((x, y), (y, x)):
        assert repr(pair(f, h)) == repr(oracles.kronecker_pair_reference(f, h))
        got, want = f - h, oracles.difference_reference(f, h)
        assert type(got) is type(want) and got.ctx == want.ctx
        assert _reprs(got) == _reprs(want)
