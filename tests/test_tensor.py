from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfpath.linear import pair
from hopfpath.tensor import (
    EMPTY_WORD,
    TensorElem,
    Word,
    WordPairElem,
    concat,
    deconcat,
    enumerate_words,
    is_tensor_group_like,
    shuffle,
    tensor_exp,
    tensor_log,
    word_of_labels,
)
from hopfpath.trees import Tree, graft, leaf
from oracles import rational_solve


def e(*labels, d=2):
    return TensorElem.from_word(word_of_labels(labels), d)


def telem(d, *terms, n=1):
    out: dict = {}
    for w, c in terms:
        out[w] = out.get(w, 0) + Fraction(c)
    return TensorElem(out, d, n)


def w(*labels):
    return word_of_labels(labels)


# -- containers ------------------------------------------------------------


def test_word_grade_counts_total_tree_grade():
    t = graft([leaf(1)], 2)
    word = Word((leaf(1), t, leaf(2)))
    assert word.grade == 4
    assert len(word) == 3
    assert word_of_labels([1, 2, 1]).grade == 3


def test_word_validation():
    with pytest.raises(ValueError):
        TensorElem.from_word(w(1, 3), 2)
    with pytest.raises(ValueError):
        TensorElem.from_word(Word((graft([leaf(1)], 1),)), 2, n=1)
    TensorElem.from_word(Word((graft([leaf(1)], 1),)), 2, n=2)


def test_context_mismatch():
    with pytest.raises(ValueError):
        shuffle(e(1), e(1, d=3))
    with pytest.raises(ValueError):
        concat(e(1), TensorElem.from_word(w(1), 2, n=2), 3)


# -- shuffle ---------------------------------------------------------------


def test_shuffle_pinned_examples():
    assert shuffle(e(1), e(2)) == telem(2, (w(1, 2), 1), (w(2, 1), 1))
    got = shuffle(e(1, d=3), e(2, 3, d=3))
    assert got == telem(3, (w(1, 2, 3), 1), (w(2, 1, 3), 1), (w(2, 3, 1), 1))
    x = telem(2, (w(1, 2), 2), (w(1), 3))
    assert shuffle(TensorElem.unit(2), x) == x


def test_shuffle_same_letter_multiplicity():
    assert shuffle(e(1), e(1)) == telem(2, (w(1, 1), 2))
    got = shuffle(e(1, 1), e(1))
    assert got == telem(2, (w(1, 1, 1), 3))


def test_shuffle_commutes_and_associates():
    a = telem(2, (w(1), 1), (w(2, 1), 2))
    b = telem(2, (w(2), 1), (w(1, 2), Fraction(1, 3)))
    c = telem(2, (w(1), -1), (EMPTY_WORD, 1))
    assert shuffle(a, b) == shuffle(b, a)
    assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def test_shuffle_adds_grades():
    a = TensorElem.from_word(Word((graft([leaf(1)], 2),)), 2, n=2)
    b = TensorElem.from_word(w(1, 1), 2, n=2)
    for word in shuffle(a, b).support():
        assert word.grade == 4


# -- concat and deconcat ---------------------------------------------------


def test_concat_examples():
    assert concat(e(1), e(2), 2) == telem(2, (w(1, 2), 1))
    a = TensorElem.from_word(w(1, 2), 2, n=2)
    b = TensorElem.from_word(Word((graft([leaf(1)], 2),)), 2, n=2)
    assert concat(a, b, 3).is_zero()
    assert concat(a, b, 4) == TensorElem.from_word(
        Word((leaf(1), leaf(2), graft([leaf(1)], 2))), 2, n=2
    )


def test_concat_associative():
    xs = [
        telem(2, (w(1), 1), (w(2), 2)),
        telem(2, (w(2, 1), 1), (EMPTY_WORD, 1)),
        telem(2, (w(1), Fraction(-1, 2)), (w(1, 2), 1)),
    ]
    a, b, c = xs
    assert concat(concat(a, b, 4), c, 4) == concat(a, concat(b, c, 4), 4)


def test_deconcat_examples():
    got = deconcat(TensorElem.from_word(w(1, 2), 2))
    want = WordPairElem(
        {
            (w(1, 2), EMPTY_WORD): Fraction(1),
            (w(1), w(2)): Fraction(1),
            (EMPTY_WORD, w(1, 2)): Fraction(1),
        },
        2,
    )
    assert got == want
    t = graft([leaf(1), leaf(2)], 1)
    got = deconcat(TensorElem.from_word(Word((t,)), 2, n=3))
    assert got == WordPairElem(
        {
            (Word((t,)), EMPTY_WORD): Fraction(1),
            (EMPTY_WORD, Word((t,))): Fraction(1),
        },
        2,
        3,
    )


def test_deconcat_coassociative():
    for word in enumerate_words(4, 2):
        x = TensorElem.from_word(word, 2)
        left: dict = {}
        right: dict = {}
        for (a, b), c in deconcat(x).terms.items():
            for (u, v), c2 in deconcat(TensorElem.from_word(a, 2)).terms.items():
                left[(u, v, b)] = left.get((u, v, b), 0) + c * c2
            for (u, v), c2 in deconcat(TensorElem.from_word(b, 2)).terms.items():
                right[(a, u, v)] = right.get((a, u, v), 0) + c * c2
        assert left == right


def test_deconcat_is_shuffle_morphism():
    words = [word for word in enumerate_words(3, 2) if len(word) <= 3]
    for w1 in words[:12]:
        for w2 in words[:12]:
            x = TensorElem.from_word(w1, 2)
            y = TensorElem.from_word(w2, 2)
            lhs = deconcat(shuffle(x, y))
            rhs_terms: dict = {}
            for (a1, b1), c1 in deconcat(x).terms.items():
                for (a2, b2), c2 in deconcat(y).terms.items():
                    sh_left = shuffle(
                        TensorElem.from_word(a1, 2), TensorElem.from_word(a2, 2)
                    )
                    sh_right = shuffle(
                        TensorElem.from_word(b1, 2), TensorElem.from_word(b2, 2)
                    )
                    for u, cu in sh_left.terms.items():
                        for v, cv in sh_right.terms.items():
                            k = (u, v)
                            rhs_terms[k] = rhs_terms.get(k, 0) + c1 * c2 * cu * cv
            rhs = WordPairElem(rhs_terms, 2)
            assert lhs == rhs, (w1, w2)


def test_concat_deconcat_duality():
    words = enumerate_words(3, 2)
    for word in words:
        dec = deconcat(TensorElem.from_word(word, 2))
        for u in words:
            for v in words:
                if u.grade + v.grade != word.grade:
                    continue
                lhs = pair(
                    concat(TensorElem.from_word(u, 2), TensorElem.from_word(v, 2), 3),
                    TensorElem.from_word(word, 2),
                )
                assert lhs == dec.coeff(u, v)


# -- exp / log -------------------------------------------------------------


def test_tensor_exp_pinned():
    assert tensor_exp(TensorElem.zero(2), 3) == TensorElem.unit(2)
    c = Fraction(3, 2)
    got = tensor_exp(e(1).scale(c), 3)
    assert got == telem(
        2,
        (EMPTY_WORD, 1),
        (w(1), c),
        (w(1, 1), c * c / 2),
        (w(1, 1, 1), c * c * c / 6),
    )


def test_tensor_log_inverse():
    x = telem(2, (w(1), 1), (w(2), 1))
    assert tensor_log(tensor_exp(x, 3), 3) == x
    g = telem(2, (EMPTY_WORD, 1), (w(1), 2), (w(2, 1), Fraction(-1, 3)))
    assert tensor_exp(tensor_log(g, 3), 3) == g


def _commutator(x, y, N):
    return concat(x, y, N) - concat(y, x, N)


@pytest.mark.parametrize(
    "a, b",
    [
        (e(1), e(2)),
        (e(1) + e(2).scale(2), e(1).scale(Fraction(-1, 3)) + e(2, 1) - e(1, 2)),
    ],
    ids=["letters", "mixed-grades"],
)
def test_tensor_log_of_a_product_of_exponentials_is_bch(a, b):
    # every BCH term of degree four or more in (a, b) has grade above 3
    N = 3
    ab = _commutator(a, b, N)
    want = (
        a
        + b
        + ab.scale(Fraction(1, 2))
        + _commutator(a, ab, N).scale(Fraction(1, 12))
        - _commutator(b, ab, N).scale(Fraction(1, 12))
    )
    assert tensor_log(concat(tensor_exp(a, N), tensor_exp(b, N), N), N) == want
    assert not _commutator(a, ab, N).is_zero()


def test_tensor_exp_log_preconditions():
    with pytest.raises(ValueError):
        tensor_exp(TensorElem.unit(2), 2)
    with pytest.raises(ValueError):
        tensor_log(e(1), 2)


# -- group-like ------------------------------------------------------------


def test_is_tensor_group_like_examples():
    assert is_tensor_group_like(TensorElem.unit(2), 3)
    assert is_tensor_group_like(tensor_exp(e(1), 3), 3)
    bad = telem(2, (EMPTY_WORD, 1), (w(1), 1), (w(2), 1))
    assert not is_tensor_group_like(bad, 2)


def _bracket(x, y, N):
    return concat(x, y, N) - concat(y, x, N)


def test_exp_of_lie_element_is_group_like():
    N = 3
    e1, e2 = e(1), e(2)
    lie = (
        e1.scale(2)
        + e2.scale(Fraction(-1, 3))
        + _bracket(e1, e2, N).scale(Fraction(5, 7))
        + _bracket(e1, _bracket(e1, e2, N), N).scale(-1)
        + _bracket(e2, _bracket(e2, e1, N), N).scale(Fraction(1, 4))
    )
    assert is_tensor_group_like(tensor_exp(lie, N), N)


def test_log_of_shuffle_character_is_lie():
    # build a character without writing down a Lie element: concatenation
    # product of elementary exponentials
    N = 3
    g = concat(
        concat(tensor_exp(e(1), N), tensor_exp(e(2).scale(Fraction(1, 2)), N), N),
        tensor_exp(e(1).scale(-3), N),
        N,
    )
    assert is_tensor_group_like(g, N)
    ell = tensor_log(g, N)
    basis = [
        e(1),
        e(2),
        _bracket(e(1), e(2), N),
        _bracket(e(1), _bracket(e(1), e(2), N), N),
        _bracket(e(2), _bracket(e(2), e(1), N), N),
    ]
    words = [word for word in enumerate_words(N, 2) if not word.is_empty()]
    rows = [[b.coeff(word) for b in basis] for word in words]
    rhs = [ell.coeff(word) for word in words]
    assert rational_solve(rows, rhs) is not None


def test_log_of_non_character_is_not_lie():
    # same solve on a non-character: e_12 alone is not in the Lie span
    N = 2
    ell = telem(2, (w(1, 2), 1))
    basis = [e(1), e(2), _bracket(e(1), e(2), N)]
    words = [word for word in enumerate_words(N, 2) if not word.is_empty()]
    rows = [[b.coeff(word) for b in basis] for word in words]
    rhs = [ell.coeff(word) for word in words]
    assert rational_solve(rows, rhs) is None


# -- enumeration -----------------------------------------------------------


def test_enumerate_words_counts():
    # single-vertex alphabet: d^k words of length k
    assert len(enumerate_words(3, 2)) == 1 + 2 + 4 + 8
    # tree letters up to grade 2, d=1: letters b_1 and [b_1]_1
    words = enumerate_words(2, 1, n=2)
    assert len(words) == 1 + 1 + 2  # empty, (b), (bb), ([b])
    assert enumerate_words(0, 3) == (EMPTY_WORD,)


def test_enumerate_words_sorted_unique():
    words = enumerate_words(4, 2, n=2)
    assert len(set(words)) == len(words)
    assert list(words) == sorted(words, key=Word.sort_key)
