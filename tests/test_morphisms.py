from fractions import Fraction

import pytest

from hopfpath.hopf import HElem, convolve, pair
from hopfpath.morphisms import (
    MorphismTable,
    iota,
    iota_elem,
    phi_g,
    phi_g_adjoint,
    psi,
    psi_adjoint,
    verify_hopf_morphism,
)
from hopfpath.tensor import EMPTY_WORD, TensorElem, Word, enumerate_words, word_of_labels
from hopfpath.trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    chain,
    enumerate_forests,
    enumerate_trees,
    graft,
    leaf,
)


def h_tree(t, d):
    return HElem.from_tree(t, d)


def words(d, *terms, n=1):
    out: dict = {}
    for w, c in terms:
        out[w] = out.get(w, 0) + Fraction(c)
    return TensorElem(out, d, n)


# -- phi_g -----------------------------------------------------------------


def test_phi_g_pinned():
    assert phi_g(HElem.unit(2)) == TensorElem.unit(2)
    assert phi_g(h_tree(leaf(1), 2)) == words(2, (word_of_labels([1]), 1))
    x = HElem.from_forest(Forest((leaf(1), leaf(2))), 2)
    assert phi_g(x) == words(2, (word_of_labels([1, 2]), 1), (word_of_labels([2, 1]), 1))
    cherry = graft([leaf(1), leaf(2)], 3)
    assert phi_g(h_tree(cherry, 3)) == words(
        3, (word_of_labels([1, 2, 3]), 1), (word_of_labels([2, 1, 3]), 1)
    )
    assert phi_g(h_tree(chain([1, 2, 3]), 3)) == words(3, (word_of_labels([1, 2, 3]), 1))


def test_phi_g_equal_labels_multiplicity():
    x = HElem.from_forest(Forest((leaf(1), leaf(1))), 1)
    assert phi_g(x) == words(1, (word_of_labels([1, 1]), 2))


# -- psi -------------------------------------------------------------------


def test_psi_pinned():
    assert psi(h_tree(leaf(1), 2), 1) == words(2, (Word((leaf(1),)), 1))
    t = graft([leaf(2)], 1)
    assert psi(h_tree(t, 2), 2) == words(
        2,
        (Word((leaf(2), leaf(1))), 1),
        (Word((t,)), 1),
        n=2,
    )
    cherry = graft([leaf(1), leaf(1)], 1)
    b = leaf(1)
    ladder = graft([b], 1)
    assert psi(h_tree(cherry, 1), 3) == words(
        1,
        (Word((cherry,)), 1),
        (Word((b, b, b)), 2),
        (Word((b, ladder)), 2),
        n=3,
    )


def test_psi_grade_overflow():
    with pytest.raises(ValueError):
        psi(h_tree(chain([1, 1, 1]), 1), 2)


def test_images_are_graded():
    for t in enumerate_trees(4, 2):
        for w in phi_g(h_tree(t, 2)).support():
            assert w.grade == t.grade
            assert w.max_letter_grade() == 1
        for w in psi(h_tree(t, 2), 4).support():
            assert w.grade == t.grade


def test_psi_is_tree_plus_smaller_letters():
    for t in enumerate_trees(4, 2):
        img = psi(h_tree(t, 2), 4)
        rest = img - TensorElem.from_word(Word((t,)), 2, n=4)
        for w in rest.support():
            assert w.max_letter_grade() <= t.grade - 1, t


# -- adjoints --------------------------------------------------------------


def test_psi_adjoint_single_letter_is_identity():
    for t in enumerate_trees(4, 2):
        got = psi_adjoint(Word((t,)), 4, d=2)
        assert got == HElem.from_tree(t, 2), t


def test_phi_g_adjoint_pinned():
    assert phi_g_adjoint(word_of_labels([1]), d=2) == HElem.from_tree(leaf(1), 2)
    got = phi_g_adjoint(word_of_labels([1, 2]), d=2)
    want = HElem(
        {
            Forest((leaf(1), leaf(2))): Fraction(1),
            Forest((graft([leaf(1)], 2),)): Fraction(1),
        },
        2,
    )
    assert got == want
    assert phi_g_adjoint(EMPTY_WORD, d=2) == HElem.unit(2)


def test_adjoints_turn_concatenation_into_convolution():
    letters = enumerate_trees(3, 2)
    for t1 in letters:
        for t2 in letters:
            if t1.grade + t2.grade > 4:
                continue
            via_word = psi_adjoint(Word((t1, t2)), 4, d=2)
            stars = convolve(
                psi_adjoint(Word((t1,)), 4, d=2), psi_adjoint(Word((t2,)), 4, d=2), 4
            )
            assert via_word == stars, (t1, t2)
    for a in (1, 2):
        for b in (1, 2):
            via_word = phi_g_adjoint(word_of_labels([a, b]), d=2)
            stars = convolve(
                phi_g_adjoint(word_of_labels([a]), d=2),
                phi_g_adjoint(word_of_labels([b]), d=2),
                2,
            )
            assert via_word == stars


def test_phi_adjoint_consistency_with_image():
    for t in enumerate_trees(4, 2):
        img = phi_g(h_tree(t, 2))
        x = h_tree(t, 2)
        for w, c in img.terms.items():
            assert pair(phi_g_adjoint(w, d=2), x) == c
    # a word absent from the image pairs to zero
    assert pair(phi_g_adjoint(word_of_labels([2, 2]), d=2), h_tree(graft([leaf(1)], 2), 2)) == 0


@pytest.mark.parametrize("N, d", [(3, 1), (3, 2), (4, 1)])
def test_psi_adjoint_consistency_with_image(N, d):
    # <psi*(w), h> = <w, psi(h)> on every forest and every tree-letter word
    images = {h: psi(HElem.from_forest(h, d), N) for h in enumerate_forests(N, d)}
    for w in enumerate_words(N, d, N):
        adj = psi_adjoint(w, N, d=d)
        for h, img in images.items():
            assert pair(adj, HElem.from_forest(h, d)) == img.coeff(w), (w, h)


# -- verification ----------------------------------------------------------


def test_verify_phi_g_passes():
    report = verify_hopf_morphism("phi_g", 4, 2)
    assert report["status"] == "pass"
    assert report["witness"] is None
    assert report["checked_forests"] == 143
    assert report["checked_pairs"] > 0


def test_verify_psi_passes():
    report = verify_hopf_morphism("psi", 4, 2)
    assert report["status"] == "pass"
    assert report["checked_forests"] == 143


def test_verify_catches_corruption():
    table = MorphismTable("psi", 3, 1)
    cherry = graft([leaf(1), leaf(1)], 1)
    table.cache[cherry] = table.cache[cherry].scale(2)
    report = verify_hopf_morphism("psi", 3, 1, table=table)
    assert report["status"] == "fail"
    assert report["witness"] is not None


def test_verify_rejects_unknown_name():
    with pytest.raises(ValueError):
        MorphismTable("psi_star", 2, 1)


def test_morphism_table_image_matches_direct():
    table = MorphismTable("phi_g", 3, 2)
    for f in (Forest((leaf(1), leaf(2))), Forest((graft([leaf(1)], 2), leaf(1)))):
        assert table.image(f) == phi_g(HElem.from_forest(f, 2))
    x = HElem.from_forest(Forest((leaf(1),)), 2) + HElem.from_forest(
        Forest((leaf(2), leaf(2))), 2
    ).scale(Fraction(1, 3))
    assert table.image_elem(x) == phi_g(x)


@pytest.mark.parametrize("which, direct", [("psi", lambda x: psi(x, 4)), ("phi_g", phi_g)])
def test_morphism_table_images_keep_the_direct_term_order(which, direct):
    # float pairings iterate images in insertion order, so the table and the
    # functions must agree term by term, not only as sets
    table = MorphismTable(which, 4, 2)
    forests = enumerate_forests(4, 2)
    for f in forests:
        assert list(table.image(f).terms.items()) == list(direct(HElem.from_forest(f, 2)).terms.items())
    x = HElem({f: Fraction(k + 1, 7) for k, f in enumerate(forests)}, 2)
    assert list(table.image_elem(x).terms.items()) == list(direct(x).terms.items())


# -- chain embedding -------------------------------------------------------


def test_iota():
    assert iota(word_of_labels([1, 2, 3])) == chain([1, 2, 3])
    assert iota(word_of_labels([2])) == leaf(2)
    with pytest.raises(ValueError):
        iota(EMPTY_WORD)
    with pytest.raises(ValueError):
        iota(Word((graft([leaf(1)], 1),)))


def test_iota_elem():
    x = phi_g(h_tree(chain([1, 2]), 2))
    got = iota_elem(x)
    assert got == HElem.from_tree(chain([1, 2]), 2)
    y = words(2, (EMPTY_WORD, 2), (word_of_labels([1, 2]), 3))
    assert iota_elem(y) == HElem(
        {EMPTY_FOREST: Fraction(2), Forest((chain([1, 2]),)): Fraction(3)}, 2
    )
