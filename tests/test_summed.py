"""Every builder that sums its terms through `linear.summed` against the
hand-written loop it replaced, kept in `oracles.py`.

Each builder must give its reference's terms bit for bit: the same keys in
the same order, and the same reprs, so the same scalar types and the same
values, floats to the last bit.  Coefficients are exact (ints and
Fractions), floats (with the unit as Fraction(1), as increments hold it),
mixed (any of the three per term), and the int unit among floats of
`test_kernels.py`, whose sum from Fraction(0) is a Fraction.  Grafting,
psi of a single tree and the parser take no coefficients to vary, so they
run in the exact mode only.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfpath import hopf
from hopfpath.expr import _Parser, parse_h, parse_tensor
from hopfpath.hopf import HElem, PairElem, forest_context
from hopfpath.morphisms import MorphismTable, _tree_rows, iota_elem, phi_g, psi
from hopfpath.tensor import EMPTY_WORD, TensorElem, WordPairElem, deconcat, enumerate_words
from hopfpath.trees import EMPTY_FOREST, Forest, enumerate_forests, enumerate_trees

import oracles
from test_kernels import _INT_UNIT_F, _INT_UNIT_W

EXACT, FLOATS, MIXED, INT_UNIT = "exact", "floats", "mixed", "int unit"
D = 2
FORESTS = enumerate_forests(3, D)
WORDS = enumerate_words(3, D, 2)
VERTEX_WORDS = enumerate_words(3, D, 1)


def _coefficient(draw, mode):
    exact = st.one_of(st.integers(-5, 5).filter(bool), st.fractions(-4, 4, max_denominator=9).filter(bool))
    floats = st.integers(-4000, 4000).filter(bool).map(lambda k: k / 997)
    return draw({EXACT: exact, FLOATS: floats, MIXED: st.one_of(exact, floats)}[mode])


def _terms(draw, mode, basis, unit) -> dict:
    """Sparse coefficients on basis, the unit first when drawn: in float
    mode as Fraction(1), as an increment holds it."""
    terms = {}
    if draw(st.booleans()):
        terms[unit] = Q(1) if mode == FLOATS else _coefficient(draw, mode)
    for k in draw(st.lists(st.sampled_from(basis[1:]), max_size=6, unique=True)):
        terms[k] = _coefficient(draw, mode)
    return terms


def _forests(draw, mode) -> HElem:
    if mode == INT_UNIT:
        return _INT_UNIT_F
    return HElem(_terms(draw, mode, FORESTS, EMPTY_FOREST), D)


def _words(draw, mode, basis=WORDS) -> TensorElem:
    if mode == INT_UNIT:
        return _INT_UNIT_W
    return TensorElem(_terms(draw, mode, basis, EMPTY_WORD), D, 2 if basis is WORDS else 1)


def _pairs(draw, mode) -> PairElem:
    """Forest pairs; in int-unit mode the unit pair is the int 1 among
    floats."""
    if mode == INT_UNIT:
        (unit, c), (leaf, v) = _INT_UNIT_F.terms.items()
        return PairElem({(unit, unit): c, (leaf, unit): v, (unit, leaf): v}, 1)
    low = enumerate_forests(2, D)
    keys = draw(st.lists(st.tuples(st.sampled_from(low), st.sampled_from(low)), max_size=6, unique=True))
    return PairElem({k: _coefficient(draw, mode) for k in keys}, D)


def _expression(draw) -> tuple:
    """A forest or a word expression with repeated and cancelling terms."""
    words = draw(st.booleans())
    monomials = [repr(k) for k in (WORDS if words else FORESTS)[1:]] + ["1", "0"]
    text = ""
    for i in range(draw(st.integers(1, 7))):
        mono = draw(st.sampled_from(monomials))
        if draw(st.booleans()):
            mono = f"{draw(st.fractions(0, 5, max_denominator=6))} * {mono}"
        text += f" {draw(st.sampled_from('+-'))} {mono}" if i else mono
    return words, text


def _product(draw, mode):
    x, y = _forests(draw, mode), _forests(draw, mode)
    return hopf.product(x, y), HElem(oracles.product_reference(x, y), x.d)


def _coproduct(draw, mode):
    x = _forests(draw, mode)
    ctx = forest_context(x.max_grade(), x.d)
    return hopf.coproduct(x), PairElem(oracles.coproduct_reference(x, ctx), x.d)


def _antipode(draw, mode):
    x = _forests(draw, mode)
    ctx = forest_context(x.max_grade(), x.d)
    return hopf.antipode(x), HElem(oracles.antipode_reference(x, ctx), x.d)


def _graft_product(draw, mode):
    trees = enumerate_trees(3, D)
    t1, t2 = draw(st.sampled_from(trees)), draw(st.sampled_from(trees))
    return hopf.graft_product(t1, t2, D), HElem(oracles.graft_product_reference(t1, t2), D)


def _componentwise_product(draw, mode):
    p, q = _pairs(draw, mode), _pairs(draw, mode)
    return p.componentwise_product(q), PairElem(oracles.componentwise_product_reference(p, q), p.d)


def _multiply_out(draw, mode):
    p = _pairs(draw, mode)
    return p.multiply_out(), HElem(oracles.multiply_out_reference(p), p.d)


def _map_left(draw, mode):
    p, y = _pairs(draw, mode), _forests(draw, mode)

    def fn(f):
        return hopf.product(HElem.from_forest(f, p.d), y)

    return p.map_left(fn), PairElem(oracles.map_left_reference(p, fn), p.d)


def _deconcat(draw, mode):
    x = _words(draw, mode)
    return deconcat(x), WordPairElem(oracles.deconcat_reference(x), x.d, x.n)


def _psi_image(draw, mode):
    h = _forests(draw, mode)
    ctx, rows = _tree_rows("psi", h.max_grade(), h.d)
    return psi(h, 3), TensorElem(oracles.image_reference(h.terms, rows, ctx), h.d, 3)


def _phi_g_image(draw, mode):
    h = _forests(draw, mode)
    ctx, rows = _tree_rows("phi_g", h.max_grade(), h.d)
    return phi_g(h), TensorElem(oracles.image_reference(h.terms, rows, ctx), h.d, 1)


def _psi_tree_map(draw, mode):
    # the table's image of one tree, folded from its row of _tree_rows:
    # Fractions keyed by word
    t = draw(st.sampled_from(enumerate_trees(4, D)))
    return MorphismTable("psi", 4, D).image(Forest((t,))), oracles.psi_tree_reference(t)


def _iota_elem(draw, mode):
    x = _words(draw, mode, VERTEX_WORDS)
    return iota_elem(x), HElem(oracles.iota_elem_reference(x), x.d)


def _parsed(draw, mode):
    words, text = _expression(draw)
    parser = _Parser(text, D)
    if words:
        want = oracles.parser_terms_reference(parser, lambda: parser.word_monomial(2), EMPTY_WORD)
        return parse_tensor(text, D, 2), TensorElem(want, D, 2)
    want = oracles.parser_terms_reference(parser, parser.forest_monomial, EMPTY_FOREST)
    return parse_h(text, D), HElem(want, D)


MODES = (EXACT, FLOATS, MIXED, INT_UNIT)
BUILDERS = {
    "product": (_product, MODES),
    "coproduct": (_coproduct, MODES),
    "antipode": (_antipode, MODES),
    "graft_product": (_graft_product, (EXACT,)),
    "componentwise_product": (_componentwise_product, MODES),
    "multiply_out": (_multiply_out, MODES),
    "map_left": (_map_left, MODES),
    "deconcat": (_deconcat, MODES),
    "psi_image": (_psi_image, MODES),
    "phi_g_image": (_phi_g_image, MODES),
    "psi_tree": (_psi_tree_map, (EXACT,)),
    "iota_elem": (_iota_elem, MODES),
    "parse": (_parsed, (EXACT,)),
}
CASES = [(name, mode) for name, (_, modes) in BUILDERS.items() for mode in modes]


@pytest.mark.parametrize("name, mode", CASES, ids=[f"{name}-{mode}" for name, mode in CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_summed_builders_give_their_hand_written_loops_bit_for_bit(name, mode, data):
    build, _ = BUILDERS[name]
    got, want = build(data.draw, mode)
    got, want = dict(getattr(got, "terms", got)), dict(getattr(want, "terms", want))
    assert list(got) == list(want)
    assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]

