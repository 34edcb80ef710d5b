"""The compiled verify checks against the loops they replaced.

`verify_hopf_morphism` and the CLI's hopf suite run on integer position
tables: forest images as position maps over a word context, cut and
antipode rows over a forest context.  The plain `Fraction`/`TensorElem`
loops they replaced are written out here as references, and both are run on
corrupted morphism tables and on the hopf suite's negative control: the
same status, witness and counts are required.  Some corruptions add words
above the level, which the compiled check numbers past the context basis.
The references take their cut coproduct and antipode from the Forest
recursions in `oracles`, not from `hopf.coproduct`/`hopf.antipode`: those
read the rows under test.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hopfpath.cli import _suite_hopf
from hopfpath.hopf import HElem, PairElem, product
from hopfpath.morphisms import MorphismTable, verify_hopf_morphism
from hopfpath.tensor import TensorElem, Word, deconcat, shuffle
from hopfpath.trees import Tree, enumerate_forests, enumerate_trees, leaf
from oracles import _forest_coproduct, linear_antipode, linear_coproduct


def verify_reference(which, N, d, table):
    report = {
        "which": which,
        "N": N,
        "d": d,
        "status": "pass",
        "checked_forests": 0,
        "checked_pairs": 0,
        "witness": None,
    }
    forests = enumerate_forests(N, d)
    for h in forests:
        lhs = deconcat(table.image(h)).terms
        rhs = {}
        for a, b, cnt in _forest_coproduct(h):
            ia = table.image(a)
            ib = table.image(b)
            for wa, ca in ia.terms.items():
                for wb, cb in ib.terms.items():
                    key = (wa, wb)
                    rhs[key] = rhs.get(key, Fraction(0)) + cnt * ca * cb
        rhs = {k: v for k, v in rhs.items() if v != 0}
        if lhs != rhs:
            report["status"] = "fail"
            report["witness"] = f"coproduct morphism fails on {h!r}"
            return report
        report["checked_forests"] += 1
    for h1 in forests:
        if h1.is_unit():
            continue
        for h2 in forests:
            if h2.is_unit() or h1.grade + h2.grade > N:
                continue
            if shuffle(table.image(h1), table.image(h2)) != table.image(h1 * h2):
                report["status"] = "fail"
                report["witness"] = f"product morphism fails on {h1!r}, {h2!r}"
                return report
            report["checked_pairs"] += 1
    return report


def coproduct_reference(x):
    return PairElem(linear_coproduct(x.terms), x.d)


def antipode_reference(x):
    return HElem(linear_antipode(x.terms), x.d)


def _note_failure(res, invariant, where):
    res["failures"] = res.get("failures", 0) + 1
    if len(res["witnesses"]) < 5:
        res["witnesses"].append({"invariant": invariant, "at": where})


def hopf_suite_reference(N, d, mutate):
    res = {"N": N, "d": d, "status": "pass", "checked_forests": 0, "witnesses": []}

    def S(y):
        out = antipode_reference(y)
        if mutate:
            out = out + HElem.from_tree(leaf(1), d)
        return out

    for h in enumerate_forests(N, d):
        cp = coproduct_reference(HElem.from_forest(h, d))
        left = {}
        right = {}
        for (a, b), c in cp.terms.items():
            if a.grade + b.grade != h.grade:
                _note_failure(res, "coproduct grading", repr(h))
            for (u, v), c2 in coproduct_reference(HElem.from_forest(a, d)).terms.items():
                left[(u, v, b)] = left.get((u, v, b), 0) + c * c2
            for (u, v), c2 in coproduct_reference(HElem.from_forest(b, d)).terms.items():
                right[(a, u, v)] = right.get((a, u, v), 0) + c * c2
        if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
            _note_failure(res, "coassociativity", repr(h))
        acc = HElem.zero(d)
        for (a, b), c in cp.terms.items():
            acc = acc + product(S(HElem.from_forest(a, d)), HElem.from_forest(b, d)).scale(c)
        if acc != (HElem.unit(d) if h.is_unit() else HElem.zero(d)):
            _note_failure(res, "antipode convolution inverse", repr(h))
        res["checked_forests"] += 1
    if res["witnesses"]:
        res["status"] = "fail"
    return res


def _scaled(img):
    return img.scale(2)


def _half_added(img):
    terms = dict(img.terms)
    w = next(iter(terms))
    terms[w] += Fraction(1, 2)
    return TensorElem(terms, img.d, img.n)


def _word_dropped(img):
    terms = dict(img.terms)
    del terms[next(reversed(terms))]
    return TensorElem(terms, img.d, img.n)


def _word_added(img):
    # the first word said twice: twice the tree's grade, so above the level
    # for the larger trees
    w = next(iter(img.terms))
    return img + TensorElem({Word(w.letters * 2): Fraction(1)}, img.d, img.n)


CORRUPTIONS = {"scale": _scaled, "half": _half_added, "drop": _word_dropped, "add": _word_added}
LEVELS = [(4, 1), (3, 2)]


@pytest.mark.parametrize("N, d", LEVELS)
@pytest.mark.parametrize("which", ["psi", "phi_g"])
@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_corrupted_tables_give_the_reference_report(which, N, d, how):
    seen = set()
    for t in enumerate_trees(N, d):
        table = MorphismTable(which, N, d)
        table.cache[t] = CORRUPTIONS[how](table.cache[t])
        want = verify_reference(which, N, d, table)
        assert verify_hopf_morphism(which, N, d, table=table) == want, (t, how)
        seen.add(want["status"])
    assert "fail" in seen


@pytest.mark.parametrize("which", ["psi", "phi_g"])
def test_intact_tables_give_the_reference_report(which):
    table = MorphismTable(which, 4, 2)
    got = verify_hopf_morphism(which, 4, 2, table=table)
    assert got == verify_reference(which, 4, 2, table)
    assert got["status"] == "pass"


@pytest.mark.parametrize("N, d", [(3, 1), (4, 1), (3, 2)])
def test_a_morphism_of_mixed_grades_passes_as_in_the_reference(N, d):
    # psi followed by the alphabet change b_1 -> b_1 + [b_1]_1 is still a
    # Hopf morphism, but not a graded one: its forest images reach words
    # above the level, which the compiled check numbers past the basis
    old, new = leaf(1), Tree(1, (leaf(1),))
    table = MorphismTable("psi", N, d)
    for t, img in table.cache.items():
        terms = {}
        for w, c in img.terms.items():
            for letters in itertools.product(*[(x, new) if x == old else (x,) for x in w.letters]):
                terms[Word(letters)] = terms.get(Word(letters), 0) + c
        table.cache[t] = TensorElem(terms, d, N)
    got = verify_hopf_morphism("psi", N, d, table=table)
    assert got == verify_reference("psi", N, d, table)
    assert got["status"] == "pass"


@pytest.mark.parametrize("N, d", [(N, d) for N in range(1, 5) for d in (1, 2)])
@pytest.mark.parametrize("mutate", [False, True])
def test_hopf_suite_gives_the_reference_report(N, d, mutate):
    args = SimpleNamespace(N=N, d=d, mutate=mutate)
    got = _suite_hopf(args, None)
    assert got == hopf_suite_reference(N, d, mutate)
    assert got["status"] == ("fail" if mutate else "pass")
