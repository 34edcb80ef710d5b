"""Branched-to-geometric encoding, its certificate, and the level-2 shortcut."""

import re
import struct
from fractions import Fraction as Q

import pytest

from hopfpath import conversion
from hopfpath.conversion import (
    ConversionError,
    SimplifiedDriver,
    base_path_of,
    certify,
    encode,
    extract_extended_path,
    simplify_n2,
)
from hopfpath.hopf import HElem, convolve
from hopfpath.linear import Context
from hopfpath.morphisms import psi
from hopfpath.roughpath import (
    FLOAT,
    RATIONAL,
    BranchedRoughPath,
    Grid,
    SampledPath,
    _lift_past_partial,
    _RoughPathBase,
    canonical_lift,
    embed_geometric,
    ito_lift,
    validate,
)
from hopfpath.tensor import Word, concat, is_tensor_group_like, word_context
from hopfpath.trees import Forest, Tree, leaf

from seams import count_calls, sweeps

B1, B2 = leaf(1), leaf(2)


def two_step_path():
    times = [Q(0), Q(1, 2), Q(1)]
    rows = [[Q(0), Q(0)], [Q(1, 2), Q(1, 3)], [Q(1), Q(1)]]
    return SampledPath.over_labels(times, rows, 2)


def walk_path_d1():
    times = [Q(k, 4) for k in range(5)]
    rows = [[Q(0)], [Q(1, 2)], [Q(1, 4)], [Q(5, 4)], [Q(2)]]
    return SampledPath.over_labels(times, rows, 1)


@pytest.fixture(scope="module")
def ito_n2():
    return ito_lift(two_step_path(), 2, Q(2, 5))


@pytest.fixture(scope="module")
def encoded_n2(ito_n2):
    return encode(ito_n2)


@pytest.fixture(scope="module")
def encoded_d1_n3():
    return encode(ito_lift(walk_path_d1(), 3, Q(3, 10)))


# -- extraction ------------------------------------------------------------


def test_base_path_recovers_components(ito_n2):
    p = base_path_of(ito_n2)
    assert p.component(B1) == (Q(0), Q(1, 2), Q(1))
    assert p.component(B2) == (Q(0), Q(1, 3), Q(1))


def test_extracted_cherry_is_ito_minus_area(ito_n2):
    p = two_step_path()
    partial = canonical_lift(base_path_of(ito_n2), 2)
    new = extract_extended_path(ito_n2, partial)
    # adjacent: left-point cherry value is 0, canonical area is half the
    # product, so the new component is minus that half
    for (i, j) in [(1, 2), (2, 1), (1, 1), (2, 2)]:
        tau = Tree(i, (leaf(j),))
        for k in range(2):
            dk = p.delta(k)
            assert new[tau][k] == -Q(1, 2) * dk[leaf(j)] * dk[leaf(i)]


def test_certify_fails_on_the_extension_of_a_wrong_path(ito_n2):
    # a partial lift over the wrong level-1 path breaks the precondition:
    # the extraction reads its adjacent increments regardless, and certify
    # catches the lift of the extended path
    times = [Q(0), Q(1, 2), Q(1)]
    wrong = SampledPath.over_labels(
        times, [[Q(0), Q(0)], [Q(1), Q(0)], [Q(2), Q(1)]], 2
    )
    new = extract_extended_path(ito_n2, canonical_lift(wrong, 2, ito_n2.gamma))
    taus = sorted(new)
    ext = wrong.extend(taus, [[sum(new[tau][:k], Q(0)) for k in range(3)] for tau in taus])
    cert = certify(ito_n2, canonical_lift(ext, 2, ito_n2.gamma))
    assert cert["status"] == "fail"
    assert [cert["witness"][f] for f in ("forest", "s", "t")] == ["b_1", "0", "1/2"]


def test_extraction_reads_adjacent_increments_only(ito_n2, monkeypatch):
    # no grid pair is folded: certify alone sweeps every pair
    def refused(self):
        raise AssertionError("pair_rows called")

    partial = canonical_lift(base_path_of(ito_n2), 2)
    monkeypatch.setattr(_RoughPathBase, "pair_rows", refused)
    new = extract_extended_path(ito_n2, partial)
    assert all(len(v) == 2 for v in new.values())


def test_extraction_grade_one_components_are_increments(encoded_n2, ito_n2):
    ext = encoded_n2.extended_path
    assert ext.component(B1) == base_path_of(ito_n2).component(B1)
    assert ext.component(B2) == base_path_of(ito_n2).component(B2)


def _stalling_walk(d, mode):
    """A dyadic walk of 5 steps: one where nothing moves, one where only
    b_d moves, so tree components vanish on whole steps or on some trees."""
    one = Q(1) if mode == RATIONAL else 1.0
    steps = [[1, -2], [0, 0], [0, 1], [3, -1], [-2, 2]]
    rows = [[0 * one] * d]
    for step in steps:
        rows.append([v + one * dv / 4 for v, dv in zip(rows[-1], step[2 - d :])])
    return SampledPath.over_labels([one * k / 5 for k in range(6)], rows, d, mode)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_base_path_keeps_the_scalar_type_of_the_mode(mode):
    # an absent letter on the standing step reads the Fraction zero, which
    # a float running sum absorbs
    path = _stalling_walk(2, mode)
    X = ito_lift(path, 2)
    assert Forest((B1,)) not in X.increments[1].terms
    got = base_path_of(X)
    assert got.values == path.values and got.basis == path.basis
    assert {type(v) for row in got.values for v in row} == {Q if mode == RATIONAL else float}


def _bits(c):
    return type(c), struct.pack("<d", c) if type(c) is float else c


def _same_lift(got, want):
    """The same letters, level, gamma and increments: keys in the same
    order, each the level-N word context's own word, with the same scalar
    types and, for floats, the same bits."""
    assert (got.letters, got.N, got.gamma, got.d, got.mode) == (want.letters, want.N, want.gamma, want.d, want.mode)
    ctx = word_context(want.N, want.d, want.letter_bound)
    assert len(got.increments) == len(want.increments)
    for g, h in zip(got.increments, want.increments):
        assert g.ctx == h.ctx
        assert list(g.terms) == list(h.terms)
        assert all(w is ctx.basis[ctx.index[w]] for w in g.terms)
        assert [_bits(c) for c in g.terms.values()] == [_bits(c) for c in h.terms.values()]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_final_lift_is_the_canonical_lift_of_the_extended_path(N, d, mode):
    # the last level's lift with the grade-N letters added, against a
    # fresh lift of the whole extended path: built inside encode for
    # certify, or left to the first read when nothing is swept
    X = ito_lift(_stalling_walk(d, mode), N)
    result, deferred = encode(X), encode(X, False, False)
    ext = result.extended_path
    assert deferred.extended_path.values == ext.values and deferred.extended_path.basis == ext.basis
    want = canonical_lift(ext, N, X.gamma)
    _same_lift(result.geometric, want)
    _same_lift(deferred.geometric, want)
    if N == 1:
        return
    lower = [t for t in ext.basis if t.grade < N]
    low = SampledPath(ext.grid, lower, [row[: len(lower)] for row in ext.values], mode)
    _same_lift(_lift_past_partial(canonical_lift(low, N, X.gamma), ext), want)
    # a grade-N letter standing still on a step has no word there
    tops = [Word((t,)) for t in ext.basis if t.grade == N]
    absent = [sum(w not in g.terms for w in tops) for g in want.increments]
    assert absent[1] == len(tops)
    assert d == 1 or any(0 < a < len(tops) for a in absent)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_encode_lifts_each_level_once(N, monkeypatch):
    # the last level's lift becomes the final one, so no lift repeats
    levels = []

    def counted(path, level, gamma=None):
        levels.append(level)
        return canonical_lift(path, level, gamma)

    X = ito_lift(walk_path_d2(3), N)
    monkeypatch.setattr(conversion, "canonical_lift", counted)
    encode(X, False, False)
    assert levels == (list(range(2, N + 1)) or [1])
    assert len(levels) == max(N - 1, 1)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_the_final_lift_is_built_once_and_only_when_read(mode, monkeypatch):
    # the criterion-09 chain reads plain_lift and the extended path only
    X = ito_lift(_stalling_walk(2, mode), 2)
    built = count_calls(monkeypatch, _lift_past_partial)
    result = encode(X, False, False)
    sd = simplify_n2(result)
    sd.symmetric_path(1, 2)
    sd.covariation(1, 1)
    assert built == {"_lift_past_partial": 0}
    first = result.geometric
    assert built == {"_lift_past_partial": 1}
    assert result.geometric is first and built == {"_lift_past_partial": 1}
    encode(X)
    assert built == {"_lift_past_partial": 2}


def test_encode_refuses_a_float_path_too_large_for_its_final_lift():
    # the plain letter fits a level-2 lift, so ito_lift takes it; the
    # cherry letter's column adds 1.5e200 of variation, which encode
    # refuses itself, though nothing reads the final lift
    path = SampledPath.over_labels([0.0, 1.0, 2.0, 3.0], [[0.0], [1e100], [2e100], [3e100]], 1, FLOAT)
    X = ito_lift(path, 2)
    with pytest.raises(ValueError, match=r"^the path varies by 1\.5e\+200 in total, too much for a float lift at level 2$"):
        encode(X, False, False)


# -- encode and certificate ------------------------------------------------


def test_encode_certificate_passes_exactly(encoded_n2):
    cert = encoded_n2.certificate
    assert cert["status"] == "pass"
    assert cert["checked_forests"] == 10
    assert cert["checked_pairs"] == 3
    assert cert["witness"] is None


def test_encode_d1_n3_certificate(encoded_d1_n3):
    cert = encoded_d1_n3.certificate
    assert cert["status"] == "pass"
    # unit, b, bb, [b], bbb, b[b], [bb], [[b]]
    assert cert["checked_forests"] == 8
    assert cert["checked_pairs"] == 10


def test_pinned_level2_identity(encoded_n2, ito_n2):
    # <X, [b_j]_i> = <Xbar, b_j (x) b_i + [b_j]_i> on every pair
    Xbar = encoded_n2.geometric
    for i in range(1, 3):
        for j in range(1, 3):
            tau = Tree(i, (leaf(j),))
            for s in range(3):
                for t in range(s + 1, 3):
                    lhs = ito_n2.increment(s, t).coeff(Forest((tau,)))
                    g = Xbar.increment(s, t)
                    rhs = g.coeff(Word((leaf(j), leaf(i)))) + g.coeff(Word((tau,)))
                    assert lhs == rhs


def test_single_letter_words_match_extended_increments(encoded_n2):
    ext = encoded_n2.extended_path
    for k, g in enumerate(encoded_n2.geometric.increments):
        delta = ext.delta(k)
        for t in ext.basis:
            assert g.coeff(Word((t,))) == delta[t]


def test_geometric_input_encodes_idempotently():
    p = two_step_path()
    X = embed_geometric(canonical_lift(p, 3))
    res = encode(X)
    ext = res.extended_path
    for t in ext.basis:
        if t.grade >= 2:
            assert all(v == 0 for v in ext.component(t))
    assert res.certificate["status"] == "pass"


def test_level_monotonicity(encoded_d1_n3):
    # dropping the grade-3 columns and relifting reproduces the coefficients
    # of every word whose letters stay below grade 3
    ext = encoded_d1_n3.extended_path
    keep = [t for t in ext.basis if t.grade <= 2]
    low = SampledPath(
        ext.grid,
        keep,
        [[row[ext.basis.index(t)] for t in keep] for row in ext.values],
        ext.mode,
    )
    relift = canonical_lift(low, 3)
    for g_low, g_full in zip(relift.increments, encoded_d1_n3.geometric.increments):
        for w, c in g_low.terms.items():
            assert g_full.coeff(w) == c


def test_truncated_input_gives_same_lower_levels(encoded_d1_n3):
    X3 = ito_lift(walk_path_d1(), 3, Q(3, 10))
    X2 = BranchedRoughPath(
        2, X3.gamma, X3.grid, [g.truncate(2) for g in X3.increments], 1, X3.mode
    )
    res2 = encode(X2)
    ext3 = encoded_d1_n3.extended_path
    for t in res2.extended_path.basis:
        assert res2.extended_path.component(t) == ext3.component(t)


def test_certify_failure_gives_witness(ito_n2, encoded_n2):
    bad_terms = dict(ito_n2.increments[0].terms)
    bad_terms[Forest((Tree(1, (B2,)),))] = Q(7)
    bad = BranchedRoughPath(
        2,
        ito_n2.gamma,
        ito_n2.grid,
        [HElem(bad_terms, 2), ito_n2.increments[1]],
        2,
        ito_n2.mode,
    )
    cert = certify(bad, encoded_n2.geometric)
    assert cert["status"] == "fail"
    w = cert["witness"]
    assert w is not None
    assert set(w) == {"forest", "s", "t", "branched_value", "geometric_value"}
    assert w["branched_value"] != w["geometric_value"]


def test_float_certify_reads_an_absent_forest_as_zero():
    # b_1 b_2 deleted from the first float increment: X's row for the pair
    # (0, 1/4) lacks it, and the witness prints its value as 0
    times = [k / 4 for k in range(5)]
    rows = [[0.0, 0.0], [0.5, -0.25], [0.25, 0.5], [1.25, 0.75], [2.0, 1.0]]
    X = ito_lift(SampledPath.over_labels(times, rows, 2, mode="float"), 2, 0.4)
    Xbar = encode(X, False, False).geometric
    h = Forest((B1, B2))
    increments = list(X.increments)
    increments[0] = HElem({k: v for k, v in increments[0].terms.items() if k != h}, 2)
    bad = BranchedRoughPath(2, X.gamma, X.grid, increments, 2, X.mode)
    assert certify(bad, Xbar) == {
        "status": "fail",
        "checked_forests": 10,
        "checked_pairs": 1,
        "witness": {"forest": "b_1 b_2", "s": "0.0", "t": "0.25", "branched_value": "0", "geometric_value": "-0.125"},
    }


def walk_path_d2(M):
    times = [Q(k, M) for k in range(M + 1)]
    rows = [[Q(k % 3, 2), Q(k * k % 5, 3)] for k in range(M + 1)]
    return SampledPath.over_labels(times, rows, 2)


def test_encode_composes_each_geometric_pair_at_most_once(monkeypatch):
    # one certify sweep of the final lift composes M(M-1)/2 pairs, each a
    # row fold step on the compiled kernels of both paths' contexts, and
    # the psi images are one call per grid pair; each level extracts its
    # components from adjacent increments only, no pair is composed as an
    # element, and the loop kernel is never run on either side
    M = 5
    X = ito_lift(walk_path_d2(M), 3)
    calls = count_calls(monkeypatch, convolve, concat, (Context, "times"))
    for flags, want in (((), M * (M - 1) // 2), ((False,), M * (M - 1) // 2), ((False, False), 0)):
        with sweeps() as compiled:
            encode(X, *flags)
        assert compiled == ({"kernel(f, g)": 2 * want, "kernel(v)": M * (M + 1) // 2} if want else {}), flags
        assert calls == {"convolve": 0, "concat": 0, "Context.times": 0}, flags


@pytest.mark.parametrize(
    "steps, times, message",
    [
        (3, None, "on Grid(0..1, 3 steps) and the geometric one on Grid(0..1, 4 steps)"),
        (6, None, "on Grid(0..1, 6 steps) and the geometric one on Grid(0..1, 4 steps)"),
        (4, [Q(k, 8) for k in range(5)], "on Grid(0..1/2, 4 steps) and the geometric one on Grid(0..1, 4 steps); time 1 is 1/8 against 1/4"),
    ],
    ids=["fewer steps", "more steps", "other times"],
)
def test_certify_refuses_paths_on_different_grids(steps, times, message, monkeypatch):
    # unchecked, these pass on 6 pairs, raise a bare IndexError, and pass
    # on X's times alone
    Y = ito_lift(walk_path_d2(4), 3)
    Xbar = encode(Y, False, False).geometric
    partial = canonical_lift(base_path_of(Y), 2)
    path = walk_path_d2(steps)
    if times is not None:
        path = SampledPath(Grid(times), path.basis, path.values)
    X = ito_lift(path, 3)
    monkeypatch.setattr(conversion, "enumerate_forests", None)  # refused before any work
    with pytest.raises(ValueError, match=re.escape("the branched path is " + message) + "$"):
        certify(X, Xbar)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        extract_extended_path(X, partial)


@pytest.mark.parametrize("forest", [Forest((B1, B2)), Forest((B1, B1, B1))], ids=repr)
def test_encode_checks_product_forests_once(forest):
    # a changed product coefficient leaves the adjacent increment no
    # character; b_1 b_1 b_1 at the top grade feeds no tree coefficient, so
    # only the certificate on forests can see it
    X = ito_lift(walk_path_d2(4), 3)
    terms = dict(X.increments[1].terms)
    assert forest in terms
    terms[forest] += 1
    increments = list(X.increments)
    increments[1] = HElem(terms, 2)
    bad = BranchedRoughPath(3, X.gamma, X.grid, increments, 2, X.mode)
    cert = encode(bad).certificate
    assert cert["status"] == "fail"
    with pytest.raises(ConversionError) as err:
        encode(bad, certify_result=False)
    w = cert["witness"]
    message = str(err.value)
    assert "\n" not in message
    for part in (w["forest"], w["s"], w["t"], w["branched_value"], w["geometric_value"]):
        assert part in message
    assert encode(bad, False, False).certificate == {"status": "skipped"}


def test_gamma_caveat_flagged_for_integer_reciprocal():
    X = ito_lift(two_step_path(), 2, Q(1, 2))
    cert = encode(X).certificate
    assert "gamma_caveat" in cert
    X2 = ito_lift(two_step_path(), 2, Q(2, 5))
    assert "gamma_caveat" not in encode(X2).certificate


def test_encode_float_mode():
    times = [k / 4 for k in range(5)]
    rows = [[0.0, 0.0], [0.5, -0.25], [0.25, 0.5], [1.25, 0.75], [2.0, 1.0]]
    p = SampledPath.over_labels(times, rows, 2, mode="float")
    res = encode(ito_lift(p, 2, 0.4))
    assert res.certificate["status"] == "pass"


def test_conversion_json(encoded_n2):
    obj = encoded_n2.to_obj()
    assert set(obj) == {"extended_path_csv", "geometric", "psi", "certificate"}
    assert obj["psi"]["[b_2]_1"] == "[b_2]_1 + b_2 (x) b_1"
    assert obj["psi"]["b_1"] == "b_1"
    assert obj["geometric"]["kind"] == "geometric"
    assert obj["extended_path_csv"].startswith("t,b_1,b_2,")
    import json

    json.loads(encoded_n2.to_json())


# -- level-2 simplification ------------------------------------------------


@pytest.mark.parametrize("N", [1, 3])
def test_simplify_requires_level_two(N, monkeypatch):
    result = encode(ito_lift(walk_path_d2(3), N), False, False)
    lifts = count_calls(monkeypatch, _lift_past_partial, canonical_lift)
    with pytest.raises(ValueError, match=f"^simplification applies at level 2 only, got {N}$"):
        simplify_n2(result)
    assert lifts == {"_lift_past_partial": 0, "canonical_lift": 0}


def test_simplify_symmetric_part_is_quadratic_covariation(encoded_n2):
    p = two_step_path()
    sd = simplify_n2(encoded_n2)
    assert sd.pairs == ((1, 1), (1, 2), (2, 2))
    for (k, l) in sd.pairs:
        qv = sum(p.delta(m)[leaf(k)] * p.delta(m)[leaf(l)] for m in range(2))
        assert sd.symmetric_path(k, l)[-1] == -qv
        assert sd.covariation(k, l)[-1] == qv
    with pytest.raises(KeyError):
        sd.symmetric_path(2, 1)


def test_simplify_xhat_stays_geometric(encoded_n2):
    sd = simplify_n2(encoded_n2)
    for g in sd.xhat.increments:
        assert is_tensor_group_like(g, 2)
    assert validate(sd.xhat)["chen"]["status"] == "pass"


def test_simplify_on_geometric_input_changes_nothing():
    p = two_step_path()
    res = encode(embed_geometric(canonical_lift(p, 2)))
    sd = simplify_n2(res)
    assert isinstance(sd, SimplifiedDriver)
    for row in sd.symmetric_increments:
        assert all(v == 0 for v in row.values())
    for g_hat, g_bar in zip(sd.xhat.increments, res.geometric.increments):
        for w, c in g_hat.terms.items():
            assert g_bar.coeff(w) == c


def test_simplify_word_correction_is_antisymmetric(encoded_n2):
    sd = simplify_n2(encoded_n2)
    ext = encoded_n2.extended_path
    Xbar = encoded_n2.geometric
    for k, (g_hat, g_bar) in enumerate(zip(sd.xhat.increments, Xbar.increments)):
        delta = ext.delta(k)
        for i in range(1, 3):
            for j in range(1, 3):
                w = Word((leaf(j), leaf(i)))
                corr = Q(1, 2) * (
                    delta[Tree(i, (leaf(j),))] - delta[Tree(j, (leaf(i),))]
                )
                assert g_hat.coeff(w) == g_bar.coeff(w) + corr
                assert g_hat.coeff(Word((leaf(i),))) == g_bar.coeff(Word((leaf(i),)))
