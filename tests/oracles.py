"""Independent reference computations used to pin expected test values.

Everything here is written against first definitions, not against the library
internals: counting via the Euler transform of the fixed-point species
equation, coproducts via explicit vertex-subset enumeration, tree factorials
via per-vertex subtree sizes.  The Forest recursions for the cut coproduct
and the antipode that the library's forest context replaced are kept here
too, as the term-order references of its rows.  Keep this module free of
imports from hopfpath internals beyond the basic Tree/Forest containers,
with two exceptions.  `certify_reference` is the element-based sweep of
`conversion.certify` that the row fold replaced, kept verbatim as its
reference.  It pins the sweep, not the maps, so it reads psi, the paths'
increments and the pairing from the library, imported where it runs.  The
per-step loops of the lifts, `simplify_n2` and the Euler solvers, as they
ran before their fixed work was hoisted out of the step, are kept the same
way, and so are the loops that summed container terms by hand before
`linear.summed` (see "term sums by hand" below), the per-tree morphism
folds and the maps on them before `morphisms._tree_rows` (see "the
per-tree morphism folds"), and the pairing and difference loops of
`linear` before `linear.dot` and `Linear.__add__` took them over.  So is
the pairing of two `linear.Row`s, which left the package once only tests
read it (see "the row pairing" below).
"""

import functools
from fractions import Fraction

from hopfpath.trees import EMPTY_FOREST, Forest, Tree


# -- counting --------------------------------------------------------------
#
# Labelled rooted trees with d labels satisfy t(x) = d * x * F(x) where F is
# the forest (multiset) generating function, F = prod (1-x^n)^(-t_n).  The
# Euler transform turns the t_n into f_n:
#   c_k = sum over divisors j of k of j * t_j
#   m * f_m = sum_{k=1..m} c_k * f_{m-k}


def count_trees_and_forests(max_grade: int, d: int):
    t = [0] * (max_grade + 1)
    f = [0] * (max_grade + 1)
    f[0] = 1
    for n in range(1, max_grade + 1):
        t[n] = d * f[n - 1]
        c = [0] * (n + 1)
        for k in range(1, n + 1):
            for j in range(1, k + 1):
                if k % j == 0:
                    c[k] += j * t[j]
        f[n] = sum(c[k] * f[n - k] for k in range(1, n + 1)) // n
    return t, f


def count_trees(n: int, d: int) -> int:
    return count_trees_and_forests(n, d)[0][n]


def count_forests(n: int, d: int) -> int:
    return count_trees_and_forests(n, d)[1][n]


# -- flattened vertex view -------------------------------------------------


def _flatten(t: Tree):
    """DFS vertex arrays: labels[i], parent[i] (root = 0, parent -1)."""
    labels: list[int] = []
    parent: list[int] = []

    def visit(node: Tree, par: int):
        i = len(labels)
        labels.append(node.label)
        parent.append(par)
        for c in node.children:
            visit(c, i)

    visit(t, -1)
    return labels, parent


def _subtree(vertex: int, labels, children_of) -> Tree:
    return Tree(labels[vertex], tuple(_subtree(c, labels, children_of) for c in children_of[vertex]))


def coproduct_oracle(t: Tree) -> dict:
    """Cut coproduct of a single tree by brute force.

    A term per vertex subset S that is closed toward the root (the trunk);
    the complement splits into full subtrees (the pruned forest).  S empty
    gives t (x) 1, S everything gives 1 (x) t.
    """
    labels, parent = _flatten(t)
    m = len(labels)
    children_of: list[list[int]] = [[] for _ in range(m)]
    for v in range(1, m):
        children_of[parent[v]].append(v)

    out: dict = {}
    for mask in range(1 << m):
        S = [v for v in range(m) if mask >> v & 1]
        in_S = [bool(mask >> v & 1) for v in range(m)]
        if S and not in_S[0]:
            continue
        if any(v != 0 and not in_S[parent[v]] for v in S):
            continue
        if S:
            trunk_children: list[list[int]] = [
                [c for c in children_of[v] if in_S[c]] for v in range(m)
            ]
            trunk = Forest((_subtree(0, labels, trunk_children),))
            pruned_roots = [v for v in range(m) if not in_S[v] and in_S[parent[v]]]
        else:
            trunk = EMPTY_FOREST
            pruned_roots = [0]
        pruned = Forest(_subtree(v, labels, children_of) for v in pruned_roots)
        key = (pruned, trunk)
        out[key] = out.get(key, 0) + 1
    return out


def forest_coproduct_oracle(f: Forest) -> dict:
    """Multiplicative extension of coproduct_oracle."""
    acc = {(EMPTY_FOREST, EMPTY_FOREST): 1}
    for t in f.factors:
        single = coproduct_oracle(t)
        nxt: dict = {}
        for (a, b), c1 in acc.items():
            for (x, y), c2 in single.items():
                key = (a * x, b * y)
                nxt[key] = nxt.get(key, 0) + c1 * c2
        acc = nxt
    return acc


# -- the cut coproduct and antipode by recursion --------------------------
#
# The Forest-level recursions the library ran before its forest context's
# integer rows replaced them, kept verbatim: the context's cut and antipode
# rows must equal these tuples element for element, order included.


@functools.lru_cache(maxsize=None)
def _tree_coproduct(t: Tree) -> tuple:
    """Cut coproduct of a single tree as ((left forest, right forest, count), ...).

    Recursion: for t = [f]_a with child forest f,
    delta t = t (x) 1 + sum f^(1) (x) [f^(2)]_a over delta f,
    where delta f multiplies the child coproducts.  The 1 (x) t term arises
    from every child contributing its 1 (x) child part.
    """
    whole = Forest((t,))
    out: dict = {(whole, EMPTY_FOREST): 1}
    for left, right, cnt in _forest_coproduct(Forest(t.children)):
        trunk = Forest((Tree(t.label, right.factors),))
        key = (left, trunk)
        out[key] = out.get(key, 0) + cnt
    return tuple((a, b, c) for (a, b), c in out.items())


@functools.lru_cache(maxsize=None)
def _forest_coproduct(f: Forest) -> tuple:
    """Multiplicative extension of the tree coproduct to a forest."""
    acc: dict = {(EMPTY_FOREST, EMPTY_FOREST): 1}
    for t in f.factors:
        nxt: dict = {}
        for (a, b), cnt in acc.items():
            for ta, tb, tc in _tree_coproduct(t):
                key = (a * ta, b * tb)
                nxt[key] = nxt.get(key, 0) + cnt * tc
        acc = nxt
    return tuple((a, b, c) for (a, b), c in acc.items())


@functools.lru_cache(maxsize=None)
def _tree_antipode(t: Tree) -> tuple:
    """S(t) as ((forest, integer coefficient), ...).

    Graded recursion from the bialgebra axioms:
    S(t) = -t - sum S(h1) * h2 over non-trivial cuts h1 (x) h2 of t.
    """
    out: dict = {Forest((t,)): -1}
    whole = Forest((t,))
    for left, right, cnt in _tree_coproduct(t):
        if left == whole or right == whole or left.is_unit() or right.is_unit():
            # skip t (x) 1 and 1 (x) t: only the reduced part enters
            continue
        s_left = _forest_antipode(left)
        for f1, c1 in s_left:
            k = f1 * right
            out[k] = out.get(k, 0) - cnt * c1
    return tuple(out.items())


@functools.lru_cache(maxsize=None)
def _forest_antipode(f: Forest) -> tuple:
    """S on a forest basis element: algebra morphism, product of tree images."""
    acc: dict = {EMPTY_FOREST: 1}
    for t in f.factors:
        nxt: dict = {}
        for g, c in acc.items():
            for h, c2 in _tree_antipode(t):
                k = g * h
                nxt[k] = nxt.get(k, 0) + c * c2
        acc = nxt
    return tuple(acc.items())


def linear_coproduct(terms: dict) -> dict:
    """The cut coproduct of {forest: coefficient} as {(left, right): total},
    summed from Fraction(0) in term order, then in each forest's cut order."""
    out: dict = {}
    for f, c in terms.items():
        for a, b, cnt in _forest_coproduct(f):
            out[a, b] = out.get((a, b), Fraction(0)) + c * cnt
    return out


def linear_antipode(terms: dict) -> dict:
    """The antipode of {forest: coefficient} as {forest: total}, summed
    from Fraction(0) in term order, then in each forest's antipode order."""
    out: dict = {}
    for f, c in terms.items():
        for g, cnt in _forest_antipode(f):
            out[g] = out.get(g, Fraction(0)) + c * cnt
    return out


def rational_solve(rows, rhs):
    """Solve A x = b exactly by Gaussian elimination over Fraction.

    rows: list of coefficient lists, rhs: list.  Returns one solution with
    free variables set to 0, or None if inconsistent.
    """
    from fractions import Fraction

    m = len(rows)
    ncols = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = a[i][ncols]
    return x


def symmetry_factor(x) -> int:
    """Order of the automorphism group: permutations of equal siblings."""
    if isinstance(x, Tree):
        return symmetry_factor(Forest(x.children))
    out = 1
    run = 1
    for prev, cur in zip(x.factors, x.factors[1:]):
        run = run + 1 if prev == cur else 1
        out *= run
    for t in x.factors:
        out *= symmetry_factor(t)
    return out


def tree_factorial_oracle(t: Tree) -> int:
    """Product over vertices of the size of the subtree hanging there."""
    labels, parent = _flatten(t)
    m = len(labels)
    size = [1] * m
    for v in range(m - 1, 0, -1):
        size[parent[v]] += size[v]
    out = 1
    for s in size:
        out *= s
    return out


def mixed_derivative_oracle(evalf, y, vectors, degree_bound: int = 6):
    """D^n evalf : (v_1, ..., v_n) at y, by interpolation alone.

    Samples F(s_1, .., s_n) = evalf(y + sum_m s_m v_m) on an integer grid and
    extracts the coefficient of s_1 s_2 ... s_n, which equals the mixed
    directional derivative.  No differentiation rules are involved, so this
    is an independent check of symbolic derivatives; exact for polynomial
    evalf of degree <= degree_bound.
    """
    from fractions import Fraction
    from itertools import product

    n = len(vectors)
    D = degree_bound
    pts = range(D + 1)
    # weights w with sum_p w_p p^k = [k == 1]: the s^1-coefficient functional
    wts = rational_solve(
        [[Fraction(p) ** k for p in pts] for k in range(D + 1)],
        [1 if k == 1 else 0 for k in range(D + 1)],
    )
    total = Fraction(0)
    for combo in product(pts, repeat=n):
        point = tuple(
            yj + sum(combo[m] * vectors[m][j] for m in range(n))
            for j, yj in enumerate(y)
        )
        weight = Fraction(1)
        for p in combo:
            weight *= wts[p]
        if weight:
            total += weight * evalf(point)
    return total


def exp_flow_oracle(N: int, t):
    """Flow expansion sum_tau f_tau(1) t^|tau| / tau! for f(y) = y.

    Branching terms need a second derivative of the identity and vanish, so
    only the single chain per grade survives; its factorial comes from
    tree_factorial_oracle, keeping the expansion independent of the library.
    """
    from fractions import Fraction

    acc = Fraction(1)
    for n in range(1, N + 1):
        c = None
        for _ in range(n):
            c = Tree(1, (c,) if c else ())
        acc += Fraction(t) ** n / tree_factorial_oracle(c)
    return acc


def leftpoint_oracle(rows, x, s: int, t: int):
    """Left-point Riemann sums straight from the recursion.

    rows[k][i] is component i+1 of the sampled path at grid index k.  For a
    tree [tau_1 .. tau_n]_i the functional over indices [s, t] is
      sum_{s <= k < t} prod_m oracle(tau_m, s, k) * (X^i_{k+1} - X^i_k)
    and a leaf is the bare increment; forests multiply.  No Hopf-algebra
    operations are involved.
    """
    if isinstance(x, Forest):
        out = 1
        for factor in x.factors:
            out = out * leftpoint_oracle(rows, factor, s, t)
        return out
    if not x.children:
        return rows[t][x.label - 1] - rows[s][x.label - 1]
    total = 0
    for k in range(s, t):
        term = rows[k + 1][x.label - 1] - rows[k][x.label - 1]
        for child in x.children:
            term = term * leftpoint_oracle(rows, child, s, k)
        total += term
    return total


# -- the element-based certificate sweep -------------------------------------


def _pairings_reference(X, Xbar, level: int, forests: list, pairs):
    """Per grid pair (s, t) in order: s, t, the denominator of the integer
    numerators of Xbar_st (None when it is not exact), and for each forest h
    the values <X_st, h> and <Xbar_st, psi(h)>, the latter over that
    denominator.  Words of psi(h) over letters that Xbar lacks are left out:
    for a partial lift, the tree letter of h itself.

    The pairing is the word-keyed loop the context rows replaced: the side
    with fewer terms (the image on a tie) is iterated in its order, and the
    image's coefficients enter as ints against exact numerators and as the
    Fractions psi gives against other values."""
    from hopfpath.hopf import HElem
    from hopfpath.morphisms import psi
    from hopfpath.scalars import numerators
    from hopfpath.tensor import word_context

    index = word_context(level, Xbar.d, Xbar.letter_bound).index
    images = [psi(HElem.from_forest(h, X.d), level).terms for h in forests]
    images = [{w: c for w, c in img.items() if w in index} for img in images]
    for s, t in pairs:
        branched = X.increment(s, t)
        terms = Xbar.increment(s, t).terms
        values = {w: c for w, c in terms.items() if w in index}
        (nums,), den = numerators(list(values.values()))
        if den is not None:
            values = dict(zip(values, nums))
        rhs = []
        for img in images:
            a = img if den is None else {w: int(c) for w, c in img.items()}
            b = values
            if len(img) > len(terms):
                a, b = b, a
            total = 0
            for w, c in a.items():
                v = b.get(w)
                if v is not None:
                    total += c * v
            rhs.append(total)
        yield s, t, den, [(branched.coeff(h), v) for h, v in zip(forests, rhs)]


def certify_reference(X, Xbar) -> dict:
    """Check <X_st, h> = <Xbar_st, psi(h)> for all forests of grade <= N and
    all grid pairs; first failure is recorded with a full witness.

    Exact values are compared by cross-multiplying integer numerators, float
    ones with the float tolerance."""
    import itertools

    from hopfpath.roughpath import RATIONAL, _close
    from hopfpath.trees import enumerate_forests

    N, d, M = X.N, X.d, X.grid.steps
    basis = enumerate_forests(N, d)
    exact = X.mode == RATIONAL
    cert = {
        "status": "pass",
        "checked_forests": len(basis),
        "checked_pairs": 0,
        "witness": None,
    }
    for s, t, den, row in _pairings_reference(X, Xbar, N, basis, itertools.combinations(range(M + 1), 2)):
        cert["checked_pairs"] += 1
        for h, (lhs, rhs) in zip(basis, row):
            if den is not None:
                if exact and lhs.numerator * den == rhs * lhs.denominator:
                    continue
                rhs = Fraction(rhs, den)
            if _close(lhs, rhs, X.mode):
                continue
            cert["status"] = "fail"
            cert["witness"] = {
                "forest": repr(h),
                "s": str(X.grid.times[s]),
                "t": str(X.grid.times[t]),
                "branched_value": str(lhs),
                "geometric_value": str(rhs),
            }
            return cert
    gamma = X.gamma
    if not isinstance(gamma, float) and Fraction(gamma).numerator == 1:
        cert["gamma_caveat"] = (
            "1/gamma is an integer; the continuum extension theorem excludes "
            "this case, the grid construction does not"
        )
    return cert


# -- the per-step loops that the lifts and solvers replaced -----------------
#
# The Itô and canonical increments, the level-2 shortcut and the Euler loop
# as they ran before their fixed work left the step loop: forests, words,
# columns, names and Fraction constants found again at every step, each
# element built by the checking constructor, and each field evaluated by the
# generic polynomial loop.  Like `certify_reference` they pin a loop, not the
# maps, so they read the library's containers and tables, imported where
# they run.


def ito_increments_reference(path, N: int) -> list:
    """The adjacent increments of `roughpath.ito_lift`."""
    from hopfpath.hopf import HElem
    from hopfpath.trees import enumerate_forests

    d = path.d
    basis_forests = enumerate_forests(N, d)
    increments = []
    for k in range(path.grid.steps):
        delta = path.delta(k)
        by_label = {t.label: delta[t] for t in path.basis}
        terms = {EMPTY_FOREST: Fraction(1)}
        for f in basis_forests:
            if f.is_unit() or any(t.grade > 1 for t in f.factors):
                continue
            v = 1
            for t in f.factors:
                v = v * by_label.get(t.label, 0)
            if v != 0:
                terms[f] = v
        increments.append(HElem(terms, d))
    return increments


def canonical_increments_reference(path, N: int) -> list:
    """The adjacent increments of `roughpath.canonical_lift`."""
    from hopfpath.roughpath import FLOAT
    from hopfpath.tensor import TensorElem, Word, word_context

    letters = tuple(t for t in path.basis if t.grade <= N)
    d = path.d
    n = max(t.grade for t in letters)
    columns = [(j, path.basis.index(t), t.grade) for j, t in enumerate(letters)]
    scales = []
    inv_fact = Fraction(1)
    for m in range(1, N + 1):
        inv_fact /= m
        scales.append(float(inv_fact) if path.mode == FLOAT else inv_fact)
    ctx = word_context(N, d, n)
    words: dict = {}
    one = Fraction(1)
    increments = []
    for k in range(path.grid.steps):
        lo, hi = path.values[k], path.values[k + 1]
        live = [(j, v, g) for j, i, g in columns if (v := hi[i] - lo[i]) != 0]
        terms = {ctx.basis[0]: one}
        level = [((), 0, None)]
        for scale in scales:
            deeper = []
            for key, grade, prod in level:
                for j, v, g in live:
                    if grade + g > N:
                        continue
                    p = v if prod is None else prod * v
                    if p == 0:
                        continue
                    key_j = key + (j,)
                    deeper.append((key_j, grade + g, p))
                    w = words.get(key_j)
                    if w is None:
                        w = Word(letters[i] for i in key_j)
                        w = words[key_j] = ctx.basis[ctx.index[w]]
                    terms[w] = scale * p
            level = deeper
        increments.append(TensorElem(terms, d, n))
    return increments


def simplify_reference(result) -> tuple:
    """The xhat increments and the symmetric increments of
    `conversion.simplify_n2`."""
    from hopfpath.tensor import TensorElem, Word
    from hopfpath.trees import leaf

    Xbar = result.geometric
    d = Xbar.d
    path = result.extended_path
    cherry = {(i, j): Tree(i, (leaf(j),)) for i in range(1, d + 1) for j in range(1, d + 1)}
    pairs = tuple((k, l) for k in range(1, d + 1) for l in range(k, d + 1))
    half = Fraction(1, 2)
    word_incs = []
    sym_incs = []
    for step, g in enumerate(Xbar.increments):
        delta = path.delta(step)
        terms = {}
        for w, c in g.terms.items():
            if all(t.grade == 1 for t in w.letters):
                terms[w] = c
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                corr = half * (delta[cherry[(i, j)]] - delta[cherry[(j, i)]])
                if corr:
                    w = Word((leaf(j), leaf(i)))
                    terms[w] = terms.get(w, 0) + corr
                    if terms[w] == 0:
                        del terms[w]
        word_incs.append(TensorElem(terms, d, 1))
        sym_incs.append({(k, l): delta[cherry[(k, l)]] + delta[cherry[(l, k)]] for k, l in pairs})
    return word_incs, sym_incs


def poly_eval_reference(terms: dict, point):
    """A polynomial's term dict at point: per term the coefficient times
    each variable as often as its exponent says, the terms summed from 0."""
    total = 0
    for e, c in terms.items():
        v = c
        for x, p in zip(point, e):
            for _ in range(p):
                v = v * x
        total = total + v
    return total


def euler_reference(grid, mode: str, e: int, xi, step_terms):
    """`rde._euler` with each field converted once by id in float mode,
    evaluated by `poly_eval_reference` and named with str(key) at every
    step it contributes to."""
    import math

    from hopfpath.rde import Trajectory
    from hopfpath.scalars import FLOAT

    if len(xi) != e:
        raise ValueError(f"initial state has dimension {len(xi)}, fields have {e}")
    y = tuple(xi)
    values = [y]
    breakdowns = []
    floats: dict = {}
    for terms in step_terms:
        delta = [0] * e
        breakdown = {}
        for key, w, F in terms:
            if mode == FLOAT:
                if id(F) not in floats:
                    try:
                        floats[id(F)] = (F, F.to_float())
                    except OverflowError:
                        raise ValueError(f"the field of {key} has a coefficient too large for a float") from None
                F = floats[id(F)][1]
            contrib = tuple(w * poly_eval_reference(p.terms, y) for p in F.components)
            if any(contrib):
                breakdown[str(key)] = contrib
            delta = [a + b for a, b in zip(delta, contrib)]
        y = tuple(a + b for a, b in zip(y, delta))
        if mode == FLOAT and not all(map(math.isfinite, y)):
            i = [math.isfinite(v) for v in y].index(False)
            raise ValueError(f"the float solve leaves the float range at step {len(values)}: y_{i + 1} = {y[i]}")
        values.append(y)
        breakdowns.append(breakdown)
    return Trajectory(grid, values, breakdowns, mode)


def solve_branched_reference(X, f, xi):
    from hopfpath.trees import enumerate_trees

    trees = [(tau, Forest((tau,)), symmetry_factor(tau)) for tau in enumerate_trees(X.N, X.d)]

    def terms(g):
        for tau, h, sigma in trees:
            c = g.coeff(h)
            if c != 0:
                yield tau, c / sigma, f.field(tau)

    return euler_reference(X.grid, X.mode, f.e, xi, (terms(g) for g in X.increments))


def _word_terms_reference(g, table):
    for w in sorted(g.terms, key=g._order):
        if not w.is_empty():
            yield w, g.terms[w], table.field(w)


def solve_geometric_reference(Xbar, table, xi):
    steps = (_word_terms_reference(g, table) for g in Xbar.increments)
    return euler_reference(Xbar.grid, Xbar.mode, table.e, xi, steps)


def solve_simplified_reference(sd, f, xi):
    from hopfpath.rde import WordFieldTable, sym_correction_fields
    from hopfpath.trees import leaf

    table = WordFieldTable({leaf(i): fi for i, fi in f.base.items()})
    weights = sym_correction_fields(f, sd.pairs)

    def terms(g, sym):
        yield from _word_terms_reference(g, table)
        for (k, l), c in sym.items():
            if c != 0:
                yield f"s_{k}{l}", c, weights[(k, l)]

    steps = (terms(g, sym) for g, sym in zip(sd.xhat.increments, sd.symmetric_increments))
    return euler_reference(sd.xhat.grid, sd.xhat.mode, f.e, xi, steps)


# -- term sums by hand -----------------------------------------------------
#
# The loops that the forest, word and morphism builders and the expression
# parser ran before `linear.summed` took their summation over, kept
# verbatim: each sums its terms into a dict from Fraction(0), in first-seen
# key order, and returns that dict, which the builder then wrapped in its
# container.  They read the library's context rows, `morphisms._fold`, the
# grafting helpers and the parser, imported where they run.  The per-tree
# morphism images, summed the same way, are in their own section below.


def product_reference(x, y) -> dict:
    """`hopf.product`: forest concatenation, bilinearly."""
    out: dict = {}
    for f1, c1 in x.terms.items():
        for f2, c2 in y.terms.items():
            k = f1 * f2
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return out


def coproduct_reference(x, ctx) -> dict:
    """`hopf.coproduct` over ctx's cut rows."""
    basis, index, cuts = ctx.basis, ctx.index, ctx.cuts
    out: dict = {}
    for f, c in x.terms.items():
        for a, b, cnt in cuts[index[f]]:
            key = (basis[a], basis[b])
            out[key] = out.get(key, Fraction(0)) + c * cnt
    return out


def antipode_reference(x, ctx) -> dict:
    """`hopf.antipode` over ctx's antipode rows."""
    basis, index = ctx.basis, ctx.index
    out: dict = {}
    for f, c in x.terms.items():
        for g, cnt in ctx.antipode(index[f]):
            key = basis[g]
            out[key] = out.get(key, Fraction(0)) + c * cnt
    return out


def graft_product_reference(t1: Tree, t2: Tree) -> dict:
    """`hopf.graft_product`: t1 attached below each vertex of t2."""
    from hopfpath.hopf import _attach_at, _vertex_addresses

    out: dict = {}
    for a in _vertex_addresses(t2):
        k = Forest((_attach_at(t2, {a: (t1,)}),))
        out[k] = out.get(k, Fraction(0)) + 1
    return out


def componentwise_product_reference(p, q) -> dict:
    """`PairElem.componentwise_product`: (a (x) b) * (c (x) e) = ac (x) be."""
    out: dict = {}
    for (a, b), c1 in p.terms.items():
        for (x, y), c2 in q.terms.items():
            k = (a * x, b * y)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return out


def multiply_out_reference(p) -> dict:
    """`PairElem.multiply_out`: a (x) b -> ab."""
    out: dict = {}
    for (a, b), c in p.terms.items():
        k = a * b
        out[k] = out.get(k, Fraction(0)) + c
    return out


def map_left_reference(p, fn) -> dict:
    """`PairElem.map_left`: fn on the left components."""
    out: dict = {}
    for (a, b), c in p.terms.items():
        img = fn(a)
        for f, c2 in img.terms.items():
            k = (f, b)
            out[k] = out.get(k, Fraction(0)) + c * c2
    return out


def deconcat_reference(x) -> dict:
    """`tensor.deconcat`: every prefix/suffix split of each word."""
    from hopfpath.tensor import Word

    out: dict = {}
    for w, c in x.terms.items():
        for k in range(len(w.letters) + 1):
            key = (Word(w.letters[:k]), Word(w.letters[k:]))
            out[key] = out.get(key, Fraction(0)) + c
    return out


def image_reference(terms: dict, rows, ctx) -> dict:
    """`morphisms._image`: the forest images folded from the tree rows,
    summed by word position, then keyed by word."""
    from hopfpath.morphisms import _fold

    memo: dict = {}
    out: dict = {}
    for f, c in terms.items():
        for k, v in _fold(ctx, rows, memo, f).items():
            out[k] = out.get(k, Fraction(0)) + c * v
    return {ctx.word(k): v for k, v in out.items()}


def iota_elem_reference(x) -> dict:
    """`morphisms.iota_elem`: the chain tree of each word."""
    from hopfpath.morphisms import iota

    out: dict = {}
    for w, c in x.terms.items():
        f = EMPTY_FOREST if w.is_empty() else Forest((iota(w),))
        out[f] = out.get(f, Fraction(0)) + c
    return out


def parser_terms_reference(parser, monomial, unit) -> dict:
    """`expr._Parser.terms` on a fresh parser: the terms to the end of
    input, summed per monomial."""
    out: dict = {}
    sign = 1
    while True:
        coeff = parser.rational_prefix()
        mono = monomial()
        if mono != "zero":
            key = unit if mono == "unit" else mono
            out[key] = out.get(key, Fraction(0)) + sign * coeff
        if parser.peek()[0] not in ("+", "-"):
            break
        sign = 1 if parser.next()[0] == "+" else -1
    parser.expect("end")
    return out


# -- the per-tree morphism folds -------------------------------------------
#
# The per-tree caches that `morphisms._tree_rows` replaced, and the maps
# that read them, as they ran: each tree's image folded on a word context
# and a forest context sized by that tree's grade and largest label, as a
# read-only map from `Word` to Fraction; a forest's image the shuffle of
# its trees' images on word-context positions, an integral Fraction read
# as an int.  They read the library's contexts, imported where they run.


def _integral(c):
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def word_fold_reference(ctx, tree_image, memo: dict, f: Forest) -> dict:
    """f's image as {ctx position: coefficient}, tree_image giving each
    tree's image as a word map."""
    img = memo.get(f)
    if img is None:
        if len(f.factors) > 1:
            rest = word_fold_reference(ctx, tree_image, memo, Forest(f.factors[:-1]))
            img = ctx.shuffle(rest, word_fold_reference(ctx, tree_image, memo, Forest(f.factors[-1:])))
        elif f.factors:
            img = {ctx.position(w.letters): _integral(c) for w, c in tree_image(f.factors[0]).items()}
        else:
            img = {ctx.position(()): 1}
        memo[f] = img
    return img


@functools.lru_cache(maxsize=None)
def phi_g_tree_reference(t: Tree):
    """phi_g(t): the child forest's image with the root letter appended."""
    from types import MappingProxyType

    from hopfpath.tensor import Word, word_context

    ctx = word_context(t.grade, t.max_label(), 1)
    root = (Tree(t.label),)
    acc = word_fold_reference(ctx, phi_g_tree_reference, {}, Forest(t.children))
    return MappingProxyType({Word(ctx.keys[k] + root): Fraction(0) + v for k, v in acc.items()})


@functools.lru_cache(maxsize=None)
def psi_tree_reference(t: Tree):
    """psi(t): t itself, then psi(pruned) with the trunk appended over the
    nontrivial cuts of t's cut row, summed by hand."""
    from types import MappingProxyType

    from hopfpath.hopf import forest_context
    from hopfpath.tensor import Word, word_context

    ctx = word_context(t.grade, t.max_label(), t.grade)
    fctx = forest_context(t.grade, t.max_label())
    forests = fctx.basis
    memo: dict = {}
    out: dict = {Word((t,)): Fraction(1)}
    for a, b, cnt in fctx.cuts[fctx.index[Forest((t,))]]:
        if not a or not b:  # position 0 is the unit forest
            continue
        trunk = forests[b].factors
        for k, v in word_fold_reference(ctx, psi_tree_reference, memo, forests[a]).items():
            key = Word(ctx.keys[k] + trunk)
            out[key] = out.get(key, Fraction(0)) + cnt * v
    return MappingProxyType(out)


TREE_REFERENCES = {"psi": psi_tree_reference, "phi_g": phi_g_tree_reference}


def _reference_context(which: str, g: int, d: int):
    from hopfpath.tensor import word_context

    return word_context(g, d, 1 if which == "phi_g" else max(g, 1))


def morphism_reference(which: str, h, n: int):
    """`psi(h, N)` (n = max(N, 1)) or `phi_g(h)` (n = 1): the forest images
    on the context of h's grade, summed by position in term order."""
    from hopfpath.tensor import TensorElem

    ctx = _reference_context(which, h.max_grade(), h.d)
    memo: dict = {}
    out: dict = {}
    for f, c in h.terms.items():
        for k, v in word_fold_reference(ctx, TREE_REFERENCES[which], memo, f).items():
            out[k] = out.get(k, Fraction(0)) + c * v
    return TensorElem({ctx.word(k): v for k, v in out.items()}, h.d, n)


def morphism_adjoint_reference(which: str, w, d: int):
    """`psi_adjoint`/`phi_g_adjoint` of a word of grade <= N: the coefficient
    of w in the image of every forest of w's grade."""
    from hopfpath.hopf import HElem
    from hopfpath.trees import forests_of_grade

    ctx = _reference_context(which, w.grade, d)
    memo, k = {}, ctx.position(w.letters)
    out = {}
    for h in forests_of_grade(w.grade, d):
        c = word_fold_reference(ctx, TREE_REFERENCES[which], memo, h).get(k)
        if c:
            out[h] = Fraction(0) + c
    return HElem(out, d)


# -- the pairing and difference loops --------------------------------------
#
# `linear.pair` and `Linear.__sub__` as they accumulated by hand, before the
# pairing ran through `linear.dot` and the difference through `__add__` of
# the negation, kept verbatim.


def kronecker_pair_reference(f, h):
    """`linear.pair`: the side with fewer terms (f on a tie) iterated in its
    order, adding c * v per common key to Fraction(0)."""
    f._check(h)
    small, big = (f.terms, h.terms) if len(f.terms) <= len(h.terms) else (h.terms, f.terms)
    total = Fraction(0)
    for k, c in small.items():
        if k in big:
            total += c * big[k]
    return total


def difference_reference(x, y):
    """`Linear.__sub__`: y's terms taken off x's values, a missing key
    starting from the class's zero."""
    x._check(y)
    out = dict(x.terms)
    zero = x._zero
    for k, c in y.terms.items():
        out[k] = out.get(k, zero) - c
    return type(x)(out, *x.ctx)


# -- the row pairing -------------------------------------------------------
#
# `Row.pair` and `Row._read` as they stood in `linear`, kept verbatim but for
# `linear.dot`, written out here: the package pairs rows only in its
# compiled sweeps, so the tests pin those sweeps and the adjacent psi
# pairing against this.


def _row_read_reference(row) -> dict:
    """`Row._read`: the scalars for reading only, the values themselves
    where they are the scalars, `scalars()` otherwise."""
    return row.values if row.den in (None, 1) else row.scalars()


def _dot_reference(a: dict, b: dict):
    """`linear.dot`: the sum from 0 of c * b[k] over the terms of a whose
    key b holds, in a's order."""
    total = 0
    for k, c in a.items():
        v = b.get(k)
        if v is not None:
            total += c * v
    return total


def row_pair_reference(row, other):
    """`Row.pair`: <row, other>, an integer over row.den * other.den when
    both are exact, a sum of their scalars otherwise, read in place where
    they are the values.  The row of fewer terms (row on a tie) is iterated,
    adding c * v per common position to 0."""
    exact = row.den is not None and other.den is not None
    a, b = (row.values, other.values) if exact else (_row_read_reference(row), _row_read_reference(other))
    return _dot_reference(b, a) if row.size > other.size else _dot_reference(a, b)
