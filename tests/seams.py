"""Test-side seams into the rough path classes and the call counts of the
product layers.

`planted(X, pair, element)` is X with one grid pair's increment replaced:
a subclass of X's class whose `pair_rows` yields element's row for that
pair and whose `increment` returns element for it.  Every other pair, and
the fold past the planted one, stay X's own, so `validate` and the element
references in the tests see the same single bad pair.

`count_calls` counts calls of functions, wrapped in every loaded
`hopfpath` module that binds them, so a call through `roughpath.convolve`
counts the same as one through `hopf.convolve`, and of methods, wrapped on
their class (a classmethod stays one).

`sweeps()` runs a block on contexts with no compiled kernel, whatever
kernels earlier tests left on the cached contexts, and counts the calls of
the functions `linear` compiles in it.

`word_row(table, terms)` is a word map as a row on a `MorphismTable`'s
context, the form its `cache` holds, and `row_words(table, t)` reads tree
t's row back as a word map, so a test can edit a tree image word by word.
"""

import contextlib
import sys
from collections import Counter

from hopfpath import linear
from hopfpath.hopf import ForestContext
from hopfpath.roughpath import BranchedRoughPath, GeometricRoughPath
from hopfpath.tensor import WordContext


def _planting(base):
    class Planted(base):
        def increment(self, s_index, t_index):
            pair, element = self.planted
            return element if (s_index, t_index) == pair else super().increment(s_index, t_index)

        def pair_rows(self):
            pair, element = self.planted
            ctx = self.context()
            for s, t, row in super().pair_rows():
                yield s, t, ctx.row_of(element.terms) if (s, t) == pair else row

    Planted.__name__ = Planted.__qualname__ = f"Planted{base.__name__}"
    return Planted


_PLANTED = {cls: _planting(cls) for cls in (BranchedRoughPath, GeometricRoughPath)}


def planted(X, pair, element):
    """A copy of X whose increment over pair reads element."""
    Y = _PLANTED[type(X)](X.N, X.gamma, X.grid, X.increments, X.d, X.mode, *(getattr(X, f) for f in X.tree_fields))
    Y.planted = (pair, element)
    return Y


def count_calls(monkeypatch, *targets) -> Counter:
    """Calls of each target, by its qualified name, counted from now until
    monkeypatch undoes the wrapping.  A target is a function, wrapped in
    every loaded hopfpath module that binds it, or a (class, method name)
    pair, wrapped on the class."""
    counts = Counter()

    def counting(fn):
        key = fn.__qualname__
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for target in targets:
        if isinstance(target, tuple):
            cls, name = target
            method = vars(cls).get(name)
            if isinstance(method, classmethod):  # counted, and still bound to the class it is called on
                monkeypatch.setattr(cls, name, classmethod(counting(method.__func__)))
            else:
                monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
            continue
        counted = counting(target)
        for name, module in list(sys.modules.items()):
            if name == "hopfpath" or name.startswith("hopfpath."):
                for attr, value in list(vars(module).items()):
                    if value is target:
                        monkeypatch.setattr(module, attr, counted)
    return counts


@contextlib.contextmanager
def sweeps():
    """Within the block every live context starts with no kernel.  Yields a
    Counter of calls of the functions compiled in the block, keyed
    "kernel(f, g)" for a product kernel and "kernel(v)" for a psi map.  On
    exit every context has the kernel it had before, and one made in the
    block has none."""
    calls = Counter()
    generate = linear._straight_line

    def counting(params, rows):
        fn, key = generate(params, rows), f"kernel({', '.join(params)})"

        def counted(*operands):
            calls[key] += 1
            return fn(*operands)

        return counted

    def live():
        return [*ForestContext.live, *WordContext.live]

    saved = [(ctx, ctx.kernel, ctx.kernel_terms) for ctx in live()]
    for ctx in live():
        ctx.kernel, ctx.kernel_terms = None, 0
    linear._straight_line = counting
    try:
        yield calls
    finally:
        linear._straight_line = generate
        for ctx in live():
            ctx.kernel, ctx.kernel_terms = None, 0
        for ctx, kernel, terms in saved:
            ctx.kernel, ctx.kernel_terms = kernel, terms


def word_row(table, terms: dict) -> dict:
    """terms, a map from `Word` to coefficient, as a row {position: c} on
    table.ctx, in terms' order; a word above the level is numbered past the
    basis."""
    at = table.ctx.position
    return {at(w.letters): c for w, c in terms.items()}


def row_words(table, t) -> dict:
    """Tree t's row in table.cache as a map from `Word` to coefficient."""
    word = table.ctx.word
    return {word(k): c for k, c in table.cache[t].items()}
