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
their class.
"""

import sys
from collections import Counter

from hopfpath.roughpath import BranchedRoughPath, GeometricRoughPath


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
            monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
            continue
        counted = counting(target)
        for name, module in list(sys.modules.items()):
            if name == "hopfpath" or name.startswith("hopfpath."):
                for attr, value in list(vars(module).items()):
                    if value is target:
                        monkeypatch.setattr(module, attr, counted)
    return counts
