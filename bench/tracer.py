"""Span and counter tracer for the hopfpath layers.

`install()` wraps the public functions and constructors named in the tables
below and rebinds each wrapped name in every ``hopfpath`` module that
imported it, so a call made through ``cli.encode`` or ``roughpath.convolve``
is seen the same as one made through the defining module.  Each wrapped
call records a span (name, start, end, parent) in memory; counters are
taken at the same boundaries.  `Tracer.summary()` reduces the spans to calls,
inclusive and self seconds per name, where self time is the span minus the
spans it directly contains.

Only the benchmark imports this module, and only in its traced child
processes; the timed runs never load it.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name): module-level functions that get a span
SPANNED = (
    ("trees", "enumerate_forests", "trees.enumerate"),
    ("trees", "enumerate_trees", "trees.enumerate"),
    ("hopf", "convolve", "hopf.convolve"),
    ("hopf", "coproduct", "hopf.coproduct"),
    ("hopf", "antipode", "hopf.antipode"),
    ("hopf", "product", "hopf.product"),
    ("hopf", "exp_star", "hopf.exp_log"),
    ("hopf", "log_star", "hopf.exp_log"),
    ("tensor", "tensor_exp", "tensor.tensor_exp"),
    ("tensor", "concat", "tensor.concat"),
    ("tensor", "deconcat", "tensor.deconcat"),
    ("morphisms", "psi", "morphisms.psi"),
    ("morphisms", "verify_hopf_morphism", "morphisms.verify_hopf_morphism"),
    ("roughpath", "validate", "roughpath.validate"),
    ("roughpath", "canonical_lift", "roughpath.canonical_lift"),
    ("roughpath", "ito_lift", "roughpath.ito_lift"),
    ("roughpath", "geometricity_report", "roughpath.geometricity_report"),
    ("roughpath", "roughpath_to_json", "roughpath.json"),
    ("roughpath", "roughpath_from_json", "roughpath.json"),
    ("conversion", "extract_extended_path", "conversion.extract_extended_path"),
    ("conversion", "certify", "conversion.certify"),
    ("conversion", "encode", "conversion.encode"),
    ("conversion", "simplify_n2", "conversion.simplify_n2"),
    ("rde", "solve_branched", "rde.solve_branched"),
    ("rde", "solve_geometric", "rde.solve_geometric"),
    ("rde", "solve_simplified", "rde.solve_simplified"),
    ("rde", "check_lgl", "rde.check_lgl"),
    ("expr", "parse_h", "expr.parse_h"),
    ("expr", "print_h", "expr.print_h"),
    ("expr", "print_tensor", "expr.print_tensor"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name): methods that get a span
SPANNED_METHODS = (
    ("morphisms", "MorphismTable", "__init__", "morphisms.MorphismTable.build"),
    ("conversion", "ConversionResult", "to_json", "conversion.to_json"),
)

# (module, owner class or None, attribute, counter): calls counted, no span;
# these run too often for a span each
COUNTED = (
    ("hopf", "HElem", "__init__", "hopf.HElem.new"),
    ("tensor", "TensorElem", "__init__", "tensor.TensorElem.new"),
    ("rde", None, "apply_derivative", "rde.apply_derivative.calls"),
)


def _report_count(key, *path):
    def hook(tracer, args, result):
        value = result
        for step in path:
            value = value[step]
        tracer.counts[key] += value
    return hook


def _len_result(key):
    def hook(tracer, args, result):
        tracer.counts[key] += len(result)
    return hook


def _len_arg(key):
    def hook(tracer, args, result):
        tracer.counts[key] += len(args[0])
    return hook


def _basis_size(tracer, args, result):
    tracer.counts["trees.basis_forests"] = max(tracer.counts["trees.basis_forests"], len(result))


# counters read from what a spanned call was given or returned
RESULT_HOOKS = {
    ("trees", "enumerate_forests"): _basis_size,
    ("morphisms", "verify_hopf_morphism"): _report_count("morphisms.checked_pairs", "checked_pairs"),
    ("roughpath", "validate"): _report_count("roughpath.chen_triples", "chen", "checked_triples"),
    ("roughpath", "roughpath_to_json"): _len_result("roughpath.json.bytes"),
    ("roughpath", "roughpath_from_json"): _len_arg("roughpath.json.bytes"),
    ("conversion", "certify"): _report_count("conversion.certify.checked_pairs", "checked_pairs"),
    ("expr", "parse_h"): _len_arg("expr.chars"),
    ("expr", "print_h"): _len_result("expr.chars"),
    ("expr", "print_tensor"): _len_result("expr.chars"),
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, outermost of its name)
        self.stack: list = []
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        # increment() pairs keyed by id(path); the paths are pinned so an id
        # is never reused for another path while it is tracked
        self.pairs: set = set()
        self.pinned: dict = {}
        self.forgotten_pairs = 0

    def spanned(self, name, fn, hook=None):
        spans, stack, depth = self.spans, self.stack, self.depth

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = depth[name] == 0
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent, outer)
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_output(self, fn):
        counts = self.counts

        def wrapper(text, *args, **kwargs):
            counts["cli.out_bytes"] += len(text.encode())
            return fn(text, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_increment(self, fn):
        counts, pairs, pinned = self.counts, self.pairs, self.pinned

        def wrapper(path, s_index, t_index):
            counts["roughpath.increment.calls"] += 1
            key = (id(path), s_index, t_index)
            if key in pairs:
                counts["roughpath.increment.repeats"] += 1
            else:
                pairs.add(key)
                pinned[id(path)] = path
            return fn(path, s_index, t_index)

        wrapper.__wrapped__ = fn
        return wrapper

    def forget_paths(self):
        """Drop the pinned rough paths; call between units of one process."""
        self.forgotten_pairs += len(self.pairs)
        self.pairs.clear()
        self.pinned.clear()

    def summary(self) -> dict:
        """Calls, inclusive seconds (outermost span of each name only) and
        self seconds per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        per_name: dict = {}
        for i, (name, t0, t1, _, outer) in enumerate(self.spans):
            row = per_name.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outer:
                row["incl_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[i]
        counts = dict(self.counts)
        counts["roughpath.increment.distinct_pairs"] = self.forgotten_pairs + len(self.pairs)
        return {"spans": per_name, "counts": counts, "span_records": len(self.spans)}


def _rebind(modules, old, new):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install() -> Tracer:
    """Wrap the hopfpath layers in place and return the tracer."""
    tracer = Tracer()
    pkg = importlib.import_module("hopfpath")
    for sub in ("trees", "hopf", "tensor", "morphisms", "roughpath", "conversion", "rde", "expr", "cli"):
        importlib.import_module(f"hopfpath.{sub}")
    modules = [m for n, m in sys.modules.items() if n == "hopfpath" or n.startswith("hopfpath.")]

    for short, attr, name in SPANNED:
        fn = getattr(getattr(pkg, short), attr)
        _rebind(modules, fn, tracer.spanned(name, fn, RESULT_HOOKS.get((short, attr))))
    for short, cls_name, meth, name in SPANNED_METHODS:
        cls = getattr(getattr(pkg, short), cls_name)
        setattr(cls, meth, tracer.spanned(name, vars(cls)[meth]))
    for short, cls_name, attr, key in COUNTED:
        if cls_name is None:
            fn = getattr(getattr(pkg, short), attr)
            _rebind(modules, fn, tracer.counted(key, fn))
        else:
            cls = getattr(getattr(pkg, short), cls_name)
            setattr(cls, attr, tracer.counted(key, vars(cls)[attr]))
    _rebind(modules, pkg.cli._write_out, tracer.counted_output(pkg.cli._write_out))
    base = pkg.roughpath._RoughPathBase
    base.increment = tracer.counted_increment(vars(base)["increment"])
    return tracer
