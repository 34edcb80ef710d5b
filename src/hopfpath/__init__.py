"""Exact branched and geometric rough paths over labelled forests.

Labelled rooted trees and forests carry the cut coproduct; words over tree
letters carry shuffle and deconcatenation.  The morphism `psi` encodes every
branched rough path as a geometric one over an extended alphabet, `encode`
realizes that on sampled data with an exact certificate, and the `rde`
solvers reproduce one another across the encoding, including the left-point
vs interpolated correction terms.  The `hopfpath` console script exposes all
of it; see the module docstrings for the individual layers.

Exports resolve on first use: `import hopfpath` loads none of its modules,
and reading a name such as `hopfpath.psi` imports the module that defines
it (here `morphisms`, with what that module needs) the first time.  So a
process compiles only the layers it uses.
"""

import importlib
import sys

# defining module -> the public names the package takes from it; each is
# imported on first access (PEP 562) and then kept in the package globals
_EXPORTS = {
    "conversion": (
        "ConversionError", "ConversionResult", "SimplifiedDriver", "base_path_of", "certify", "encode",
        "simplify_n2",
    ),
    "expr": ("ParseError", "parse_h", "parse_tensor", "print_h", "print_tensor"),
    "hopf": (
        "HElem", "PairElem", "antipode", "convolve", "coproduct", "counit", "exp_star", "graft_product",
        "is_group_like", "is_primitive", "lie_bracket", "log_star", "pair", "product", "star_inverse",
    ),
    "morphisms": (
        "MorphismTable", "iota", "iota_elem", "phi_g", "phi_g_adjoint", "psi", "psi_adjoint",
        "verify_hopf_morphism",
    ),
    "rde": (
        "ButcherTable", "LglResult", "Poly", "PolyVectorField", "Trajectory", "apply_derivative", "butcher",
        "butcher_h", "check_lgl", "convert_rde", "parse_poly", "print_poly", "solve_branched",
        "solve_geometric", "solve_simplified", "sym_correction_fields",
    ),
    "roughpath": (
        "BranchedRoughPath", "GeometricRoughPath", "Grid", "SampledPath", "canonical_lift", "embed_geometric",
        "gamma_to_level", "geometricity_report", "ibp_defect", "ito_lift", "roughpath_from_json",
        "roughpath_to_json", "validate",
    ),
    "scalars": ("FLOAT", "RATIONAL"),
    "tensor": (
        "TensorElem", "Word", "WordPairElem", "concat", "deconcat", "enumerate_words", "shuffle", "tensor_exp",
        "tensor_log", "word_of_labels",
    ),
    "trees": (
        "Forest", "Tree", "chain", "enumerate_forests", "enumerate_trees", "forests_of_grade", "graft", "leaf",
        "symmetry_factor", "tree_factorial", "trees_of_grade",
    ),
}


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *(name for names in _EXPORTS.values() for name in names)})


__version__ = "0.1.0"


def cache_sizes() -> dict:
    """Entries held by every memoised (lru_cache) table of the package,
    keyed 'module.function': the tree enumerations, the shuffle and morphism
    tables, and the forest and word contexts.  The cut and antipode rows
    have no lru table of their own; they live in the forest contexts.  For
    each live context it adds the rows its tables have filled, keyed by the
    call that built it, e.g. 'tensor.word_context(3, 1, 3).shuffle_rows'.  The
    tables never evict, so the sizes show what a process has built.

    Only the modules loaded so far are reported, and none is imported: a
    module the process never imported has built nothing.  Nothing is
    printed."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith(__name__ + "."):
            continue
        for attr, fn in vars(mod).items():
            info = getattr(fn, "cache_info", None)
            if info is not None and getattr(fn, "__module__", None) == name:
                out[f"{name.rsplit('.', 1)[1]}.{attr}"] = info().currsize
    tensor = sys.modules.get(f"{__name__}.tensor")
    for ctx in list(tensor.WordContext.live) if tensor else ():
        out[f"tensor.word_context{ctx.key}.shuffle_rows"] = len(ctx.shuffles)
        out[f"tensor.word_context{ctx.key}.split_rows"] = len(ctx.splits)
    hopf = sys.modules.get(f"{__name__}.hopf")
    for ctx in list(hopf.ForestContext.live) if hopf else ():
        out[f"hopf.forest_context{ctx.key}.antipode_rows"] = len(ctx.antipodes)
    return dict(sorted(out.items()))
