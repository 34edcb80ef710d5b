"""Exact branched and geometric rough paths over labelled forests.

Labelled rooted trees and forests carry the cut coproduct; words over tree
letters carry shuffle and deconcatenation.  The morphism `psi` encodes every
branched rough path as a geometric one over an extended alphabet, `encode`
realizes that on sampled data with an exact certificate, and the `rde`
solvers reproduce one another across the encoding, including the left-point
vs interpolated correction terms.  The `hopfpath` console script exposes all
of it; see the module docstrings for the individual layers.
"""

import sys

from . import hopf as _hopf, tensor as _tensor
from .conversion import (
    ConversionError,
    ConversionResult,
    SimplifiedDriver,
    base_path_of,
    certify,
    encode,
    simplify_n2,
)
from .expr import ParseError, parse_h, parse_tensor, print_h, print_tensor
from .hopf import (
    HElem,
    PairElem,
    antipode,
    convolve,
    coproduct,
    counit,
    exp_star,
    graft_product,
    is_group_like,
    is_primitive,
    lie_bracket,
    log_star,
    pair,
    product,
    star_inverse,
)
from .morphisms import (
    MorphismTable,
    iota,
    iota_elem,
    phi_g,
    phi_g_adjoint,
    psi,
    psi_adjoint,
    verify_hopf_morphism,
)
from .rde import (
    ButcherTable,
    LglResult,
    Poly,
    PolyVectorField,
    Trajectory,
    apply_derivative,
    butcher,
    butcher_h,
    check_lgl,
    convert_rde,
    parse_poly,
    print_poly,
    solve_branched,
    solve_geometric,
    solve_simplified,
    sym_correction_fields,
)
from .roughpath import (
    FLOAT,
    RATIONAL,
    BranchedRoughPath,
    GeometricRoughPath,
    Grid,
    SampledPath,
    canonical_lift,
    embed_geometric,
    gamma_to_level,
    geometricity_report,
    ibp_defect,
    ito_lift,
    roughpath_from_json,
    roughpath_to_json,
    validate,
)
from .tensor import (
    TensorElem,
    Word,
    WordPairElem,
    concat,
    deconcat,
    enumerate_words,
    shuffle,
    tensor_exp,
    tensor_log,
    word_of_labels,
)
from .trees import (
    Forest,
    Tree,
    chain,
    enumerate_forests,
    enumerate_trees,
    forests_of_grade,
    graft,
    leaf,
    symmetry_factor,
    tree_factorial,
    trees_of_grade,
)

__version__ = "0.1.0"


def cache_sizes() -> dict:
    """Entries held by every memoised (lru_cache) table of the package,
    keyed 'module.function': the tree enumerations, the shuffle and morphism
    tables, and the forest and word contexts.  The cut and antipode rows
    have no lru table of their own; they live in the forest contexts.  For
    each live context it adds the rows its tables have filled, keyed by the
    call that built it, e.g. 'tensor.word_context(3, 1, 3).shuffle_rows'.  The
    tables never evict, so the sizes show what a process has built.  Nothing
    is printed."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith(__name__ + "."):
            continue
        for attr, fn in vars(mod).items():
            info = getattr(fn, "cache_info", None)
            if info is not None and getattr(fn, "__module__", None) == name:
                out[f"{name.rsplit('.', 1)[1]}.{attr}"] = info().currsize
    for ctx in list(_tensor.WordContext.live):
        out[f"tensor.word_context{ctx.key}.shuffle_rows"] = len(ctx.shuffles)
        out[f"tensor.word_context{ctx.key}.split_rows"] = len(ctx.splits)
    for ctx in list(_hopf.ForestContext.live):
        out[f"hopf.forest_context{ctx.key}.antipode_rows"] = len(ctx.antipodes)
    return dict(sorted(out.items()))
