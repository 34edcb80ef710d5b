"""Command-line front end.

Five subcommands drive the library end to end:

    algebra   coproduct, antipode, convolution, exp/log, morphism images,
              grafting, on expressions in the forest grammar
    lift      canonical or left-point lift of sampled data, with a
              validation report on stderr
    convert   branched driver -> geometric driver over tree letters, with
              the pairing certificate
    solve     Euler solving against a driver, on either side or both with
              a per-step discrepancy check
    verify    invariant sweeps emitting machine-readable JSON reports

Exit codes: 0 success, 1 invariant failure, 2 parse or input error,
3 semantic error, 4 certificate failure.  A command refuses by raising:
`InputError` for a file it cannot read as its kind or inputs named in a way
it cannot take, `ParseError` for an expression, `ValueError` for anything
else it cannot honour.  `main` is the only place that maps a refusal to its
exit code and the prefix of its one-line message.

Each command imports the layers it runs inside its handler (or verify
suite), so a process loads and compiles only those: `algebra --op exp`
runs without the rough-path, conversion and RDE modules, and `verify
--suite lgl` without the rough-path and conversion ones.  The handlers read
each library name from its defining module at call time.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import FLOAT, RATIONAL, parse_rational

if TYPE_CHECKING:
    from .hopf import HElem
    from .rde import ButcherTable
    from .roughpath import GeometricRoughPath, SampledPath
    from .trees import Tree

OK = 0
INVARIANT_FAILED = 1
BAD_INPUT = 2
BAD_REQUEST = 3
CERTIFICATE_FAILED = 4


class RunConfig:
    """Settings shared by the path-handling subcommands, already resolved:
    the level always agrees with gamma (largest N with N*gamma <= 1).
    Immutable."""

    __slots__ = ("mode", "N", "gamma")

    def __init__(self, mode: str, N: int, gamma: Fraction):
        for name, value in zip(self.__slots__, (mode, N, gamma)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RunConfig is immutable")


class InputError(ValueError):
    """A refusal with exit 2: an input that cannot be read as its kind,
    printed as "input error: ...", or inputs named in a combination the
    command cannot take, printed with the prefix "error"."""

    def __init__(self, message: str, prefix: str = "input error"):
        super().__init__(message)
        self.prefix = prefix


def _resolve_level(N, gamma_text):
    """Level and exponent from the optional flags; either determines the
    other, both together must agree."""
    if gamma_text is not None:
        from .roughpath import gamma_to_level

        gamma = parse_rational(gamma_text)
        level = gamma_to_level(gamma)
        if N is not None and N != level:
            raise ValueError(
                f"level {N} disagrees with gamma {gamma}; the largest level "
                f"with level*gamma <= 1 is {level}"
            )
        return level, gamma
    if N is not None:
        if N < 1:
            raise ValueError(f"need level >= 1, got {N}")
        return N, Fraction(1, N)
    return 2, Fraction(1, 2)


def _config(args) -> RunConfig:
    N, gamma = _resolve_level(getattr(args, "N", None), getattr(args, "gamma", None))
    # --threads and HOPFPATH_THREADS are validated for compatibility only
    if args.threads is not None:
        threads = args.threads
    else:
        env = os.environ.get("HOPFPATH_THREADS", "").strip()
        threads = int(env) if env else 1
    if threads < 1:
        raise ValueError(f"need at least 1 thread, got {threads}")
    return RunConfig(mode=FLOAT if args.float else RATIONAL, N=N, gamma=gamma)


def _write_out(text: str, out) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_safe(obj):
    """Reports carry Fractions, tuples, and basis objects; flatten to JSON
    types with rationals as strings, and non-finite floats as the strings
    "inf", "-inf" and "nan", which strict JSON has no number for."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return str(obj)


def _json_text(obj) -> str:
    """obj as strict (RFC 8259) JSON text, indented, keys sorted."""
    import json

    return json.dumps(_json_safe(obj), indent=2, sort_keys=True, allow_nan=False)


def _dump_report(report: dict, stream) -> None:
    print(_json_text(report), file=stream)


def _float(v: Fraction, flag: str, text: str) -> float:
    """v as a float, refused with its flag and text when it overflows."""
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{flag} {text!r}: too large for a float") from None


def _scalar(text: str, mode: str, flag: str):
    v = parse_rational(text)
    return _float(v, flag, text) if mode == FLOAT else v


# -- algebra ---------------------------------------------------------------


def _infer_d(texts, override):
    """Alphabet size: the largest label mentioned, unless given."""
    if override is not None:
        if override < 1:
            raise ValueError(f"need d >= 1, got {override}")
        return override
    best = 1
    for text in texts:
        for m in re.finditer(r"_(\d+)", text):
            best = max(best, int(m.group(1)))
    return best


def _single_tree(x: HElem) -> Tree:
    if len(x.terms) == 1:
        ((f, c),) = x.terms.items()
        if c == 1 and f.is_single_tree():
            return f.factors[0]
    raise ValueError("grafting needs a single tree on each side")


def cmd_algebra(args) -> int:
    if args.float:  # the algebra runs on the exact coefficients it parses
        raise InputError("algebra takes exact coefficients only; --float does not apply to it")
    from .expr import parse_h, print_h, print_tensor
    from .hopf import antipode, convolve, coproduct, exp_star, graft_product, log_star
    from .linear import print_terms

    need = 2 if args.op in ("star", "graft") else 1
    if len(args.expr) != need:
        raise ValueError(f"--op {args.op} takes {need} expression(s)")
    d = _infer_d(args.expr, args.d)
    parsed = [parse_h(e, d) for e in args.expr]
    x = parsed[0]
    if args.op == "coproduct":
        out = print_terms(coproduct(x))
    elif args.op == "antipode":
        out = print_h(antipode(x))
    elif args.op == "star":
        N = args.N if args.N is not None else x.max_grade() + parsed[1].max_grade()
        out = print_h(convolve(x, parsed[1], N))
    elif args.op == "exp":
        out = print_h(exp_star(x, args.N if args.N is not None else 3))
    elif args.op == "log":
        out = print_h(log_star(x, args.N if args.N is not None else 3))
    elif args.op == "psi":
        from .morphisms import psi

        out = print_tensor(psi(x, args.N if args.N is not None else 3))
    elif args.op == "phig":
        from .morphisms import phi_g

        out = print_tensor(phi_g(x))
    else:
        out = print_h(graft_product(_single_tree(x), _single_tree(parsed[1]), d))
    _write_out(out, args.out)
    return OK


# -- synthetic paths -------------------------------------------------------


def _synth_path(kind: str, steps: int, seed: int, step_text, d: int, mode: str) -> SampledPath:
    """Seed-determined sample paths on the uniform grid over [0, 1].

    rw draws d independent signs per step (step size --step, default 1 in
    rational mode and 1/sqrt(steps) in float mode); linear gives component
    i the slope i; sine is float-only.
    """
    from .roughpath import SampledPath

    if steps < 1:
        raise ValueError(f"need at least 1 step, got {steps}")
    if d < 1:
        raise ValueError(f"need at least 1 component, got {d}")
    if kind == "rw":
        rng = random.Random(seed)
        if mode == FLOAT:
            h = _scalar(step_text, mode, "--step") if step_text is not None else 1.0 / math.sqrt(steps)
            rows = [[0.0] * d]
        else:
            h = parse_rational(step_text) if step_text is not None else Fraction(1)
            rows = [[Fraction(0)] * d]
        for _ in range(steps):
            rows.append([x + h * rng.choice((1, -1)) for x in rows[-1]])
    elif kind == "linear":
        one = 1.0 if mode == FLOAT else Fraction(1)
        rows = [[(i + 1) * one * k / steps for i in range(d)] for k in range(steps + 1)]
    elif kind == "sine":
        if mode != FLOAT:
            raise ValueError("sine sampling is irrational; pass --float")
        rows = [[math.sin((i + 1) * k / steps) for i in range(d)] for k in range(steps + 1)]
    else:
        raise ValueError(f"unknown synthetic path kind {kind!r}")
    if mode == FLOAT:
        times = [k / steps for k in range(steps + 1)]
    else:
        times = [Fraction(k, steps) for k in range(steps + 1)]
    return SampledPath.over_labels(times, rows, d, mode)


# -- reading inputs --------------------------------------------------------


def _load(name: str, parse):
    """parse applied to the text of a file, or of stdin for "-", with
    universal newlines; a file that cannot be read or parsed is one
    InputError, and bytes that are not UTF-8 are named by offset."""
    from pathlib import Path

    try:
        data = sys.stdin.buffer.read() if name == "-" else Path(name).read_bytes()
        try:
            text = data.decode()
        except UnicodeDecodeError as e:
            where = "stdin" if name == "-" else name
            raise ValueError(f"{where}: not UTF-8: byte 0x{data[e.start]:02x} at offset {e.start}") from None
        return parse(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (OSError, ValueError, KeyError) as e:
        raise InputError(str(e)) from None


def _driver(text: str):
    """A rough path read from JSON, refused unless every adjacent increment
    is a character: wider increments are composed from them unchecked."""
    from .roughpath import first_non_character, roughpath_from_json

    X = roughpath_from_json(text)
    k = first_non_character(X)
    if k is not None:
        raise ValueError(f"adjacent increment {k} is not a character")
    return X


def _lift(path: SampledPath, kind: str, cfg: RunConfig):
    """The left-point (ito) or canonical lift at the configured level."""
    from .roughpath import canonical_lift, ito_lift

    lift = ito_lift if kind == "ito" else canonical_lift
    return lift(path, cfg.N, cfg.gamma)


# -- lift ------------------------------------------------------------------


def cmd_lift(args) -> int:
    from .roughpath import SampledPath, geometricity_report, roughpath_to_json, validate

    cfg = _config(args)
    if (args.input is None) == (args.synth is None):
        raise InputError("give a CSV file or --synth, not both", "error")
    if args.synth is not None:
        path = _synth_path(args.synth, args.steps, args.seed, args.step, args.d, cfg.mode)
    else:
        path = _load(args.input, lambda text: SampledPath.from_csv(text, cfg.mode))
    X = _lift(path, args.mode, cfg)
    report = validate(X)
    if args.mode == "ito":
        report["geometricity"] = geometricity_report(X)
    _write_out(roughpath_to_json(X), args.out)
    _dump_report(report, sys.stderr)
    if report["character"]["status"] != "pass" or report["chen"]["status"] != "pass":
        return INVARIANT_FAILED
    return OK


# -- convert ---------------------------------------------------------------


def cmd_convert(args) -> int:
    from .conversion import encode
    from .roughpath import BranchedRoughPath

    _config(args)  # checks --threads
    X = _load(args.input, _driver)
    if not isinstance(X, BranchedRoughPath):
        raise InputError("conversion starts from a branched rough path")
    result = encode(X)
    _write_out(result.to_json(), args.out)
    if result.certificate["status"] != "pass":
        _dump_report({"certificate": result.certificate}, sys.stderr)
        return CERTIFICATE_FAILED
    return OK


# -- solve -----------------------------------------------------------------


def _parse_fields(text: str, mode: str) -> ButcherTable:
    """'label: poly, poly; label: ...' with one polynomial per state
    component; in float mode every coefficient must fit in a float."""
    from .rde import ButcherTable

    spec: dict = {}
    for block in text.split(";"):
        block = block.strip()
        if not block:
            continue
        head, sep, rest = block.partition(":")
        if not sep:
            raise ValueError(f"field block {block!r} needs the form 'label: poly, poly'")
        try:
            label = int(head)
        except ValueError:
            raise ValueError(f"bad field label {head.strip()!r}") from None
        if label in spec:
            raise ValueError(f"field label {label} given twice")
        spec[label] = [s.strip() for s in rest.split(",")]
    if not spec:
        raise ValueError("empty field table")
    f = ButcherTable.parse(spec)
    if mode == FLOAT:
        for label, texts in spec.items():
            for poly_text, p in zip(texts, f.base[label].components):
                for c in p.terms.values():
                    _float(c, "--fields", poly_text)
    return f


def _solve(X, f: ButcherTable, xi, side: str):
    """The trajectory on one side, and for side both the branched one with
    its max per-step discrepancy from the geometric solve of the encoding."""
    from .rde import convert_rde, solve_branched, solve_geometric, tree_letter_fields
    from .roughpath import BranchedRoughPath, GeometricRoughPath

    for label in f.base:
        if not 1 <= label <= X.d:
            raise ValueError(f"field label {label} is outside the driver's alphabet 1..{X.d}")
    if side == "branched":
        return solve_branched(X, f, xi), None
    if side == "geometric":
        if not isinstance(X, GeometricRoughPath):
            raise ValueError("side geometric needs a geometric driver")
        return solve_geometric(X, tree_letter_fields(f, X.letters), xi), None
    if not isinstance(X, BranchedRoughPath):
        raise ValueError("side both starts from a branched driver")
    from .conversion import encode

    result = encode(X, certify_result=False)
    # geometric first: it steps every grafted field, so one too large for a float is named
    other = solve_geometric(result.geometric, convert_rde(f, result), xi)
    traj = solve_branched(X, f, xi)
    gaps = (abs(a - b) for ra, rb in zip(traj.values, other.values) for a, b in zip(ra, rb))
    return traj, max(gaps, default=0)


def cmd_solve(args) -> int:
    cfg = _config(args)
    f = _parse_fields(args.fields, cfg.mode)
    xi = [_scalar(s.strip(), cfg.mode, "--xi") for s in args.xi.split(",")]
    if args.seeds is not None:
        return _solve_ensemble(args, cfg, f, xi)
    if (args.driver is None) == (args.synth is None):
        raise InputError("give exactly one of --driver or --synth", "error")
    if args.driver is not None:
        X = _load(args.driver, _driver)
    else:
        X = _lift(_synth_path(args.synth, args.steps, args.seed, args.step, args.d, cfg.mode), args.lift, cfg)
    traj, discrepancy = _solve(X, f, xi, args.side)
    _write_out(traj.to_csv() if args.format == "csv" else traj.to_json(), args.out)
    if discrepancy is None:
        return OK
    print(f"max per-step discrepancy: {discrepancy}", file=sys.stderr)
    # only an exact run, of an exact driver with exact fields, must agree to the last digit
    return INVARIANT_FAILED if cfg.mode == X.mode == RATIONAL and discrepancy != 0 else OK


def _solve_ensemble(args, cfg: RunConfig, f: ButcherTable, xi) -> int:
    """Seed sweep over synthetic walks, with an optional closed-form
    comparison for the scalar equation dY = Y dX."""
    from .trees import leaf

    if args.synth != "rw":
        raise ValueError("ensembles need --synth rw")
    if args.seeds < 1:
        raise ValueError(f"need at least 1 seed, got {args.seeds}")
    want_ref = args.reference == "exp-ito"
    if want_ref and (args.d != 1 or len(xi) != 1):
        raise ValueError("the exp-ito reference is for one driving and one state component")
    side = "branched" if args.lift == "ito" else "geometric"
    terminals, refs, rels = [], [], []
    for seed in range(args.seed, args.seed + args.seeds):
        path = _synth_path("rw", args.steps, seed, args.step, args.d, cfg.mode)
        traj, _ = _solve(_lift(path, args.lift, cfg), f, xi, side)
        end = traj.values[-1]
        terminals.append(list(end))
        if want_ref:
            xs = path.component(leaf(1))
            increment = xs[-1] - xs[0]
            qv = sum((xs[k + 1] - xs[k]) ** 2 for k in range(len(xs) - 1))
            ref = float(xi[0]) * math.exp(float(increment) - float(qv) / 2)
            err = abs(float(end[0]) - ref)
            refs.append(ref)
            rels.append(err / abs(ref) if ref else err)
    summary = {
        "kind": "ensemble",
        "synth": args.synth,
        "steps": args.steps,
        "first_seed": args.seed,
        "seeds": args.seeds,
        "side": side,
        "terminal": terminals,
    }
    if want_ref:
        summary["reference"] = refs
        summary["rel_err"] = rels
        summary["mean_rel_err"] = sum(rels) / len(rels)
        summary["max_rel_err"] = max(rels)
    _write_out(_json_text(summary), args.out)
    return OK


# -- verify ----------------------------------------------------------------


def _note_failure(res: dict, invariant: str, where: str) -> dict | None:
    """Count a failure; returns its witness if it is among the first five."""
    res["failures"] = res.get("failures", 0) + 1
    if len(res["witnesses"]) < 5:
        res["witnesses"].append({"invariant": invariant, "at": where})
        return res["witnesses"][-1]
    return None


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def _suite_hopf(args, cfg: RunConfig) -> dict:
    """Grading, coassociativity and the antipode identity on every basis
    forest, in integers over the forest context's cut and antipode rows."""
    from .hopf import forest_context
    from .trees import Forest, leaf

    N = args.N if args.N is not None else 4
    d = args.d
    res = {"N": N, "d": d, "status": "pass", "checked_forests": 0, "witnesses": []}
    ctx = forest_context(N, d)
    basis, cuts = ctx.basis, ctx.cuts
    # negative control: a constant shift cannot be a convolution inverse,
    # so the sweep must report it
    shift = ctx.index[Forest((leaf(1),))] if args.mutate else None
    for i, h in enumerate(basis):
        left: dict = {}
        right: dict = {}
        for a, b, c in cuts[i]:
            if basis[a].grade + basis[b].grade != h.grade:
                _note_failure(res, "coproduct grading", repr(h))
            for u, v, c2 in cuts[a]:
                key = (u, v, b)
                left[key] = left.get(key, 0) + c * c2
            for u, v, c2 in cuts[b]:
                key = (a, u, v)
                right[key] = right.get(key, 0) + c * c2
        if _nonzero(left) != _nonzero(right):
            _note_failure(res, "coassociativity", repr(h))
        acc: dict = {}
        for a, b, c in cuts[i]:
            S = dict(ctx.antipode(a))
            if shift is not None:
                S[shift] = S.get(shift, 0) + 1
            for g, c2 in S.items():
                (k,) = ctx.product_row(g, b)  # past the basis when the shift lifts it above N
                acc[k] = acc.get(k, 0) + c * c2
        if _nonzero(acc) != ({i: 1} if h.is_unit() else {}):
            _note_failure(res, "antipode convolution inverse", repr(h))
        res["checked_forests"] += 1
    if res["witnesses"]:
        res["status"] = "fail"
    return res


def _suite_morphisms(args, cfg: RunConfig) -> dict:
    from .morphisms import MorphismTable, verify_hopf_morphism

    N = args.N if args.N is not None else 3
    d = args.d
    res = {"N": N, "d": d, "status": "pass", "reports": {}}
    for which in ("psi", "phi_g"):
        table = MorphismTable(which, N, d)
        if args.mutate:
            # negative control: doubling one tree image breaks the coproduct
            # compatibility against the untouched smaller trees
            t0 = max(table.cache)
            table.cache[t0] = {k: 2 * c for k, c in table.cache[t0].items()}
        rep = verify_hopf_morphism(which, N, d, table=table)
        res["reports"][which] = rep
        if rep["status"] != "pass":
            res["status"] = "fail"
    return res


def _tampered(X: GeometricRoughPath) -> GeometricRoughPath:
    """Bump one letter coefficient of the first adjacent increment; the
    result is no longer a shuffle character."""
    from .roughpath import GeometricRoughPath
    from .tensor import TensorElem, Word

    inc = X.increments[0]
    terms = dict(inc.terms)
    key = next(w for w in sorted(terms, key=Word.sort_key) if not w.is_empty())
    terms[key] = terms[key] + 1
    increments = list(X.increments)
    increments[0] = TensorElem(terms, inc.d, inc.n)
    return GeometricRoughPath(X.N, X.gamma, X.grid, increments, X.d, X.mode, X.letters)


def _suite_lifts(args, cfg: RunConfig) -> dict:
    from .roughpath import canonical_lift, embed_geometric, geometricity_report, ibp_defect, ito_lift, validate
    from .trees import leaf

    N = args.N if args.N is not None else 3
    d = args.d
    res = {"N": N, "d": d, "steps": args.steps, "seed": args.seed, "status": "pass", "checks": {}}
    path = _synth_path("rw", args.steps, args.seed, "1/2", d, RATIONAL)
    gamma = Fraction(1, N)
    ok = True

    Xg = canonical_lift(path, N, gamma)
    if args.mutate:
        Xg = _tampered(Xg)
    rep = validate(Xg)
    res["checks"]["canonical_validate"] = rep
    ok = ok and rep["character"]["status"] == "pass" and rep["chen"]["status"] == "pass"
    shuffle = geometricity_report(embed_geometric(Xg))
    res["checks"]["canonical_shuffle"] = shuffle
    ok = ok and shuffle["status"] == "pass"

    Xb = ito_lift(path, N, gamma)
    repb = validate(Xb)
    res["checks"]["leftpoint_validate"] = repb
    ok = ok and repb["character"]["status"] == "pass" and repb["chen"]["status"] == "pass"
    shufb = geometricity_report(Xb)
    res["checks"]["leftpoint_shuffle"] = {
        "status": shufb["status"],
        "defects": shufb["defects"],
        "expected": "defects for a left-point lift of a jagged path",
    }

    # the shuffle defect is not noise: integration by parts misses exactly
    # the discrete quadratic covariation
    identity = {"status": "pass", "witness": None}
    if N >= 2:
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                xs = path.component(leaf(i))
                ys = path.component(leaf(j))
                qv = sum(
                    (xs[k + 1] - xs[k]) * (ys[k + 1] - ys[k])
                    for k in range(len(xs) - 1)
                )
                if ibp_defect(Xb, i, j) != -qv:
                    identity = {"status": "fail", "witness": [i, j]}
                    ok = False
    res["checks"]["defect_identity"] = identity
    res["status"] = "pass" if ok else "fail"
    return res


def _suite_lgl(args, cfg: RunConfig) -> dict:
    from .rde import ButcherTable, Poly, PolyVectorField, butcher, check_lgl
    from .trees import Tree, enumerate_trees, leaf

    N = args.N if args.N is not None else 4
    rng = random.Random(args.seed)
    # 1, y1, y2, y1^2, y1*y2, y2^2
    monomials = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def quadratic() -> Poly:
        draws = ((e, rng.randint(-3, 3)) for e in monomials)
        return Poly({e: Fraction(c) for e, c in draws if c}, 2)

    f = ButcherTable({i: PolyVectorField([quadratic(), quadratic()]) for i in (1, 2)})
    if args.mutate:
        # negative control: poison one cached coefficient field
        tau = Tree(2, (leaf(1),))
        butcher(f, tau)
        f.cache[tau] = f.cache[tau] + PolyVectorField.parse(["y1^3", "0*y1"])
    res = {"N": N, "d": 2, "seed": args.seed, "status": "pass", "checked": 0, "witnesses": []}
    for lam in enumerate_trees(N - 1, 2):
        for h in enumerate_trees(N - lam.grade, 2):
            r = check_lgl(f, lam, h, N)
            res["checked"] += 1
            if not r:
                witness = _note_failure(res, "derivative rule", f"lambda={lam!r} h={h!r}")
                if witness is not None:
                    witness["detail"] = r.witness
    if res["witnesses"]:
        res["status"] = "fail"
    return res


_SUITES = {
    "hopf": _suite_hopf,
    "morphisms": _suite_morphisms,
    "lifts": _suite_lifts,
    "lgl": _suite_lgl,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    if "lgl" in names and args.d != 2:  # its fields have two labels
        raise ValueError(f"the lgl suite runs at --d 2 only, got --d {args.d}")
    if "lgl" in names and args.N is not None and args.N < 2:  # lambda and h need a vertex each
        raise ValueError(f"the lgl suite needs --N >= 2, got --N {args.N}")
    for flag, value in (("--N", args.N), ("--d", args.d)):
        if value is not None and value < 1:  # the other suites need a vertex and a label
            raise ValueError(f"the {names[0]} suite needs {flag} >= 1, got {flag} {value}")
    cfg = _config(args)
    report = {"suites": {}, "status": "pass"}
    for name in names:
        res = _SUITES[name](args, cfg)
        report["suites"][name] = res
        if res["status"] != "pass":
            report["status"] = "fail"
    _write_out(_json_text(report), args.out)
    return OK if report["status"] == "pass" else INVARIANT_FAILED


# -- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfpath",
        description="Branched and geometric rough paths over labelled forests.",
    )
    parser.add_argument("--float", action="store_true", help="floating-point scalars (default: exact rationals)")
    parser.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--float", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=None, help="write to a file instead of stdout")
    # the synthetic path and its level, for lift and solve
    path = argparse.ArgumentParser(add_help=False)
    path.add_argument("--synth", choices=["rw", "linear", "sine"], default=None, help="generate the path instead")
    path.add_argument("--steps", type=int, default=8)
    path.add_argument("--seed", type=int, default=0)
    path.add_argument("--step", default=None, help="walk step size, e.g. 1/4")
    path.add_argument("--d", type=int, default=1, help="components of the synthetic path")
    path.add_argument("--gamma", default=None, help="Hölder exponent in (0,1)")
    path.add_argument("--N", type=int, default=None, help="truncation level (default: from gamma, else 2)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="operate on forest expressions", parents=[common])
    ops = ["coproduct", "antipode", "star", "exp", "log", "psi", "phig", "graft"]
    p.add_argument("--op", required=True, choices=ops)
    p.add_argument("--d", type=int, default=None, help="alphabet size (default: largest label used)")
    p.add_argument("--N", type=int, default=None, help="truncation grade where one applies")
    p.add_argument("expr", nargs="+", help="expression(s) in the forest grammar")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("lift", parents=[common, path], help="lift sampled data to a rough path")
    p.add_argument("input", nargs="?", default=None, help="CSV file, or - for stdin")
    p.add_argument("--mode", choices=["canonical", "ito"], default="canonical")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("convert", parents=[common], help="encode a branched driver geometrically")
    p.add_argument("input", nargs="?", default="-", help="rough-path JSON file, or - for stdin")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("solve", parents=[common, path], help="Euler-solve a driven system")
    p.add_argument("--driver", default=None, help="rough-path JSON file, or - for stdin")
    p.add_argument("--seeds", type=int, default=None, help="run an ensemble and emit summary statistics")
    p.add_argument("--lift", choices=["canonical", "ito"], default="ito", help="lift for synthetic drivers")
    p.add_argument("--fields", required=True, help="driving fields, e.g. '1: y1^2 + y2, y1*y2; 2: y2^2, y1 + 1'")
    p.add_argument("--xi", required=True, help="initial point, e.g. '1, 3/2'")
    p.add_argument("--side", choices=["branched", "geometric", "both"], default="branched")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument(
        "--reference", choices=["exp-ito"], help="ensemble comparison against xi*exp(X_T - [X]_T/2), for dY = Y dX"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common], help="run invariant suites")
    p.add_argument("--suite", required=True, choices=["hopf", "morphisms", "lifts", "lgl", "all"])
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--mutate", action="store_true", help="corrupt one value first; the suites must catch it")
    p.set_defaults(func=cmd_verify)
    return parser


def _loaded(module: str, name: str):
    """The exception class module.name if that module is loaded, else ():
    nothing can have raised it, and `except ()` matches nothing, so main
    catches a layer's refusals without importing the layer."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return () if mod is None else getattr(mod, name)


def main(argv=None) -> int:
    """Run one command; the only place a refusal becomes an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # exact results print whole: the int-string limit (Python 3.11+) is off for this command only
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if saved is not None:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except _loaded("expr", "ParseError") as e:
        print(f"parse error: {e}", file=sys.stderr)  # e names the line and column
        return BAD_INPUT
    except InputError as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return BAD_INPUT
    except OSError as e:  # an --out file that cannot be written
        print(f"input error: {e}", file=sys.stderr)
        return BAD_INPUT
    except _loaded("conversion", "ConversionError") as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return CERTIFICATE_FAILED
    except (KeyError, TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_REQUEST
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    raise SystemExit(main())
