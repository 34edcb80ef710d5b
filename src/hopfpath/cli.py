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
3 semantic error, 4 certificate failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .conversion import ConversionError, encode
from .expr import ParseError, parse_h, parse_rational, print_h, print_tensor
from .hopf import (
    HElem,
    antipode,
    convolve,
    coproduct,
    exp_star,
    graft_product,
    log_star,
    product,
)
from .morphisms import MorphismTable, phi_g, psi, verify_hopf_morphism
from .rde import (
    ButcherTable,
    PolyVectorField,
    butcher,
    check_lgl,
    convert_rde,
    solve_branched,
    solve_geometric,
    tree_letter_fields,
)
from .roughpath import (
    FLOAT,
    RATIONAL,
    BranchedRoughPath,
    GeometricRoughPath,
    SampledPath,
    canonical_lift,
    embed_geometric,
    first_non_character,
    gamma_to_level,
    geometricity_report,
    ibp_defect,
    ito_lift,
    roughpath_from_json,
    roughpath_to_json,
    validate,
)
from .tensor import TensorElem, Word
from .trees import Tree, enumerate_forests, enumerate_trees, leaf

OK = 0
INVARIANT_FAILED = 1
BAD_INPUT = 2
BAD_REQUEST = 3
CERTIFICATE_FAILED = 4


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the path-handling subcommands, already resolved:
    the level always agrees with gamma (largest N with N*gamma <= 1)."""

    mode: str
    N: int
    gamma: Fraction
    seed: int = 0


def _resolve_level(N, gamma_text):
    """Level and exponent from the optional flags; either determines the
    other, both together must agree."""
    if gamma_text is not None:
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
    return RunConfig(
        mode=FLOAT if args.float else RATIONAL,
        N=N,
        gamma=gamma,
        seed=getattr(args, "seed", 0),
    )


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
    types with rationals as strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return str(obj)


def _dump_report(report: dict, stream) -> None:
    print(json.dumps(_json_safe(report), indent=2, sort_keys=True), file=stream)


def _scalar(text: str, mode: str):
    v = parse_rational(text.strip())
    return float(v) if mode == FLOAT else v


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


def _print_pairs(p) -> str:
    """Split elements print as 'left (x) right' per term, in canonical
    order, with the same coefficient convention as print_h."""
    if not p.terms:
        return "0"
    parts = []
    for a, b in sorted(p.terms, key=lambda ab: (ab[0].sort_key(), ab[1].sort_key())):
        c = p.terms[(a, b)]
        head = "" if c == 1 else f"{c} * "
        parts.append(f"{head}{a!r} (x) {b!r}")
    return " + ".join(parts)


def _single_tree(x: HElem) -> Tree:
    if len(x.terms) == 1:
        ((f, c),) = x.terms.items()
        if c == 1 and f.is_single_tree():
            return f.factors[0]
    raise ValueError("grafting needs a single tree on each side")


def cmd_algebra(args) -> int:
    need = 2 if args.op in ("star", "graft") else 1
    if len(args.expr) != need:
        print(f"error: --op {args.op} takes {need} expression(s)", file=sys.stderr)
        return BAD_REQUEST
    d = _infer_d(args.expr, args.d)
    parsed = [parse_h(e, d) for e in args.expr]
    x = parsed[0]
    if args.op == "coproduct":
        out = _print_pairs(coproduct(x))
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
        out = print_tensor(psi(x, args.N if args.N is not None else 3))
    elif args.op == "phig":
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
    if steps < 1:
        raise ValueError(f"need at least 1 step, got {steps}")
    if d < 1:
        raise ValueError(f"need at least 1 component, got {d}")
    if kind == "rw":
        rng = random.Random(seed)
        if mode == FLOAT:
            h = float(parse_rational(step_text)) if step_text is not None else 1.0 / math.sqrt(steps)
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


# -- lift ------------------------------------------------------------------


def _read_input(name: str) -> str:
    if name == "-":
        return sys.stdin.read()
    with open(name) as fh:
        return fh.read()


def cmd_lift(args) -> int:
    cfg = _config(args)
    if (args.input is None) == (args.synth is None):
        print("error: give a CSV file or --synth, not both", file=sys.stderr)
        return BAD_INPUT
    if args.synth is not None:
        path = _synth_path(args.synth, args.steps, cfg.seed, args.step, args.d, cfg.mode)
    else:
        try:
            text = _read_input(args.input)
        except OSError as e:
            print(f"input error: {e}", file=sys.stderr)
            return BAD_INPUT
        try:
            path = SampledPath.from_csv(text, cfg.mode)
        except ValueError as e:
            print(f"input error: {e}", file=sys.stderr)
            return BAD_INPUT
    if args.mode == "ito":
        X = ito_lift(path, cfg.N, cfg.gamma)
    else:
        X = canonical_lift(path, cfg.N, cfg.gamma)
    report = validate(X)
    if args.mode == "ito":
        report["geometricity"] = geometricity_report(X)
    _write_out(roughpath_to_json(X), args.out)
    _dump_report(report, sys.stderr)
    if report["character"]["status"] != "pass" or report["chen"]["status"] != "pass":
        return INVARIANT_FAILED
    return OK


# -- convert ---------------------------------------------------------------


def _read_driver(name: str):
    """A rough path read from JSON, refused unless every adjacent increment
    is a character: wider increments are composed from them unchecked."""
    X = roughpath_from_json(_read_input(name))
    k = first_non_character(X)
    if k is not None:
        raise ValueError(f"adjacent increment {k} is not a character")
    return X


def cmd_convert(args) -> int:
    cfg = _config(args)
    try:
        X = _read_driver(args.input)
    except (OSError, ValueError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return BAD_INPUT
    if not isinstance(X, BranchedRoughPath):
        print("input error: conversion starts from a branched rough path", file=sys.stderr)
        return BAD_INPUT
    try:
        result = encode(X)
    except ConversionError as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return CERTIFICATE_FAILED
    _write_out(result.to_json(), args.out)
    if result.certificate["status"] != "pass":
        _dump_report({"certificate": result.certificate}, sys.stderr)
        return CERTIFICATE_FAILED
    return OK


# -- solve -----------------------------------------------------------------


def _parse_fields(text: str) -> ButcherTable:
    """'label: poly, poly; label: ...' with one polynomial per state
    component."""
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
        spec[label] = [s.strip() for s in rest.split(",")]
    if not spec:
        raise ValueError("empty field table")
    return ButcherTable.parse(spec)


def _synth_driver(args, cfg: RunConfig):
    path = _synth_path(args.synth, args.steps, cfg.seed, args.step, args.d, cfg.mode)
    if args.lift == "ito":
        return ito_lift(path, cfg.N, cfg.gamma)
    return canonical_lift(path, cfg.N, cfg.gamma)


def cmd_solve(args) -> int:
    cfg = _config(args)
    f = _parse_fields(args.fields)
    xi = [_scalar(s, cfg.mode) for s in args.xi.split(",")]
    if args.seeds is not None:
        return _solve_ensemble(args, cfg, f, xi)
    if (args.driver is None) == (args.synth is None):
        print("error: give exactly one of --driver or --synth", file=sys.stderr)
        return BAD_INPUT
    if args.driver is not None:
        try:
            X = _read_driver(args.driver)
        except (OSError, ValueError, KeyError) as e:
            print(f"input error: {e}", file=sys.stderr)
            return BAD_INPUT
    else:
        X = _synth_driver(args, cfg)
    discrepancy = None
    if args.side == "branched":
        traj = solve_branched(X, f, xi)
    elif args.side == "geometric":
        if not isinstance(X, GeometricRoughPath):
            raise TypeError("side geometric needs a geometric driver")
        traj = solve_geometric(X, tree_letter_fields(f, X.letters), xi)
    else:
        if not isinstance(X, BranchedRoughPath):
            raise TypeError("side both starts from a branched driver")
        try:
            result = encode(X, certify_result=False)
        except ConversionError as e:
            print(f"certificate failure: {e}", file=sys.stderr)
            return CERTIFICATE_FAILED
        traj = solve_branched(X, f, xi)
        other = solve_geometric(result.geometric, convert_rde(f, result), xi)
        discrepancy = max(
            (abs(a - b) for ra, rb in zip(traj.values, other.values) for a, b in zip(ra, rb)),
            default=0,
        )
        print(f"max per-step discrepancy: {discrepancy}", file=sys.stderr)
    _write_out(traj.to_csv() if args.format == "csv" else traj.to_json(), args.out)
    if discrepancy is not None and cfg.mode == RATIONAL and discrepancy != 0:
        return INVARIANT_FAILED
    return OK


def _solve_ensemble(args, cfg: RunConfig, f: ButcherTable, xi) -> int:
    """Seed sweep over synthetic walks, with an optional closed-form
    comparison for the scalar equation dY = Y dX."""
    if args.synth != "rw":
        raise ValueError("ensembles need --synth rw")
    if args.seeds < 1:
        raise ValueError(f"need at least 1 seed, got {args.seeds}")
    want_ref = args.reference == "exp-ito"
    if want_ref and (args.d != 1 or len(xi) != 1):
        raise ValueError("the exp-ito reference is for one driving and one state component")
    terminals = []
    refs = []
    rels = []
    for seed in range(cfg.seed, cfg.seed + args.seeds):
        path = _synth_path("rw", args.steps, seed, args.step, args.d, cfg.mode)
        if args.lift == "ito":
            X = ito_lift(path, cfg.N, cfg.gamma)
            traj = solve_branched(X, f, xi)
        else:
            X = canonical_lift(path, cfg.N, cfg.gamma)
            traj = solve_geometric(X, tree_letter_fields(f, X.letters), xi)
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
        "first_seed": cfg.seed,
        "seeds": args.seeds,
        "side": "branched" if args.lift == "ito" else "geometric",
        "terminal": terminals,
    }
    if want_ref:
        summary["reference"] = refs
        summary["rel_err"] = rels
        summary["mean_rel_err"] = sum(rels) / len(rels)
        summary["max_rel_err"] = max(rels)
    _write_out(json.dumps(_json_safe(summary), indent=2, sort_keys=True), args.out)
    return OK


# -- verify ----------------------------------------------------------------


def _note_failure(res: dict, invariant: str, where: str) -> None:
    res["failures"] = res.get("failures", 0) + 1
    if len(res["witnesses"]) < 5:
        res["witnesses"].append({"invariant": invariant, "at": where})


def _suite_hopf(args, cfg: RunConfig) -> dict:
    N = args.N if args.N is not None else 4
    d = args.d
    res = {"N": N, "d": d, "status": "pass", "checked_forests": 0, "witnesses": []}

    def S(y: HElem) -> HElem:
        out = antipode(y)
        if args.mutate:
            # negative control: a constant shift cannot be a convolution
            # inverse, so the sweep must report it
            out = out + HElem.from_tree(leaf(1), d)
        return out

    for h in enumerate_forests(N, d):
        x = HElem.from_forest(h, d)
        cp = coproduct(x)
        left: dict = {}
        right: dict = {}
        for (a, b), c in cp.terms.items():
            if a.grade + b.grade != h.grade:
                _note_failure(res, "coproduct grading", repr(h))
            for (u, v), c2 in coproduct(HElem.from_forest(a, d)).terms.items():
                key = (u, v, b)
                left[key] = left.get(key, 0) + c * c2
            for (u, v), c2 in coproduct(HElem.from_forest(b, d)).terms.items():
                key = (a, u, v)
                right[key] = right.get(key, 0) + c * c2
        if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
            _note_failure(res, "coassociativity", repr(h))
        acc = HElem.zero(d)
        for (a, b), c in cp.terms.items():
            acc = acc + product(S(HElem.from_forest(a, d)), HElem.from_forest(b, d)).scale(c)
        want = HElem.unit(d) if h.is_unit() else HElem.zero(d)
        if acc != want:
            _note_failure(res, "antipode convolution inverse", repr(h))
        res["checked_forests"] += 1
    if res["witnesses"]:
        res["status"] = "fail"
    return res


def _suite_morphisms(args, cfg: RunConfig) -> dict:
    N = args.N if args.N is not None else 3
    d = args.d
    res = {"N": N, "d": d, "status": "pass", "reports": {}}
    for which in ("psi", "phi_g"):
        table = MorphismTable(which, N, d)
        if args.mutate:
            # negative control: doubling one tree image breaks the coproduct
            # compatibility against the untouched smaller trees
            t0 = max(table.cache)
            table.cache[t0] = table.cache[t0] + table.cache[t0]
        rep = verify_hopf_morphism(which, N, d, table=table)
        res["reports"][which] = rep
        if rep["status"] != "pass":
            res["status"] = "fail"
    return res


def _tampered(X: GeometricRoughPath) -> GeometricRoughPath:
    """Bump one letter coefficient of the first adjacent increment; the
    result is no longer a shuffle character."""
    inc = X.increments[0]
    terms = dict(inc.terms)
    key = next(w for w in sorted(terms, key=Word.sort_key) if not w.is_empty())
    terms[key] = terms[key] + 1
    increments = list(X.increments)
    increments[0] = TensorElem(terms, inc.d, inc.n)
    return GeometricRoughPath(X.N, X.gamma, X.grid, increments, X.d, X.mode, X.letters)


def _suite_lifts(args, cfg: RunConfig) -> dict:
    N = args.N if args.N is not None else 3
    d = args.d
    res = {
        "N": N,
        "d": d,
        "steps": args.steps,
        "seed": cfg.seed,
        "status": "pass",
        "checks": {},
    }
    path = _synth_path("rw", args.steps, cfg.seed, "1/2", d, RATIONAL)
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
    N = args.N if args.N is not None else 4
    rng = random.Random(cfg.seed)
    monomials = ("", "y1", "y2", "y1^2", "y1*y2", "y2^2")

    def quadratic() -> str:
        out = ""
        for mono in monomials:
            c = rng.randint(-3, 3)
            if c == 0:
                continue
            term = f"{abs(c)}*{mono}" if mono else f"{abs(c)}"
            if not out:
                out = term if c > 0 else f"-{term}"
            else:
                out += f" + {term}" if c > 0 else f" - {term}"
        return out or "0*y1"

    f = ButcherTable.parse({1: [quadratic(), quadratic()], 2: [quadratic(), quadratic()]})
    if args.mutate:
        # negative control: poison one cached coefficient field
        tau = Tree(2, (leaf(1),))
        butcher(f, tau)
        f.cache[tau] = f.cache[tau] + PolyVectorField.parse(["y1^3", "0*y1"])
    res = {"N": N, "d": 2, "seed": cfg.seed, "status": "pass", "checked": 0, "witnesses": []}
    for lam in enumerate_trees(N - 1, 2):
        for h in enumerate_trees(N - lam.grade, 2):
            r = check_lgl(f, lam, h, N)
            res["checked"] += 1
            if not r:
                _note_failure(res, "derivative rule", f"lambda={lam!r} h={h!r}")
                if len(res["witnesses"]) <= 5:
                    res["witnesses"][-1]["detail"] = r.witness
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
    cfg = _config(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report = {"suites": {}, "status": "pass"}
    for name in names:
        res = _SUITES[name](args, cfg)
        report["suites"][name] = res
        if res["status"] != "pass":
            report["status"] = "fail"
    _write_out(json.dumps(_json_safe(report), indent=2, sort_keys=True), args.out)
    return OK if report["status"] == "pass" else INVARIANT_FAILED


# -- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfpath",
        description="Branched and geometric rough paths over labelled forests.",
    )
    parser.add_argument(
        "--float",
        action="store_true",
        help="floating-point scalars (default: exact rationals)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility; has no effect",
    )
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--float", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="operate on forest expressions", parents=[common])
    p.add_argument(
        "--op",
        required=True,
        choices=["coproduct", "antipode", "star", "exp", "log", "psi", "phig", "graft"],
    )
    p.add_argument("--d", type=int, default=None, help="alphabet size (default: largest label used)")
    p.add_argument("--N", type=int, default=None, help="truncation grade where one applies")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("expr", nargs="+", help="expression(s) in the forest grammar")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("lift", parents=[common], help="lift sampled data to a rough path")
    p.add_argument("input", nargs="?", default=None, help="CSV file, or - for stdin")
    p.add_argument("--synth", choices=["rw", "linear", "sine"], default=None, help="generate the path instead")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", default=None, help="walk step size, e.g. 1/4")
    p.add_argument("--d", type=int, default=1, help="components of the synthetic path")
    p.add_argument("--mode", choices=["canonical", "ito"], default="canonical")
    p.add_argument("--gamma", default=None, help="Hölder exponent in (0,1)")
    p.add_argument("--N", type=int, default=None, help="truncation level (default: from gamma, else 2)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("convert", parents=[common], help="encode a branched driver geometrically")
    p.add_argument("input", nargs="?", default="-", help="rough-path JSON file, or - for stdin")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("solve", parents=[common], help="Euler-solve a driven system")
    p.add_argument("--driver", default=None, help="rough-path JSON file, or - for stdin")
    p.add_argument("--synth", choices=["rw", "linear", "sine"], default=None)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=None, help="run an ensemble and emit summary statistics")
    p.add_argument("--step", default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--lift", choices=["canonical", "ito"], default="ito", help="lift for synthetic drivers")
    p.add_argument("--gamma", default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument(
        "--fields",
        required=True,
        help="driving fields, e.g. '1: y1^2 + y2, y1*y2; 2: y2^2, y1 + 1'",
    )
    p.add_argument("--xi", required=True, help="initial point, e.g. '1, 3/2'")
    p.add_argument("--side", choices=["branched", "geometric", "both"], default="branched")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument(
        "--reference",
        choices=["exp-ito"],
        default=None,
        help="ensemble comparison against xi*exp(X_T - [X]_T/2), for dY = Y dX",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common], help="run invariant suites")
    p.add_argument("--suite", required=True, choices=["hopf", "morphisms", "lifts", "lgl", "all"])
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument(
        "--mutate",
        action="store_true",
        help="corrupt one value first; the suites must catch it",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error at line {e.line}, column {e.col}: {e}", file=sys.stderr)
        return BAD_INPUT
    except json.JSONDecodeError as e:
        print(f"input error: {e}", file=sys.stderr)
        return BAD_INPUT
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return BAD_INPUT
    except ConversionError as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return CERTIFICATE_FAILED
    except (KeyError, TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_REQUEST


if __name__ == "__main__":
    raise SystemExit(main())
