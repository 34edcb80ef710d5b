#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of hopfpath.

    python3 bench/run.py --workload {exact_chain,float_ito,algebra_deep}
                         --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; the library is imported from the
checkout's src/ in child processes, one at a time, and never installed.
Work files go to a temporary bench/.work-* directory that is removed at exit.

--trace 0 times the workload: its fixed unit list (a "pass") is repeated
while the next pass still fits in --seconds, and the last line of stdout is
a JSON object with setup_s, unit_s, run_s and peak_rss_mb.  --trace 1 runs
the first unit of the list once untraced and once under bench/tracer.py,
and reports the per-layer metrics of the traced unit plus trace_overhead.
Every unit's outputs are checked; a wrong answer or a non-zero exit is a
failed unit.  Negative controls (outputs corrupted on purpose, and the
CLI's own --mutate sweeps) run outside the timed section and must be
flagged.  bench/README.md records why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from child import walk  # noqa: E402
from cpu import Sampler, pin_fastest_cpu  # noqa: E402

PY = sys.executable
SETUP_REPEATS = 9
# a run ends well inside the 180 s a run may take
RUN_LIMIT_S = 150.0
CHILD_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HOPFPATH_THREADS", None)
    env.pop("PYTHONHASHSEED", None)
    return env


ENV = child_env()
RUN_START = perf_counter()
CPUS = tuple(sorted(os.sched_getaffinity(0)))


@dataclass
class Proc:
    rc: int
    wall: float  # seconds as measured
    scaled: float  # the same at the reference CPU speed (bench/cpu.py)
    rss_mb: float
    speed: Sampler  # the CPU's speed while the child ran


def run_child(argv, cwd: Path, stem: str) -> Proc:
    """Run one child to completion with stdout/stderr in cwd/stem.out/.err.

    The child runs on the CPU that is fastest just before it starts, and
    a sampler thread on that CPU measures the CPU's speed meanwhile (see
    bench/cpu.py).  os.wait4 reaps the child, which gives its own max RSS;
    a timer kills it if the run's time limit is reached first."""
    pin_fastest_cpu(CPUS)
    speed = Sampler()
    speed.start()
    remaining = max(1.0, CHILD_LIMIT_S - (perf_counter() - RUN_START))
    with open(cwd / f"{stem}.out", "wb") as out, open(cwd / f"{stem}.err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(remaining, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
            speed.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, t1 - t0, speed.scaled(t0, t1), usage.ru_maxrss / 1024.0, speed)


def hopfpath_cli(args, cwd: Path, stem: str, traced: bool) -> Proc:
    if traced:
        argv = [PY, str(BENCH / "child.py"), "cli", "--trace", f"{stem}.trace", "--", *args]
    else:
        argv = [PY, "-m", "hopfpath", *args]
    return run_child(argv, cwd, stem)


def read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def unit_seeds(workload: str, seed: int, n: int) -> list:
    rng = random.Random(f"hopfpath-bench/{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


@dataclass
class Unit:
    seed: int
    wall: float = 0.0  # seconds at the reference CPU speed
    raw: float = 0.0  # seconds as measured
    dir: Path | None = None
    data: dict = field(default_factory=dict)


@dataclass
class Pass:
    wall: float  # seconds at the reference CPU speed
    units: list
    rss_mb: float
    raw: float = 0.0  # seconds as measured


def cli_pass(seeds, work: Path, traced: bool, run_unit) -> Pass:
    """Run CLI units one after another; each step is a fresh process.  A
    unit's time is the sum of its children's scaled wall times, a pass's
    the sum of its units', so the benchmark's own work is never inside
    them."""
    units = []
    rss_mb = 0.0
    for i, s in enumerate(seeds):
        unit = Unit(s, dir=work / f"unit{i}")
        unit.dir.mkdir()
        procs = {}

        def launch(stem, args):
            procs[stem] = hopfpath_cli(args, unit.dir, stem, traced)

        run_unit(unit, launch)
        unit.wall = sum(p.scaled for p in procs.values())
        unit.raw = sum(p.wall for p in procs.values())
        rss_mb = max(rss_mb, *(p.rss_mb for p in procs.values()))
        unit.data["rc"] = {k: p.rc for k, p in procs.items()}
        unit.data["walls"] = {k: p.scaled for k, p in procs.items()}
        units.append(unit)
    return Pass(sum(u.wall for u in units), units, rss_mb, sum(u.raw for u in units))


# -- exact_chain -------------------------------------------------------------

# The CLI's default seed; its outputs are pinned byte for byte.
REFERENCE_SEED = 0
CHAIN_FIELDS = "1: y2, -y1; 2: y1, y2"
CHAIN_XI = "1, -1/2"
CHAIN_PINS = {
    "lift.json": "3c9c612e7f955aaec45be59516ccf270ec294a6ad2450c572b3c3e93bcceaaac",
    "convert.json": "70373ffdf75372aee10b6f21f228171ef129f39410fa863eaf4ae025bf622755",
    "solve.csv": "54cf6cf6f79c65452777cefdc9b9a89169f5e46808b14ccc2b774f3d45e4dc28",
}


def chain_unit(unit: Unit, launch) -> None:
    lift = [
        "lift", "--synth", "rw", "--steps", "24", "--d", "2", "--N", "3",
        "--mode", "ito", "--step", "1/2", "--seed", str(unit.seed), "--out", "lift.json",
    ]
    launch("lift", lift)
    launch("convert", ["convert", "lift.json", "--out", "convert.json"])
    solve = [
        "solve", "--driver", "lift.json", "--side", "both",
        "--fields", CHAIN_FIELDS, "--xi", CHAIN_XI, "--out", "solve.csv",
    ]
    launch("solve", solve)


def check_chain(unit: Unit) -> list:
    d = unit.dir
    problems = [f"{step} exited {rc}" for step, rc in unit.data["rc"].items() if rc != 0]
    try:
        report = json.loads(read(d / "lift.err"))
        if report["character"]["status"] != "pass":
            problems.append("lift: character check failed")
        if report["chen"]["status"] != "pass" or report["chen"]["checked_triples"] != 2300:
            problems.append(f"lift: chen {report['chen']['status']} on {report['chen']['checked_triples']} triples")
    except (ValueError, KeyError, TypeError) as e:
        problems.append(f"lift: unreadable report ({e})")
    try:
        cert = json.loads(read(d / "convert.json"))["certificate"]
        if (cert["status"], cert["checked_pairs"], cert["checked_forests"]) != ("pass", 300, 36):
            problems.append(f"convert: certificate {cert['status']} on {cert['checked_pairs']} pairs, {cert['checked_forests']} forests")
    except (ValueError, KeyError, TypeError) as e:
        problems.append(f"convert: unreadable output ({e})")
    if read(d / "solve.err") != "max per-step discrepancy: 0\n":
        problems.append(f"solve: stderr {read(d / 'solve.err')[:80]!r}")
    if unit.seed == REFERENCE_SEED:
        for name, want in CHAIN_PINS.items():
            if sha256(d / name) != want:
                problems.append(f"{name}: output differs from the pinned bytes")
    return problems


def _corrupt(path: Path, old: str, new: str) -> bool:
    text = read(path)
    if old not in text:
        return False
    path.write_text(text.replace(old, new, 1))
    return True


def chain_controls(units, work: Path) -> list:
    """Corrupted copies of the reference chain's outputs must each fail."""
    ref = next(u for u in units if u.seed == REFERENCE_SEED)
    corruptions = {
        "discrepancy": ("solve.err", "discrepancy: 0", "discrepancy: 1/1024"),
        "certificate": ("convert.json", '"checked_pairs": 300', '"checked_pairs": 299'),
        "chen": ("lift.err", '"checked_triples": 2300', '"checked_triples": 2299'),
        "trajectory": ("solve.csv", "\n1/24,", "\n1/25,"),
    }
    missed = []
    for name, (fname, old, new) in corruptions.items():
        copy = work / f"control-{name}"
        shutil.copytree(ref.dir, copy)
        if not _corrupt(copy / fname, old, new):
            missed.append(f"{name}: {old!r} not found in {fname}, nothing to corrupt")
        elif not check_chain(Unit(ref.seed, dir=copy, data=ref.data)):
            missed.append(f"corrupted {name} passed the chain checks")
    return missed


# -- float_ito ---------------------------------------------------------------

FLOAT_SEEDS_PER_PASS = 4
FLOAT_REL_ERR = 2e-2


def float_pass(seeds, work: Path, traced: bool) -> Pass:
    """All seeds of the pass in one worker process.  The worker reports
    when each seed started and ended, in perf_counter time, which is the
    same clock in every process; each seed is scaled by the speed samples
    taken meanwhile.  The pass time is the worker's, start-up included."""
    argv = [PY, str(BENCH / "child.py"), "float", "--seeds", ",".join(map(str, seeds))]
    if traced:
        argv += ["--trace", "float.trace"]
    proc = run_child(argv, work, "float")
    units = []
    records = {}
    for line in read(work / "float.out").splitlines():
        try:
            rec = json.loads(line)
            records[rec["seed"]] = rec
        except (ValueError, KeyError, TypeError):
            continue
    for s in seeds:
        rec = records.get(s, {})
        data = {"rc": {"float": proc.rc}, "record": rec}
        if rec:
            units.append(Unit(s, proc.speed.scaled(rec["t0"], rec["t1"]), rec["t1"] - rec["t0"], work, data))
        else:
            units.append(Unit(s, dir=work, data=data))
    return Pass(proc.scaled, units, proc.rss_mb, proc.wall)


def float_reference(seed: int):
    """qv and the exact solution exp(X_T - qv/2) of dY = Y dX, Y_0 = 1,
    from an independently regenerated walk."""
    vals = walk(seed)
    qv = sum((vals[k + 1] - vals[k]) ** 2 for k in range(len(vals) - 1))
    return qv, math.exp(vals[-1] - qv / 2.0)


def check_float_units(units) -> dict:
    """Problems per unit; the mean relative error is a property of the
    pass, so if it fails every unit in it fails."""
    problems = {}
    rel = []
    for u in units:
        p = [f"{k} exited {rc}" for k, rc in u.data["rc"].items() if rc != 0]
        rec = u.data["record"]
        if not rec:
            problems[id(u)] = p + ["no result"]
            continue
        qv, ref = float_reference(u.seed)
        if rec["sym_end"] != -qv:
            p.append(f"symmetric_path(1,1)[-1] = {rec['sym_end']!r}, want {-qv!r}")
        if rec["cov_end"] != qv:
            p.append(f"covariation(1,1)[-1] = {rec['cov_end']!r}, want {qv!r}")
        if rec["branched_sha"] != rec["simplified_sha"]:
            p.append("solve_simplified differs from solve_branched")
        rel.append(abs(rec["terminal"] - ref) / abs(ref))
        problems[id(u)] = p
    if rel and sum(rel) / len(rel) >= FLOAT_REL_ERR:
        for u in units:
            problems[id(u)].append(f"mean relative error {sum(rel) / len(rel):.3g} >= {FLOAT_REL_ERR}")
    return problems


def float_controls(units, work: Path) -> list:
    base = next(u for u in units if u.data["record"])
    rec = base.data["record"]
    corruptions = {
        "symmetric path": {"sym_end": math.nextafter(rec["sym_end"], 0.0)},
        "covariation": {"cov_end": rec["cov_end"] * 2},
        "simplified trajectory": {"simplified_sha": "0" * 64},
        "terminal value": {"terminal": rec["terminal"] * 1.5},
    }
    missed = []
    for name, change in corruptions.items():
        bad = Unit(base.seed, data={"rc": base.data["rc"], "record": {**rec, **change}})
        if not any(check_float_units([bad]).values()):
            missed.append(f"corrupted {name} passed the float checks")
    return missed


# -- algebra_deep ------------------------------------------------------------

# grade <= 3 trees over labels {1, 2}, in the order print_h writes them
PRIMITIVE_TREES = (
    "b_1", "b_2", "[b_1]_1", "[b_2]_1", "[b_1]_2", "[b_2]_2",
    "[b_1 b_1]_1", "[b_1 b_2]_1", "[b_2 b_2]_1", "[[b_1]_1]_1", "[[b_2]_1]_1",
    "[[b_1]_2]_1", "[[b_2]_2]_1", "[b_1 b_1]_2", "[b_1 b_2]_2", "[b_2 b_2]_2",
    "[[b_1]_1]_2", "[[b_2]_1]_2", "[[b_1]_2]_2", "[[b_2]_2]_2",
)
ALGEBRA_SUITES = {
    "hopf": ["--suite", "hopf", "--N", "5", "--d", "2"],
    "morphisms": ["--suite", "morphisms", "--N", "5", "--d", "2"],
    "lgl": ["--suite", "lgl", "--N", "5"],
}


def primitive_element(seed: int) -> str:
    """Both leaves and six more single trees, with non-zero rational
    coefficients, written the way print_h writes them, so log(exp(x)) must
    print back byte for byte.  With both leaves in it, exp(x) is non-zero
    on every forest of grade <= 5, which keeps the printed size steady."""
    rng = random.Random(seed)
    picks = [0, 1] + sorted(rng.sample(range(2, len(PRIMITIVE_TREES)), 6))
    parts = []
    for i in picks:
        c = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        parts.append(PRIMITIVE_TREES[i] if c == 1 else f"{c} * {PRIMITIVE_TREES[i]}")
    return " + ".join(parts)


def algebra_unit(unit: Unit, launch) -> None:
    for name, args in ALGEBRA_SUITES.items():
        extra = ["--seed", str(unit.seed)] if name == "lgl" else []
        launch(name, ["verify", *args, *extra, "--out", f"{name}.json"])
    x = primitive_element(unit.seed)
    unit.data["element"] = x
    alg = ["algebra", "--N", "5", "--d", "2", "--op"]
    launch("exp", [*alg, "exp", x, "--out", "exp.txt"])
    launch("log", [*alg, "log", read(unit.dir / "exp.txt").strip() or "0", "--out", "log.txt"])
    launch("psi", [*alg, "psi", x, "--out", "psi.txt"])


def _suite(d: Path, name: str) -> dict:
    return json.loads(read(d / f"{name}.json"))["suites"][name]


def check_algebra(unit: Unit) -> list:
    d = unit.dir
    problems = [f"{step} exited {rc}" for step, rc in unit.data["rc"].items() if rc != 0]
    try:
        hopf = _suite(d, "hopf")
        if (hopf["status"], hopf["checked_forests"]) != ("pass", 601):
            problems.append(f"hopf: {hopf['status']} on {hopf['checked_forests']} forests")
        morph = _suite(d, "morphisms")
        for which in ("psi", "phi_g"):
            rep = morph["reports"][which]
            if (rep["status"], rep["checked_forests"], rep["checked_pairs"]) != ("pass", 601, 977):
                problems.append(f"{which}: {rep['status']} on {rep['checked_forests']} forests, {rep['checked_pairs']} pairs")
        lgl = _suite(d, "lgl")
        if (lgl["status"], lgl["checked"]) != ("pass", 412):
            problems.append(f"lgl: {lgl['status']} on {lgl['checked']} pairs")
    except (ValueError, KeyError, TypeError) as e:
        problems.append(f"verify: unreadable report ({e})")
    if read(d / "log.txt") != unit.data["element"] + "\n":
        problems.append("log(exp(x)) does not print x back")
    if read(d / "psi.txt").strip() in ("", "0"):
        problems.append("psi(x) is empty")
    return problems


def algebra_controls(units, work: Path) -> list:
    """The CLI's --mutate sweeps must fail, and so must a corrupted round
    trip."""
    missed = []
    ctl = work / "control-mutate"
    ctl.mkdir()
    for name in ALGEBRA_SUITES:
        args = ["verify", "--mutate", "--suite", name, "--N", "3"]
        proc = hopfpath_cli(args, ctl, name, traced=False)
        try:
            status = json.loads(read(ctl / f"{name}.out"))["status"]
        except (ValueError, KeyError, TypeError):
            status = None
        if proc.rc != 1 or status != "fail":
            missed.append(f"verify --mutate --suite {name} exited {proc.rc} with status {status}")
    base = units[0]
    copy = work / "control-roundtrip"
    shutil.copytree(base.dir, copy)
    # drop the last term of log(exp(x))
    (copy / "log.txt").write_text(read(copy / "log.txt").rsplit(" + ", 1)[0] + "\n")
    if not check_algebra(Unit(base.seed, dir=copy, data=base.data)):
        missed.append("corrupted round trip passed the algebra checks")
    return missed


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: str  # what a fresh interpreter enumerates for setup_s
    units_per_pass: int
    run_pass: object  # (seeds, work dir, traced) -> Pass
    check: object  # units -> {id(unit): [problem, ...]}
    controls: object  # (units, work dir) -> [missed control, ...]
    reference_first: bool = False


def _per_unit(check):
    return lambda units: {id(u): check(u) for u in units}


WORKLOADS = {
    # Rational CLI chain lift -> convert -> solve --side both at N=3, d=2,
    # M=24: the only workload where the all-pairs grid code (Chen triples,
    # cocycle triples, certificate pairs) does most of the work.
    "exact_chain": Workload(
        setup="h.enumerate_forests(3, 2); h.enumerate_trees(3, 2); h.enumerate_words(3, 2, 3)",
        units_per_pass=2,
        run_pass=lambda seeds, work, traced: cli_pass(seeds, work, traced, chain_unit),
        check=_per_unit(check_chain),
        controls=chain_controls,
        reference_first=True,
    ),
    # Criterion 09 in one process: linear in M, adjacent increments only,
    # the float scalar path; per-increment object construction dominates.
    "float_ito": Workload(
        setup="h.enumerate_forests(2, 1); h.enumerate_trees(2, 1); h.enumerate_words(2, 1, 2)",
        units_per_pass=FLOAT_SEEDS_PER_PASS,
        run_pass=float_pass,
        check=check_float_units,
        controls=float_controls,
    ),
    # Grid-free exact algebra at grade 5, d=2, each command a fresh
    # process: cold trees/hopf/tensor/morphism tables, 18-21 kB expressions
    # through the parser and printer, and the rde Butcher/derivative code.
    "algebra_deep": Workload(
        setup="h.enumerate_forests(5, 2); h.enumerate_trees(5, 2)",
        units_per_pass=1,
        run_pass=lambda seeds, work, traced: cli_pass(seeds, work, traced, algebra_unit),
        check=_per_unit(check_algebra),
        controls=algebra_controls,
    ),
}


def pass_seeds(name: str, seed: int) -> list:
    w = WORKLOADS[name]
    if w.reference_first:
        return [REFERENCE_SEED] + unit_seeds(name, seed, w.units_per_pass - 1)
    return unit_seeds(name, seed, w.units_per_pass)


# -- set-up ------------------------------------------------------------------


def check_program(work: Path) -> str | None:
    """None if src/hopfpath imports in a child; else why not."""
    if not (SRC / "hopfpath" / "__init__.py").is_file():
        return f"no hopfpath package under {SRC}"
    code = "import hopfpath, sys; sys.stdout.write(hopfpath.__file__)"
    proc = run_child([PY, "-c", code], work, "import")
    where = Path(read(work / "import.out") or "/").resolve()
    if proc.rc != 0 or SRC.resolve() not in where.parents:
        return f"hopfpath did not import from {SRC}: {read(work / 'import.err')[-400:]}"
    return None


def measure_setup(w: Workload, work: Path) -> float | None:
    """Median scaled wall time of fresh interpreters that import hopfpath
    and enumerate the workload's bases."""
    code = f"import hopfpath as h; {w.setup}"
    walls = []
    for _ in range(SETUP_REPEATS):
        proc = run_child([PY, "-c", code], work, "setup")
        if proc.rc != 0:
            return None
        walls.append(proc.scaled)
    return statistics.median(walls)


# -- traced run --------------------------------------------------------------

# (metric, unit, source): source is ("self" | "incl" | "calls", span name) or
# ("count", counter name); values are for the one traced unit
PER_LAYER = (
    ("trees.enumerate.s", "s", ("incl", "trees.enumerate")),
    ("trees.basis_forests", "count", ("count", "trees.basis_forests")),
    ("hopf.convolve.calls", "count", ("calls", "hopf.convolve")),
    ("hopf.convolve.self_s", "s", ("self", "hopf.convolve")),
    ("hopf.coproduct.self_s", "s", ("self", "hopf.coproduct")),
    ("hopf.antipode.self_s", "s", ("self", "hopf.antipode")),
    ("hopf.product.self_s", "s", ("self", "hopf.product")),
    ("hopf.exp_log.self_s", "s", ("self", "hopf.exp_log")),
    ("hopf.HElem.new", "count", ("count", "hopf.HElem.new")),
    ("tensor.tensor_exp.calls", "count", ("calls", "tensor.tensor_exp")),
    ("tensor.tensor_exp.self_s", "s", ("self", "tensor.tensor_exp")),
    ("tensor.TensorElem.new", "count", ("count", "tensor.TensorElem.new")),
    ("tensor.concat.calls", "count", ("calls", "tensor.concat")),
    ("tensor.concat.self_s", "s", ("self", "tensor.concat")),
    ("tensor.deconcat.self_s", "s", ("self", "tensor.deconcat")),
    ("morphisms.psi.calls", "count", ("calls", "morphisms.psi")),
    ("morphisms.psi.self_s", "s", ("self", "morphisms.psi")),
    ("morphisms.MorphismTable.build_s", "s", ("incl", "morphisms.MorphismTable.build")),
    ("morphisms.verify_hopf_morphism.self_s", "s", ("self", "morphisms.verify_hopf_morphism")),
    ("morphisms.checked_pairs", "count", ("count", "morphisms.checked_pairs")),
    ("roughpath.validate.self_s", "s", ("self", "roughpath.validate")),
    ("roughpath.chen_triples", "count", ("count", "roughpath.chen_triples")),
    ("roughpath.increment.calls", "count", ("count", "roughpath.increment.calls")),
    ("roughpath.increment.distinct_pairs", "count", ("count", "roughpath.increment.distinct_pairs")),
    ("roughpath.canonical_lift.self_s", "s", ("self", "roughpath.canonical_lift")),
    ("roughpath.ito_lift.self_s", "s", ("self", "roughpath.ito_lift")),
    ("roughpath.geometricity_report.s", "s", ("incl", "roughpath.geometricity_report")),
    ("roughpath.json.s", "s", ("incl", "roughpath.json")),
    ("roughpath.json.bytes", "bytes", ("count", "roughpath.json.bytes")),
    ("conversion.extract_extended_path.self_s", "s", ("self", "conversion.extract_extended_path")),
    ("conversion.certify.self_s", "s", ("self", "conversion.certify")),
    ("conversion.certify.checked_pairs", "count", ("count", "conversion.certify.checked_pairs")),
    ("conversion.to_json.s", "s", ("incl", "conversion.to_json")),
    ("conversion.encode.s", "s", ("incl", "conversion.encode")),
    ("conversion.simplify_n2.s", "s", ("incl", "conversion.simplify_n2")),
    ("rde.solve_branched.self_s", "s", ("self", "rde.solve_branched")),
    ("rde.solve_geometric.self_s", "s", ("self", "rde.solve_geometric")),
    ("rde.solve_simplified.self_s", "s", ("self", "rde.solve_simplified")),
    ("rde.check_lgl.calls", "count", ("calls", "rde.check_lgl")),
    ("rde.check_lgl.self_s", "s", ("self", "rde.check_lgl")),
    ("rde.apply_derivative.calls", "count", ("count", "rde.apply_derivative.calls")),
    ("expr.parse_h.s", "s", ("incl", "expr.parse_h")),
    ("expr.print_h.s", "s", ("incl", "expr.print_h")),
    ("expr.print_tensor.s", "s", ("incl", "expr.print_tensor")),
    ("expr.chars", "count", ("count", "expr.chars")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("cli.out_bytes", "bytes", ("count", "cli.out_bytes")),
)


def merge_traces(paths) -> dict:
    spans: dict = {}
    counts: dict = {}
    for path in paths:
        summary = json.loads(path.read_text())
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, v in summary["counts"].items():
            if name == "trees.basis_forests":
                counts[name] = max(counts.get(name, 0), v)
            else:
                counts[name] = counts.get(name, 0) + v
    return {"spans": spans, "counts": counts}


def layer_metrics(merged: dict, overhead: float) -> dict:
    spans, counts = merged["spans"], merged["counts"]
    field_of = {"self": "self_s", "incl": "incl_s", "calls": "calls"}
    out = {}
    for name, unit, (kind, key) in PER_LAYER:
        if kind == "count":
            value = counts.get(key, 0)
        else:
            value = spans.get(key, {}).get(field_of[kind], 0)
        out[name] = {"value": value, "unit": unit}
    calls = counts.get("roughpath.increment.calls", 0)
    repeats = counts.get("roughpath.increment.repeats", 0)
    out["roughpath.increment.repeat_ratio"] = {"value": repeats / calls if calls else 0.0, "unit": "ratio"}
    out["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    return out


# -- main --------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    w = WORKLOADS[name]
    seeds = pass_seeds(name, seed)
    setup_s = measure_setup(w, _fresh(work, "setup"))
    if setup_s is None:
        raise SystemExit(f"error: set-up failed: {read(work / 'setup' / 'setup.err')[-400:]}")

    passes = []
    if trace:
        first = seeds[:1]
        passes.append(w.run_pass(first, _fresh(work, "untraced"), False))
        passes.append(w.run_pass(first, _fresh(work, "traced"), True))
    else:
        t0 = perf_counter()
        while True:
            t1 = perf_counter()
            passes.append(w.run_pass(seeds, _fresh(work, f"pass{len(passes)}"), False))
            # the next pass is assumed to take as long as this one did
            last = perf_counter() - t1
            if perf_counter() - t0 + last > seconds or perf_counter() - RUN_START + last > RUN_LIMIT_S:
                break

    units = [u for p in passes for u in p.units]
    problems = {}
    for p in passes:
        problems.update(w.check(p.units))
    failed = [u for u in units if problems[id(u)]]
    for u in failed:
        print(f"unit seed {u.seed} failed: {'; '.join(problems[id(u)])}", file=sys.stderr)
    missed = w.controls(passes[0].units, _fresh(work, "controls"))
    for m in missed:
        print(f"negative control not caught: {m}", file=sys.stderr)

    if trace:
        trace_files = sorted((work / "traced").rglob("*.trace"))
        metrics = layer_metrics(merge_traces(trace_files), passes[1].wall / passes[0].wall)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "unit_s": {"value": statistics.median(u.wall for u in units), "unit": "s"},
            "run_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": max(p.rss_mb for p in passes), "unit": "MB"},
        }
    for k, v in metrics.items():
        print(f"{name} {k} {v['value']:.6g} {v['unit']}")
    print(f"{name} unit seconds: " + ", ".join(f"{u.seed} {u.wall:.4g}" for u in units))
    print(f"{name} as measured, unscaled: unit_s {statistics.median(u.raw for u in units):.6g} s, run_s {statistics.median(p.raw for p in passes):.6g} s")
    steps = {k: statistics.median(u.data["walls"][k] for u in units) for k in units[0].data.get("walls", {})}
    if steps:
        print(f"{name} median step seconds: " + ", ".join(f"{k} {v:.4g}" for k, v in steps.items()))
    print(f"{name} error_rate {len(failed) / len(units):.6g} ratio ({len(failed)} of {len(units)} units failed, {len(passes)} passes)")
    print(f"{name} negative_controls {'all caught' if not missed else f'{len(missed)} missed'}")
    return {
        "correct": not failed and not missed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": metrics,
    }


def _fresh(work: Path, name: str) -> Path:
    d = work / name
    d.mkdir()
    return d


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a terminated run still stops its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        why_not = check_program(work)
        if why_not is not None:
            print(f"error: {why_not}", file=sys.stderr)
            return 2
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
