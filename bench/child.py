"""Child processes that bench/run.py starts, one at a time.

    python3 bench/child.py cli --trace FILE -- <hopfpath CLI arguments>
        one traced CLI invocation: the tracer is installed, then
        hopfpath.cli.main runs exactly as `python3 -m hopfpath` would.

    python3 bench/child.py float --seeds 3,17,... [--trace FILE]
        the float_ito workload (acceptance criterion 09) in one process:
        per seed a +-1/64 walk with M=4096, lifted with ito_lift, solved with
        solve_branched, encoded without certificate or cocycle check,
        simplified with simplify_n2 and solved again with solve_simplified.
        One JSON line per seed goes to stdout with the perf_counter times
        at which the unit started and ended, and the values run.py
        checks.

With --trace, the tracer summary is written to FILE as JSON at exit.
The library is imported from PYTHONPATH, which run.py points at src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from random import Random
from time import perf_counter

FLOAT_STEPS = 4096
FLOAT_STEP = 1.0 / 64.0


def walk(seed: int) -> list:
    """The criterion-09 walk: M signs of size 1/64 from Random(seed)."""
    rng = Random(seed)
    vals = [0.0]
    for _ in range(FLOAT_STEPS):
        vals.append(vals[-1] + FLOAT_STEP * rng.choice((1.0, -1.0)))
    return vals


def _digest(values) -> str:
    return hashlib.sha256(repr([list(v) for v in values]).encode()).hexdigest()


def float_units(seeds, tracer) -> None:
    import hopfpath as hp

    f = hp.ButcherTable.parse({1: ["y1"]})
    times = [k / FLOAT_STEPS for k in range(FLOAT_STEPS + 1)]
    for seed in seeds:
        path = hp.SampledPath.over_labels(times, [[v] for v in walk(seed)], 1, hp.FLOAT)
        t0 = perf_counter()
        X = hp.ito_lift(path, 2)
        branched = hp.solve_branched(X, f, (1.0,))
        sd = hp.simplify_n2(hp.encode(X, certify_result=False, check_cocycle=False))
        simplified = hp.solve_simplified(sd, f, (1.0,))
        sym_end = sd.symmetric_path(1, 1)[-1]
        cov_end = sd.covariation(1, 1)[-1]
        t1 = perf_counter()
        record = {
            "seed": seed,
            "t0": t0,
            "t1": t1,
            "terminal": branched.values[-1][0],
            "sym_end": sym_end,
            "cov_end": cov_end,
            "branched_sha": _digest(branched.values),
            "simplified_sha": _digest(simplified.values),
        }
        print(json.dumps(record), flush=True)
        del X, branched, sd, simplified
        if tracer is not None:
            tracer.forget_paths()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("float")
    p.add_argument("--seeds", required=True)
    p.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    try:
        if args.mode == "cli":
            import hopfpath.cli

            cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            rc = hopfpath.cli.main(cli_argv)
        else:
            float_units([int(s) for s in args.seeds.split(",")], tracer)
            rc = 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            with open(args.trace, "w") as fh:
                json.dump(tracer.summary(), fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
