"""The benchmark tracer still finds the layers it wraps.

`bench/tracer.py` rebinds the package's public functions by identity and
counts the HElem and TensorElem constructors through their own `__init__`.
It rebinds the package in place, so it runs in a child interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.install()
from hopfpath import cli, roughpath
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    lift = ["lift", "--synth", "rw", "--steps", "4", "--d", "2", "--N", "3", "--mode", "ito",
            "--step", "1/2", "--out", str(out / "lift.json")]
    codes = [cli.main(lift), cli.main(["convert", str(out / "lift.json"), "--out", str(out / "convert.json")])]
# no CLI step composes a pair as an element, so convolve and concat are
# reached through one wide increment on each side
path = roughpath.SampledPath.over_labels([0, 1, 2], [[0, 0], [1, 2], [3, 1]], 2)
for lift_path in (roughpath.ito_lift, roughpath.canonical_lift):
    lift_path(path, 3).increment(0, 2)
summary = t.summary()
print(json.dumps({"codes": codes, "counts": summary["counts"],
                  "calls": {k: v["calls"] for k, v in summary["spans"].items()}}))
"""


def test_tracer_counts_the_container_and_kernel_layers():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["counts"]["hopf.HElem.new"] > 0
    assert report["counts"]["tensor.TensorElem.new"] > 0
    assert report["counts"]["roughpath.increment.calls"] == 2
    assert report["calls"]["hopf.convolve"] == report["calls"]["tensor.concat"] == 1


HANDLER_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.install()
from hopfpath import cli
codes = [cli.main(["algebra", "--op", "psi", "--N", "3", "--out", sys.argv[2], "b_1 + [b_2]_1"]),
         cli.main(["verify", "--suite", "lgl", "--N", "3", "--out", sys.argv[2]])]
summary = t.summary()
print(json.dumps({"codes": codes, "calls": {k: v["calls"] for k, v in summary["spans"].items()}}))
"""


def test_tracer_sees_the_calls_of_handler_local_imports(tmp_path):
    # the handlers import their layers when they run, after install() has
    # rebound the names, and must still reach the wrapped functions
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", HANDLER_SCRIPT, str(ROOT / "bench"), str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    for span in ("morphisms.psi", "expr.parse_h", "expr.print_tensor", "rde.check_lgl", "cli.main"):
        assert report["calls"].get(span, 0) > 0, span
    # one call per pair the suite checks: 2 leaves lambda times the 6 trees h
    # of grade <= 2, plus the 4 trees lambda of grade 2 times the 2 leaves h
    assert report["calls"]["rde.check_lgl"] == 20
