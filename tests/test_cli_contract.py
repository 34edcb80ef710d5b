"""The command line's contract on malformed input (ROADMAP item 3).

Hypothesis mutates valid inputs of five kinds: `lift` JSON outputs (keys
dropped, values of the wrong type, truncated text, "inf"/"nan" inserted),
CSV files, `--fields` specs, `algebra` expressions, and float `--xi` and
`--step` values.  Every run must exit 0, 2 or 3, a refusal must leave stdout
empty and write exactly one line to stderr, and no run may end in a
traceback: `main` returns instead of raising.

The mutations keep the sizes that bound the work small: a JSON `level` of
at most 4, alphabets of at most 3 labels, field degrees of at most 9, and
`--gamma`/`--N` as given here.  A larger level or alphabet is not refused;
it runs for as long as it asks (see CHANGES.md).  A power above
`rde.MAX_POWER` in a field is refused before it is expanded, which a
fresh interpreter checks below.
"""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hopfpath.cli import main

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def check(*argv):
    rc, out, err = run(*argv)
    assert rc in (0, 2, 3), (argv, rc, err)
    assert "Traceback" not in err
    if rc != 0:
        assert out == "", (argv, out)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    return rc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


# -- lift JSON outputs -----------------------------------------------------

# scalars and shapes a field of the rough-path JSON may be replaced with;
# each draw is a copy, because a later mutation may edit it in place
JSON_VALUES = st.sampled_from(
    ["inf", "-inf", "nan", "Infinity", "1/0", "abc", "", "3", "1e999", "-1e999", "1e-999",
     0, 1, 2, 4, -1, 0.5, 1e308, True, False, None, [], {}, [1], {"b_1": "1"},
     "rational", "float", "branched", "geometric", "b_1", "b_3", "[b_1]_2"]
).map(copy.deepcopy)

_LIFTS = {}


def lift_json(mode: str, kind: str) -> dict:
    """A valid lift output, made once per (mode, kind)."""
    if (mode, kind) not in _LIFTS:
        flags = ["--float"] if mode == "float" else []
        rc, out, _ = run(*flags, "lift", "--synth", "rw", "--steps", "3", "--d", "2", "--N", "2",
                         "--mode", kind, "--step", "1/2")
        assert rc == 0
        _LIFTS[mode, kind] = out
    return json.loads(_LIFTS[mode, kind])


@st.composite
def json_mutations(draw):
    mode = draw(st.sampled_from(["rational", "float"]))
    obj = lift_json(mode, draw(st.sampled_from(["ito", "canonical"])))
    for _ in range(draw(st.integers(1, 3))):
        # a container of the document: the top level, a list, or an increment row
        where = draw(st.sampled_from(["top", "times", "increments", "row", "letters"]))
        if where == "top":
            box = obj
        elif where == "row":
            rows = obj.get("increments")
            if not isinstance(rows, list) or not rows or not isinstance(rows[0], dict):
                continue
            box = rows[draw(st.integers(0, len(rows) - 1))]
        else:
            box = obj.get(where)
        if not isinstance(box, (dict, list)) or not box:
            continue
        key = draw(st.sampled_from(sorted(box) if isinstance(box, dict) else range(len(box))))
        if draw(st.booleans()):
            del box[key]
        else:
            value = draw(JSON_VALUES)
            if key in ("level", "d") and isinstance(value, int) and not isinstance(value, bool):
                value = min(value, 4 if key == "level" else 3)
            box[key] = value
    text = json.dumps(obj)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return mode, text


@SETTINGS
@given(json_mutations(), st.sampled_from(["convert", "solve"]))
def test_mutated_lift_json(workdir, case, command):
    mode, text = case
    src = workdir / "driver.json"
    src.write_text(text)
    flags = ["--float"] if mode == "float" else []
    if command == "convert":
        check(*flags, "convert", src)
    else:
        check(*flags, "solve", "--driver", src, "--side", "both", "--fields", "1: y2, -y1; 2: y1, y2", "--xi", "1, 1/2")


# -- CSV files -------------------------------------------------------------

CSV_CELLS = st.sampled_from(
    ["", "0", "1", "-1", "1/2", "2/3", "0.25", "1e999", "-1e999", "1e-999", "1e300", "1/0",
     "nan", "inf", "-inf", "abc", "t", "b_1", "b_3", "[b_1]_2", "b_1 b_2", '"1"', " 1 "]
)


@st.composite
def csv_mutations(draw):
    rows = [["t", "b_1", "b_2"], ["0", "0", "0"], ["1/3", "1/3", "-1"], ["1/2", "1/4", "1/2"], ["1", "2", "0"]]
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1)) if rows else None
        op = draw(st.sampled_from(["cell", "drop cell", "drop row", "copy row", "add cell"]))
        if r is None or (op != "drop row" and not rows[r]):
            continue
        if op == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(CSV_CELLS)
        elif op == "drop cell":
            del rows[r][draw(st.integers(0, len(rows[r]) - 1))]
        elif op == "drop row":
            del rows[r]
        elif op == "copy row":
            rows.insert(r, list(rows[r]))
        else:
            rows[r].append(draw(CSV_CELLS))
    text = "".join(",".join(row) + "\n" for row in rows)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@SETTINGS
@given(csv_mutations(), st.sampled_from([[], ["--float"]]), st.sampled_from(["ito", "canonical"]))
def test_mutated_csv(workdir, text, flags, kind):
    src = workdir / "walk.csv"
    src.write_text(text)
    check(*flags, "lift", src, "--mode", kind, "--N", "2")


# -- --fields specs --------------------------------------------------------

FIELD_TOKENS = st.sampled_from(
    ["1", "2", "3", "0", "-1", "1e999", "1e200", "1/0", "nan", "inf", "y1", "y2", "y3", "y0",
     "y1^2", "^", "*", "+", "-", ":", ";", ",", " ", "", "x"]
)


@st.composite
def field_mutations(draw):
    tokens = re.findall(r"y\d|\d+|\S", "1: y1^2 + y2, y1*y2; 2: y2^2, y1 + 1")
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["drop", "replace", "insert"]))
        if op == "insert" or k == len(tokens):
            tokens.insert(k, draw(FIELD_TOKENS))
        elif op == "drop":
            del tokens[k]
        else:
            tokens[k] = draw(FIELD_TOKENS)
    spec = " ".join(tokens)
    # spaces are dropped inside a polynomial, so digits can run together
    # into a power: keep degrees small, as levels and alphabets are
    assume(all(int(p) <= 9 for p in re.findall(r"\^(\d+)", spec.replace(" ", ""))))
    return spec


@SETTINGS
@given(field_mutations(), st.sampled_from([[], ["--float"]]), st.sampled_from(["branched", "both"]))
def test_mutated_fields(spec, flags, side):
    check(*flags, "solve", "--synth", "rw", "--steps", "3", "--d", "2", "--N", "2", "--side", side,
          f"--fields={spec}", "--xi", "1, 1/2")


# -- algebra expressions ---------------------------------------------------

EXPRESSIONS = ["[b_1 [b_2]_1]_1 + 2 * b_1 [b_2]_1", "1 + b_1 + 1/2 * b_1 b_1 - [b_2]_1", "[b_1 b_2]_1 b_1"]


@st.composite
def expression_mutations(draw):
    text = draw(st.sampled_from(EXPRESSIONS))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from("[]_ +-*/0123b"))
        op = draw(st.sampled_from(["drop", "replace", "insert"]))
        if op == "insert":
            text = text[:k] + ch + text[k:]
        elif op == "drop":
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k] + ch + text[k + 1 :]
    return text


@SETTINGS
@given(expression_mutations(), st.sampled_from(["coproduct", "antipode", "exp", "log", "psi", "phig"]))
def test_mutated_algebra_expression(expr, op):
    check("algebra", "--d", "3", "--N", "3", "--op", op, expr)


@SETTINGS
@given(expression_mutations(), expression_mutations(), st.sampled_from(["star", "graft"]))
def test_mutated_algebra_pair(a, b, op):
    check("algebra", "--d", "3", "--N", "3", "--op", op, a, b)


# -- float flag values -----------------------------------------------------

FLOAT_TEXTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e999", "-1e999", "1e-999", "1e308", "1e160", "nan", "inf", "1/0", "", "abc", "2/3", "-0"]),
)


@SETTINGS
@given(FLOAT_TEXTS, st.sampled_from(["xi", "step"]))
def test_float_flag_values(text, flag):
    if flag == "xi":
        check("--float", "solve", "--synth", "rw", "--steps", "3", "--N", "2", "--fields", "1: y1", f"--xi={text}")
    else:
        check("--float", "lift", "--synth", "rw", "--steps", "3", "--N", "2", f"--step={text}")


# -- sizes past the bounds -------------------------------------------------


def test_a_power_past_the_bound_is_refused_at_once():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = ["solve", "--synth", "rw", "--steps", "2", "--fields", "1: y1^3000000", "--xi", "1"]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hopfpath", *argv], capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - t0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: power 3000000 in 'y1^3000000' is above the bound 1024\n"
    assert elapsed < 5
