"""The truncation level: read from gamma in O(1), and enforced on load.

`gamma_to_level` is checked against the loop it replaced, kept here as the
reference; a gamma whose level would reach 2^53 is refused at once, exact
or float.  A rough-path JSON file whose increments hold a key of grade
above its `level` is refused with exit 2 and the key's location, on the
branched and on the geometric side, where it used to be read and then
dropped by every later step.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hopfpath.cli import main
from hopfpath.roughpath import gamma_to_level

ROOT = Path(__file__).resolve().parents[1]


def gamma_to_level_reference(gamma) -> int:
    g = Q(gamma) if not isinstance(gamma, float) else gamma
    if not 0 < g < 1:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    N = 1
    while (N + 1) * g <= 1:
        N += 1
    return N


def test_fraction_levels_match_the_loop():
    for k in range(1, 51):
        if k > 1:
            g = Q(1, k)
            assert gamma_to_level(g) == gamma_to_level_reference(g) == k
        for m in range(1, 6):
            g = Q(k, k * m + 1)  # just below 1/m
            assert gamma_to_level(g) == gamma_to_level_reference(g) == (m if k > 1 else m + 1)
    assert gamma_to_level(Q(1, 51)) == 51 and isinstance(gamma_to_level(Q(2, 7)), int)


def test_float_levels_match_the_loop():
    for g in (0.1, 0.2, 0.3, 1 / 3, 1 / 7, 0.999):
        assert gamma_to_level(g) == gamma_to_level_reference(g)
    # the float products decide, not floor division: 1 // 0.1 is 9
    assert gamma_to_level(0.1) == 10 and gamma_to_level(0.2) == 5


def test_a_tiny_gamma_returns_at_once():
    start = time.perf_counter()
    assert gamma_to_level(Q(1, 10**12)) == 10**12
    assert gamma_to_level(Q(1, 2**53 - 1)) == 2**53 - 1  # the largest exact level read
    N = gamma_to_level(1e-12)  # the largest N with N * g <= 1 in float products
    assert N * 1e-12 <= 1 < (N + 1) * 1e-12
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("gamma", [1e-300, 2**-60, 2**-53])
def test_float_gamma_whose_level_reaches_2_to_the_53_is_refused_at_once(gamma):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"gamma is too small.*reach 2\\^53, got {gamma}"):
        gamma_to_level(gamma)
    assert time.perf_counter() - start < 1.0


def test_float_levels_just_below_2_to_the_53_are_read():
    assert gamma_to_level(2**-52) == 2**52
    for g in (1 / (2**53 - 5), 1 / (2**52 + 3)):
        N = gamma_to_level(g)
        assert N < 2**53 and N * g <= 1 < (N + 1) * g


@pytest.mark.parametrize("gamma, shown", [(Q(1, 10**300), "1e-300"), (Q(1, 2**53), "1/9007199254740992")])
def test_exact_gamma_whose_level_reaches_2_to_the_53_is_refused_at_once(gamma, shown):
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        gamma_to_level(gamma)
    assert str(refused.value) == f"gamma is too small: the level would reach 2^53, got {shown}"
    assert time.perf_counter() - start < 1.0


def test_cli_refuses_an_exact_gamma_whose_level_reaches_2_to_the_53():
    # in a child interpreter, so a level that is not refused times out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfpath", "lift", "--synth", "rw", "--steps", "2", "--gamma", "1e-300"],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: gamma is too small: the level would reach 2^53, got 1e-300\n"


@pytest.mark.parametrize("gamma", [0, 1, Q(3, 2), -0.5, 1.0])
def test_gamma_outside_the_unit_interval_is_refused(gamma):
    with pytest.raises(ValueError, match="gamma must lie in"):
        gamma_to_level(gamma)


@pytest.mark.parametrize("gamma", [1e-310, 5e-324])
def test_float_gamma_whose_reciprocal_overflows_is_refused(gamma):
    with pytest.raises(ValueError, match=f"gamma is too small.*got {gamma}"):
        gamma_to_level(gamma)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _level_one_lift(capsys, tmp_path, mode, extra):
    """A level-1 lift written to a file, with extra terms in increment 0."""
    rc, out, _ = run(capsys, "lift", "--synth", "rw", "--steps", "3", "--d", "1", "--N", "1",
                     "--mode", mode, "--step", "1/2")
    assert rc == 0
    obj = json.loads(out)
    obj["increments"][0].update(extra)
    src = tmp_path / f"{mode}.json"
    src.write_text(json.dumps(obj))
    return str(src)


_FIELDS = ["--fields", "1: y1", "--xi", "1"]


@pytest.mark.parametrize("argv", [["convert"], ["solve", *_FIELDS, "--side", "both", "--driver"]])
def test_branched_terms_above_the_level_are_refused(capsys, tmp_path, argv):
    src = _level_one_lift(capsys, tmp_path, "ito", {"b_1 b_1": "7", "[b_1]_1": "5"})
    rc, out, err = run(capsys, *argv, src)
    assert (rc, out) == (2, "")
    assert err == "input error: increment 0, b_1 b_1: grade 2 above level 1\n"


@pytest.mark.parametrize("argv", [["convert"], ["solve", *_FIELDS, "--side", "geometric", "--driver"]])
def test_geometric_terms_above_the_level_are_refused(capsys, tmp_path, argv):
    src = _level_one_lift(capsys, tmp_path, "canonical", {"b_1 (x) b_1": "7"})
    rc, out, err = run(capsys, *argv, src)
    assert (rc, out) == (2, "")
    assert err == "input error: increment 0, b_1 (x) b_1: grade 2 above level 1\n"


def test_terms_at_the_level_still_load(capsys, tmp_path):
    src = _level_one_lift(capsys, tmp_path, "ito", {})
    rc, _, _ = run(capsys, "solve", *_FIELDS, "--side", "both", "--driver", src)
    assert rc == 0
