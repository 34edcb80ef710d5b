"""End-to-end checks of the command-line front end, driven in-process."""

import json
import sys
from fractions import Fraction

import pytest

from hopfpath.cli import main
from hopfpath.conversion import encode
from hopfpath.expr import parse_h, parse_tensor
from hopfpath.rde import ButcherTable, check_lgl, solve_branched
from hopfpath.roughpath import (
    BranchedRoughPath,
    GeometricRoughPath,
    SampledPath,
    ito_lift,
    roughpath_from_json,
)

from oracles import tree_factorial_oracle


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- algebra ---------------------------------------------------------------


def test_algebra_coproduct_display(capsys):
    rc, out, _ = run(capsys, "algebra", "--op", "coproduct", "[b_1]_2")
    assert rc == 0
    assert out.strip() == "1 (x) [b_1]_2 + b_1 (x) b_2 + [b_1]_2 (x) 1"


def test_algebra_star_matches_grafting_law(capsys):
    rc, out, _ = run(capsys, "algebra", "--op", "star", "b_1", "b_2")
    assert rc == 0
    assert out.strip() == "[b_1]_2 + b_1 b_2"


def test_algebra_psi_cherry(capsys):
    rc, out, _ = run(capsys, "algebra", "--op", "psi", "--N", "3", "[b_1 b_1]_1")
    assert rc == 0
    # one cherry letter, the grafted chain twice, the fully split word twice
    assert parse_tensor(out.strip(), 1, 3) == parse_tensor(
        "[b_1 b_1]_1 + 2 * b_1 (x) [b_1]_1 + 2 * b_1 (x) b_1 (x) b_1", 1, 3
    )


def test_algebra_round_trips_through_parser(capsys):
    rc, out, _ = run(capsys, "algebra", "--op", "antipode", "[b_1 b_2]_1")
    assert rc == 0
    x = parse_h(out.strip(), 2)
    rc2, out2, _ = run(capsys, "algebra", "--op", "antipode", out.strip())
    assert rc2 == 0
    assert parse_h(out2.strip(), 2) == parse_h("[b_1 b_2]_1", 2)
    assert x.max_grade() == 3


def test_algebra_exp_log_invert(capsys):
    rc, out, _ = run(capsys, "algebra", "--op", "exp", "--N", "3", "b_1")
    assert rc == 0
    rc, out2, _ = run(capsys, "algebra", "--op", "log", "--N", "3", out.strip())
    assert rc == 0
    assert parse_h(out2.strip(), 1) == parse_h("b_1", 1)


def test_algebra_parse_error_reports_location(capsys):
    rc, _, err = run(capsys, "algebra", "--op", "coproduct", "[b_1")
    assert rc == 2
    assert "line 1" in err and "column" in err


def test_algebra_parse_error_names_its_location_once(capsys):
    rc, out, err = run(capsys, "algebra", "--op", "antipode", "b_1 +")
    assert (rc, out, err) == (2, "", "parse error: expected a tree (line 1, column 6)\n")


def test_algebra_graft_rejects_forests(capsys):
    rc, _, err = run(capsys, "algebra", "--op", "graft", "b_1 b_2", "b_1")
    assert rc == 3
    assert "single tree" in err


def test_algebra_wrong_arity(capsys):
    rc, _, err = run(capsys, "algebra", "--op", "star", "b_1")
    assert rc == 3


@pytest.mark.parametrize(
    "op, exprs", [("exp", ["b_1"]), ("log", ["1+b_1"]), ("star", ["b_1", "b_2"])]
)
def test_algebra_refuses_a_negative_level(capsys, op, exprs):
    rc, out, err = run(capsys, "algebra", "--N", "-1", "--d", "2", "--op", op, *exprs)
    assert (rc, out) == (3, "")
    assert err == "error: truncation level must be >= 0, got -1\n"


# -- lift ------------------------------------------------------------------


def test_lift_linear_chains_hit_tree_factorials(capsys, tmp_path):
    out_file = tmp_path / "lin.json"
    rc, _, err = run(
        capsys,
        "lift",
        "--synth",
        "linear",
        "--steps",
        "4",
        "--gamma",
        "0.3",
        "--out",
        str(out_file),
    )
    assert rc == 0
    X = roughpath_from_json(out_file.read_text())
    assert isinstance(X, GeometricRoughPath) and X.N == 3
    # over the whole of [0,1] the increment of the grade-k chain word is
    # 1/k!, the tree factorial of the chain
    inc = X.increment(0, 4)
    from hopfpath.tensor import Word
    from hopfpath.trees import chain, leaf

    for k in (1, 2, 3):
        w = Word((leaf(1),) * k)
        assert inc.coeff(w) == Fraction(1, tree_factorial_oracle(chain([1] * k)))
    report = json.loads(err)
    assert report["character"]["status"] == "pass"
    assert report["chen"]["status"] == "pass"


def test_lift_ito_reports_shuffle_defects_but_passes(capsys):
    rc, out, err = run(
        capsys,
        "lift",
        "--synth",
        "rw",
        "--steps",
        "4",
        "--d",
        "2",
        "--step",
        "1/2",
        "--mode",
        "ito",
        "--N",
        "2",
    )
    assert rc == 0
    report = json.loads(err)
    assert report["character"]["status"] == "pass"
    assert report["chen"]["status"] == "pass"
    assert report["geometricity"]["status"] == "fail"
    assert report["geometricity"]["defects"] > 0
    X = roughpath_from_json(out)
    assert isinstance(X, BranchedRoughPath)


def test_lift_single_row_csv(capsys, tmp_path):
    f = tmp_path / "one.csv"
    f.write_text("t,b_1\n0,0\n")
    rc, _, err = run(capsys, "lift", str(f))
    assert rc == 2
    assert "fewer than 2 grid points" in err


def test_lift_malformed_csv(capsys, tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("no header here\n1,2\n3,4\n")
    rc, _, err = run(capsys, "lift", str(f))
    assert rc == 2


def test_lift_csv_file_round_trip(capsys, tmp_path):
    path = SampledPath.over_labels(
        [Fraction(k, 2) for k in range(3)],
        [[Fraction(0)], [Fraction(1, 2)], [Fraction(1, 4)]],
        1,
    )
    f = tmp_path / "walk.csv"
    f.write_text(path.to_csv())
    rc, out, _ = run(capsys, "lift", str(f), "--mode", "ito", "--N", "2")
    assert rc == 0
    X = roughpath_from_json(out)
    assert X.d == 1 and X.grid.steps == 2
    want = ito_lift(path, 2, Fraction(1, 2))
    assert all(a.terms == b.terms for a, b in zip(X.increments, want.increments))


@pytest.mark.parametrize(
    "flags, text, message",
    [
        (["--float"], "nan", "non-finite value 'nan'"),
        (["--float"], "inf", "non-finite value 'inf'"),
        (["--float"], "-inf", "non-finite value '-inf'"),
        ([], "1/0", "'1/0' is not a number"),
    ],
)
def test_lift_rejects_bad_csv_values_with_location(capsys, tmp_path, flags, text, message):
    f = tmp_path / "walk.csv"
    f.write_text(f"t,b_1\n0,0\n0.5,{text}\n1,1\n")
    rc, out, err = run(capsys, *flags, "lift", str(f))
    assert rc == 2
    assert out == ""
    assert f"row 3, column 2: {message}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lift"],
        ["convert"],
        ["solve", "--fields", "1: y1", "--xi", "1", "--driver"],
    ],
    ids=["lift", "convert", "solve"],
)
def test_non_utf8_input_is_refused_with_its_file_and_offset(capsys, tmp_path, argv):
    f = tmp_path / "bad.csv"
    f.write_bytes(b"t,b_1\n0,0\n1,\xff\xfe\n")
    rc, out, err = run(capsys, *argv, str(f))
    assert rc == 2
    assert out == ""
    assert err == f"input error: {f}: not UTF-8: byte 0xff at offset 12\n"


def test_lift_level_gamma_consistency(capsys):
    rc, _, err = run(
        capsys, "lift", "--synth", "linear", "--steps", "2", "--gamma", "0.3", "--N", "2"
    )
    assert rc == 3
    assert "disagrees" in err


def test_lift_sine_needs_float(capsys):
    rc, _, err = run(capsys, "lift", "--synth", "sine", "--steps", "4")
    assert rc == 3
    rc2, out, _ = run(capsys, "--float", "lift", "--synth", "sine", "--steps", "4", "--N", "2")
    assert rc2 == 0
    assert roughpath_from_json(out).mode == "float"


# -- convert ---------------------------------------------------------------


def _ito_json(capsys, *extra):
    rc, out, _ = run(
        capsys,
        "lift",
        "--synth",
        "rw",
        "--steps",
        "4",
        "--d",
        "2",
        "--step",
        "1/2",
        "--mode",
        "ito",
        "--N",
        "2",
        *extra,
    )
    assert rc == 0
    return out


def test_convert_certifies_and_extends(capsys, tmp_path):
    src = tmp_path / "ito.json"
    src.write_text(_ito_json(capsys))
    rc, out, _ = run(capsys, "convert", str(src))
    assert rc == 0
    obj = json.loads(out)
    assert obj["certificate"]["status"] == "pass"
    # d plain letters plus d^2 grade-2 trees
    header = obj["extended_path_csv"].splitlines()[0].split(",")
    assert len(header) - 1 == 2 + 4
    assert len(obj["geometric"]["letters"]) == 6
    # the emitted geometric driver reads back
    X = roughpath_from_json(json.dumps(obj["geometric"]))
    assert isinstance(X, GeometricRoughPath) and X.letter_bound == 2


def test_convert_rejects_geometric_input(capsys, tmp_path):
    src = tmp_path / "geo.json"
    rc, out, _ = run(capsys, "lift", "--synth", "linear", "--steps", "2", "--N", "2")
    assert rc == 0
    src.write_text(out)
    rc, _, err = run(capsys, "convert", str(src))
    assert rc == 2
    assert "branched" in err


def _non_character_json(capsys, tmp_path, k):
    """An Ito driver with one product-forest coefficient of adjacent
    increment k changed: no longer a character."""
    obj = json.loads(_ito_json(capsys))
    obj["increments"][k]["b_2 b_2"] = "7/3"
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(obj))
    return src


def test_convert_rejects_non_character_increment(capsys, tmp_path):
    src = _non_character_json(capsys, tmp_path, 2)
    rc, out, err = run(capsys, "convert", str(src))
    assert rc == 2
    assert out == ""
    assert "adjacent increment 2 is not a character" in err


@pytest.mark.parametrize(
    "argv, where, code",
    [
        (["solve", "--synth", "rw", "--steps", "2", "--fields", "1: y1", "--xi", "1/0"], None, 3),
        (["lift", "--synth", "rw", "--steps", "2", "--gamma", "1/0"], None, 3),
        (["lift", "--synth", "rw", "--steps", "2", "--step", "1/0"], None, 3),
        (["--float", "lift", "--synth", "rw", "--steps", "2", "--step", "1/0"], None, 3),
        (["solve", "--synth", "rw", "--steps", "2", "--fields", "1: 1/0*y1", "--xi", "1"], None, 3),
        (["convert"], "time", 2),
        (["convert"], "infinite time", 2),
        (["convert"], "gamma", 2),
        (["convert"], "coefficient", 2),
    ],
)
def test_zero_denominator_is_refused_in_one_line(capsys, tmp_path, argv, where, code):
    named = "'1/0'"
    if where is not None:
        obj = json.loads(_ito_json(capsys))
        if where == "time":
            obj["times"][1] = "1/0"
        elif where == "infinite time":
            obj["times"][1] = float("inf")  # written as the JSON token Infinity
            named = "inf is not a number"
        elif where == "gamma":
            obj["gamma"] = "1/0"
        else:
            obj["increments"][1]["b_1"] = "1/0"
        src = tmp_path / "driver.json"
        src.write_text(json.dumps(obj))
        argv = argv + [str(src)]
    rc, out, err = run(capsys, *argv)
    assert rc == code
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and named in err
# -- solve -----------------------------------------------------------------


def test_solve_both_sides_agree_exactly(capsys):
    rc, out, err = run(
        capsys,
        "solve",
        "--synth",
        "rw",
        "--steps",
        "4",
        "--step",
        "1/2",
        "--N",
        "2",
        "--lift",
        "ito",
        "--fields",
        "1: y1",
        "--xi",
        "1",
        "--side",
        "both",
    )
    assert rc == 0
    assert "max per-step discrepancy: 0" in err
    lines = out.strip().splitlines()
    assert lines[0] == "t,y_1"
    assert len(lines) == 6


def test_solve_matches_library_solver(capsys, tmp_path):
    src = tmp_path / "drv.json"
    src.write_text(_ito_json(capsys, "--seed", "3"))
    rc, out, _ = run(
        capsys,
        "solve",
        "--driver",
        str(src),
        "--fields",
        "1: y1^2 + y2, y1*y2; 2: y2^2, y1 + 1",
        "--xi",
        "1, 3/2",
        "--format",
        "json",
    )
    assert rc == 0
    got = json.loads(out)
    X = roughpath_from_json(src.read_text())
    f = ButcherTable.parse({1: ["y1^2 + y2", "y1*y2"], 2: ["y2^2", "y1 + 1"]})
    want = solve_branched(X, f, [Fraction(1), Fraction(3, 2)])
    assert got == json.loads(want.to_json())


def test_solve_rejects_non_character_driver(capsys, tmp_path):
    src = _non_character_json(capsys, tmp_path, 3)
    for side in ("branched", "both"):
        rc, out, err = run(
            capsys, "solve", "--driver", str(src), "--side", side,
            "--fields", "1: y2, -y1; 2: y1, y2", "--xi", "1, -1/2",
        )
        assert rc == 2
        assert out == ""
        assert "adjacent increment 3 is not a character" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--float", "convert"],
        ["--float", "solve", "--fields", "1: y2, -y1; 2: y1, y2", "--xi", "1, -1/2", "--driver"],
    ],
)
def test_float_driver_with_infinite_coefficient_is_refused(capsys, tmp_path, argv):
    obj = json.loads(_ito_json(capsys, "--float"))
    obj["increments"][1]["b_1"] = "inf"
    src = tmp_path / "inf.json"
    src.write_text(json.dumps(obj))
    rc, out, err = run(capsys, *argv, str(src))
    assert rc == 2
    assert out == ""
    assert "increment 1, b_1: non-finite value 'inf'" in err


_SOLVE_DRIVER = ["solve", "--fields", "1: y2, -y1; 2: y1, y2", "--xi", "1, -1/2", "--driver"]


@pytest.mark.parametrize("argv", [["convert"], _SOLVE_DRIVER])
@pytest.mark.parametrize(
    "flag, field, value, message",
    [
        ((), "b_1", [1], "increment 1, b_1: expected a number or a string, got [1]"),
        ((), "b_1", None, "increment 1, b_1: expected a number or a string, got null"),
        ((), "b_1", True, "increment 1, b_1: expected a number or a string, got true"),
        ((), "time", False, "time 1: expected a number or a string, got false"),
        ((), "time", {"t": 1}, 'time 1: expected a number or a string, got {"t": 1}'),
        ((), "gamma", [1], "gamma: expected a number or a string, got [1]"),
        ((), "b_1", "abc", "increment 1, b_1: 'abc' is not a number"),
        (("--float",), "b_1", "abc", "increment 1, b_1: could not convert string to float: 'abc'"),
        (("--float",), "b_1", None, "increment 1, b_1: expected a number or a string, got null"),
        (("--float",), "time", 10**400, "time 1: int too large to convert to float"),
        ((), "mode", "xyz", 'mode: expected "rational" or "float", got "xyz"'),
        ((), "mode", None, 'mode: expected "rational" or "float", got null'),
        ((), "kind", "tree", 'kind: expected "branched" or "geometric", got "tree"'),
    ],
)
def test_json_driver_values_of_the_wrong_type_are_refused(capsys, tmp_path, argv, flag, field, value, message):
    obj = json.loads(_ito_json(capsys, *flag))
    if field == "b_1":
        obj["increments"][1]["b_1"] = value
    elif field == "time":
        obj["times"][1] = value
    else:
        obj[field] = value
    src = tmp_path / "driver.json"
    src.write_text(json.dumps(obj))
    rc, out, err = run(capsys, *flag, *argv, str(src))
    assert rc == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def _set(field, value):
    def edit(obj):
        obj[field] = value
        return obj

    return edit


def _drop(field):
    def edit(obj):
        del obj[field]
        return obj

    return edit


def _list_row(obj):
    obj["increments"][1] = [1]
    return obj


def _short_times(obj):
    obj["times"].pop()
    return obj


def _geometric(letters):
    def edit(obj):
        obj["kind"] = "geometric"
        obj.pop("letters", None)
        if letters is not None:
            obj["letters"] = letters
        return obj

    return edit


@pytest.mark.parametrize("argv", [["convert"], _SOLVE_DRIVER])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_list_row, "increment 1: expected an object, got [1]"),
        (_set("d", "x"), 'd: expected a positive integer, got "x"'),
        (_set("d", True), "d: expected a positive integer, got true"),
        (_set("level", "3"), 'level: expected a positive integer, got "3"'),
        (_set("level", 0), "level: expected a positive integer, got 0"),
        (_set("times", 5), "times: expected a list, got 5"),
        (_short_times, "times: expected 5 entries, one more than the increments, got 4"),
        (lambda obj: [obj], "expected a JSON object, got list"),
        (_drop("mode"), "mode: missing"),
        (_geometric(None), "letters: expected a non-empty list of tree names, got null"),
        (_geometric([1]), "letters: expected a non-empty list of tree names, got [1]"),
        # gamma is refused where --gamma is
        (_set("gamma", "0"), "gamma: gamma must lie in (0,1), got 0"),
        (_set("gamma", "-1"), "gamma: gamma must lie in (0,1), got -1"),
        (_set("gamma", "7"), "gamma: gamma must lie in (0,1), got 7"),
        (_set("gamma", "1.5"), "gamma: gamma must lie in (0,1), got 3/2"),
        (_set("gamma", f"1/{2**53 + 1}"), f"gamma: gamma is too small: the level would reach 2^53, got 1/{2**53 + 1}"),
        # the letters are read before any increment
        (_geometric(["b_1", "b_2", "b_1"]), "letters: b_1 is listed twice"),
        (_geometric(["b_1", "b_3"]), "letters: b_3 has a label above d = 2"),
        (_geometric(["b_1", "[[b_1]_1]_1"]), "letters: [[b_1]_1]_1 has grade 3, above level 2"),
    ],
)
def test_json_driver_of_the_wrong_shape_is_refused(capsys, tmp_path, argv, edit, message):
    obj = edit(json.loads(_ito_json(capsys)))
    src = tmp_path / "driver.json"
    src.write_text(json.dumps(obj))
    rc, out, err = run(capsys, *argv, str(src))
    assert rc == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def test_json_driver_keeps_a_level_below_gamma(capsys, tmp_path):
    # a truncated path: level 2 where gamma = 3/10 gives 3
    obj = json.loads(_ito_json(capsys))
    obj["gamma"] = "3/10"
    src = tmp_path / "driver.json"
    src.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "convert", str(src))
    assert rc == 0
    assert json.loads(out)["geometric"]["gamma"] == "3/10"


def _without_letter(name):
    def edit(obj):
        obj["letters"].remove(name)
        return obj

    return edit


@pytest.mark.parametrize(
    "source, edit, message",
    [
        ("canonical", _without_letter("b_2"), "increment 0, b_1 (x) b_2: letter b_2 is not in letters"),
        ("convert", _without_letter("[b_2]_1"), "increment 0, [b_2]_1: letter [b_2]_1 is not in letters"),
    ],
)
def test_geometric_json_over_an_unlisted_letter_is_refused(capsys, tmp_path, source, edit, message):
    if source == "canonical":
        obj = json.loads(_ito_json(capsys, "--mode", "canonical"))
    else:
        ito = tmp_path / "ito.json"
        ito.write_text(_ito_json(capsys))
        rc, out, _ = run(capsys, "convert", str(ito))
        assert rc == 0
        obj = json.loads(out)["geometric"]
    src = tmp_path / "driver.json"
    src.write_text(json.dumps(edit(obj)))
    rc, out, err = run(capsys, *_SOLVE_DRIVER, str(src), "--side", "geometric")
    assert (rc, out, err) == (2, "", f"input error: {message}\n")


def test_solve_refuses_a_repeated_field_label(capsys):
    argv = ["solve", "--synth", "linear", "--steps", "2", "--xi", "1", "--fields"]
    rc, out, err = run(capsys, *argv, "1: y1; 1: 2*y1")
    assert (rc, out, err) == (3, "", "error: field label 1 given twice\n")
    assert run(capsys, *argv, " 2 : y1 ;1: y1; 02: y1")[2] == "error: field label 2 given twice\n"


def test_solve_zero_field_is_constant(capsys):
    rc, out, _ = run(
        capsys,
        "solve",
        "--synth",
        "rw",
        "--steps",
        "3",
        "--N",
        "2",
        "--fields",
        "1: 0*y1",
        "--xi",
        "5/7",
    )
    assert rc == 0
    rows = out.strip().splitlines()[1:]
    assert all(r.split(",")[1] == "5/7" for r in rows)


def test_solve_dimension_mismatch(capsys):
    rc, _, err = run(
        capsys,
        "solve",
        "--synth",
        "rw",
        "--steps",
        "2",
        "--N",
        "2",
        "--fields",
        "1: y1, y2",
        "--xi",
        "1",
    )
    assert rc == 3


def test_solve_geometric_side_needs_geometric_driver(capsys, tmp_path):
    src = tmp_path / "drv.json"
    src.write_text(_ito_json(capsys))
    rc, _, err = run(
        capsys,
        "solve",
        "--driver",
        str(src),
        "--fields",
        "1: y1, y2; 2: y2, y1",
        "--xi",
        "1, 1",
        "--side",
        "geometric",
    )
    assert rc == 3


def test_solve_ensemble_summary(capsys):
    rc, out, _ = run(
        capsys,
        "--float",
        "solve",
        "--synth",
        "rw",
        "--steps",
        "64",
        "--seeds",
        "3",
        "--seed",
        "2",
        "--N",
        "2",
        "--fields",
        "1: y1",
        "--xi",
        "1",
        "--reference",
        "exp-ito",
    )
    assert rc == 0
    o = json.loads(out)
    assert o["seeds"] == 3 and len(o["terminal"]) == 3
    assert o["mean_rel_err"] < 0.05
    assert len(o["reference"]) == 3


# -- verify ----------------------------------------------------------------


@pytest.mark.parametrize("suite", ["hopf", "morphisms", "lifts", "lgl"])
def test_verify_suites_pass(capsys, suite):
    rc, out, _ = run(capsys, "verify", "--suite", suite, "--N", "3")
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["suites"][suite]["status"] == "pass"


def test_verify_all_with_mutation_fails_with_witness(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--N", "3", "--mutate")
    assert rc == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert all(s["status"] == "fail" for s in report["suites"].values())
    assert report["suites"]["hopf"]["witnesses"]
    assert report["suites"]["lgl"]["witnesses"][0]["detail"]["lhs"] != report[
        "suites"
    ]["lgl"]["witnesses"][0]["detail"]["rhs"]


def test_lgl_witness_details_belong_to_their_own_pair(capsys, monkeypatch):
    import hopfpath.cli as cli
    import hopfpath.rde as rde

    results = {}

    def recording(f, lam, h, N):
        r = check_lgl(f, lam, h, N)
        results[f"lambda={lam!r} h={h!r}"] = r
        return r

    monkeypatch.setattr(rde, "check_lgl", recording)  # the suite reads it from rde at call time
    rc, out, _ = run(capsys, "verify", "--mutate", "--suite", "lgl", "--N", "4")
    assert rc == 1
    suite = json.loads(out)["suites"]["lgl"]
    # more failures than kept witnesses, so later failures must not touch them
    assert suite["failures"] > len(suite["witnesses"]) == 5
    for w in suite["witnesses"]:
        assert w["detail"] == cli._json_safe(results[w["at"]].witness)


@pytest.mark.parametrize("suite", ["lgl", "all"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--N", "1"], "error: the lgl suite needs --N >= 2, got --N 1\n"),
        (["--d", "3"], "error: the lgl suite runs at --d 2 only, got --d 3\n"),
        (["--d", "1", "--N", "3"], "error: the lgl suite runs at --d 2 only, got --d 1\n"),
    ],
)
def test_verify_lgl_refuses_flags_it_cannot_honour(capsys, suite, flags, message):
    rc, out, err = run(capsys, "verify", "--suite", suite, *flags)
    assert (rc, out, err) == (3, "", message)


def test_verify_lgl_takes_d_2_given_or_not(capsys):
    outs = [run(capsys, "verify", "--suite", "lgl", "--N", "2", *flags) for flags in ([], ["--d", "2"])]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and json.loads(outs[0][1])["suites"]["lgl"]["d"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "morphisms", "--d", "0", "--N", "2"], "error: the morphisms suite needs --d >= 1, got --d 0\n"),
        (["--suite", "hopf", "--d", "-1", "--N", "2"], "error: the hopf suite needs --d >= 1, got --d -1\n"),
        (["--suite", "hopf", "--N", "0"], "error: the hopf suite needs --N >= 1, got --N 0\n"),
        (["--suite", "morphisms", "--N", "-2"], "error: the morphisms suite needs --N >= 1, got --N -2\n"),
        (["--suite", "all", "--N", "0"], "error: the lgl suite needs --N >= 2, got --N 0\n"),
    ],
)
def test_verify_refuses_a_level_or_alphabet_below_one(capsys, argv, message):
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, out, err) == (3, "", message)


def test_verify_lifts_defect_identity_checked(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "lifts", "--N", "2", "--steps", "6")
    assert rc == 0
    report = json.loads(out)
    checks = report["suites"]["lifts"]["checks"]
    assert checks["defect_identity"]["status"] == "pass"
    assert checks["leftpoint_shuffle"]["defects"] > 0


# -- plumbing --------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    rc = main(["frobnicate"])
    capsys.readouterr()
    assert rc == 2


def test_threads_flag_gives_same_report(capsys):
    rc1, out1, err1 = run(capsys, "lift", "--synth", "rw", "--steps", "5", "--N", "2", "--step", "1/3")
    rc2, out2, err2 = run(
        capsys,
        "--threads",
        "4",
        "lift",
        "--synth",
        "rw",
        "--steps",
        "5",
        "--N",
        "2",
        "--step",
        "1/3",
    )
    assert (rc1, out1, err1) == (rc2, out2, err2) == (0, out1, err1)


def test_threads_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HOPFPATH_THREADS", "2")
    rc, out, _ = run(capsys, "verify", "--suite", "lifts", "--N", "2", "--steps", "4")
    assert rc == 0


def test_emitted_json_round_trips(capsys):
    """Emitted rough-path JSON feeds back through the readers unchanged."""
    from hopfpath.roughpath import roughpath_to_json

    text = _ito_json(capsys)
    X = roughpath_from_json(text)
    Y = roughpath_from_json(roughpath_to_json(X))
    assert Y.grid == X.grid and Y.N == X.N and Y.gamma == X.gamma
    assert all(a.terms == b.terms for a, b in zip(X.increments, Y.increments))
    result = encode(X, certify_result=False)
    obj = json.loads(result.to_json())
    Xbar = roughpath_from_json(json.dumps(obj["geometric"]))
    assert Xbar.letters == result.geometric.letters
    assert all(
        a.terms == b.terms
        for a, b in zip(Xbar.increments, result.geometric.increments)
    )
    ext = SampledPath.from_csv(obj["extended_path_csv"])
    assert ext.values == result.extended_path.values
    assert ext.basis == result.extended_path.basis

# -- pinned outputs --------------------------------------------------------

_CHAIN_FIELDS = "1: y1^2 + y2, y1*y2; 2: y2^2, y1 + 1"

# one command per row; each writes at most the files it names with --out
_PINNED_COMMANDS = {
    "psi": ["algebra", "--op", "psi", "--N", "4", "[b_1 [b_2]_1]_1 + 2 * b_1 [b_2]_1"],
    "phig": ["algebra", "--op", "phig", "--N", "4", "[b_1 b_2]_1 + b_1 [b_2]_1"],
    "graft": ["algebra", "--op", "graft", "[b_1]_2", "[b_2 [b_1]_1]_1"],
    "exp": ["algebra", "--op", "exp", "--N", "4", "b_1 + 1/2 * [b_2]_1"],
    "log": ["algebra", "--op", "log", "--N", "3", "1 + b_1 + 1/2 * b_1 b_1 - [b_2]_1"],
    "coproduct": ["algebra", "--op", "coproduct", "[b_1 [b_2]_1]_1 b_2"],
    "antipode": ["algebra", "--op", "antipode", "[b_1 b_2]_1 b_1"],
    "verify_all": ["verify", "--suite", "all", "--N", "3"],
    "verify_lgl": ["verify", "--suite", "lgl", "--N", "4", "--seed", "5"],
    "lift": ["lift", "--synth", "rw", "--steps", "5", "--d", "2", "--N", "3", "--mode", "ito", "--step", "1/2", "--out", "lift.json"],
    "convert": ["convert", "lift.json", "--out", "convert.json"],
    "solve": ["solve", "--driver", "lift.json", "--side", "both", "--fields", _CHAIN_FIELDS, "--xi", "1, 1/2", "--format", "json", "--out", "solve.json"],
    "float_lift": ["--float", "lift", "--synth", "rw", "--steps", "6", "--d", "2", "--N", "3", "--mode", "ito", "--out", "flift.json"],
    "float_convert": ["--float", "convert", "flift.json", "--out", "fconvert.json"],
    "float_solve": ["--float", "solve", "--driver", "flift.json", "--side", "both", "--fields", _CHAIN_FIELDS, "--xi", "1, 1/2", "--format", "json", "--out", "fsolve.json"],
    "verify_lgl_mutate": ["verify", "--mutate", "--suite", "lgl", "--N", "4"],
    "verify_lgl_n5": ["verify", "--suite", "lgl", "--N", "5", "--seed", "11"],
}

# first 16 hex digits of sha256 over exit code, stdout, stderr and the
# written file, per command, recorded before the morphism, graft and grid
# loops were each folded into one implementation
_PINNED_DIGESTS = {
    "psi": "c3f801ead5220158",
    "phig": "a268bd4dfd80289c",
    "graft": "ed95fe0ee7ecca49",
    "exp": "de95022b259710e3",
    "log": "05444a85cc1c68dd",
    "coproduct": "494eeebe8ae173c0",
    "antipode": "4fb03522df6d4839",
    "verify_all": "f2787236862e37b9",
    "verify_lgl": "50ad5dc76b20cb62",
    "lift": "311d8a9b03a293b1",
    "convert": "73bd9de919a67e56",
    "solve": "02be04dbe18e995a",
    "float_lift": "20787158b1c0087d",
    "float_convert": "dfcf3b51b85611c0",
    "float_solve": "3b0517df5afacc62",
    # recorded from the Fraction/Poly loops before apply_derivative and
    # check_lgl moved onto integer numerators
    "verify_lgl_mutate": "8c3f2405a4f99a81",
    "verify_lgl_n5": "0977a46cf5fbfdde",
}


def test_cli_outputs_are_pinned(capsys, tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv in _PINNED_COMMANDS.items():
        rc, out, err = run(capsys, *argv)
        written = argv[argv.index("--out") + 1] if "--out" in argv else None
        text = (tmp_path / written).read_text() if written else ""
        record = json.dumps([rc, out, err, text])
        got[name] = hashlib.sha256(record.encode()).hexdigest()[:16]
    assert got == _PINNED_DIGESTS


# -- pinned verify suites ---------------------------------------------------

_SUITE_COMMANDS = {
    "hopf": ["verify", "--suite", "hopf", "--N", "4", "--d", "2", "--out", "hopf.json"],
    "morphisms": ["verify", "--suite", "morphisms", "--N", "4", "--d", "2", "--out", "morphisms.json"],
    "lgl": ["verify", "--suite", "lgl", "--N", "4", "--seed", "9", "--out", "lgl.json"],
    "mutate": ["verify", "--mutate", "--suite", "all", "--N", "3", "--out", "mutate.json"],
}

# first 16 hex digits of sha256 over exit code, stdout, stderr and the
# written report, per command, recorded from the Fraction/TensorElem loops
# before the suites moved onto integer position tables
_SUITE_DIGESTS = {
    "hopf": "eafb4a7ea5d1e36e",
    "morphisms": "0ca0c42fd60b8531",
    "lgl": "46f5f92fa06a5f67",
    "mutate": "21d9276a5b1a1252",
}


def test_verify_suite_outputs_are_pinned(capsys, tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv in _SUITE_COMMANDS.items():
        rc, out, err = run(capsys, *argv)
        text = (tmp_path / argv[-1]).read_text()
        record = json.dumps([rc, out, err, text])
        got[name] = hashlib.sha256(record.encode()).hexdigest()[:16]
    assert got == _SUITE_DIGESTS


# -- float flags and field labels -------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--synth", "linear", "--steps", "2", "--fields", "1: y1", "--xi", "1e999"], "--xi '1e999'"),
        (["solve", "--synth", "linear", "--steps", "2", "--fields", "1: y1", "--xi", "1, -1e999"], "--xi '-1e999'"),
        (["lift", "--synth", "rw", "--steps", "2", "--step", "1e999"], "--step '1e999'"),
        (["solve", "--synth", "linear", "--steps", "2", "--fields", "1: 1e999*y1", "--xi", "1"], "--fields '1e999*y1'"),
        (["solve", "--synth", "rw", "--seeds", "2", "--fields", "1: y1, 2 - 1e999*y2", "--xi", "1, 1"], "--fields '2 - 1e999*y2'"),
    ],
    ids=["xi", "xi-second", "step", "fields", "fields-ensemble"],
)
def test_float_flags_too_large_for_a_float_are_refused(capsys, argv, message):
    rc, out, err = run(capsys, "--float", *argv)
    assert (rc, out, err) == (3, "", f"error: {message}: too large for a float\n")


def test_float_flags_that_fit_are_taken(capsys):
    rc, out, _ = run(capsys, "--float", "solve", "--synth", "linear", "--steps", "2", "--fields", "1: 1e300*y1", "--xi", "1e-999")
    assert rc == 0 and out == "t,y_1\n0.0,0.0\n0.5,0.0\n1.0,0.0\n"
    # exact mode takes the same values as rationals
    rc, out, _ = run(capsys, "lift", "--synth", "rw", "--steps", "2", "--step", "1e999", "--N", "1")
    assert rc == 0 and str(10**999) in out


def test_float_tree_field_too_large_for_a_float_is_refused(capsys):
    # the base field fits in a float; its grafted derivative field does not
    argv = ["--float", "solve", "--synth", "rw", "--steps", "2", "--N", "3", "--side", "both"]
    rc, out, err = run(capsys, *argv, "--fields", "1: 1e200*y1^2", "--xi", "1")
    assert (rc, out) == (3, "")
    assert err == "error: the field of [b_1]_1 has a coefficient too large for a float\n"


@pytest.mark.parametrize(
    "fields, label",
    [("1: y1; 5: y1", 5), ("-1: y1; 1: y1", -1), ("0: y1", 0), ("2: y1", 2)],
)
@pytest.mark.parametrize("how", [["--synth", "linear"], ["--synth", "rw", "--seeds", "2"]], ids=["synth", "seeds"])
def test_field_labels_outside_the_synthetic_alphabet_are_refused(capsys, how, fields, label):
    rc, out, err = run(capsys, "solve", *how, "--steps", "2", f"--fields={fields}", "--xi", "1")
    assert (rc, out, err) == (3, "", f"error: field label {label} is outside the driver's alphabet 1..1\n")


def test_field_labels_follow_the_alphabet_of_d(capsys, tmp_path):
    argv = ["solve", "--synth", "rw", "--steps", "2", "--fields", "3: y1", "--xi", "1", "--d"]
    assert run(capsys, *argv, "3") == (3, "", "error: no vector field for label 1\n")
    assert run(capsys, *argv, "2") == (3, "", "error: field label 3 is outside the driver's alphabet 1..2\n")
    src = tmp_path / "ito.json"
    src.write_text(_ito_json(capsys))  # d = 2
    for side in ("branched", "both"):
        rc, out, err = run(capsys, "solve", "--driver", str(src), "--side", side, "--fields", "1: y1; 2: y1; 3: y1", "--xi", "1")
        assert (rc, out, err) == (3, "", "error: field label 3 is outside the driver's alphabet 1..2\n")


def test_float_lift_past_the_float_range_is_refused(capsys, tmp_path):
    rc, out, err = run(capsys, "--float", "lift", "--synth", "rw", "--steps", "3", "--step", "1e160")
    assert (rc, out, err) == (3, "", "error: the path varies by 3e+160 in total, too much for a float lift at level 2\n")
    f = tmp_path / "walk.csv"
    f.write_text("t,b_1\n0,0\n1,1e300\n2,0\n3,1e300\n")
    assert run(capsys, "--float", "lift", str(f))[:2] == (3, "")
    argv = ["--float", "solve", "--synth", "rw", "--steps", "3", "--step", "1e160", "--fields", "1: y1", "--xi", "1"]
    assert run(capsys, *argv)[:2] == run(capsys, *argv, "--seeds", "2")[:2] == (3, "")


def test_float_solve_past_the_float_range_is_refused(capsys):
    argv = ["--float", "solve", "--synth", "rw", "--steps", "2", "--N", "2", "--fields", "1: 1e200*y1^2", "--xi", "1e200"]
    assert run(capsys, *argv) == (3, "", "error: the float solve leaves the float range at step 1: y_1 = -inf\n")


needs_int_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")


@needs_int_limit
def test_exact_results_past_the_int_string_limit_print(capsys, tmp_path):
    argv = ["solve", "--synth", "rw", "--steps", "3", "--d", "2", "--N", "2", "--side", "both"]
    rc, out, err = run(capsys, *argv, "--fields", "1: y1^2 + y2, y1*y2; 2: y2^212, y1 + 1", "--xi", "1, 1/2")
    assert rc == 0 and err == "max per-step discrepancy: 0\n"
    assert max(len(cell) for cell in out.replace("\n", ",").split(",")) > 4300
    argv = ["lift", "--synth", "rw", "--steps", "2", "--step", "1e5000", "--N", "1"]
    for mode in ("canonical", "ito"):
        rc, out, _ = run(capsys, *argv, "--mode", mode)
        # str(10**5000) itself is refused in this process, which keeps the limit
        assert rc == 0 and "1" + "0" * 5000 in out
    src = tmp_path / "ito.json"
    src.write_text(out)
    rc, out, _ = run(capsys, "convert", str(src))
    assert rc == 0 and "1" + "0" * 5000 in out


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_reports_past_the_float_range_are_strict_json(capsys):
    # validate returns float('inf') there; the report writes it as a string
    argv = ["lift", "--synth", "rw", "--steps", "2", "--step", "1e5000", "--N", "1"]
    for mode in ("canonical", "ito"):
        rc, _, err = run(capsys, *argv, "--mode", mode)
        assert rc == 0
        report = json.loads(err, parse_constant=_refuse_constant)
        assert report["holder"]["max"] == "inf"
        assert report["holder"]["per_basis"] == {"b_1": "inf"}
        assert report["chen"] == {"checked_triples": 1, "status": "pass", "witness": None}


@needs_int_limit
def test_main_restores_the_int_string_limit(capsys):
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        for argv in (["lift", "--synth", "rw", "--steps", "2", "--N", "1"], ["lift", "--N", "0"]):
            run(capsys, *argv)
            assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lift"], "give a CSV file or --synth, not both"),
        (["lift", "walk.csv", "--synth", "rw"], "give a CSV file or --synth, not both"),
        (["solve", "--fields", "1: y1", "--xi", "1"], "give exactly one of --driver or --synth"),
        (["solve", "--driver", "x.json", "--synth", "rw", "--fields", "1: y1", "--xi", "1"], "give exactly one of --driver or --synth"),
    ],
)
def test_usage_refusals_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_solve_output_failure_is_one_line(capsys, tmp_path):
    # the discrepancy line follows the trajectory, so a refused output is
    # the only line on stderr
    argv = ["solve", "--synth", "rw", "--steps", "2", "--side", "both", "--fields", "1: y1", "--xi", "1"]
    rc, out, err = run(capsys, *argv, "--out", str(tmp_path / "no" / "such.csv"))
    assert (rc, out) == (2, "") and err.count("\n") == 1 and err.startswith("input error: ")
    assert run(capsys, *argv)[::2] == (0, "max per-step discrepancy: 0\n")
