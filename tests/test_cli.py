"""End-to-end checks of the command-line front end, driven in-process."""

import json
from fractions import Fraction

import pytest

from hopfpath.cli import main
from hopfpath.conversion import encode
from hopfpath.expr import parse_h, parse_tensor
from hopfpath.rde import ButcherTable, solve_branched
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


def test_algebra_graft_rejects_forests(capsys):
    rc, _, err = run(capsys, "algebra", "--op", "graft", "b_1 b_2", "b_1")
    assert rc == 3
    assert "single tree" in err


def test_algebra_wrong_arity(capsys):
    rc, _, err = run(capsys, "algebra", "--op", "star", "b_1")
    assert rc == 3


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