"""What a process imports and builds: the package resolves its exports on
first use, each command loads only the layers it runs, and the morphisms
suite builds only the contexts of its level.

The checks run in child interpreters, because the test process has long
since imported every module and filled its tables.
"""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hopfpath
from hopfpath import cli, conversion

ROOT = Path(__file__).resolve().parents[1]

# runs the code given as its first argument, then prints as JSON the hopfpath
# submodules and the named stdlib modules loaded, and the code's `result`
CHILD = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps({
    "hopfpath": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("hopfpath.")),
    "stdlib": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules),
    "result": globals().get("result"),
}))
"""


def child(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    assert child("import hopfpath")["hopfpath"] == []


def test_cache_sizes_imports_no_submodule():
    got = child("import hopfpath; result = hopfpath.cache_sizes()")
    assert got["hopfpath"] == [] and got["result"] == {}


def test_cache_sizes_reports_only_the_loaded_modules():
    got = child("import hopfpath; hopfpath.enumerate_trees(3, 1); result = sorted(hopfpath.cache_sizes())")
    assert got["hopfpath"] == ["trees"]
    assert got["result"] and all(k.startswith("trees.") for k in got["result"])


@pytest.mark.parametrize(
    "argv",
    [
        ["algebra", "--op", "exp", "--N", "4", "b_1 + 1/2 * [b_2]_1"],
        ["verify", "--suite", "hopf", "--N", "3"],
    ],
)
def test_algebra_and_the_hopf_suite_load_no_path_layer(argv):
    got = child(f"from hopfpath import cli; result = cli.main({argv!r})")
    assert got["result"] == 0
    assert {"roughpath", "rde", "conversion"}.isdisjoint(got["hopfpath"])
    assert got["stdlib"] == []


def test_the_morphisms_suite_builds_the_contexts_of_its_level_only():
    # the psi and phi_g tables share the forest context of the level, and
    # each folds on the word context of its letter bound
    code = (
        "import hopfpath; from hopfpath import cli; "
        "result = [cli.main(['verify', '--suite', 'morphisms', '--N', '5', '--d', '2']), hopfpath.cache_sizes()]"
    )
    rc, sizes = child(code)["result"]
    assert rc == 0
    assert (sizes["hopf.forest_context"], sizes["tensor.word_context"]) == (1, 2)
    live = sorted(k.rsplit(".", 1)[0] for k in sizes if k.endswith(".kernel_terms"))
    assert live == ["hopf.forest_context(5, 2)", "tensor.word_context(5, 2, 1)", "tensor.word_context(5, 2, 5)"]


def test_the_lgl_suite_loads_no_rough_path_layer():
    got = child("from hopfpath import cli; result = cli.main(['verify', '--suite', 'lgl', '--N', '3'])")
    assert got["result"] == 0
    assert "rde" in got["hopfpath"]
    assert {"roughpath", "conversion", "tensor", "expr"}.isdisjoint(got["hopfpath"])


def test_a_branched_lift_loads_neither_the_parser_nor_the_morphisms():
    argv = ["lift", "--synth", "rw", "--steps", "3", "--d", "2", "--N", "2"]
    got = child(f"from hopfpath import cli; result = cli.main({argv!r})")
    assert got["result"] == 0
    assert {"expr", "morphisms", "conversion", "rde"}.isdisjoint(got["hopfpath"])


def _exports() -> dict:
    return {name: module for module, names in hopfpath._EXPORTS.items() for name in names}


def test_every_name_in_dir_resolves_to_its_defining_modules_object():
    exports = _exports()
    listed = dir(hopfpath)
    assert set(exports) <= set(listed)
    assert listed == sorted(listed)
    for name in listed:
        if name in exports:
            module = importlib.import_module(f"hopfpath.{exports[name]}")
            assert getattr(hopfpath, name) is getattr(module, name), name
        else:
            assert name in vars(hopfpath), name
    assert hopfpath.psi is importlib.import_module("hopfpath.morphisms").psi
    assert hopfpath.pair is importlib.import_module("hopfpath.linear").pair


def test_an_export_is_kept_in_the_package_globals_once_read():
    got = child("import hopfpath; f = hopfpath.leaf; result = ['leaf' in vars(hopfpath), hopfpath.leaf is f]")
    assert got["hopfpath"] == ["trees"] and got["result"] == [True, True]


def test_an_unknown_name_raises_the_usual_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'hopfpath' has no attribute 'no_such_name'$"):
        hopfpath.no_such_name
    assert not hasattr(hopfpath, "reduced_coproduct")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'hopfpath'"):
        from hopfpath import no_such_name  # noqa: F401


# -- refusals of layers main does not import -------------------------------------


def test_a_conversion_error_still_exits_4(capsys, monkeypatch):
    def failing(X, Xbar):
        return {"status": "fail", "witness": {"forest": "b_1"}}

    monkeypatch.setattr(conversion, "certify", failing)
    argv = ["solve", "--synth", "rw", "--steps", "2", "--d", "2", "--N", "2", "--side", "both"]
    rc = cli.main([*argv, "--fields", "1: y1; 2: y1", "--xi", "1"])
    out, err = capsys.readouterr()
    assert (rc, out) == (4, "")
    assert err == 'certificate failure: <X_st, h> != <Xbar_st, psi(h)> at {"forest": "b_1"}\n'


def test_run_config_is_immutable():
    cfg = cli.RunConfig("rational", 2, Fraction(1, 2))
    assert (cfg.mode, cfg.N, cfg.gamma) == ("rational", 2, Fraction(1, 2))
    with pytest.raises(AttributeError):
        cfg.N = 3
    with pytest.raises(AttributeError):
        cfg.other = 1
