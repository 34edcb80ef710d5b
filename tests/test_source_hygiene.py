"""Source hygiene of the package, checked with `ast`: nothing lingers.

No linter ships with the project, so these checks stand in for one:

- every module-level import of a `hopfpath` module is used in that module,
  or is imported from it by another module, a test or the benchmark, or is
  named by the package's export table (a re-export such as `hopf.pair`);
  the package `__init__` is the public surface, so it is not checked, but
  every entry of its table must name a module that binds that name;
- every top-level `_private` definition is referenced somewhere in `src/`,
  `tests/` or `bench/` outside its own body, and in fact from `src/`: a
  helper that only tests or the benchmark reach belongs in `tests/`;
- no top-level assignment in the package binds a second name to one of
  its functions or classes (`pair_tensor = pair`): one object, one name;
- every name in a package class's `__slots__` is read as an attribute
  somewhere in the package: a slot nothing reads is state left behind.

A helper left behind by a refactor, or an alias kept for old callers,
fails one of them.

One more keeps the summation policy in one place: no package module but
`linear` sums coefficients by hand as `d[k] = d.get(k, zero) + ...` from a
Fraction zero (`_ZERO`, a class's `_zero` or `Fraction(0)`), also with
`d.get` or the zero first bound to a name; integer sums from 0, the context
tables, stay allowed.

One more keeps one loop kernel: in the package only `linear` calls a
context's `.table()`, and no class but `linear.Context` defines `times`,
`product` or `operand`, so neither side grows a loop kernel or an operand
builder of its own again.

One more keeps the canonical value protocol in one place: `Tree`,
`Forest` and `tensor.Word` subclass `trees.Canonical` and define none of
its methods (equality, hash, order, `sort_key`, the immutability guard),
and only `Canonical._seal` sets a `_key` or a `_hash`.

One more keeps one source of morphism tree images: `morphisms` has exactly
one `functools` cache, on its table builder `_tree_rows`.

Two more guard the code the package generates: `linear._straight_line` is
its one `compile`/`exec` site, and every source it writes, up to N=5, is a
`def` over operand lists whose body is one list of sums of integer-weighted
products of operand entries, nothing else.
"""

import ast
import re
from pathlib import Path

import pytest

from hopfpath import linear
from hopfpath.hopf import forest_context
from hopfpath.roughpath import RATIONAL, SampledPath, ito_lift
from hopfpath.conversion import encode
from hopfpath.tensor import word_context

from seams import sweeps

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfpath"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _trees() -> dict:
    return {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def _bound_names(node) -> list:
    """The names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _loaded_names(tree) -> set:
    """Names read in tree, and attributes read off any name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _export_table(trees: dict) -> dict:
    """The package's lazy export table, read with `ast`: defining module ->
    the public names `hopfpath.__getattr__` takes from it."""
    for node in trees[PACKAGE / "__init__.py"].body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no _EXPORTS table in hopfpath/__init__.py")


def _exports(trees: dict) -> dict:
    """Per hopfpath module, the names other files import from it or read
    off it, and those the export table takes from it."""
    modules = {path.stem for path in MODULES}
    out = {m: set() for m in modules}
    for module, names in _export_table(trees).items():
        out[module].update(names)
    for path, tree in trees.items():
        own = path.stem if path.parent == PACKAGE else None
        aliases = {}
        nodes = list(ast.walk(tree))
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                target = (node.module or "").lstrip(".").removeprefix("hopfpath").lstrip(".")
                if target in modules and target != own:
                    out[target].update(a.name for a in node.names)
                elif not target:
                    aliases.update({a.asname or a.name: a.name for a in node.names if a.name in modules})
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                out[aliases[node.value.id]].add(node.attr)
    return out


def test_every_module_level_import_is_used_or_re_exported():
    trees = _trees()
    exports = _exports(trees)
    unused = []
    for path in MODULES:
        tree = trees[path]
        used = _loaded_names(tree) | exports[path.stem]
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {name}" for name in _bound_names(node) if name not in used]
    assert unused == []


def _top_level_bindings(tree) -> set:
    """The names a module binds at its top level: definitions, assignments
    and imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(_bound_names(node))
    return out


def test_every_export_table_entry_names_a_module_that_binds_it():
    trees = _trees()
    table = _export_table(trees)
    modules = {path.stem: path for path in MODULES}
    missing = []
    for module, names in table.items():
        if module not in modules:
            missing.append(f"no module {module}")
            continue
        bound = _top_level_bindings(trees[modules[module]])
        missing += [f"{module}.{name}" for name in names if name not in bound]
    assert missing == []
    flat = [name for names in table.values() for name in names]
    assert len(flat) == len(set(flat)), "a public name is taken from two modules"
    assert not any(name.startswith("_") for name in flat)


def _unreferenced(readers) -> list:
    """The top-level `_private` definitions of the package that no file in
    readers references outside their own body."""
    trees = _trees()
    loaded = {path: _loaded_names(trees[path]) for path in readers}
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = trees[path].body
        per_node = [_loaded_names(node) for node in body]
        for k, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            # a function or class read only inside its own body is not referenced
            own = set().union(*(found for j, found in enumerate(per_node) if j != k or isinstance(node, ast.Assign)))
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    if not any(name in (own if p == path else found) for p, found in loaded.items()):
                        unreferenced.append(f"{path.name}: {name}")
    return unreferenced


def test_every_private_top_level_definition_is_referenced():
    assert _unreferenced(SOURCES) == []


def test_every_private_top_level_definition_is_used_by_the_package():
    # a helper kept alive only as a test reference belongs in tests/
    assert _unreferenced(sorted(PACKAGE.glob("*.py"))) == []


def test_no_top_level_assignment_aliases_a_package_function_or_class():
    trees = _trees()
    package = sorted(PACKAGE.glob("*.py"))
    defined = {
        node.name
        for path in package
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    aliases = []
    for path in package:
        for node in trees[path].body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, ast.Attribute):
                name = value.attr
            else:
                name = value.id if isinstance(value, ast.Name) else None
            if name in defined:
                aliases.append(f"{path.name}: {ast.unparse(node)}")
    assert aliases == []


def _imports_numerators(tree) -> bool:
    """Whether tree imports `numerators` from `scalars`, anywhere in it."""
    return any(
        isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "scalars"
        and any(a.name == "numerators" for a in node.names)
        for node in ast.walk(tree)
    )


def _is_numerator_row(node: ast.ClassDef) -> bool:
    """Whether a class holds a denominator: a `den` slot or attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "den" and isinstance(sub.ctx, ast.Store):
            return True
        if isinstance(sub, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in sub.targets):
            if any(isinstance(c, ast.Constant) and c.value == "den" for c in ast.walk(sub.value)):
                return True
    return False


def test_exact_rows_are_carried_by_linear_alone():
    # how exact values ride as integer numerators is decided in one place:
    # linear's Row, with rde's polynomial views the one other reader
    trees = _trees()
    package = sorted(PACKAGE.glob("*.py"))
    assert [p.stem for p in package if _imports_numerators(trees[p])] == ["linear", "rde"]
    rows = [
        f"{p.stem}.{node.name}"
        for p in package
        for node in ast.walk(trees[p])
        if isinstance(node, ast.ClassDef) and _is_numerator_row(node)
    ]
    assert rows == ["linear.Row"]


def _is_fraction_zero(node, zeros=()) -> bool:
    """Whether node is `_ZERO`, a name in zeros, a `._zero`, or
    `Fraction(0)`/`Fraction()`."""
    if isinstance(node, ast.Name):
        return node.id == "_ZERO" or node.id in zeros
    if isinstance(node, ast.Attribute):
        return node.attr == "_zero"
    return isinstance(node, ast.Call) and ast.unparse(node) in ("Fraction(0)", "Fraction()")


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope) -> tuple:
    """(the single-target assignments of scope, the functions defined
    directly in it), leaving out what those functions hold."""
    assignments, scopes, todo = [], [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            scopes.append(node)
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            assignments.append(node)
        todo += ast.iter_child_nodes(node)
    return assignments, scopes


def _bindings(assignments, gets: dict, zeros: set) -> tuple:
    """gets and zeros, as seen from an enclosing scope, with what the plain
    and tuple assignments add: {name: dump of d} for each `name = d.get`,
    and the names bound to a Fraction zero."""
    gets, zeros = dict(gets), set(zeros)
    for node in assignments:
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts):
            pairs = zip(target.elts, value.elts)
        else:
            pairs = [(target, value)]
        for name, bound in pairs:
            if not isinstance(name, ast.Name):
                continue
            if isinstance(bound, ast.Attribute) and bound.attr == "get":
                gets[name.id] = ast.dump(bound.value)
            elif _is_fraction_zero(bound):
                zeros.add(name.id)
    return gets, zeros


def _hand_sums(tree) -> list:
    """The statements `d[k] = d.get(k, zero) + ...` (or `- ...`) in tree,
    zero being the Fraction zero, also with `d.get` or the zero first bound
    to a name in the same or an enclosing function: a coefficient sum
    written out by hand.  An integer sum from 0 is not one."""
    out = []

    def visit(scope, gets, zeros):
        assignments, scopes = _own_nodes(scope)
        if isinstance(scope, _SCOPES):  # a parameter hides the outer name
            params = {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}
            gets, zeros = {k: v for k, v in gets.items() if k not in params}, zeros - params
        gets, zeros = _bindings(assignments, gets, zeros)
        for node in assignments:
            target, value = node.targets[0], node.value
            if not (isinstance(target, ast.Subscript) and isinstance(value, ast.BinOp)):
                continue
            get, owner = value.left, ast.dump(target.value)
            if not (isinstance(value.op, (ast.Add, ast.Sub)) and isinstance(get, ast.Call) and len(get.args) == 2):
                continue
            func = get.func
            if (
                isinstance(func, ast.Attribute) and func.attr == "get" and ast.dump(func.value) == owner
                or isinstance(func, ast.Name) and gets.get(func.id) == owner
            ) and _is_fraction_zero(get.args[1], zeros):
                out.append((node.lineno, f"line {node.lineno}: {ast.unparse(node)}"))
        for inner in scopes:
            visit(inner, gets, zeros)

    visit(tree, {}, set())
    return [line for _, line in sorted(out)]


def test_hand_sums_are_caught_and_integer_sums_are_not():
    caught = (
        "out[k] = out.get(k, _ZERO) + c\n"
        "acc[k, j] = acc.get((k, j), Fraction(0)) - c * v\n"
        "d[k] = d.get(k, cls._zero) + c\n"
        "def f(out, pairs):\n"
        "    get = out.get\n"
        "    zero = _ZERO\n"
        "    for k, c in pairs:\n"
        "        out[k] = get(k, zero) + c\n"
        "def g(out, pairs):\n"
        "    get, zero = out.get, Fraction(0)\n"
        "    def add():\n"
        "        for k, c in pairs:\n"
        "            out[k] = get(k, zero) + c\n"
    )
    assert len(_hand_sums(ast.parse(caught))) == 5
    allowed = "acc[k] = acc.get(k, 0) + c"
    assert _hand_sums(ast.parse(allowed)) == []


def test_coefficients_are_summed_by_linear_alone():
    # the summation policy (Fraction(0) start, first-seen key order) lives in
    # linear.summed; every other module sums container terms through it
    trees = _trees()
    found = {p.stem: _hand_sums(trees[p]) for p in sorted(PACKAGE.glob("*.py")) if p.stem != "linear"}
    assert {stem: sums for stem, sums in found.items() if sums} == {}


def _slots(node: ast.ClassDef) -> list:
    """The names a class body's `__slots__` assignment lists."""
    out = []
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
            out += [c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return out


def test_every_slot_is_read_by_the_package():
    trees = _trees()
    package = sorted(PACKAGE.glob("*.py"))
    read = {
        node.attr
        for path in package
        for node in ast.walk(trees[path])
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.stem}.{node.name}.{name}"
        for path in package
        for node in ast.walk(trees[path])
        if isinstance(node, ast.ClassDef)
        for name in _slots(node)
        if not name.startswith("__") and name not in read
    ]
    assert unread == []


_KERNEL_NAMES = {"times", "product", "operand"}


def _class_names(node: ast.ClassDef) -> list:
    """The names a class body defines or assigns."""
    out = []
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(stmt.name)
        elif isinstance(stmt, ast.Assign):
            out += [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return out


def test_one_loop_kernel_reads_the_product_table():
    # a context supplies table() and product_row(); Context.times interprets
    # the table and Context.compiled compiles it
    trees = _trees()
    package = sorted(PACKAGE.glob("*.py"))
    readers = {
        path.stem
        for path in package
        for node in ast.walk(trees[path])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "table"
    }
    assert readers == {"linear"}
    kernels = [
        f"{path.stem}.{node.name}.{name}"
        for path in package
        for node in ast.walk(trees[path])
        if isinstance(node, ast.ClassDef)
        for name in _class_names(node)
        if name in _KERNEL_NAMES
    ]
    assert kernels == ["linear.Context.times"]


_PROTOCOL = {"__eq__", "__hash__", "__setattr__", "sort_key", "__lt__", "__le__", "__gt__", "__ge__"}
_VALUES = {"trees": ("Tree", "Forest"), "tensor": ("Word",)}


def _key_writes(tree) -> list:
    """The dotted class and function names around every statement in tree
    that sets a `_key` or `_hash`: a `setattr`/`__setattr__` call naming
    one, or an assignment to the attribute."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, where + (child.name,))
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call)
                and (getattr(func, "id", None) == "setattr" or getattr(func, "attr", None) == "__setattr__")
                and any(isinstance(a, ast.Constant) and a.value in ("_key", "_hash") for a in child.args)
                or isinstance(child, ast.Attribute) and child.attr in ("_key", "_hash") and isinstance(child.ctx, ast.Store)
            ):
                out.append(".".join(where))
            visit(child, where)

    visit(tree, ())
    return out


def test_key_writes_are_caught_wherever_they_sit():
    source = (
        "class A:\n"
        "    def __init__(self, k):\n"
        "        object.__setattr__(self, '_key', k)\n"
        "        self._hash = hash(k)\n"
        "def f(x):\n"
        "    setattr(x, '_hash', 0)\n"
        "    return getattr(x, '_key'), x._key\n"
    )
    assert _key_writes(ast.parse(source)) == ["A.__init__", "A.__init__", "f"]


def test_one_canonical_value_protocol():
    trees = _trees()
    classes = {
        path.stem: {node.name: node for node in trees[path].body if isinstance(node, ast.ClassDef)}
        for path in sorted(PACKAGE.glob("*.py"))
    }
    for module, names in _VALUES.items():
        for name in names:
            node = classes[module][name]
            assert [ast.unparse(b) for b in node.bases] == ["Canonical"], f"{module}.{name}"
            assert set(_class_names(node)) & _PROTOCOL == set(), f"{module}.{name}"
    assert _PROTOCOL <= set(_class_names(classes["trees"]["Canonical"]))
    writes = {path.stem: _key_writes(trees[path]) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: found for stem, found in writes.items() if found} == {"trees": ["Canonical._seal"] * 2}


def _memo_sites(tree) -> list:
    """Per reference to a `functools` cache (`lru_cache` or `cache`, read off
    `functools` or imported bare), the function it decorates, or None."""
    def is_memo(node):
        return (
            isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and getattr(node.value, "id", None) == "functools"
            or isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.alias) and node.name in ("lru_cache", "cache")
        )

    decorated = {
        id(sub): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
        for sub in ast.walk(dec)
    }
    return [decorated.get(id(node)) for node in ast.walk(tree) if is_memo(node)]


def test_memo_sites_are_caught_in_every_form():
    source = (
        "import functools\n"
        "from functools import cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x): return x\n"
        "g = functools.cache(f)\n"
    )
    assert sorted(map(str, _memo_sites(ast.parse(source)))) == ["None", "None", "f"]


def test_morphisms_has_one_cache_on_the_table_builder():
    # tree images have one source: the table of (morphism, N, d)
    assert _memo_sites(_trees()[PACKAGE / "morphisms.py"]) == ["_tree_rows"]


_DYNAMIC = {"compile", "exec", "eval"}


def _dynamic_code_sites(tree) -> list:
    """(enclosing top-level definition, name) for every reference to the
    builtins that run code made at run time, called or not.  A class body
    that defines a method of the same name (`__call__ = eval`) reads its
    own."""
    out = []

    def visit(node, top, own):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, top, {n.name for n in child.body if isinstance(n, ast.FunctionDef)})
                continue
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, top, set())
                continue
            if isinstance(child, ast.Name) and child.id in _DYNAMIC and child.id not in own:
                out.append((top, child.id))
            elif isinstance(child, ast.Attribute) and child.attr in _DYNAMIC and getattr(child.value, "id", None) == "builtins":
                out.append((top, child.attr))
            visit(child, top, own)

    for top in tree.body:
        visit(ast.Module(body=[top], type_ignores=[]), getattr(top, "name", None), set())
    return out


def test_linear_straight_line_is_the_one_place_code_is_compiled():
    trees = _trees()
    sites = {path.stem: _dynamic_code_sites(trees[path]) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: found for stem, found in sites.items() if found} == {
        "linear": [("_straight_line", "exec"), ("_straight_line", "compile")]
    }


_TERM = r"(?:-?[0-9]+\*)?{operands}"
_SOURCE = r"def kernel\({params}\):\n    return \[(?:{sum}(?:, {sum})*)?\]\n"


def _source_pattern(params: str, operands: str):
    term = _TERM.format(operands=operands)
    total = rf"(?:{term}(?: \+ {term})*|0)"
    return re.compile(_SOURCE.format(params=re.escape(params), sum=total))


_PRODUCT = _source_pattern("f, g", r"f\[[0-9]+\]\*g\[[0-9]+\]")
_LINEAR = _source_pattern("v", r"v\[[0-9]+\]")


@pytest.mark.parametrize("N", range(6))
def test_every_generated_source_is_integers_and_operand_entries(N, monkeypatch):
    # every product kernel of the forest and word contexts of level N, and
    # the psi maps of the certificate on an exact lift of level N
    sources = []
    builtin = compile
    monkeypatch.setattr(linear, "compile", lambda source, *args: sources.append(source) or builtin(source, *args), raising=False)
    with sweeps():
        for d in (1, 2):
            forest_context(N, d).compiled()
            for n in range(1, N + 1):
                word_context(N, d, n).compiled()
        path = SampledPath.over_labels([0, 1, 2], [[0, 0], [1, -1], [3, 2]], 2, RATIONAL)
        assert encode(ito_lift(path, max(N, 1))).certificate["status"] == "pass"
    kernels = [src for src in sources if src.startswith("def kernel(f, g)")]
    maps = [src for src in sources if src.startswith("def kernel(v)")]
    assert len(kernels) >= 2 + 2 * N and len(maps) == 1
    assert len(kernels) + len(maps) == len(sources)
    assert all(_PRODUCT.fullmatch(src) for src in kernels)
    assert all(_LINEAR.fullmatch(src) for src in maps)
