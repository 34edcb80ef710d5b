"""Source hygiene of the package, checked with `ast`: nothing lingers.

No linter ships with the project, so four checks stand in for one:

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
"""

import ast
from pathlib import Path

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
