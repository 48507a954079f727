"""The runtime stays stdlib-only: gammalat imports nothing outside the
standard library, so it runs wherever Python 3.10+ does.  It also imports
nothing it does not use, defines no private helper it does not use, and
exports only names it defines."""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gammalat"


def _trees():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _absolute_imports():
    """(where, top-level package) for every absolute import in the package."""
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    outside = [f"{where} imports {top}" for where, top in _absolute_imports() if top not in sys.stdlib_module_names]
    assert not outside, outside


def test_runtime_does_not_import_dataclasses():
    """Value types are plain classes: importing ``dataclasses`` and
    generating their methods would cost every command about 30 ms of
    start-up."""
    found = [where for where, top in _absolute_imports() if top == "dataclasses"]
    assert not found, found


def test_every_import_is_used():
    """Each name a module imports, apart from ``annotations``, appears as a
    name in that module's code."""
    unused = []
    for path, tree in _trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "annotations" and bound not in used:
                    unused.append(f"{path.name}:{node.lineno} imports {alias.name} unused")
    assert not unused, unused


def _references(tree):
    """Every name the code reads: plain names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_function_is_used():
    """Each underscore-named function or method (dunders aside) is
    referenced somewhere in the package outside its own body, so no
    private helper survives only for the tests."""
    trees = list(_trees())
    used = Counter(name for _, tree in trees for name in _references(tree))
    unused = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            inside = sum(ref == name for stmt in node.body for ref in _references(stmt))
            if used[name] == inside:
                unused.append(f"{path.name}:{node.lineno} defines {name} unused")
    assert not unused, unused


def test_every_exported_name_is_defined():
    """Each name in a module's ``__all__`` is an attribute of that module,
    so no export outlives the function it named."""
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "gammalat" if path.stem == "__init__" else f"gammalat.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{path.name} exports {n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_only_groups_reads_the_cayley_graph_and_tables():
    """Multiplying elements is the business of ``groups``, which keeps no
    multiplication table: no module defines or reads ``mul_table``, and no
    other module reads a group's ``right`` or ``inv_table``, apart from the
    grouping key of ``checks``'s character property, whose case count
    ``bench/golden.json`` pins."""
    trees = list(_trees())
    tables = [
        path.name
        for path, tree in trees
        if "mul_table" in {*_references(tree), *(getattr(node, "name", None) for node in ast.walk(tree))}
    ]
    assert not tables, tables
    reads = Counter(
        (path.name, node.attr)
        for path, tree in trees
        if path.name != "groups.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("right", "inv_table")
    )
    assert reads == Counter({("checks.py", "right"): 1}), reads


def test_only_value_defines_the_key_and_every_value_lists_its_fields():
    """Identity is built from the fields in one place: no module but
    ``_value.py`` defines ``_key``, and every ``Value`` subclass lists its
    ``_fields``."""
    keys, unlisted = [], []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if path.name != "_value.py" and "_key" in (getattr(node, "name", None), getattr(node, "id", None)):
                keys.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "Value" for b in node.bases):
                assigned = {t.id for stmt in node.body if isinstance(stmt, ast.Assign) for t in stmt.targets}
                if "_fields" not in assigned:
                    unlisted.append(f"{path.name}:{node.lineno} {node.name}")
    assert not keys and not unlisted, (keys, unlisted)
