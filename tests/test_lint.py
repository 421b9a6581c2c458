"""Static checks on the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "assistfair"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_are_found():
    assert {"cli.py", "model.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    source = "from typing import Hashable, Mapping\nimport numpy as np\nx: Mapping = {}\n"
    assert unused_imports(source) == ["Hashable (line 1)", "np (line 2)"]


def _reads_by_statement(tree: ast.Module) -> list:
    """(names bound, names read) for each top-level statement of a module.

    A name is read as a bare name or as an attribute (``rng.derive_key``).
    """
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            binds = {stmt.name}
        elif isinstance(stmt, ast.Assign):
            binds = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        else:
            binds = set()
        reads = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
        out.append((binds, reads))
    return out


def _exports(tree: ast.Module) -> list:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    return []


def unused_exports(modules: dict, bench: dict) -> list:
    """``module.name`` for each ``__all__`` entry of ``modules`` that nothing uses.

    ``modules`` and ``bench`` map module names to sources. An export is used
    when a statement of any module reads it, other than the statement that
    defines it, or when a ``bench`` module names it in a string (the
    benchmark wraps functions by name).
    """
    trees = {name: ast.parse(source) for name, source in {**modules, **bench}.items()}
    reads = {name: _reads_by_statement(tree) for name, tree in trees.items()}
    strings = {node.value for name in bench for node in ast.walk(trees[name])
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unused = []
    for module in modules:
        for export in _exports(trees[module]):
            used = export in strings or any(
                export in read for name, stmts in reads.items() for binds, read in stmts
                if name != module or export not in binds)
            if not used:
                unused.append(f"{module}.{export}")
    return sorted(unused)


def test_every_export_is_used_outside_its_definition():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    bench = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")}
    assert unused_exports(modules, bench) == []


def test_export_detector_flags_a_name_only_its_definition_reads():
    modules = {
        "a": "__all__ = ['f', 'g', 'h']\ndef f():\n    return f\n"
             "def g():\n    pass\ndef h():\n    pass\n",
        "b": "from a import g\ng()\n",
    }
    bench = {"run": "wrap(a, 'h')\n"}
    assert unused_exports(modules, bench) == ["a.f"]
