"""Checks on the package source itself."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gazescreen"
MODULES = sorted(SRC.rglob("*.py"))
# the code whose reads keep a definition of the package alive; tests do not
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_imports(tree):
    """(bound name, line) of each import at module level, including those
    under a top-level if/try, but not `from __future__` imports, which
    bind nothing a module reads."""
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
        elif isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            todo += [stmt for h in getattr(node, "handlers", []) for stmt in h.body]
    return found


def exported(tree):
    """The strings of the module's __all__."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def names_read(tree):
    """Every name the module loads, plus the strings of its __all__."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)} | exported(tree)


def definitions_and_reads(tree):
    """(name, line) of each module-level function and class, and every
    name the module reads outside the definition of that same name: names
    loaded, attribute names (`pipeline.fit_ocsvm` reads fit_ocsvm) and the
    strings of __all__."""
    defined, read = [], exported(tree)
    for stmt in tree.body:
        names = set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
        if isinstance(stmt, _DEFINITIONS):
            defined.append((stmt.name, stmt.lineno))
            names.discard(stmt.name)
        read |= names
    return defined, read


def test_modules_found():
    assert SRC / "data.py" in MODULES
    assert SRC / "models" / "tree.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = names_read(tree)
    unused = [f"{name} (line {line})" for name, line in module_imports(tree)
              if name not in read]
    assert not unused, f"{path.name} imports but never reads: {', '.join(unused)}"


def test_checker_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport sys as system\n"
                     "from a import b, c\n__all__ = ['c']\nprint(system)\n")
    read = names_read(tree)
    assert sorted(n for n, _ in module_imports(tree) if n not in read) == ["b", "os"]


def test_every_definition_is_read():
    """A module-level function or class of the package that src/ and
    demos/ never read (outside its own definition) is dead or test-only."""
    defined, read = [], set()
    for path in READERS:
        names, reads = definitions_and_reads(ast.parse(path.read_text(), filename=str(path)))
        read |= reads
        if SRC in path.parents:
            defined += [f"{path.relative_to(SRC)}:{line} {name}" for name, line in names]
    unread = [d for d in defined if d.rpartition(" ")[2] not in read]
    assert defined and not unread, f"defined but never read: {', '.join(unread)}"


def test_checker_sees_an_unread_definition():
    defined, read = definitions_and_reads(ast.parse(
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Exported:\n    pass\n"
        "def by_attribute():\n    pass\n"
        "__all__ = ['Exported']\nprint(used(), mod.by_attribute)\n"))
    assert [n for n, _ in defined] == ["used", "recursive", "Exported", "by_attribute"]
    assert [n for n, _ in defined if n not in read] == ["recursive"]
