"""Checks on the package source itself."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gazescreen"
MODULES = sorted(SRC.rglob("*.py"))


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


def names_read(tree):
    """Every name the module loads, plus the strings of its __all__."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return read


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
