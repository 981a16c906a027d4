"""Checks on the package source itself."""
import ast
import collections
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gazescreen"
MODULES = sorted(SRC.rglob("*.py"))
# the code whose reads keep a definition of the package alive; tests do not
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


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


def reads_in(node):
    """The names read anywhere under node, once per read: names loaded and
    attribute names (`pipeline.fit_ocsvm` reads fit_ocsvm)."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)]


def definitions_and_reads(tree):
    """(name, line) of each module-level function, class and constant
    (`NAME = ...`, but not `__all__`), and every name the module reads
    outside the definition of that same name: names loaded, attribute names
    (`pipeline.fit_ocsvm` reads fit_ocsvm) and the strings of __all__."""
    defined, read = [], exported(tree)
    for stmt in tree.body:
        names = set(reads_in(stmt))
        if isinstance(stmt, _DEFINITIONS):
            own = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            own = [t.id for t in stmt.targets
                   if isinstance(t, ast.Name) and t.id != "__all__"]
        else:
            own = []
        defined += [(name, stmt.lineno) for name in own]
        read |= names - set(own)
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
    """A module-level function, class or constant of the package that src/
    and demos/ never read (outside its own definition) is dead or
    test-only."""
    defined, read = [], set()
    for path in READERS:
        names, reads = definitions_and_reads(ast.parse(path.read_text(), filename=str(path)))
        read |= reads
        if SRC in path.parents:
            defined += [f"{path.relative_to(SRC)}:{line} {name}" for name, line in names]
    unread = [d for d in defined if d.rpartition(" ")[2] not in read]
    assert defined and not unread, f"defined but never read: {', '.join(unread)}"


# methods kept though src/ and demos/ never call them: public API that
# README defines
PUBLIC_METHODS = {"FittedModel.predict"}


def methods_and_reads(tree):
    """(Class.name, line) of each method and property of each module-level
    class, dunders aside, and a count of each name and attribute name the
    module reads, less the reads in the body of a method of that name (a
    method that only calls itself is unread)."""
    defined, reads = [], collections.Counter(reads_in(tree))
    reads.update(exported(tree))
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, _FUNCTIONS) and not item.name.startswith("__"):
                defined.append((f"{cls.name}.{item.name}", item.lineno))
                reads[item.name] -= reads_in(item).count(item.name)
    return defined, reads


def test_every_method_is_read():
    """A method or property of a package class that src/ and demos/ never
    read is dead or test-only, unless it is public API (PUBLIC_METHODS)."""
    defined, reads = [], collections.Counter()
    for path in READERS:
        names, counts = methods_and_reads(ast.parse(path.read_text(), filename=str(path)))
        reads.update(counts)
        if SRC in path.parents:
            defined += [(name, f"{path.relative_to(SRC)}:{line} {name}")
                        for name, line in names]
    unread = [where for name, where in defined
              if name not in PUBLIC_METHODS and reads[name.partition(".")[2]] <= 0]
    assert defined and not unread, f"defined but never read: {', '.join(unread)}"


def test_checker_sees_an_unread_method():
    defined, reads = methods_and_reads(ast.parse(
        "class A:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        pass\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    @property\n    def unread(self):\n        return 1\n"
        "    @property\n    def read(self):\n        return 2\n"
        "print(A().read)\n"))
    assert [n for n, _ in defined] == ["A.used", "A.recursive", "A.unread", "A.read"]
    assert [n for n, _ in defined if reads[n.partition(".")[2]] <= 0] == [
        "A.recursive", "A.unread"]


def test_checker_sees_an_unread_definition():
    defined, read = definitions_and_reads(ast.parse(
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Exported:\n    pass\n"
        "def by_attribute():\n    pass\n"
        "READ = 1\nUNREAD = READ + 1\nGROWN = 2\nGROWN = GROWN + 1\n"
        "__all__ = ['Exported']\nprint(used(), mod.by_attribute)\n"))
    assert [n for n, _ in defined] == ["used", "recursive", "Exported", "by_attribute",
                                       "READ", "UNREAD", "GROWN", "GROWN"]
    assert [n for n, _ in defined if n not in read] == ["recursive", "UNREAD", "GROWN", "GROWN"]


def imports_of_command(args, cwd):
    """The modules a fresh `python -X importtime -m gazescreen ARGS`
    imports, with src/ first on the path; the command must succeed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "gazescreen", *args],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def command_imports(tmp_path_factory):
    """Each command on a 1+1 cohort, in order, each in its own process:
    the evaluation reads the DT and NB models the first training wrote."""
    cwd = tmp_path_factory.mktemp("cli")
    cohort = ["--n-control", "1", "--n-concussed", "1", "--seed", "1"]
    commands = {
        "simulate": ["simulate", "--out", "cohort.csv", *cohort],
        "train DT,NB": ["train", *cohort, "--models", "DT,NB",
                        "--balanced-per-class", "500", "--out-dir", "dtnb"],
        "evaluate DT,NB": ["evaluate", "--data", "cohort.csv",
                           "--models-dir", "dtnb/models", "--out-dir", "eval"],
        "report": ["report", "--metrics-csv", "eval/report.csv"],
        "novelty": ["novelty", *cohort, "--grid-resolution", "10", "--out-dir", "nov"],
        "train LR": ["train", *cohort, "--models", "LR", "--out-dir", "lr"],
    }
    return {name: imports_of_command(args, cwd) for name, args in commands.items()}


@pytest.mark.parametrize("command", ["simulate", "train DT,NB", "evaluate DT,NB",
                                     "report", "novelty"])
def test_command_without_lr_or_gpc_imports_no_scipy(command_imports, command):
    """scipy is imported only where an LR or GPC fit, or GPC scoring, calls
    it; a module-level scipy import anywhere in the package shows here."""
    scipy = sorted(m for m in command_imports[command] if m.partition(".")[0] == "scipy")
    assert not scipy, f"{command} imported {', '.join(scipy[:5])}"


def test_lr_fit_imports_scipy(command_imports):
    """The check above sees scipy when a command does import it."""
    assert "scipy.optimize" in command_imports["train LR"]
