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
    outside the definition of that same name: names loaded and attribute
    names (`pipeline.fit_ocsvm` reads fit_ocsvm). Listing a name in
    __all__ is not a read: it would keep code alive that only tests call."""
    defined, read = [], set()
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


# functions and methods kept though src/ and demos/ never call them:
# public API that README defines
PUBLIC_DEFINITIONS = {"gpc_lml_and_grad"}
PUBLIC_METHODS = {"FittedModel.predict"}


def test_every_definition_is_read():
    """A module-level function, class or constant of the package that src/
    and demos/ never read (outside its own definition) is dead or
    test-only, unless it is public API (PUBLIC_DEFINITIONS)."""
    defined, read = [], set(PUBLIC_DEFINITIONS)
    for path in READERS:
        names, reads = definitions_and_reads(ast.parse(path.read_text(), filename=str(path)))
        read |= reads
        if SRC in path.parents:
            defined += [f"{path.relative_to(SRC)}:{line} {name}" for name, line in names]
    unread = [d for d in defined if d.rpartition(" ")[2] not in read]
    assert defined and not unread, f"defined but never read: {', '.join(unread)}"


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
    assert [n for n, _ in defined if n not in read] == [
        "recursive", "Exported", "UNREAD", "GROWN", "GROWN"]


def attributes_and_reads(tree):
    """(Class.name, line) of each attribute of each module-level class,
    dunders aside: its annotated fields, its class-level assignments and
    each `self.<name> = ...` in its body; and each name the module reads as
    an attribute, which is a load as an attribute or the name as a string
    constant (`getattr(self, name)` over METRIC_FIELDS reads by string)."""
    defined = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        targets = []
        for item in cls.body:
            if isinstance(item, ast.Assign):
                targets += [t for t in item.targets if isinstance(t, ast.Name)]
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                targets.append(item.target)
        targets += [n for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"]
        defined += [(f"{cls.name}.{t.id if isinstance(t, ast.Name) else t.attr}", t.lineno)
                    for t in targets]
    reads = {n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    reads |= {n.value for n in ast.walk(tree)
              if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return [(name, line) for name, line in defined
            if not name.partition(".")[2].startswith("__")], reads


def test_every_attribute_is_read():
    """A field or attribute of a package class that src/ and demos/ never
    read is state that only tests see, or that nothing sees."""
    defined, reads = [], set()
    for path in READERS:
        names, more = attributes_and_reads(ast.parse(path.read_text(), filename=str(path)))
        reads |= more
        if SRC in path.parents:
            defined += [(name, f"{path.relative_to(SRC)}:{line} {name}") for name, line in names]
    unread = sorted({where for name, where in defined if name.partition(".")[2] not in reads})
    assert defined and not unread, f"defined but never read: {', '.join(unread)}"


def test_checker_sees_an_unread_attribute():
    defined, reads = attributes_and_reads(ast.parse(
        "class A:\n"
        "    KIND = 'a'\n"
        "    field: int\n"
        "    by_string: float = 0.0\n"
        "    never: dict\n"
        "    __slots__ = ()\n"
        "    def __init__(self):\n"
        "        self.elsewhere = 1\n        self.unread = 2\n        self.field = 3\n"
        "print(A.KIND, A().field, getattr(A(), 'by_string'), A().elsewhere)\n"))
    assert [n for n, _ in defined] == ["A.KIND", "A.field", "A.by_string", "A.never",
                                       "A.elsewhere", "A.unread", "A.field"]
    assert [n for n, _ in defined if n.partition(".")[2] not in reads] == [
        "A.never", "A.unread"]


def pipeline_error_calls(tree):
    """(scope, line) of each `PipelineError(...)` call under tree, where
    scope names the definitions around it, `Class.method` or `function`,
    and is "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and "PipelineError" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


def test_pipeline_error_made_only_by_run_stage():
    """Which stage a failure belongs to is decided in one place: the only
    code that makes a PipelineError is `pipeline._Run.stage`, which wraps
    whatever its stage raises."""
    sites = [(str(path.relative_to(SRC)), scope, line) for path in MODULES
             for scope, line in pipeline_error_calls(ast.parse(path.read_text()))]
    assert [site[:2] for site in sites] == [("pipeline.py", "_Run.stage")], sites


def test_checker_sees_a_pipeline_error_outside_the_stage():
    tree = ast.parse(
        "class _Run:\n"
        "    def stage(self):\n        raise PipelineError(1, 2, 3)\n"
        "    def other(self):\n        raise errors.PipelineError(1, 2, 3)\n"
        "def run():\n    def inner():\n        return PipelineError\n"
        "    raise PipelineError(4, 5, 6)\n"
        "err = PipelineError(7, 8, 9)\n"
        "class PipelineError(Exception):\n    pass\n")
    assert pipeline_error_calls(tree) == [
        ("_Run.stage", 3), ("_Run.other", 5), ("run", 9), ("", 10)]


def defaulted_parameters(tree):
    """(callee, parameter, position, line) of each parameter with a default
    of each function and method under tree. A call names its callee by its
    name, or for an __init__ by its class's name; position is the
    parameter's index among a call's positional arguments (a method's self
    or cls not counted), None for a keyword-only parameter."""
    found = []
    in_class = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for f in cls.body if isinstance(f, _FUNCTIONS)}
    for f in ast.walk(tree):
        if not isinstance(f, _FUNCTIONS):
            continue
        cls = in_class.get(id(f))
        callee = cls.name if cls is not None and f.name == "__init__" else f.name
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        found += [(callee, a.arg, i - bound, f.lineno)
                  for i, a in enumerate(positional) if i >= first]
        found += [(callee, a.arg, None, f.lineno)
                  for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    return found


def calls_and_values(tree):
    """Each call under tree as (callee, positional count, keywords), where
    a `*` argument counts as every position and a `**` argument as every
    keyword (None), and the names read other than as the callee of a call:
    a function read so may be called through a table or a callback."""
    calls, callees = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callees.add(id(node.func))
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.append((name, float("inf") if starred else len(node.args),
                          None if None in keywords else keywords))
    values = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
              if id(n) not in callees and (isinstance(n, ast.Attribute)
                                           or isinstance(n, ast.Name)
                                           and isinstance(n.ctx, ast.Load))}
    return calls, values


def unpassed_defaults(defaulted, calls, exempt):
    """The defaulted parameters that no call passes, of callees not exempt."""
    return [(callee, param, line) for callee, param, position, line in defaulted
            if callee not in exempt and not any(
                name == callee and (keywords is None or param in keywords
                                    or position is not None and n > position)
                for name, n, keywords in calls)]


def test_every_defaulted_parameter_is_passed():
    """A default that src/ and demos/ never override is a setting only tests
    change: each defaulted parameter of a package function or method must be
    passed somewhere, by position, keyword, `*` or `**`. A function also read
    as a value (a kind table, a callback or a tracer target) is exempt, as
    is public API (PUBLIC_DEFINITIONS) and the entry point `main`."""
    defaulted, calls, values = [], [], set()
    for path in READERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        if SRC in path.parents:
            defaulted += [(c, p, i, f"{path.relative_to(SRC)}:{line}")
                          for c, p, i, line in defaulted_parameters(tree)]
        more_calls, more_values = calls_and_values(tree)
        calls += more_calls
        values |= more_values
    unpassed = unpassed_defaults(defaulted, calls, values | PUBLIC_DEFINITIONS | {"main"})
    assert defaulted and not unpassed, "never passed: " + ", ".join(
        f"{where} {callee}({param})" for callee, param, where in unpassed)


def test_checker_sees_an_unpassed_default():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "def h(y=0):\n    pass\n"
        "class K:\n"
        "    def __init__(self, p=1, q=2):\n        pass\n"
        "    def m(self, r=1):\n        pass\n"
        "f(0, c=5)\ng(*args)\nK(1)\nK(**kw).m()\ntable = [h]\n")
    defaulted = defaulted_parameters(tree)
    assert [(c, p, i) for c, p, i, _ in defaulted] == [
        ("f", "b", 1), ("f", "c", None), ("f", "d", None), ("g", "x", 0), ("h", "y", 0),
        ("K", "p", 0), ("K", "q", 1), ("m", "r", 0)]
    calls, values = calls_and_values(tree)
    assert [(c, p) for c, p, _ in unpassed_defaults(defaulted, calls, values)] == [
        ("f", "b"), ("f", "d"), ("m", "r")]


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
