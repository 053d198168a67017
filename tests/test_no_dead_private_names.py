"""Every private module-level name of the package is defined once and read,
every public function, class or method is read somewhere in the
repository, every module-level definition is reached from what the
commands, the exports or the benchmark run, and every import of the
package and the tests is read."""

import ast
import re
from collections import Counter

import logforms
from conftest import PACKAGE, ROOT, bench_reads, trace_targets


def _names(stmt) -> list:
    """The names a module-level function, class or assignment defines
    (dunders aside)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("__")]


def _defined(stmt) -> list:
    """The private names a module-level statement defines (dunders aside)."""
    return [n for n in _names(stmt) if n.startswith("_")]


def _loads(stmt) -> set:
    """The names a statement reads, as bare names or as attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")).body
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(modules: dict) -> list:
    """(module, position of the statement, name) of every private definition."""
    return [(mod, i, name) for mod, body in modules.items()
            for i, stmt in enumerate(body) for name in _defined(stmt)]


def test_every_private_module_name_is_read():
    """A private function, class or assignment at module level must be read
    by another statement of its module, or be imported by another module
    that reads it; a read only inside its own definition does not count."""
    modules = _modules()
    loads = {mod: [_loads(stmt) for stmt in body] for mod, body in modules.items()}
    imported = Counter()  # (source module, name) -> modules that import and read it
    for mod, body in modules.items():
        read = set().union(*loads[mod])
        for stmt in body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    if (alias.asname or alias.name) in read:
                        imported[(stmt.module, alias.name)] += 1
    dead = [f"{mod}.{name}" for mod, i, name in _definitions(modules)
            if not imported[(mod, name)]
            and not any(name in r for j, r in enumerate(loads[mod]) if j != i)]
    assert not dead, f"private names nothing reads: {dead}"


def test_every_private_module_name_is_defined_once():
    """A helper moved to another module leaves no copy behind."""
    defined = {(mod, name) for mod, _, name in _definitions(_modules())}
    counts = Counter(name for _, name in defined)
    assert not [name for name, c in counts.items() if c > 1]


# A string that is a dotted name: how the benchmark's trace names its targets.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _statement_reads(members: bool = False) -> list:
    """(file, line, the names read) for every module-level statement in src,
    tests and bench, or with members for every statement of a module-level
    class body in its place (its bases and decorators aside); in bench, a
    string that is a dotted name reads each of its parts."""
    out = []
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for stmt in (s for top in ast.parse(path.read_text(encoding="utf-8")).body
                         for s in (top.body if members and isinstance(top, ast.ClassDef)
                                   else [top])):
                names = _loads(stmt)
                if folder == "bench":
                    names |= {part for node in ast.walk(stmt)
                              if isinstance(node, ast.Constant) and isinstance(node.value, str)
                              and _DOTTED.fullmatch(node.value)
                              for part in node.value.split(".")}
                out.append((path, stmt.lineno, names))
    return out


def test_every_public_function_and_class_is_read():
    """A public module-level function or class of the package must be read
    by another statement in src, tests or bench (a string naming a trace
    target counts); importing it, re-exporting it from `logforms` or listing
    it in `__all__` does not."""
    reads = _statement_reads()
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")
                    and not any(stmt.name in names for where, line, names in reads
                                if (where, line) != (path, stmt.lineno))):
                orphans.append(f"{path.stem}.{stmt.name}")
    assert not orphans, f"public names nothing reads: {orphans}"


def test_every_public_method_is_read():
    """A public method (or property) of a module-level class of the package
    must be read by a statement in src, tests or bench other than its own
    definition: another method of its class counts, a read inside its own
    body does not.  As for functions, a string naming a trace target
    counts."""
    reads = _statement_reads(members=True)
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not stmt.name.startswith("_")
                        and not any(stmt.name in names for where, line, names in reads
                                    if (where, line) != (path, stmt.lineno))):
                    orphans.append(f"{path.stem}.{cls.name}.{stmt.name}")
    assert not orphans, f"public methods nothing reads: {orphans}"


def _unread_imports(tree: ast.Module) -> list:
    """The names a module imports and never reads (a `from __future__`
    import aside)."""
    bound = [alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unread_import_walk_on_a_synthetic_module():
    """A name read as a value, an annotation or the base of an attribute
    counts; one only imported, or read only as another object's attribute,
    does not."""
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\nfrom typing import Optional, Any\n"
                     "def f(x: Optional[int]):\n    return os.path.join(x).Any\n")
    assert _unread_imports(tree) == ["regex", "Any"]


def test_every_import_is_read():
    """Every name that a module of the package or of the tests imports is
    read by that module; the re-exports of `logforms/__init__.py` are its
    interface and are left out."""
    unread = [f"{path.relative_to(ROOT)}: {name}"
              for folder in ("src/logforms", "tests")
              for path in sorted((ROOT / folder).glob("*.py")) if path.name != "__init__.py"
              for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unread, f"imports their module never reads: {unread}"


def _unreachable(modules: dict, roots: set) -> list:
    """module.name of every module-level function, class or assignment whose
    name the roots do not reach.  A name reached reaches every name that a
    module-level definition of it, in any module, reads (`_loads`)."""
    reads: dict = {}  # name -> the names its definitions read
    for body in modules.values():
        for stmt in body:
            for name in _names(stmt):
                reads.setdefault(name, set()).update(_loads(stmt))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(reads.get(name, ()))
    return [f"{mod}.{name}" for mod, body in modules.items()
            for stmt in body for name in _names(stmt) if name not in reached]


def test_reachability_walk_on_a_synthetic_package():
    """A definition reached only through another one counts; one that only
    an unreached definition or an import reads does not."""
    modules = {"a": ast.parse("def main():\n    return helper(LIMIT)\n"
                              "def helper(n):\n    return n\n"
                              "LIMIT = 3\n"
                              "def orphan():\n    return helper(_cache)\n"
                              "_cache = {}\n").body,
               "b": ast.parse("from .a import orphan\n"
                              "class Api:\n    def run(self):\n        return _inner()\n"
                              "def _inner():\n    return 0\n").body}
    assert _unreachable(modules, {"main", "Api"}) == ["a.orphan", "a._cache"]
    assert _unreachable(modules, {"main", "Api", "orphan"}) == []


def test_every_definition_is_reachable():
    """Every module-level function, class or assignment of the package is
    reached by name from `cli.main`, from `logforms.__all__`, or from what
    `bench/*.py` reads of the package: its imports, the attributes it reads
    off a `logforms` module, and the names its trace wraps (`TARGETS` of
    `bench/spans.py`, a method by its class)."""
    roots = ({"main"} | set(logforms.__all__) | {name for _, name in bench_reads()}
             | {target.partition(".")[0] for targets in trace_targets().values()
                for target in targets})
    dead = _unreachable(_modules(), roots)
    assert not dead, f"definitions no command, export or benchmark reaches: {dead}"


def test_every_export_is_run_by_a_command_or_in_the_library_example():
    """The interface is the command line and the README's library example:
    each name of `logforms.__all__` is reached from `cli.main` or imported
    by that example."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = {alias.name for block in re.findall(r"```python\n(.*?)```", readme, re.S)
               for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module == "logforms"
               for alias in node.names}
    unreached = {d.partition(".")[2] for d in _unreachable(_modules(), {"main"})}
    stray = sorted(set(logforms.__all__) & unreached - example)
    assert not stray, f"exports no command runs and the library example does not import: {stray}"
