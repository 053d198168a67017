"""Every private module-level name of the package is defined once and read,
and every public function, class or method is read somewhere in the
repository."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logforms"


def _defined(stmt) -> list:
    """The private names a module-level statement defines (dunders aside)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


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
