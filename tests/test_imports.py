"""Package imports sit at the top of each module unless a cycle needs them deferred."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logforms"

# The one import cycle: the Groebner layer is built on `poly`, and these two
# functions of `poly` use it.
DEFERRED = {("poly.py", "is_squarefree"), ("poly.py", "quasihomogeneous_weights")}


def test_no_function_level_imports_outside_the_cycle():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                relative = isinstance(node, ast.ImportFrom) and node.level > 0
                if not (relative and (path.name, func.name) in DEFERRED):
                    found.append(f"{path.name}:{node.lineno} in {func.name}")
    assert not found, f"function-level imports: {found}"
