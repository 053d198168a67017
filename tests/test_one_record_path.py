"""Every command's record body comes from `cli._record`: no other code in
`cli.py` writes a `flags` or `dimensions` key or spells a CERTIFIED flag, so
the flag is always derived from the proof status of every number reported."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "logforms" / "cli.py"
KEYS = {"flags", "dimensions"}


def _is_key(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in KEYS


def _offences(node) -> list:
    """(line, what) for each write of a guarded key, or CERTIFIED spelt, in
    node and below; the body of `_record` is skipped."""
    if isinstance(node, ast.FunctionDef) and node.name == "_record":
        return []
    found = []
    if isinstance(node, ast.Dict):
        found += [(k.lineno, f"key {k.value!r}") for k in node.keys if _is_key(k)]
    elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) \
            and _is_key(node.slice):
        found.append((node.lineno, f"item {node.slice.value!r}"))
    elif isinstance(node, ast.keyword) and node.arg in KEYS:
        found.append((node.value.lineno, f"keyword {node.arg}="))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and "CERTIFIED" in node.value:
        found.append((node.lineno, repr(node.value)))
    for child in ast.iter_child_nodes(node):
        found += _offences(child)
    return found


def test_only_record_writes_flags_and_dimensions():
    offences = _offences(ast.parse(CLI.read_text(encoding="utf-8")))
    assert not offences, f"cli.py outside _record: {offences}"


def test_the_guard_sees_each_kind_of_write():
    """A handler that builds its own flag or dimensions is caught."""
    source = ('def _cmd(job):\n'
              '    rec = {"dimensions": {}}\n'
              '    rec["flags"] = {}\n'
              '    return _routes_record(flags=None, verdicts="UNCERTIFIED-LOCAL")\n'
              'def _record(verdicts):\n'
              '    return {"flags": "CERTIFIED"}\n')
    assert [line for line, _ in _offences(ast.parse(source))] == [2, 3, 4, 4]
