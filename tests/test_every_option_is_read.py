"""Every option of the job language is read by the CLI: each key of
`jobio.OPTION_DOMAINS`, which also makes a command-line flag, appears in
`cli.py` as `opts.get("key", ...)` or as a read of `opts["key"]`, so no
option is a knob that nothing turns."""

import ast
from pathlib import Path

from logforms.jobio import OPTION_DOMAINS

CLI = Path(__file__).resolve().parent.parent / "src" / "logforms" / "cli.py"


def _is_opts(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "opts"


def _options_read(tree) -> set:
    """The string keys that `opts.get(key, ...)` or a loaded `opts[key]` reads
    in tree; a store into `opts` is not a read."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and _is_opts(node.func.value) and node.args:
            key = node.args[0]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) \
                and _is_opts(node.value):
            key = node.slice
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def test_every_option_is_read_by_the_cli():
    unread = set(OPTION_DOMAINS) - _options_read(ast.parse(CLI.read_text(encoding="utf-8")))
    assert not unread, f"options that cli.py never reads: {sorted(unread)}"


def test_the_guard_sees_each_kind_of_read():
    """Reads by `get` and by subscript count; a store, another mapping's
    `get` and a key that is not a literal do not."""
    source = ('def _cmd(job, opts, other, key):\n'
              '    a = opts.get("degree-bound", 20)\n'
              '    b = opts["order"] == "lex"\n'
              '    opts["seed"] = 1\n'
              '    c = other.get("jet-cap")\n'
              '    return opts.get(key)\n')
    assert _options_read(ast.parse(source)) == {"degree-bound", "order"}
