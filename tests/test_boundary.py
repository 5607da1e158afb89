"""Input is checked where it enters: only the boundary functions may raise.

Every `raise` in `src/leofl` sits in a function of the allowlist below. The
config validator and the loaders reject what a run cannot use, so the link,
learning, data and export functions trust their callers. A new raise must be
added here, in the same change, with the reason it is a boundary.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "leofl"

ALLOWED = {
    "config": {
        "_validate", "_check_link", "_build", "config_from_dict",
        "load_config", "set_keys", "_check_shards", "_find_idx",
    },
    "data": {"_read_exactly", "_read_dims", "_read_idx", "load_mnist"},
    # the commands and the argument parsers
    "cli": {"_cmd_windows", "_hours", "_stem", "_Axis.__call__"},
    # a sweep cell that cannot run: its config error, re-raised naming the
    # cell, or no iteration after the warm-up
    "harness": {"run_sweep"},
    # nothing shows that a window always exists within the search horizon
    "protocol": {"WindowCache.next_window"},
}


def raising_scopes(tree: ast.AST) -> set[str]:
    """Dotted names of the class and function scopes that hold a `raise`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Raise):
                    found.add(".".join(scope) or "<module>")
                visit(child, scope)

    visit(tree, [])
    return found


def test_raises_only_at_the_boundary():
    actual = {}
    for path in sorted(SRC.glob("*.py")):
        scopes = raising_scopes(ast.parse(path.read_text()))
        if scopes:
            actual[path.stem] = scopes
    assert actual == ALLOWED


def test_raising_scopes_sees_nested_functions():
    tree = ast.parse(
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            raise ValueError\n"
        "        return g\n"
        "def h():\n"
        "    if True:\n"
        "        raise KeyError\n"
        "raise SystemExit\n"
    )
    assert raising_scopes(tree) == {"A.f.g", "h", "<module>"}
