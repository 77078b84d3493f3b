"""Every function in the package reads each of its parameters: a parameter
that the body ignores invites callers to pass values that change nothing."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "bbmb"


def unused_parameters(source: str):
    """(function name, parameter) for each parameter of each function or
    lambda in source that its body never reads; self, cls and names that
    start with _ are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(name, p) for p in params
                  if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return found


def test_every_parameter_is_read():
    unused = {path.name: unused_parameters(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert "scheme.py" in unused
    assert {name: found for name, found in unused.items() if found} == {}


def test_an_ignored_parameter_is_found():
    source = "def init_state(phi, grid, params):\n    return phi(grid)\n"
    assert unused_parameters(source) == [("init_state", "params")]
