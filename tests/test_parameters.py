"""Rules over the package's source.  Every function reads each of its
parameters: a parameter that the body ignores invites callers to pass
values that change nothing.  No module assigns __all__: the imports in
bbmb/__init__.py are the one list of public names, and a leading
underscore marks a module's private ones."""

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


def all_assignments(source: str):
    """Line of each assignment to __all__ in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id == "__all__"]


def test_no_module_lists_its_public_names():
    found = {path.name: all_assignments(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "__init__.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_a_public_name_list_is_found():
    source = 'import numpy as np\n\n__all__ = ["run"]\n__all__ += ["march"]\n'
    assert all_assignments(source) == [3, 4]
