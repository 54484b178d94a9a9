"""The traced benchmark replaces the module attributes listed in
``perfbench/tracing.py``'s ``PATCH_POINTS`` to time each layer.  A refactor
that renames such a function, or that makes its callers look it up some
other way, would leave the per-layer metrics silently empty."""

import ast
import dis
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def patch_points():
    """``PATCH_POINTS`` read from the source, so perfbench is not imported."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCH_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no PATCH_POINTS")


def global_names(module):
    """Names that the functions and methods defined in ``module`` look up as
    globals, nested functions included."""
    names = set()
    codes = [
        obj.__code__
        for holder in [module, *[c for _, c in inspect.getmembers(module, inspect.isclass)
                                 if c.__module__ == module.__name__]]
        for obj in vars(holder).values()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
    ]
    while codes:
        code = codes.pop()
        names.update(i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL")
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    return names


POINTS = patch_points()


def test_patch_points_are_listed():
    assert POINTS


@pytest.mark.parametrize("module, attr, span", POINTS, ids=[f"{m}.{a}" for m, a, _ in POINTS])
def test_patch_point_is_the_function_callers_look_up(module, attr, span):
    home, name = span.split(".")
    caller = importlib.import_module(f"labmech.{module}")
    defined = getattr(importlib.import_module(f"labmech.{home}"), name)
    assert getattr(caller, attr) is defined
    if module != home:
        # the caller calls it through its own module attribute, which the
        # tracer replaces
        assert attr in global_names(caller)


def solver_argument_names():
    """The keys that ``_solver_wrappers`` in ``perfbench/tracing.py`` reads
    from ``bound.arguments``, by subscript or ``.get``, read from the
    source, so perfbench is not imported."""
    tree = ast.parse(TRACING.read_text())
    wrappers = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_solver_wrappers")

    def is_arguments(node):
        return isinstance(node, ast.Attribute) and node.attr == "arguments"

    keys = set()
    for node in ast.walk(wrappers):
        if isinstance(node, ast.Subscript) and is_arguments(node.value):
            keys.add(node.slice)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and is_arguments(node.func.value)):
            keys.add(node.args[0])
    return {ast.literal_eval(key) for key in keys}


def test_traced_solver_binds_height_search_parameters():
    # the traced wrapper binds height_search's arguments and reads them by
    # name; a renamed parameter would surface only as a KeyError in a
    # traced run
    from labmech.mesh import height_search

    names = solver_argument_names()
    assert names
    assert names <= set(inspect.signature(height_search).parameters)
