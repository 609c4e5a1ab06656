"""The public surface: every name a module exports or the package imports
resolves, and the README's library example runs as printed."""
import ast
import contextlib
import glob
import graphlib
import importlib
import inspect
import io
import os
import re

import pytest

import tetravib

from _golden import BRANCHES

MODULES = ("forcefield", "grouprep", "burnside", "bifurcation", "orbits", "cli")
README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                   "tetravib")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module("tetravib." + name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_library_settings_are_the_cli_settings():
    # a setting with one value in use is a module constant, so the only
    # parameters with defaults of the library's public functions are those
    # of continue_branch that the CLI sets
    found = []
    for name in MODULES[:-1]:
        module = importlib.import_module("tetravib." + name)
        for entry in module.__all__:
            fn = getattr(module, entry)
            if callable(fn) and not isinstance(fn, type):
                found += ["%s.%s.%s" % (name, entry, p.name) for p in
                          inspect.signature(fn).parameters.values()
                          if p.default is not p.empty]
    assert found == ["orbits.continue_branch." + p for p in (
        "n_modes", "steps", "target_amplitude", "step_size", "newton_tol")]


def test_every_package_import_is_public():
    with open(tetravib.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("tetravib." + node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(tetravib, alias.name) is getattr(module, alias.name)


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    # one line per family: its class, final amplitude and final lambda
    names = [line.rsplit(" ", 2)[0] for line in out.getvalue().splitlines()]
    assert names == [b[0] for b in BRANCHES]


def _relative_imports():
    """{module: the package modules it imports outside any function} and
    the (module, function) pairs whose body imports from the package, over
    every module in src/tetravib."""
    graph, local = {}, []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = function or node.name
        if isinstance(node, ast.ImportFrom) and node.level:
            if function:
                local.append((module, function))
            else:
                graph[module] |= ({a.name for a in node.names}
                                  if node.module is None
                                  else {node.module.split(".")[0]})
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        graph[module] = set()
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), module, None)
    return graph, local


def test_no_function_imports_from_the_package():
    # an import inside a function hides a dependency from the module graph
    assert _relative_imports()[1] == []


def test_module_imports_form_no_cycle():
    graph = _relative_imports()[0]
    assert set(graph) == set(MODULES) | {"__init__"}
    # static_order raises CycleError, naming the cycle, if there is one
    assert len(list(graphlib.TopologicalSorter(graph).static_order())) == 7
