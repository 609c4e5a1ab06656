"""The public surface: every name a module exports or the package imports
resolves, and the README's library example runs as printed."""
import ast
import builtins
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


# raises of a class that cli.main maps to no exit code: guards of library
# misuse that no command reaches, and those that a caller turns into a
# mapped error (argparse's ArgumentTypeError and the three of
# continue_branch's stuck(), which returns a ConvergenceError)
UNMAPPED_RAISES = sorted([
    ("burnside", "AmalgamClass._elements", "ValueError"),
    ("burnside", "Universe.from_marks", "ValueError"),
    ("burnside", "Universe._fold_preimage", "ValueError"),
    ("burnside", "BurnsideElement._check", "TypeError"),
    ("burnside", "BurnsideElement._check", "ValueError"),
    ("forcefield", "_positions", "ValueError"),
    ("cli", "_parse_critical", "ArgumentTypeError"),
    *[("orbits", "continue_branch", "stuck")] * 3,
])


def _resolve(module, node):
    """The object an expression of names and attributes names in a module,
    or None."""
    if isinstance(node, ast.Name):
        return getattr(module, node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(module, node.value), node.attr, None)
    return None


def _scoped(tree, kind):
    """(qualified name of the enclosing function, node) of every node of
    type `kind` in a module."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, kind):
            out.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(tree, ())
    return out


def test_every_raise_is_mapped_to_an_exit_code():
    # a new guard raises a class that main turns into exit 1, 2 or 3, or
    # joins the list above
    cli = importlib.import_module("tetravib.cli")
    with open(cli.__file__, encoding="utf-8") as fh:
        main = next(node for node in ast.parse(fh.read()).body
                    if getattr(node, "name", None) == "main")
    caught = [h.type for h in ast.walk(main)
              if isinstance(h, ast.excepthandler)]
    mapped = tuple(_resolve(cli, name) for node in caught
                   for name in getattr(node, "elts", [node]))
    assert mapped and all(isinstance(c, type) for c in mapped)
    unmapped = []
    for name in MODULES:
        module = importlib.import_module("tetravib." + name)
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for scope, node in _scoped(tree, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = _resolve(module, exc)
            if not (isinstance(cls, type) and issubclass(cls, mapped)):
                unmapped.append((name, scope,
                                 ast.unparse(exc).split(".")[-1]))
    assert sorted(unmapped) == UNMAPPED_RAISES


# handlers below cli.main that end in no raise: each turns a numeric failure
# into a value that the code after it acts on
SWALLOWING_HANDLERS = sorted([
    # an integer beyond float range becomes inf, which the next line refuses
    ("cli", "RunConfig.__init__", "OverflowError"),
    # a refused solve returns no step, so the corrector halves it
    ("orbits", "_normal_solve", "np.linalg.LinAlgError"),
])


def test_no_handler_below_main_swallows_an_error():
    # an error raised below cli.main reaches it, raised again or as a mapped
    # error, unless its handler is listed above
    swallowing = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for scope, handler in _scoped(tree, ast.ExceptHandler):
            if ((module, scope) != ("cli", "main")
                    and not isinstance(handler.body[-1], ast.Raise)):
                swallowing.append((module, scope, ast.unparse(handler.type)))
    assert sorted(swallowing) == SWALLOWING_HANDLERS


def test_the_ring_module_holds_no_float_arithmetic():
    # the ring is exact integer arithmetic: a float path into burnside.py,
    # such as a cosine sum rounded to an integer, needs one of these
    with open(os.path.join(SRC, "burnside.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("cos", "sin", "rint", "round"):
                found.append(ast.unparse(node))
        if getattr(node, "id", getattr(node, "attr", None)) == "pi":
            found.append(ast.unparse(node))
        if isinstance(node, ast.alias) and node.name == "pi":
            found.append(node.name)
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(repr(node.value))
    assert found == []
