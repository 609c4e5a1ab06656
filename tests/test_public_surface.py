"""The public surface: every name a module exports or the package imports
resolves, and the README's library example runs as printed."""
import ast
import contextlib
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
