"""Each submodule's ``__all__`` names only what that module itself defines.

A name imported from another module and listed again in ``__all__`` is a
second public name for one operation.  ``urwidth/__init__.py`` re-exports
on purpose and is not checked.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import urwidth

_SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(urwidth.__path__))


def _top_level_definitions(module) -> set[str]:
    """Names bound at module level by ``def``, ``class`` or an assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", _SUBMODULES)
def test_all_names_only_what_the_module_defines(name):
    module = importlib.import_module(f"urwidth.{name}")
    exported = getattr(module, "__all__", [])
    foreign = sorted(set(exported) - _top_level_definitions(module))
    assert not foreign, f"urwidth.{name}.__all__ names {foreign}, defined elsewhere"
    for attr in exported:
        obj = getattr(module, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, attr
