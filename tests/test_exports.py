"""Each submodule's ``__all__`` names only what that module itself defines.

A name imported from another module and listed again in ``__all__`` is a
second public name for one operation.  ``urwidth/__init__.py`` re-exports
on purpose and is not checked.  The README's table of experiment kinds
names exactly the kinds and fields of ``urwidth.cli._EXPERIMENTS``.
"""

import ast
import importlib
import inspect
import itertools
import pkgutil
import re
from pathlib import Path

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


def _readme_kinds() -> dict:
    """kind -> (required, optional) field names, read from the README's kinds table."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| kind | required fields | optional fields |") + 2
    table = {}
    for line in itertools.takewhile(lambda row: row.startswith("|"), lines[start:]):
        kind, required, optional = (re.findall(r"`(\w+)`", cell)
                                    for cell in line.strip("|").split("|"))
        assert len(kind) == 1 and kind[0] not in table, line
        table[kind[0]] = (set(required), set(optional))
    return table


def test_readme_lists_every_experiment_kind_and_its_fields():
    from urwidth.cli import _EXPERIMENTS

    registry = {kind: (set(required), set(optional))
                for kind, (_, required, optional) in _EXPERIMENTS.items()}
    assert _readme_kinds() == registry
