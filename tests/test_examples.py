"""The examples' ``repro`` imports resolve.

The examples are not run by the suite (CI runs them as a smoke step), so
this is what catches an example that no longer parses or imports a name
its module no longer defines.  It parses each ``examples/*.py``, imports
every ``repro`` module the file names and checks each imported name.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every ``repro`` import; ``name`` is ``None``
    for a plain ``import repro.x``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "repro"
            )
    return found


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_resolve(path):
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            # ``from repro.pkg import submodule`` is a name too.
            importlib.import_module(f"{module_name}.{name}")
