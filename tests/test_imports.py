"""Every module uses every name it imports (re-exports in ``__all__`` count),
and the runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = sorted((ROOT / "src" / "telic").glob("*.py"))
MODULES = RUNTIME + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never mentions, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom a.b import c, d as e\nfrom x import y\n__all__ = ['y']\nc()\n"
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """The top-level packages ``source`` imports that are neither in the
    standard library nor telic itself; relative imports are telic's."""
    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return [m for m in found if m not in sys.stdlib_module_names and m != "telic"]


def test_the_check_sees_a_foreign_import():
    source = (
        "import os.path\nimport numpy as np\nfrom telic import kernel\n"
        "from .x import y\nfrom yaml import load\n"
    )
    assert foreign_imports(source) == ["numpy", "yaml"]


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_runtime_is_stdlib_only(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
