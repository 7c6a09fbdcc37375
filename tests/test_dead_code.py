"""Every function, class and method defined in ``src/telic`` has a user.

A definition counts as used when its name appears in ``src/telic``, the
tests or the benchmark as a name, an attribute, or a string constant that
is a (dotted) identifier: the benchmark's probe wraps methods by name.
Prose in docstrings and messages does not count.
Dunder methods are called by Python itself and are not checked.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "telic").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(source: str) -> list[str]:
    """The non-dunder functions, classes and methods ``source`` defines."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _DEFINITION)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def references(source: str) -> set[str]:
    """Every name, attribute and identifier-shaped string in ``source``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                found.update(node.value.split("."))
    return found


def test_the_check_sees_an_unused_definition():
    source = (
        "class A:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def __repr__(self): return 'A'\n"
        "def wrapped(): pass\n"
        "patch(A, 'wrapped')\n"
        "print('unused is never called')\n"
        "A().used()\n"
    )
    assert [d for d in definitions(source) if d not in references(source)] == ["unused"]


def test_no_unused_definitions():
    used: set[str] = set()
    for path in USERS:
        used |= references(path.read_text(encoding="utf-8"))
    dead = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in definitions(path.read_text(encoding="utf-8"))
        if name not in used
    ]
    assert dead == []
