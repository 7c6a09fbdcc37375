"""Every function, class and method defined in ``src/telic`` has a user,
and every parameter of a function or method is read in its body.

A definition counts as used when its name appears in ``src/telic``, the
tests or the benchmark as a name, an attribute, or a string constant that
is a (dotted) identifier: the benchmark's probe wraps methods by name.
Prose in docstrings and messages does not count.
Dunder methods are called by Python itself and are not checked; neither
are lambdas, whose signatures their callers fix, nor a method's receiver
``self`` or ``cls``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "telic").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(source: str) -> list[str]:
    """The non-dunder functions, classes and methods ``source`` defines."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _DEF_NODES)
        and not _is_dunder(node.name)
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_parameters(source: str) -> list[str]:
    """``function.parameter``, in source order, for each parameter other
    than ``self`` and ``cls`` of a non-dunder function that its body never
    reads."""
    found: list[tuple[int, int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_dunder(node.name):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            (p.lineno, p.col_offset, f"{node.name}.{p.arg}")
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return [name for *_, name in sorted(found)]


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


def test_the_check_sees_an_unused_parameter():
    source = (
        "class A:\n"
        "    def run(self, lhs, sp, *rest, key=None, **extra):\n"
        "        lhs = rest\n"
        "        return [lhs, extra]\n"
        "    def unbound(self): return 0\n"
        "    def __setattr__(self, name, value): raise AttributeError(name)\n"
        "def outer(a, b):\n"
        "    def inner(c): return a\n"
        "    return inner, lambda d: 0\n"
    )
    assert unused_parameters(source) == ["run.sp", "run.key", "outer.b", "inner.c"]


def test_no_unused_parameters():
    unused = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in unused_parameters(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
