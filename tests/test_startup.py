"""What ``import telic`` pays for before the first declaration.

Building a dataclass compiles its methods, and importing ``dataclasses``
loads ``inspect``, ``ast`` and ``dis`` with it, which made up about half
of the import. So no module is a dataclass: the term classes are built by
``terms._term_classes``, records and surface nodes are named tuples or
slotted classes, and the package data is found next to the package's
files rather than through ``importlib.resources``. The command line and
the corpus are loaded only by those who use them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def dataclass_lines(source: str) -> list[int]:
    """The lines where ``source`` names ``dataclass``: imports, decorators
    and calls alike."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = any(alias.name == "dataclass" for alias in node.names)
        else:
            hit = (isinstance(node, ast.Name) and node.id == "dataclass") or (
                isinstance(node, ast.Attribute) and node.attr == "dataclass"
            )
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_dataclass():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A: pass\n"
        "B = dataclasses.dataclass(frozen=True)(type('B', (), {}))\n"
        "class C(tuple): pass\n"
    )
    assert dataclass_lines(source) == [2, 3, 5]


def test_no_module_names_dataclass():
    found = {
        path.name: dataclass_lines(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "telic").glob("*.py"))
    }
    assert "terms.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def modules_after_import(*flags: str) -> list[str]:
    """The modules loaded once a fresh interpreter, run with ``flags``, has
    imported telic."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, *flags, "-c", "import sys, telic; print(sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(out.stdout)


def test_import_loads_neither_dataclasses_nor_inspect_nor_importlib_resources():
    # without site, whose start-up hooks may load any of them themselves
    loaded = modules_after_import("-S")
    assert "telic.terms" in loaded
    assert [m for m in ("dataclasses", "inspect", "importlib.resources") if m in loaded] == []


def test_import_loads_neither_the_command_line_nor_the_corpus():
    loaded = modules_after_import()
    assert "telic.terms" in loaded
    assert [m for m in loaded if m in ("telic.cli", "telic.corpus")] == []
