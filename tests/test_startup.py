"""What ``import telic`` pays for before the first declaration.

Building a dataclass compiles its methods, which made up about half of the
import, so only the term classes are dataclasses: records and surface nodes
are named tuples or slotted classes. The command line and the corpus are
loaded only by those who use them.
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


def test_only_the_term_classes_are_dataclasses():
    found = {
        path.name: dataclass_lines(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "telic").glob("*.py"))
        if path.name != "terms.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_import_loads_neither_the_command_line_nor_the_corpus():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, telic; print(sorted(m for m in sys.modules if m.startswith('telic')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = ast.literal_eval(out.stdout)
    assert "telic.terms" in loaded
    assert [m for m in loaded if m in ("telic.cli", "telic.corpus")] == []
