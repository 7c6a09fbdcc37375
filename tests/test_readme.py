"""The README's Python examples run as written, and its command
transcripts print what they show."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from telic.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
DRINK = re.search(r"where `drink\.tel` is:\n\n```text\n(.*?)^```", TEXT, re.M | re.S).group(1)
# (arguments, printed lines) for each `$ telic ...` line of a transcript
TRANSCRIPTS = re.findall(r"^\$ telic (.*)\n((?:(?!\$ |```).*\n)*)", TEXT, re.M)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})


def _printed(shown: str) -> re.Pattern:
    """The output a transcript shows: a line `...` stands for any lines,
    and a trailing `...` for the rest of its line."""
    parts = []
    for line in shown.splitlines():
        if line == "...":
            parts.append(r"(?:.*\n)*?")
        elif line.endswith("..."):
            parts.append(re.escape(line[:-3]) + r".*\n")
        else:
            parts.append(re.escape(line) + "\n")
    return re.compile("".join(parts))


def test_the_readme_has_transcripts():
    assert [args.split()[0] for args, _ in TRANSCRIPTS] == ["check", "norm", "norm", "selftest"]


@pytest.mark.parametrize("args, shown", TRANSCRIPTS, ids=[args for args, _ in TRANSCRIPTS])
def test_readme_transcript(args, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "drink.tel").write_text(DRINK, encoding="utf-8")
    assert main(shlex.split(args)) == 0
    assert _printed(shown).fullmatch(capsys.readouterr().out)
