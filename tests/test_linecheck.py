"""The line check (``tests/linecheck.py``) on a toy module: it flags a line
that never ran, lets each kind of allow-listed statement go unrun, counts
a class-body line that ran at import, and stops tracing once every line
that must run has run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import linecheck

ROOT = Path(__file__).resolve().parent.parent

TOY = '''\
class Toy:
    kind = "toy"

    def run(self, x):
        if x:
            return 1
        return 2


def pick(x):
    match x:
        case 1:
            return "one"
        case _:
            raise AssertionError(f"unhandled {x!r}")


def guarded(f):
    try:
        return f()
    except RecursionError:
        return None


def last(x):
    if x:
        return x
    raise AssertionError("unreachable")


if __name__ == "__main__":
    print(Toy().run(0))
'''


def _line(text: str) -> int:
    return TOY.splitlines().index(text) + 1


def _toy(tmp_path):
    """The toy module's path and a collector for it."""
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    return path, linecheck.LineCollector([path])


def _load(path):
    spec = importlib.util.spec_from_file_location("linecheck_toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    return toy


def test_the_check_flags_an_unrun_line_and_no_allowed_one(tmp_path):
    path, collector = _toy(tmp_path)
    collector.start()
    try:
        toy = _load(path)
        assert toy.Toy().run(1) == 1
        assert toy.pick(1) == "one"
        assert toy.guarded(lambda: 3) == 3
        assert toy.last(4) == 4
    finally:
        collector.stop()

    assert _line('    kind = "toy"') in collector.hits[path.resolve()]
    assert collector.unrun() == {path.resolve(): [_line("        return 2")]}
    kinds = linecheck.allowed_lines(TOY)
    assert kinds[_line("        case _:")] == "AssertionError fallback"
    assert kinds[_line('    raise AssertionError("unreachable")')] == "AssertionError fallback"
    assert kinds[_line("        return None")] == "RecursionError handler"
    assert kinds[_line("    print(Toy().run(0))")].startswith("subprocess only, run by tests/")


def test_tracing_stops_once_every_line_that_must_run_has_run(tmp_path, monkeypatch):
    path, collector = _toy(tmp_path)
    monkeypatch.setattr(linecheck, "_collector", collector)
    previous = sys.gettrace()
    try:
        linecheck.pytest_runtest_setup(None)
        assert sys.gettrace() == collector._call
        toy = _load(path)
        assert (toy.Toy().run(1), toy.pick(1), toy.guarded(lambda: 3)) == (1, "one", 3)
        assert not collector.complete()
        linecheck.pytest_runtest_setup(None)  # `return 2` has not run
        assert sys.gettrace() == collector._call
        assert (toy.Toy().run(0), toy.last(4)) == (2, 4)
        linecheck.pytest_runtest_setup(None)
        assert sys.gettrace() is None
    finally:
        sys.settrace(previous)
    assert collector.complete() and collector.unrun() == {}


def test_each_subprocess_only_statement_is_in_the_source_and_names_a_test():
    sources = [p.read_text(encoding="utf-8") for p in sorted(linecheck.SOURCE_DIR.glob("*.py"))]
    for statement, test in linecheck.SUBPROCESS_ONLY.items():
        assert any(
            statement in (line.strip() for line in source.splitlines()) for source in sources
        ), statement
        file, name = test.split("::")
        assert f"\ndef {name}(" in (ROOT / file).read_text(encoding="utf-8"), test
