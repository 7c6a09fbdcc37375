"""A pytest plugin that fails the run when a line of ``src/telic`` never ran.

Run it over the whole suite, which is its driver:

    PYTHONPATH=src:tests python -m pytest -q -p linecheck

It traces with ``sys.settrace``, since ``coverage.py`` is not a dependency.
Every line of every code object of every ``src/telic`` module counts,
module and class bodies included, so tracing starts before conftest
imports telic. Tracing stops for good when a test reaches the recursion
limit, since the trace function cannot be called then, so the tracer is
installed again before each test, as long as some line that must run has
not yet run; once every such line has run, tracing is switched off, since
later tests can only add lines that ran. At the end of the session every
line that never ran and is not on the allow-list is listed, and the run
fails.

The allow-list matches statements by what they say, not by line number, so
it holds across Python versions. A statement on it, all its lines, may go
unrun when it is:

* a ``raise AssertionError(...)`` fallback for a case that cannot occur;
* an ``except RecursionError`` handler: it runs only at the recursion
  limit, where tracing stops (``tests/test_depth.py`` reaches each one);
* a statement only a child process runs, named in ``SUBPROCESS_ONLY``
  with the test that runs it.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "telic"

# The first line of a statement, as written, that only a test's child
# process runs: the test that runs it.
SUBPROCESS_ONLY = {
    "except BrokenPipeError:": "tests/test_cli.py::test_closed_stdout_ends_quietly",
    'if __name__ == "__main__":': "tests/test_cli.py::test_module_entry_point_runs",
}


def _lines_of(code: types.CodeType) -> frozenset[int]:
    # line 0 (or None) marks instructions that stand for no source line
    return frozenset(line for _, _, line in code.co_lines() if line)


def executable_lines(source: str, filename: str) -> set[int]:
    """Every line of ``source`` that some code object runs."""
    lines: set[int] = set()
    codes = [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines |= _lines_of(code)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def allowed_lines(source: str) -> dict[int, str]:
    """The lines of ``source`` that may go unrun, each with the kind of
    allow-list entry that covers it."""
    return {
        line: kind
        for first, last, kind in _allowed_statements(source)
        for line in range(first, last + 1)
    }


def _allowed_statements(source: str):
    """The first and last line and the kind of each allow-listed statement."""
    text = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if _raises_assertion(node):
            yield node.lineno, node.end_lineno, "AssertionError fallback"
        elif isinstance(node, ast.match_case) and all(map(_raises_assertion, node.body)):
            # `case _: raise AssertionError(...)` tests its pattern only on
            # the way to the fallback
            yield node.pattern.lineno, node.body[-1].end_lineno, "AssertionError fallback"
        elif (
            isinstance(node, ast.ExceptHandler)
            and isinstance(node.type, ast.Name)
            and node.type.id == "RecursionError"
        ):
            yield node.lineno, node.end_lineno, "RecursionError handler"
        elif isinstance(node, (ast.stmt, ast.ExceptHandler)):
            test = SUBPROCESS_ONLY.get(text[node.lineno - 1].strip())
            if test is not None:
                yield node.lineno, node.end_lineno, f"subprocess only, run by {test}"


def _raises_assertion(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "AssertionError"
    )


class LineCollector:
    """Records the lines that run in a set of source files.

    ``start`` installs the tracer for the calling thread and ``stop`` puts
    back the one it found. A code object whose lines have all run is not
    traced again, which keeps the hot paths fast."""

    def __init__(self, paths) -> None:
        self.hits: dict[Path, set[int]] = {Path(p).resolve(): set() for p in paths}
        # per file, the lines that must run: executable and not allow-listed
        self._required: dict[Path, set[int]] = {}
        for path in self.hits:
            source = path.read_text(encoding="utf-8")
            self._required[path] = executable_lines(source, str(path)) - allowed_lines(source).keys()
        # per code object met, its local trace function, or None once it
        # needs none: outside the files, or every line it must run has run
        self._tracers: dict[object, object] = {}
        self._paths: dict[str, Path | None] = {}
        self._previous = None

    def start(self) -> None:
        self._previous = sys.gettrace()
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._previous)

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            return self._tracers[code]
        except KeyError:
            tracer = self._tracers[code] = self._tracer_for(code)
            return tracer

    def _tracer_for(self, code):
        filename = code.co_filename
        if filename not in self._paths:
            path = Path(os.path.realpath(filename))
            self._paths[filename] = path if path in self.hits else None
        path = self._paths[filename]
        if path is None:
            return None
        lines = self.hits[path]
        needed = _lines_of(code) & self._required[path]
        tracers = self._tracers

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            elif event == "return" and needed <= lines:
                tracers[code] = None
            return local

        return local

    def complete(self) -> bool:
        """Whether every line that must run has run."""
        return all(required <= self.hits[path] for path, required in self._required.items())

    def unrun(self) -> dict[Path, list[int]]:
        """Per file, the lines that never ran and are not allow-listed."""
        out = {}
        for path, required in self._required.items():
            missing = required - self.hits[path]
            if missing:
                out[path] = sorted(missing)
        return out


_collector: LineCollector | None = None
_unrun: dict[Path, list[int]] = {}


def pytest_load_initial_conftests(early_config, parser, args):
    """Start tracing before conftest imports telic."""
    global _collector
    if "telic" in sys.modules:
        raise RuntimeError("linecheck must be loaded before telic is imported")
    paths = sorted(SOURCE_DIR.glob("*.py"))
    if not paths:
        raise RuntimeError(f"linecheck: no source files in {SOURCE_DIR}")
    _collector = LineCollector(paths)
    _collector.start()


def pytest_runtest_setup(item):
    """Install the tracer again, in case the last test hit the recursion
    limit and stopped it, or switch tracing off once every line that must
    run has run."""
    sys.settrace(None if _collector.complete() else _collector._call)


def pytest_sessionfinish(session, exitstatus):
    _collector.stop()
    _unrun.update(_collector.unrun())
    if _unrun and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _unrun:
        terminalreporter.write_line("linecheck: every line of src/telic ran")
        return
    terminalreporter.section("linecheck: lines of src/telic that never ran", red=True)
    for path, lines in _unrun.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            terminalreporter.write_line(f"{path.name}:{line}: {source[line - 1].strip()}")
