"""Checking leaves no reference cycles behind.

Every object telic makes while checking is freed by reference counting as
soon as it is dropped, so the cyclic collector finds nothing of telic's to
free. Each test runs its work with the collector off, then asks a full
collection, with ``gc.DEBUG_SAVEALL`` set, for what it found unreachable,
and keeps what telic made: its functions, frames of its code, its classes
and their instances. Garbage of other code (the test runner's, a tracer's)
is not counted, except by the tests of an in-process ``telic selftest`` and
of the benchmark's one-round lexicon: they count every object, the
standard library's included, and exempt only the line-check plugin's
tracers (``tests/linecheck.py``).
"""

from __future__ import annotations

import gc
import types
from collections import Counter
from pathlib import Path

import telic
from telic import cli
from telic.corpus import CASES, run_case
from telic.kernel import MetaEntry
from telic.prelude import load_prelude, prelude_self_check

TELIC_DIR = str(Path(telic.__file__).parent)


def _made_by_telic(o: object) -> bool:
    if isinstance(o, types.FunctionType):
        return str(o.__module__).startswith("telic")
    if isinstance(o, types.FrameType):
        return o.f_code.co_filename.startswith(TELIC_DIR)
    cls = o if isinstance(o, type) else type(o)
    return str(cls.__module__).startswith("telic")


def _name(o: object) -> str:
    if isinstance(o, types.FrameType):
        return f"frame of {o.f_code.co_name}"
    return getattr(o, "__qualname__", None) or type(o).__qualname__


def _without_line_check_tracers(found: list) -> list:
    """``found`` less the line-check plugin's tracers. Each is a function
    that returns itself, through its closure: a cycle of the function, the
    closure's cells and what only they hold."""
    tracers = [o for o in found if isinstance(o, types.FunctionType) and o.__module__ == "linecheck"]
    parts = {id(o) for f in tracers for o in (f, f.__closure__, *f.__closure__)}
    parts |= {id(c.cell_contents) for f in tracers for c in f.__closure__}
    return [o for o in found if id(o) not in parts]


def telic_garbage(work, select=lambda found: filter(_made_by_telic, found)) -> Counter:
    """Run ``work()`` with the collector off; then the objects that a
    collection finds unreachable and ``select`` keeps, by default those
    telic made, counted by name."""
    gc.collect()
    enabled = gc.isenabled()
    before = len(gc.garbage)
    gc.disable()
    try:
        work()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(_name(o) for o in select(gc.garbage[before:]))
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
        gc.collect()


def test_the_detector_finds_a_cycle_through_a_telic_object():
    def work():
        entry = MetaEntry(0)
        entry.ctx = (entry,)

    assert telic_garbage(work) == Counter({"MetaEntry": 1})


def test_the_corpus_leaves_no_cycles(loaded_processor):
    def work():
        for case in CASES:
            run_case(case, loaded_processor)

    assert telic_garbage(work) == Counter()


def test_the_prelude_audits_leave_no_cycles(loaded_processor):
    assert telic_garbage(lambda: prelude_self_check(loaded_processor)) == Counter()


def test_normalizing_an_expression_leaves_no_cycles(loaded_processor):
    assert telic_garbage(lambda: loaded_processor.normalize_expression("1 + 2")) == Counter()


FAULTS = """\
postulate A : Type
postulate a : A
postulate b : A $
postulate f : A -> A
check f : Type
fail TypeMismatch check f : A
fail InvalidRewrite rewrite (x : A) (y : A) : f x = y
rewrite (x : A) : f x = x
norm f (f a) = a
"""


def test_reports_of_failures_and_rewrites_leave_no_cycles(loaded_processor):
    reports = []

    def work():
        with loaded_processor.rollback():
            reports.extend(loaded_processor.process_text(FAULTS, "faults.tel"))

    assert telic_garbage(work) == Counter()
    codes = [r.code or "ok" for r in reports]
    assert codes == ["ok", "ok", "IllegalCharacter", "ok", "TypeMismatch", "ok", "ok", "ok", "ok"]


def test_a_dropped_processor_leaves_no_cycles():
    def work():
        proc, reports = load_prelude()
        assert all(r.ok for r in reports)

    assert telic_garbage(work) == Counter()


def test_an_in_process_selftest_leaves_no_cycles_at_all(capsys):
    status = []
    found = telic_garbage(lambda: status.append(cli.main(["selftest"])), _without_line_check_tracers)
    assert found == Counter()
    assert status == [0]
    assert "prelude: 86/86 audits ok" in capsys.readouterr().out


def test_checking_a_lexicon_leaves_no_cycles_at_all(small_lexicon):
    proc, reports = load_prelude()
    assert all(r.ok for r in reports)
    reports = []
    found = telic_garbage(
        lambda: reports.extend(proc.process_path(small_lexicon)), _without_line_check_tracers
    )
    assert found == Counter()
    assert len(reports) == 237
    assert all(r.ok for r in reports)
