"""`telic selftest` loads the prelude once and runs every case on it, each
inside a rollback."""

from __future__ import annotations

from pathlib import Path

from telic.cli import main
from telic.elaborate import Processor
from telic.prelude import prelude_path


def test_selftest_loads_the_prelude_once(monkeypatch, capsys):
    prelude = prelude_path().resolve()
    loads = []
    process_path = Processor.process_path

    def counted(proc, path):
        if Path(path).resolve() == prelude:
            loads.append(path)
        return process_path(proc, path)

    monkeypatch.setattr(Processor, "process_path", counted)
    assert main(["selftest"]) == 0
    capsys.readouterr()
    assert len(loads) == 1

