"""`telic selftest` loads the prelude once and runs every case on a fork."""

from __future__ import annotations

import json
from pathlib import Path

from telic.cli import main
from telic.corpus import CASES
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


def test_selftest_with_a_broken_prelude_fails_every_case(tmp_path, monkeypatch, capsys):
    broken = tmp_path / "prelude.tel"
    broken.write_text("primitive Nat : Type\npostulate bad : Missing\n")
    monkeypatch.setenv("TELIC_PRELUDE", str(broken))

    assert main(["selftest", "--format", "structured"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    cases = [line for line in lines if "case" in line]
    assert [c["case"] for c in cases] == [case.name for case in CASES]
    for c in cases:
        assert not c["ok"]
        assert len(c["problems"]) == 1
        assert "prelude failed to load" in c["problems"][0]

    assert main(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    for case in CASES:
        at = next(i for i, line in enumerate(out) if line.startswith(f"FAIL {case.name}:"))
        assert f"{case.name}: prelude failed to load" in out[at + 1]
