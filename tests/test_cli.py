"""Command line behavior: exit codes, output shape, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from telic import corpus
from telic.cli import main
from telic.corpus import CASES, corpus_dir
from telic.prelude import prelude_path


def test_check_clean_file_exits_zero(tmp_path, capsys):
    f = tmp_path / "ok.tel"
    f.write_text("postulate cat : NP U\ncheck cat : NP U\n")
    assert main(["check", str(f)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert all(": ok:" in line for line in out)


def test_check_reports_failures_with_exit_one(tmp_path, capsys):
    f = tmp_path / "bad.tel"
    f.write_text("check missing : NP U\n")
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr().out
    assert "[UnboundVariable]" in out


def test_check_reports_a_parse_error_where_it_stands(tmp_path, capsys):
    f = tmp_path / "order.tel"
    f.write_text("postulate a : Nat\ncheck : Nat\npostulate b : Nat\n")
    assert main(["check", "--format", "structured", str(f)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [(d["kind"], d["line"]) for d in map(json.loads, lines)] == [
        ("postulate", 1), ("parse", 2), ("postulate", 3),
    ]


def test_check_structured_output_is_json_lines(tmp_path, capsys):
    f = tmp_path / "ok.tel"
    f.write_text("postulate cat : NP U\n")
    assert main(["check", "--format", "structured", str(f)]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        data = json.loads(line)
        assert data["status"] == "ok"


def test_check_no_prelude_starts_empty(tmp_path, capsys):
    f = tmp_path / "np.tel"
    f.write_text("check NP : Bd -> Type\n")
    assert main(["check", "--no-prelude", str(f)]) == 1
    assert "[UnboundVariable]" in capsys.readouterr().out


def test_check_multiple_files_share_one_signature(tmp_path, capsys):
    a = tmp_path / "a.tel"
    a.write_text("postulate cat : NP U\n")
    b = tmp_path / "b.tel"
    b.write_text("check cat : NP U\n")
    assert main(["check", str(a), str(b)]) == 0


# A sum of two 4,300-digit numerals is 2 * (10**4300 - 1): it has 4,301
# digits, one more than CPython converts to text at once.
LONG_NUMERALS = [
    (f"check {'9' * 5000} : Nat\n", "ok: check"),
    (
        f"norm {'9' * 4300} + {'9' * 4300} = 0\n",
        f"error: norm [TypeMismatch]: normal form is `1{'9' * 4299}8` but the "
        "declaration claims `0`",
    ),
]


@pytest.mark.parametrize("text, report", LONG_NUMERALS, ids=["check", "norm"])
def test_long_numerals_give_reports(text, report, loaded_processor, tmp_path, capsys):
    (got,) = loaded_processor.process_text(text, "<long>")
    assert got.render() == f"<long>:1:1: {report}"
    f = tmp_path / "long.tel"
    f.write_text(text)
    assert main(["check", str(f)]) == (0 if report.startswith("ok") else 1)
    assert capsys.readouterr().out == f"{f}:1:1: {report}\n"


def test_norm_prints_long_numerals(capsys):
    assert main(["norm", "-e", f"{'9' * 4300} + 1"]) == 0
    assert capsys.readouterr().out == f"1{'0' * 4300} : Nat\n"


def test_norm_evaluates_expression(capsys):
    assert main(["norm", "-e", "plus 2 3"]) == 0
    assert capsys.readouterr().out == "5 : Nat\n"


def test_norm_loads_files_first(tmp_path, capsys):
    f = tmp_path / "lex.tel"
    f.write_text("postulate cat : NP U\npostulate tom : El_NP cat\n")
    assert main(["norm", str(f), "-e", "Lift_NP cat"]) == 0
    out = capsys.readouterr().out
    assert out == "(U , cat) : NPfull\n"


def test_norm_reports_errors_on_stderr(capsys):
    assert main(["norm", "-e", "missing"]) == 1
    err = capsys.readouterr().err
    assert "[UnboundVariable]" in err


@pytest.mark.parametrize(
    "argv, start",
    [
        (["norm", "-e", "plus Type 1"], "<expr>:1:1: error [TypeMismatch]"),
        (["norm", "--fuel", "5", "-e", "plus 2 3"], "<expr>:1:1: error [FuelExhausted]"),
    ],
    ids=["type-mismatch", "fuel"],
)
def test_norm_errors_carry_the_expressions_position(argv, start, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(start)


def test_norm_with_failing_file_stops(tmp_path, capsys):
    f = tmp_path / "bad.tel"
    f.write_text("check missing : NP U\n")
    assert main(["norm", str(f), "-e", "plus 1 1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[UnboundVariable]" in captured.err


def test_norm_fuel_limit(capsys):
    assert main(["norm", "--fuel", "5", "-e", "plus 2 3"]) == 1
    err = capsys.readouterr().err
    assert "[FuelExhausted]" in err
    assert "prelude.tel" not in err  # the expression ran out, not the prelude


def test_fuel_bounds_the_users_files_not_the_prelude(tmp_path, capsys):
    f = tmp_path / "one.tel"
    f.write_text("postulate cat : NP U\n")
    assert main(["check", "--fuel", "50", str(f)]) == 0
    assert capsys.readouterr().out == f"{f}:1:1: ok: postulate cat\n"


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "prelude: 86/86 audits ok" in out
    for case in CASES:
        assert f"ok   {case.name}:" in out
    assert "coverage" in out


def test_selftest_structured_is_json_lines(capsys):
    assert main(["selftest", "--format", "structured"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(CASES) + 2  # prelude header + cases + coverage
    for line in lines:
        json.loads(line)


def test_selftest_reports_each_kind_of_drift(tmp_path, monkeypatch, capsys):
    # A prelude entry no case mentions, and goldens that are missing, one
    # report short, and different in one report.
    extended = tmp_path / "prelude.tel"
    extended.write_text(prelude_path().read_text(encoding="utf-8") + "postulate unmentioned : Type\n")
    monkeypatch.setenv("TELIC_PRELUDE", str(extended))
    goldens = {c.name: json.loads(corpus.golden_path(c).read_text()) for c in CASES}
    missing, short, different = (c.name for c in CASES[:3])
    del goldens[missing]
    goldens[short].pop()
    goldens[different][0]["line"] += 1
    for name, data in goldens.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    monkeypatch.setattr(corpus, "golden_path", lambda case: tmp_path / f"{case.name}.json")

    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "prelude: 87/87 audits ok" in out
    n_short = len(goldens[short])
    want = goldens[different][0]
    got = dict(want, line=want["line"] - 1)
    for line in (
        f"FAIL {missing}:",
        f"     {missing}: golden file missing: {missing}.json",
        f"FAIL {short}:",
        f"     {short}: {n_short + 1} reports, golden has {n_short}",
        f"FAIL {different}:",
        f"     {different}[0]: got {json.dumps(got, sort_keys=True)}",
        f"     {different}[0]: want {json.dumps(want, sort_keys=True)}",
        "FAIL coverage: prelude entries never exercised: unmentioned",
    ):
        assert line in out
    for case in CASES[3:]:
        assert f"ok   {case.name}:" in out


def test_selftest_regen_golden_round_trips(tmp_path, monkeypatch, capsys):
    # Regenerate into a scratch directory: the tracked goldens are only read,
    # so a run on drifted behaviour cannot leave drifted goldens behind.
    monkeypatch.setattr(corpus, "golden_path", lambda case: tmp_path / f"{case.name}.json")
    before = {c.name: (corpus_dir() / "golden" / f"{c.name}.json").read_bytes() for c in CASES}
    assert main(["selftest", "--regen-golden"]) == 0
    after = {c.name: (tmp_path / f"{c.name}.json").read_bytes() for c in CASES}
    assert before == after


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["norm"])  # missing -e
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "fuel, message",
    [
        ("0", "must be at least 1, not 0"),
        ("-5", "must be at least 1, not -5"),
        ("x", "invalid int value: 'x'"),
    ],
    ids=["0", "-5", "x"],
)
@pytest.mark.parametrize("command", [["check", "x.tel"], ["norm", "-e", "1"]], ids=["check", "norm"])
def test_fuel_below_one_is_a_usage_error(command, fuel, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--fuel", fuel, *command[1:]])
    assert exc.value.code == 2
    assert f"--fuel: {message}" in capsys.readouterr().err


BROKEN_PRELUDE = "primitive Nat : Type\npostulate bad : Missing\n"


@pytest.mark.parametrize(
    "argv",
    [["check", "one.tel"], ["check", "--format", "structured", "one.tel"], ["norm", "-e", "1"]],
    ids=["check", "check-structured", "norm"],
)
def test_a_broken_prelude_is_reported_on_stderr_and_stops_the_command(
    argv, tmp_path, monkeypatch, capsys
):
    broken = tmp_path / "prelude.tel"
    broken.write_text(BROKEN_PRELUDE)
    monkeypatch.setenv("TELIC_PRELUDE", str(broken))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.tel").write_text("check 1 : Nat\n")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    if "structured" in argv:
        assert json.loads(err)["code"] == "UnboundVariable"
    else:
        assert err == f"{broken}:2:17: error: postulate bad [UnboundVariable]: `Missing` is not in scope\n"


NOT_UTF8 = b"postulate a : Nat\n\xff\n"


def test_check_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "latin.tel"
    f.write_bytes(NOT_UTF8)
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"{f}:1:1: error: import {f} [ParseError]: cannot read {f}: "
        f"'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"
    ]


def test_check_reports_an_import_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "latin.tel").write_bytes(NOT_UTF8)
    f = tmp_path / "main.tel"
    f.write_text('import "latin.tel"\n')
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith(f"{f}:1:1: error: import {tmp_path / 'latin.tel'} [ParseError]: cannot read ")
    assert out[0].endswith(": invalid start byte")
    assert out[1] == f"{f}:1:1: error: import latin.tel [ParseError]: import of latin.tel failed"


def test_closed_stdout_ends_quietly():
    # The reader of the pipe is gone before the first line is written, as
    # in `telic selftest | head -0`.
    with subprocess.Popen(
        [sys.executable, "-m", "telic.cli", "selftest"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "telic.cli", "norm", "-e", "2 + 2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4 : Nat\n"
