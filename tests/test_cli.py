"""Command line behavior: exit codes, output shape, determinism."""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

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
    # the rule's firing rebuilds its own target: it ends at once, even
    # under a budget of 10**8 steps
    loop = "postulate loop : Nat -> Nat\nrewrite (n : Nat) : loop n = loop n\nnorm loop 0 = loop 0\n"
    for options, text, code in [
        ([], "check missing : NP U\n", "[UnboundVariable]"),
        (["--fuel", "100000000"], loop, "[FuelExhausted]"),
    ]:
        f = tmp_path / "bad.tel"
        f.write_text(text)
        assert main(["check", *options, str(f)]) == 1
        out = capsys.readouterr().out
        assert code in out


def test_check_reports_a_parse_error_where_it_stands(tmp_path, capsys):
    # the second file's `check` stops short at the next keyword, which
    # still starts its own declaration
    for text, reports in [
        ("postulate a : Nat\ncheck : Nat\npostulate b : Nat\n", [("postulate", 1), ("parse", 2), ("postulate", 3)]),
        (
            "postulate A : Type\npostulate a : A\ncheck a :\ndef b : A = a\ncheck b : A\n",
            [("postulate", 1), ("postulate", 2), ("parse", 4), ("def", 4), ("check", 5)],
        ),
    ]:
        f = tmp_path / "order.tel"
        f.write_text(text)
        assert main(["check", "--format", "structured", str(f)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [(d["kind"], d["line"]) for d in map(json.loads, lines)] == reports


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
    # A prelude entry no case uses, and goldens that are missing, one
    # report short, and different in one report.
    extended = tmp_path / "prelude.tel"
    extended.write_text(prelude_path().read_text(encoding="utf-8") + "postulate unmentioned : Type\n")
    monkeypatch.setenv("TELIC_PRELUDE", str(extended))
    goldens = {c.name: json.loads(corpus.golden_path(c).read_text()) for c in CASES}
    missing, short, different = (c.name for c in CASES[:3])
    del goldens[missing]
    dropped = goldens[short].pop()
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
        f"     {short}[{n_short}]: + {json.dumps(dropped, sort_keys=True)}",
        f"FAIL {different}:",
        f"     {different}[0]: - {json.dumps(want, sort_keys=True)}",
        f"     {different}[0]: + {json.dumps(got, sort_keys=True)}",
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


BROKEN_PRELUDE = b"primitive Nat : Type\npostulate bad : Missing\n"
NOT_UTF8_PRELUDE = b"primitive Nat : Type\n\xff\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check", "one.tel"], BROKEN_PRELUDE),
        (["check", "--format", "structured", "one.tel"], BROKEN_PRELUDE),
        (["norm", "-e", "1"], BROKEN_PRELUDE),
        (["selftest"], BROKEN_PRELUDE),
        (["selftest", "--format", "structured"], BROKEN_PRELUDE),
        (["selftest", "--regen-golden"], BROKEN_PRELUDE),
        (["selftest"], NOT_UTF8_PRELUDE),
    ],
    ids=[
        "check", "check-structured", "norm",
        "selftest", "selftest-structured", "selftest-regen-golden", "selftest-not-utf8",
    ],
)
def test_a_broken_prelude_is_reported_on_stderr_and_stops_the_command(
    argv, text, tmp_path, monkeypatch, capsys
):
    broken = tmp_path / "prelude.tel"
    broken.write_bytes(text)
    monkeypatch.setenv("TELIC_PRELUDE", str(broken))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(corpus, "golden_path", lambda case: tmp_path / f"{case.name}.json")
    (tmp_path / "one.tel").write_text("check 1 : Nat\n")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert not list(tmp_path.glob("*.json"))
    if "structured" in argv:
        assert json.loads(err)["code"] == "UnboundVariable"
    elif text == BROKEN_PRELUDE:
        assert err == f"{broken}:2:17: error: postulate bad [UnboundVariable]: `Missing` is not in scope\n"
    else:
        assert err == (
            f"{broken}:1:1: error: import {broken} [ParseError]: cannot read {broken}: "
            f"'utf-8' codec can't decode byte 0xff in position 21: invalid start byte\n"
        )


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
    assert out == [
        f"{f}:1:1: error: import latin.tel [ParseError]: cannot read {tmp_path / 'latin.tel'}: "
        f"'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"
    ]


def test_a_leading_byte_order_mark_is_not_part_of_the_file(tmp_path, capsys):
    # one U+FEFF later in the file is still an illegal character
    f = tmp_path / "bom.tel"
    text = "postulate a : Type\ncheck  b : a\npostulate c : a \ufeff\n"
    outs = []
    for prefix in ("", "\ufeff"):
        f.write_text(prefix + text, encoding="utf-8")
        assert main(["check", "--no-prelude", str(f)]) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines() == [
        f"{f}:1:1: ok: postulate a",
        f"{f}:2:8: error: check [UnboundVariable]: `b` is not in scope",
        f"{f}:3:17: error: parse [IllegalCharacter]: illegal character '\\ufeff'",
    ]


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


def test_many_lexical_errors_parse_in_linear_time(tmp_path):
    # Each of 64,000 declarations holds an illegal character. Were the
    # error path quadratic, the run would not end inside the timeout.
    f = tmp_path / "lexical.tel"
    f.write_text("postulate a : Type $\n" * 64000)
    proc = subprocess.run(
        [sys.executable, "-m", "telic.cli", "check", "--no-prelude", str(f)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 1
    assert sum("[IllegalCharacter]" in line for line in proc.stdout.splitlines()) == 64000


def test_a_million_digit_numeral_reads_and_prints_in_subquadratic_time(tmp_path):
    # CPython's own decimal conversion of an int, either way, is quadratic
    # in the digits before 3.12: were telic to use it, the run would not
    # end inside the timeout.
    n = "7" * 1_000_000
    f = tmp_path / "numeral.tel"
    f.write_text(f"norm {n} = {n}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "telic.cli", "check", str(f)],
        capture_output=True,
        timeout=30,
    )
    assert proc.returncode == 0
    assert proc.stdout == f"{f}:1:1: ok: norm = {n}\n".encode()


def test_output_does_not_depend_on_the_hash_seed(small_lexicon):
    # Sets and dicts keyed by strings iterate in an order that the hash seed
    # decides; no report may depend on it.
    for argv in (["selftest"], ["check", str(small_lexicon)]):
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "telic.cli", *argv, "--format", "structured"],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


def _other_interpreters() -> dict[str, Path]:
    """The pyenv CPython 3.10 to 3.13 interpreters, by version, other than
    the one running the tests."""
    roots = {Path(os.environ.get("PYENV_ROOT", "~/.pyenv")).expanduser(), Path.home() / ".pyenv"}
    return {
        d.name: d / "bin" / "python3"
        for root in sorted(roots)
        for d in sorted((root / "versions").glob("3.1*"))
        if re.fullmatch(r"3\.1[0-3]\.\d+", d.name)
        and d.name != platform.python_version()
        and (d / "bin" / "python3").is_file()
    }


OTHER_INTERPRETERS = _other_interpreters()


@pytest.mark.skipif(not OTHER_INTERPRETERS, reason="no other CPython 3.10 to 3.13 under pyenv")
def test_every_installed_python_gives_the_same_output(small_lexicon):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def outputs(python) -> list[bytes]:
        out = []
        for argv in (["selftest"], ["check", str(small_lexicon)]):
            proc = subprocess.run(
                [python, "-m", "telic.cli", *argv, "--format", "structured"],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, (python, proc.stderr)
            out.append(proc.stdout)
        return out

    expected = outputs(sys.executable)
    for version, python in OTHER_INTERPRETERS.items():
        assert outputs(python) == expected, version


def test_a_hole_cannot_let_type1_pass_as_type(tmp_path, capsys):
    f = tmp_path / "holes.tel"
    f.write_text(
        "primitive Nat : Type\n"
        "postulate id : (A : Type) -> A -> A\n"
        "check id _ : Type -> Type\n"
        "check ((T : _) -> T -> T) : Type\n"
        "def Poly : Type = (T : _) -> T -> T\n"
    )
    assert main(["check", "--no-prelude", str(f)]) == 1
    lines = capsys.readouterr().out.splitlines()
    codes = [code for line in lines for code in re.findall(r"\[[A-Za-z]*\]", line)]
    assert codes == ["[TypeMismatch]", "[UniverseMismatch]", "[UniverseMismatch]"]
    assert sum("found a term of type `?0 : Type`" in line for line in lines) == 2
