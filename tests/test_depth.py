"""Input nested deeper than the checker's recursion ends in a report, never
a traceback: the parser reports a ParseError, checking a DepthExceeded."""

from __future__ import annotations

import pytest

from telic.cli import main
from telic.errors import DepthExceeded, ERROR_CODES, ParseError
from telic.surface import parse_expr

DEEP_SUM = " + ".join(["1"] * 400)
DEEP_PARENS = "(" * 400 + "Nat" + ")" * 400
DEEP_ARROWS = " -> ".join(["Nat"] * 802)


def _codes(reports):
    return [(r.kind, r.status, r.code) for r in reports]


def test_depth_exceeded_is_a_stable_code():
    assert "DepthExceeded" in ERROR_CODES


def test_deep_sum_is_reported(loaded_processor):
    reports = loaded_processor.process_text(f"norm {DEEP_SUM} = 400\ncheck 1 : Nat\n", "<deep>")
    assert _codes(reports) == [("norm", "error", "DepthExceeded"), ("check", "ok", None)]
    assert (reports[0].span.line, reports[0].span.col) == (1, 1)


def test_deep_parentheses_are_a_parse_error(loaded_processor):
    text = f"check {DEEP_PARENS} : Type\ncheck 1 : Nat\n"
    reports = loaded_processor.process_text(text, "<deep>")
    assert _codes(reports) == [("parse", "error", "ParseError"), ("check", "ok", None)]
    assert (reports[0].span.line, reports[0].span.col) == (1, 1)


def test_deep_arrows_are_reported(loaded_processor):
    reports = loaded_processor.process_text(f"postulate f : {DEEP_ARROWS}\n", "<deep>")
    assert _codes(reports) == [("postulate", "error", "DepthExceeded")]
    assert "f" not in loaded_processor.kernel.sig.entries


def test_fail_depth_exceeded_matches_and_rolls_back(loaded_processor):
    text = (
        f"fail DepthExceeded def big : Nat = {DEEP_SUM}\n"
        f"fail DepthExceeded postulate f : {DEEP_ARROWS}\n"
        "postulate f : Nat\n"
        "fail DepthExceeded check 1 : Nat\n"
    )
    reports = loaded_processor.process_text(text, "<deep>")
    assert _codes(reports) == [
        ("fail", "ok", None),
        ("fail", "ok", None),
        ("postulate", "ok", None),
        ("fail", "error", "TypeMismatch"),
    ]


@pytest.mark.parametrize(
    "text, code",
    [
        (f"norm {DEEP_SUM} = 400\n", "DepthExceeded"),
        (f"check {DEEP_PARENS} : Type\n", "ParseError"),
        (f"postulate f : {DEEP_ARROWS}\n", "DepthExceeded"),
    ],
    ids=["sum", "parentheses", "arrows"],
)
def test_check_command_prints_a_report(tmp_path, capsys, text, code):
    f = tmp_path / "deep.tel"
    f.write_text(text)
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr().out
    assert f"[{code}]" in out and "Traceback" not in out


def test_deep_expressions_for_norm(loaded_processor):
    with pytest.raises(DepthExceeded):
        loaded_processor.normalize_expression(DEEP_SUM)
    with pytest.raises(ParseError):
        parse_expr(DEEP_PARENS)
    assert loaded_processor.normalize_expression("1 + 1") == ("2", "Nat")
