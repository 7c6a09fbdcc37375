"""Input nested deeper than the checker's recursion ends in a report, never
a traceback: the parser reports a ParseError, checking a DepthExceeded.
Checking means every entry point that ``Processor.checked`` guards: a
declaration, the inner declaration of a `fail`, ``normalize_expression``
and each audit of ``prelude_self_check``."""

from __future__ import annotations

import pytest

from telic.cli import main
from telic.errors import DepthExceeded, ERROR_CODES, ParseError
from telic.prelude import prelude_self_check
from telic.surface import parse_expr
from telic.terms import Const, NatLit, Pi, Var

# The elaborator takes two frames per `+`, so a 400-literal sum checks
# under the default recursion limit of 1,000 and an 800-literal one does not.
SUM_400 = " + ".join(["1"] * 400)
DEEP_SUM = " + ".join(["1"] * 800)
DEEP_PARENS = "(" * 400 + "Nat" + ")" * 400
DEEP_ARROWS = " -> ".join(["Nat"] * 802)


def _codes(reports):
    return [(r.kind, r.status, r.code) for r in reports]


def test_depth_exceeded_is_a_stable_code():
    assert "DepthExceeded" in ERROR_CODES


def test_a_400_literal_sum_checks(loaded_processor):
    reports = loaded_processor.process_text(f"norm {SUM_400} = 400\n", "<deep>")
    assert _codes(reports) == [("norm", "ok", None)]
    assert loaded_processor.normalize_expression(SUM_400) == ("400", "Nat")


def test_deep_sum_is_reported(loaded_processor):
    reports = loaded_processor.process_text(f"norm {DEEP_SUM} = 800\ncheck 1 : Nat\n", "<deep>")
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
        (f"norm {DEEP_SUM} = 800\n", "DepthExceeded"),
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


def _deep_plus(n):
    """``plus`` nested ``n`` deep, built as a kernel term."""
    t = NatLit(1)
    for _ in range(n):
        t = Const("plus", (t, NatLit(1)))
    return t


def _declaration(proc):
    return proc.process_text(f"norm {DEEP_SUM} = 800\n", "x.tel")[0].render()


def _fail_inner(proc):
    return proc.process_text(f"fail DepthExceeded def big : Nat = {DEEP_SUM}\n", "x.tel")[0].render()


def _normalize_expression(proc):
    try:
        proc.normalize_expression(DEEP_SUM)
    except DepthExceeded as e:
        return f"{e.span}: [{e.code}] {e.message}"


def _audit_entry(proc):
    # stored without a check, so the audit is the first to walk it
    proc.kernel.declare_definition("big", Const("Nat"), _deep_plus(500))
    (line,) = [r.render() for r in prelude_self_check(proc) if not r.ok]
    return line


def _audit_rule(proc):
    nat = Const("Nat")
    proc.kernel.declare_axiom("deep", Pi(nat, nat))
    proc.kernel.declare_rewrite((("n", nat),), Const("deep", (Var(0),)), _deep_plus(500))
    (line,) = [r.render() for r in prelude_self_check(proc) if not r.ok]
    return line


@pytest.mark.parametrize(
    "run, outcome",
    [
        (_declaration, "x.tel:1:1: error: norm [DepthExceeded]: declaration nests too deeply to check"),
        (_fail_inner, "x.tel:1:1: ok: fail big: def big rejected with DepthExceeded as expected"),
        (_normalize_expression, "<expr>:1:1: [DepthExceeded] expression nests too deeply to check"),
        (_audit_entry, "FAIL entry big: [DepthExceeded] entry big nests too deeply to check"),
        (_audit_rule, "FAIL rule deep #0: [DepthExceeded] rule deep #0 nests too deeply to check"),
    ],
    ids=["declaration", "fail-inner", "normalize-expression", "audit-entry", "audit-rule"],
)
def test_every_checking_entry_point_ends_in_depth_exceeded(loaded_processor, run, outcome):
    assert run(loaded_processor) == outcome


def test_a_fail_reports_where_its_inner_declaration_went_wrong(loaded_processor):
    # an inner error without a span of its own is reported at the `fail`,
    # one too deep at the inner declaration, an acceptance at the `fail`
    text = (
        "fail NotAFunction check 1 : Type\n"
        f"fail TypeMismatch def big : Nat = {DEEP_SUM}\n"
        "fail UnboundVariable check 1 : Nat\n"
    )
    reports = loaded_processor.process_text(text, "x.tel")
    assert [(str(r.span), r.code) for r in reports] == [
        ("x.tel:1:1", "TypeMismatch"),
        ("x.tel:2:19", "TypeMismatch"),
        ("x.tel:3:1", "TypeMismatch"),
    ]
    assert reports[1].message == (
        "expected TypeMismatch but def big was rejected with DepthExceeded: "
        "declaration nests too deeply to check"
    )
