"""Declaration processing: reports, failure isolation, imports, holes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from telic import kernel, terms
from telic.elaborate import Processor, Report, render_reports
from telic.errors import CannotInfer, NotAFunction, Span, TelicError, UnsolvedMeta
from telic.surface import parse_file

BASE = """
primitive Nat : Type
primitive plus : Nat -> Nat -> Nat
postulate A : Type
postulate a0 : A
"""


def run(proc: Processor, text: str) -> list[Report]:
    return proc.process_text(BASE + text, "test.tel")


def statuses(reports: list[Report]) -> list[str]:
    return [r.status for r in reports]


# --- basics ---------------------------------------------------------------------


def test_ok_reports_for_each_declaration(bare_processor):
    reports = run(bare_processor, "def one : Nat = 1\ncheck plus one 1 : Nat")
    assert statuses(reports) == ["ok"] * 6
    assert [r.kind for r in reports] == [
        "primitive", "primitive", "postulate", "postulate", "def", "check",
    ]
    assert reports[4].name == "one"


def test_norm_report_carries_normal_form(bare_processor):
    reports = run(bare_processor, "norm plus 2 3 = 5")
    assert reports[-1].ok
    assert reports[-1].normal_form == "5"


def test_norm_mismatch_is_an_error(bare_processor):
    reports = run(bare_processor, "norm plus 2 3 = 4")
    last = reports[-1]
    assert last.status == "error" and last.code == "TypeMismatch"
    assert "normal form is `5`" in last.message


def test_norm_claim_side_is_taken_as_written(bare_processor):
    # The right-hand side is not normalized, so a reducible claim about a
    # normal left-hand side must be rejected rather than silently reduced.
    reports = run(bare_processor, "norm 5 = plus 2 3")
    assert reports[-1].status == "error"


def test_entailment_takes_its_argument_as_a_def_does(bare_processor):
    # An entailment is the def of its arrow, so a braced argument gets the
    # def's message.
    reports = run(bare_processor, "entail e : A => A = \\x. x\ndef d : A -> A = \\x. x\n"
                                  "check e {a0} : A\ncheck d {a0} : A")
    assert [r.kind for r in reports[-4:]] == ["entail", "def", "check", "check"]
    for report, name in zip(reports[-2:], "ed"):
        assert report.code == "TypeMismatch"
        assert report.message == f"`{name}` expects an explicit argument here, not a braced one"


@pytest.mark.parametrize(
    "query, message",
    [
        ("check fst {a0} : A", "`fst` takes its argument explicitly"),
        ("check i {a0} {a0} : A", "`i` has no implicit argument left to fill"),
        ("check \\g. g {g} : A -> A", "only declared constants take braced arguments"),
    ],
)
def test_a_braced_argument_nothing_takes_is_reported_where_it_stands(
    bare_processor, query, message
):
    reports = run(bare_processor, f"postulate i : {{x : A}} -> A\n{query}")
    assert (reports[-1].code, reports[-1].message) == ("TypeMismatch", message)
    assert reports[-1].span.col == query.rindex("{") + 2


@pytest.mark.parametrize(
    "lhs, code",
    [
        ("f x (\\y. x)", "NonlinearPattern"),
        ("F x ((y : A) -> P x)", "NonlinearPattern"),
        ("F x (A -> P x)", "NonlinearPattern"),
        ("F x (Σ (y : A). P x)", "NonlinearPattern"),
        # a binder of the same name shadows the pattern variable, and the
        # binder itself is no pattern
        ("f x (\\x. x)", "InvalidRewrite"),
        ("F x ((x : A) -> P x)", "InvalidRewrite"),
        ("F x (Σ (x : A). P x)", "InvalidRewrite"),
        # a hole's spine lists `x`, and typing solves the hole to `x`, but
        # only the variables written count: an inserted implicit argument
        # and a written hole are no uses, and a braced `x` is one
        ("k (p x)", None),
        ("k {_} (p x)", None),
        ("k {x} (p x)", "NonlinearPattern"),
        # elaboration comes first, so the unbound name is the fault reported
        ("F x (P x) missing", "UnboundVariable"),
    ],
)
def test_pattern_variables_are_counted_under_binders_that_do_not_shadow_them(
    bare_processor, lhs, code
):
    text = (
        "postulate P : A -> Type\npostulate f : A -> (A -> A) -> A\n"
        "postulate F : A -> Type -> A\npostulate p : (a : A) -> P a\n"
        f"postulate k : {{a : A}} -> P a -> A\nrewrite (x : A) : {lhs} = x"
    )
    reports = run(bare_processor, text)
    assert all(r.ok for r in reports[:-1])
    assert reports[-1].code == code


def test_literals_without_nat_primitive(tmp_path):
    proc = Processor()
    reports = proc.process_text("norm 3 = 3", "bare.tel")
    assert reports[-1].status == "error"
    assert reports[-1].code == "UnknownConstant"


def test_unbound_name_mentions_the_name(bare_processor):
    reports = run(bare_processor, "check missing : A")
    assert reports[-1].code == "UnboundVariable"
    assert "`missing`" in reports[-1].message


def test_holes_must_be_solved(bare_processor):
    reports = run(bare_processor, "def h : Nat = _")
    assert reports[-1].code == "UnsolvedMeta"


def test_hole_in_an_arrow_codomain_sees_the_domain(bare_processor):
    # `Nat -> P _` is `(x : Nat) -> P _` with an unnamed binder, so the hole
    # may be solved by the domain variable.
    text = "postulate P : Nat -> Type\npostulate p : (n : Nat) -> P n\ndef g : Nat -> P _ = p"
    reports = run(bare_processor, text)
    assert statuses(reports) == ["ok"] * 7


def test_arrow_chains_elaborate_without_rebuilding_the_codomain(bare_processor, monkeypatch):
    # Shifting each codomain would rebuild the rest of the chain once per arrow.
    run(bare_processor, "")
    calls = 0
    original = terms.map_term

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(terms, "map_term", counted)
    monkeypatch.setattr(kernel, "map_term", counted)
    chain = " -> ".join(["A"] * 202)
    reports = bare_processor.process_text(f"postulate f : {chain}", "chain.tel")
    assert statuses(reports) == ["ok"]
    assert calls <= 3


def test_a_nullary_name_elaborates_to_one_term(bare_processor):
    run(bare_processor, "postulate n1 : Nat\npostulate n2 : Nat")
    entries = bare_processor.kernel.sig.entries
    nat = entries["n1"].type
    assert entries["n2"].type is nat
    with bare_processor.rollback():
        assert statuses(bare_processor.process_text("postulate n9 : Nat", "gone.tel")) == ["ok"]
        assert entries["n9"].type is nat
    assert "n9" not in entries
    assert statuses(bare_processor.process_text("postulate n3 : Nat", "again.tel")) == ["ok"]
    assert entries["n3"].type is nat
    assert bare_processor.kernel.infer(terms.EMPTY_CONTEXT, terms.NatLit(1)) is nat


# --- error order ------------------------------------------------------------------

ORDER_BASE = r"""
postulate Nat : Type
postulate f : Nat -> Nat
def d : Nat -> Nat = \n. n
"""


@pytest.mark.parametrize(
    "decl, code",
    [
        # A type error comes before the duplicate name.
        ("def Nat : Type = 5", "TypeMismatch"),
        ("postulate Nat : 5", "UniverseMismatch"),
        # An unsolved hole comes before the duplicate name.
        ("def Nat : Type = _", "UnsolvedMeta"),
        # A bad type comes before the unknown name in the body.
        ("def x : 5 = undefined", "UniverseMismatch"),
        ("entail e : 5 => Nat = undefined", "UniverseMismatch"),
        # A rewrite's typing comes before the checks on its head.
        ("rewrite (n : Nat) : d n = Type", "RewriteTypeMismatch"),
        ("rewrite (n : 5) : f n = undefined", "UniverseMismatch"),
        # Linearity is counted on the elaborated left-hand side: after the
        # telescope's faults, before the typing of either side.
        ("rewrite (x : Missing) : f x x = x", "UnboundVariable"),
        ("rewrite (n : Nat) : f n n = undefined", "NonlinearPattern"),
    ],
)
def test_first_fault_decides_the_error_code(bare_processor, decl, code):
    reports = bare_processor.process_text(ORDER_BASE + decl, "order.tel")
    assert statuses(reports) == ["ok"] * 3 + ["error"]
    assert reports[-1].code == code


# --- failure isolation -------------------------------------------------------------


def test_binding_failure_halts_rest_of_file(bare_processor):
    reports = run(bare_processor, "def bad : Nat = A\npostulate never : Type")
    assert reports[-1].status == "error" and reports[-1].kind == "def"
    assert all(r.name != "never" for r in reports)


def test_parse_error_is_reported_where_it_stands(loaded_processor):
    text = "postulate a : Nat\ncheck : Nat\npostulate b : Nat\n"
    reports = loaded_processor.process_text(text, "order.tel")
    assert [(r.kind, r.span.line) for r in reports] == [
        ("postulate", 1), ("parse", 2), ("postulate", 3),
    ]
    assert statuses(reports) == ["ok", "error", "ok"]


def test_parse_error_after_a_failed_binding_is_reported(loaded_processor):
    text = "postulate a : missing\npostulate b : Nat\ncheck : Nat\n"
    reports = loaded_processor.process_text(text, "halt.tel")
    assert [(r.kind, r.code, r.span.line) for r in reports] == [
        ("postulate", "UnboundVariable", 1), ("parse", "ParseError", 3),
    ]


def test_query_failure_continues(bare_processor):
    reports = run(bare_processor, "check a0 : Nat\npostulate later : Type")
    kinds = [(r.kind, r.status) for r in reports]
    assert ("check", "error") in kinds
    assert ("postulate", "ok") in kinds
    assert reports[-1].name == "later"


def test_a_failed_check_goes_on_and_a_failed_postulate_stops(bare_processor):
    # both are `DDef`s; only the one that binds a name stops the file
    text = "check a0 : Nat\npostulate p : a0\npostulate later : Type\n"
    assert [Processor.binds(d) for d in parse_file(text, "x.tel")] == [False, True, True]
    reports = run(bare_processor, text)[4:]
    assert [(r.kind, r.name, r.code) for r in reports] == [
        ("check", None, "TypeMismatch"), ("postulate", "p", "UniverseMismatch"),
    ]


def test_only_declarations_that_bind_a_name_stop_the_file():
    text = """postulate A : Type
primitive N : Type
def d : Type = A
entail e : A => A = \\x. x
import "other.tel"
check A : Type
norm A = A
rewrite (x : A) : x = x
fail TypeMismatch postulate q : A
"""
    binds = [Processor.binds(d) for d in parse_file(text, "x.tel")]
    assert binds == [True] * 5 + [False] * 4


def test_expected_failure_is_ok(bare_processor):
    reports = run(bare_processor, "fail TypeMismatch check a0 : Nat")
    last = reports[-1]
    assert last.ok and last.kind == "fail"
    assert "rejected with TypeMismatch as expected" in last.message


def test_expected_failure_with_wrong_code(bare_processor):
    reports = run(bare_processor, "fail UnboundVariable check a0 : Nat")
    last = reports[-1]
    assert last.status == "error"
    assert "rejected with TypeMismatch" in last.message


def test_expected_failure_that_succeeds(bare_processor):
    reports = run(bare_processor, "fail TypeMismatch check a0 : A")
    last = reports[-1]
    assert last.status == "error"
    assert "was accepted" in last.message


def test_fail_restores_the_signature(bare_processor):
    text = """
fail TypeMismatch def ghost : A = 1
postulate ghost : A -> A
"""
    reports = run(bare_processor, text)
    assert all(r.ok for r in reports)
    assert "ghost" in bare_processor.kernel.sig.entries


def test_fail_wrapping_a_succeeding_binding_rolls_it_back(bare_processor):
    text = """
fail UnboundVariable postulate ghost : A
postulate ghost : A
"""
    reports = run(bare_processor, text)
    fail_report = reports[-2]
    assert fail_report.status == "error" and "was accepted" in fail_report.message
    # The inner postulate must not have leaked into the signature.
    assert reports[-1].ok



@pytest.mark.parametrize(
    "text, status",
    [
        ("fail UnboundVariable postulate x : y", "ok"),
        ("fail TypeMismatch postulate x : y", "error"),  # rejected with another code
        ("fail TypeMismatch postulate x : Type", "error"),  # accepted
    ],
    ids=["holds", "other-code", "accepted"],
)
def test_fail_names_its_inner_declaration_on_both_outcomes(bare_processor, text, status):
    (report,) = bare_processor.process_text(text, "f.tel")
    assert (report.status, report.kind, report.name) == (status, "fail", "x")
    assert f": {status}: fail x" in report.render()

# --- imports -------------------------------------------------------------------------


def test_import_processes_the_target(tmp_path):
    (tmp_path / "lib.tel").write_text("primitive Nat : Type\npostulate n0 : Nat\n")
    (tmp_path / "main.tel").write_text('import "lib.tel"\ncheck n0 : Nat\n')
    proc = Processor()
    reports = proc.process_path(tmp_path / "main.tel")
    assert [r.kind for r in reports] == ["primitive", "postulate", "import", "check"]
    assert all(r.ok for r in reports)


def test_import_is_idempotent(tmp_path):
    (tmp_path / "lib.tel").write_text("primitive Nat : Type\n")
    (tmp_path / "main.tel").write_text('import "lib.tel"\nimport "lib.tel"\n')
    proc = Processor()
    reports = proc.process_path(tmp_path / "main.tel")
    assert all(r.ok for r in reports)
    assert [r.kind for r in reports].count("primitive") == 1


def test_a_file_imported_twice_is_read_once(tmp_path, monkeypatch):
    # a.tel imports b.tel and c.tel, and both of them import d.tel
    (tmp_path / "d.tel").write_text("primitive Nat : Type\n")
    (tmp_path / "b.tel").write_text('import "d.tel"\npostulate b0 : Nat\n')
    (tmp_path / "c.tel").write_text('import "d.tel"\npostulate c0 : Nat\n')
    (tmp_path / "a.tel").write_text('import "b.tel"\nimport "c.tel"\ncheck b0 : Nat\n')
    read: list[str] = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        read.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    reports = Processor().process_path(tmp_path / "a.tel")
    assert sorted(read) == ["a.tel", "b.tel", "c.tel", "d.tel"]
    assert [
        (Path(r.span.file).name, r.span.line, r.span.col, r.kind, r.name, r.status)
        for r in reports
    ] == [
        ("d.tel", 1, 1, "primitive", "Nat", "ok"),
        ("b.tel", 1, 1, "import", "d.tel", "ok"),
        ("b.tel", 2, 1, "postulate", "b0", "ok"),
        ("a.tel", 1, 1, "import", "b.tel", "ok"),
        ("c.tel", 1, 1, "import", "d.tel", "ok"),
        ("c.tel", 2, 1, "postulate", "c0", "ok"),
        ("a.tel", 2, 1, "import", "c.tel", "ok"),
        ("a.tel", 3, 1, "check", None, "ok"),
    ]


def test_import_missing_file(tmp_path):
    (tmp_path / "main.tel").write_text('import "gone.tel"\n')
    proc = Processor()
    reports = proc.process_path(tmp_path / "main.tel")
    # One report, the import's own, says why the import failed.
    assert [(r.kind, r.name, r.code) for r in reports] == [("import", "gone.tel", "ParseError")]
    assert reports[0].message.startswith(f"cannot read {tmp_path / 'gone.tel'}: ")


def test_process_text_accepts_a_str_base(tmp_path):
    (tmp_path / "lib.tel").write_text("primitive Nat : Type\n")
    proc = Processor()
    reports = proc.process_text('import "lib.tel"\nimport "gone.tel"\n', "f", str(tmp_path))
    assert [r.kind for r in reports] == ["primitive", "import", "import"]
    assert [r.status for r in reports] == ["ok", "ok", "error"]
    assert reports[-1].code == "ParseError"


def test_import_of_broken_file_halts_importer(tmp_path):
    (tmp_path / "lib.tel").write_text("postulate x : missing\n")
    (tmp_path / "main.tel").write_text('import "lib.tel"\npostulate tail : Type\n')
    proc = Processor()
    reports = proc.process_path(tmp_path / "main.tel")
    assert [(r.kind, r.code) for r in reports] == [
        ("postulate", "UnboundVariable"),
        ("import", "ParseError"),
    ]
    assert reports[-1].message == "import of lib.tel failed"


# --- standalone expressions -----------------------------------------------------------


def test_normalize_expression(bare_processor):
    run(bare_processor, "")
    normal, ty = bare_processor.normalize_expression("plus 2 3")
    assert (normal, ty) == ("5", "Nat")


def test_normalize_expression_of_a_universe(bare_processor):
    assert bare_processor.normalize_expression("Type") == ("Type", "Type1")


def test_normalize_expression_rejects_open_holes(bare_processor):
    run(bare_processor, "")
    # A constrained but unsolved hole surfaces as UnsolvedMeta; a bare
    # hole has nothing to infer from at all.
    with pytest.raises(UnsolvedMeta):
        bare_processor.normalize_expression("plus _ 1")
    with pytest.raises(CannotInfer):
        bare_processor.normalize_expression("_")


def test_normalize_expression_reports_a_spanless_error_at_the_expression(bare_processor):
    # the kernel raises NotAFunction without a span of its own
    with pytest.raises(NotAFunction) as info:
        bare_processor.normalize_expression("Type Type")
    assert info.value.span == Span("<expr>", 1, 1)


def test_checked_gives_a_spanless_rejection_its_span(bare_processor):
    kernel, given, own = bare_processor.kernel, Span("a.tel", 3, 7), Span("a.tel", 3, 9)

    def close_over(span):
        kernel.hole(0, span)
        return kernel.close()

    with pytest.raises(UnsolvedMeta, match=r"^1 unsolved hole\(s\) remain; first is \?0$") as info:
        bare_processor.checked(given, "declaration", close_over, None)
    assert info.value.span == given
    # a rejection with a span of its own keeps it
    with pytest.raises(UnsolvedMeta) as info:
        bare_processor.checked(given, "declaration", close_over, own)
    assert info.value.span == own
    # and without a span to give, there is none
    with pytest.raises(UnsolvedMeta) as info:
        bare_processor.checked(None, "audit", close_over, None)
    assert info.value.span is None


def test_normalize_expression_parse_errors_propagate(bare_processor):
    with pytest.raises(TelicError):
        bare_processor.normalize_expression("plus 1 )")


# --- report rendering ------------------------------------------------------------------


def test_report_render_and_json(bare_processor):
    reports = run(bare_processor, "norm plus 1 1 = 2\ncheck a0 : Nat")
    ok_norm = reports[-2]
    rendered = ok_norm.render()
    assert rendered.startswith("test.tel:")
    assert rendered.endswith("= 2")
    err = reports[-1]
    assert "[TypeMismatch]" in err.render()

    data = json.loads(ok_norm.to_json())
    assert data["normal_form"] == "2"
    assert set(data) >= {"file", "line", "col", "kind", "status"}
    assert "code" not in data


def test_render_reports_formats(bare_processor):
    reports = run(bare_processor, "check a0 : A")
    plain = render_reports(reports, "plain")
    assert plain.count("\n") == len(reports) - 1
    structured = render_reports(reports, "structured")
    for line in structured.splitlines():
        json.loads(line)
