"""Lexing and parsing: token shapes, sugar, spans, and error recovery."""

from __future__ import annotations

import pytest

from telic.errors import IllegalCharacter, ParseError
from telic.surface import (
    DAxiom,
    DCheck,
    DDef,
    DEntail,
    DFail,
    DImport,
    DNorm,
    DRewrite,
    SApp,
    SHole,
    SLambda,
    SName,
    SNat,
    SPair,
    SPi,
    SProj,
    SSigma,
    SUniverse,
    parse_expr,
    parse_file,
    tokenize,
)


def kinds(text: str) -> list[str]:
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


# --- tokens -------------------------------------------------------------------


def test_token_kinds():
    assert kinds("def f : Nat -> Nat = \\x. x + 1") == [
        "DEF", "IDENT", "COLON", "IDENT", "ARROW", "IDENT", "EQUALS",
        "LAMBDA", "IDENT", "DOT", "IDENT", "PLUS", "NAT",
    ]
    assert kinds("a (+) b ⊕ c") == ["IDENT", "OPLUS", "IDENT", "OPLUS", "IDENT"]
    assert kinds("Sigma Σ λ \\") == ["SIGMA", "SIGMA", "LAMBDA", "LAMBDA"]
    assert kinds("Type Type1 fst snd _") == ["TYPE", "TYPE1", "FST", "SND", "HOLE"]
    assert kinds("x' x_y p2") == ["IDENT", "IDENT", "IDENT"]
    assert kinds("{A} => (x)") == ["LBRACE", "IDENT", "RBRACE", "DARROW", "LPAREN", "IDENT", "RPAREN"]


def test_comments_are_skipped():
    assert kinds("a -- the rest is ignored -> = (+)\nb") == ["IDENT", "IDENT"]


def test_token_spans_track_lines_and_columns():
    toks = tokenize("ab cd\n  ef")
    assert (toks[0].span.line, toks[0].span.col) == (1, 1)
    assert (toks[1].span.line, toks[1].span.col) == (1, 4)
    assert (toks[2].span.line, toks[2].span.col) == (2, 3)


def test_leading_underscore_names_rejected():
    with pytest.raises(IllegalCharacter):
        tokenize("_x")


def test_illegal_character_carries_span():
    with pytest.raises(IllegalCharacter) as err:
        tokenize("ok\n @")
    assert err.value.span is not None
    assert (err.value.span.line, err.value.span.col) == (2, 2)


def test_unterminated_string():
    with pytest.raises(ParseError):
        tokenize('import "half')


# --- expressions ----------------------------------------------------------------


def head_and_args(e):
    """Unwind SApp nodes into (head, [(arg, implicit), ...])."""
    args = []
    while isinstance(e, SApp):
        args.append((e.arg, e.implicit))
        e = e.fn
    return e, list(reversed(args))


def test_application_is_left_associative():
    head, args = head_and_args(parse_expr("f a b"))
    assert head == SName(head.span, "f")
    assert [a[0].name for a in args] == ["a", "b"]
    assert all(not imp for _, imp in args)


def test_braced_arguments_are_implicit():
    head, args = head_and_args(parse_expr("f {B} x"))
    assert isinstance(head, SName)
    assert [imp for _, imp in args] == [True, False]


def test_sum_sugar_desugars_to_plus_and_oplus():
    head, args = head_and_args(parse_expr("1 + 2"))
    assert isinstance(head, SName) and head.name == "plus"
    assert [a[0].value for a in args] == [1, 2]

    head, args = head_and_args(parse_expr("a (+) b"))
    assert isinstance(head, SName) and head.name == "oplus"

    # Left associative across both operators at one precedence level.
    head, args = head_and_args(parse_expr("a + b (+) c"))
    assert head.name == "oplus"
    inner_head, inner_args = head_and_args(args[0][0])
    assert inner_head.name == "plus"
    assert [x[0].name for x in inner_args] == ["a", "b"]
    assert args[1][0].name == "c"


def test_arrows_are_right_associative():
    e = parse_expr("A -> B -> C")
    assert isinstance(e, SPi) and e.binder is None and not e.implicit
    assert isinstance(e.codomain, SPi)
    assert e.codomain.codomain == SName(e.span, "C")


def test_named_and_implicit_binders():
    e = parse_expr("(x : A) -> B")
    assert isinstance(e, SPi) and e.binder == "x" and not e.implicit
    e = parse_expr("{b : Bd} -> NP b")
    assert isinstance(e, SPi) and e.binder == "b" and e.implicit


def test_binder_groups_expand():
    e = parse_expr("(x y : A) -> B")
    assert isinstance(e, SPi) and e.binder == "x"
    assert isinstance(e.codomain, SPi) and e.codomain.binder == "y"


def test_lambda_multi_binder():
    e = parse_expr("\\x y. x")
    assert isinstance(e, SLambda) and e.binder == "x"
    assert isinstance(e.body, SLambda) and e.body.binder == "y"
    assert e.body.body == SName(e.span, "x")
    assert parse_expr("λx. x") == parse_expr("\\x. x")


def test_sigma_sugar():
    e = parse_expr("Sigma (p : A). B")
    assert isinstance(e, SSigma) and e.binder == "p"
    assert parse_expr("Σ (p : A). B") == e


def test_tuples_nest_to_the_right():
    e = parse_expr("(a , b , c)")
    assert isinstance(e, SPair)
    assert isinstance(e.second, SPair)
    assert e.second.second == SName(e.span, "c")


def test_projections_parse_as_atoms():
    e = parse_expr("fst p")
    head, args = head_and_args(e)
    assert head == SProj(e.span, "fst")
    assert args[0][0] == SName(e.span, "p")
    bare = parse_expr("snd")
    assert bare == SProj(bare.span, "snd")


def test_universes_and_literals_and_holes():
    assert isinstance(parse_expr("Type"), SUniverse)
    assert parse_expr("Type").level == 0
    assert parse_expr("Type1").level == 1
    assert parse_expr("42") == SNat(parse_expr("42").span, 42)
    assert isinstance(parse_expr("_"), SHole)


def test_parse_expr_rejects_trailing_tokens():
    with pytest.raises(ParseError):
        parse_expr("f x )")
    with pytest.raises(ParseError):
        parse_expr("f x x x :")


def test_expression_spans_are_positioned():
    e = parse_expr("plus 1 2")
    assert (e.span.line, e.span.col) == (1, 1)


# --- declarations -----------------------------------------------------------------


def test_declaration_forms():
    text = """
postulate A : Type
primitive N : Type
def idA : A -> A = \\x. x
rewrite (x : A) : idA x = x
check idA : A -> A
norm idA = idA
fail TypeMismatch check A : A
entail e : A => A = \\x. x
import "other.tel"
"""
    parsed = parse_file(text, "decls.tel")
    assert parsed.errors == ()
    shapes = [type(d) for d in parsed.declarations]
    assert shapes == [
        DAxiom, DAxiom, DDef, DRewrite, DCheck, DNorm, DFail, DEntail, DImport,
    ]
    ax = parsed.declarations[0]
    assert ax.name == "A" and not ax.primitive
    assert parsed.declarations[1].primitive
    fail = parsed.declarations[6]
    assert fail.code == "TypeMismatch" and isinstance(fail.inner, DCheck)
    ent = parsed.declarations[7]
    assert ent.name == "e"
    imp = parsed.declarations[8]
    assert imp.path == "other.tel"


def test_rewrite_colon_is_optional():
    with_colon = parse_file("rewrite (x : A) : f x = x", "a.tel")
    without = parse_file("rewrite (x : A) f x = x", "b.tel")
    assert with_colon.errors == () and without.errors == ()
    d1 = with_colon.declarations[0]
    d2 = without.declarations[0]
    assert isinstance(d1, DRewrite) and isinstance(d2, DRewrite)
    assert d1.lhs == d2.lhs and d1.rhs == d2.rhs


def test_fail_requires_known_error_code():
    parsed = parse_file("fail NoSuchCode check A : Type", "x.tel")
    assert len(parsed.errors) == 1
    assert "NoSuchCode" in parsed.errors[0].message


def test_parser_recovers_at_next_declaration():
    text = """
postulate A : Type
check : :
postulate B : Type
"""
    parsed = parse_file(text, "rec.tel")
    assert len(parsed.errors) == 1
    names = [d.name for d in parsed.declarations if isinstance(d, DAxiom)]
    assert names == ["A", "B"]


def test_declaration_spans_point_at_source():
    parsed = parse_file("postulate A : Type\npostulate B : Type", "sp.tel")
    d1, d2 = parsed.declarations
    assert (d1.span.line, d2.span.line) == (1, 2)
    assert d1.span.file == "sp.tel"


def test_tokenize_failure_becomes_parse_error_report():
    parsed = parse_file("postulate A : Type\n@", "bad.tel")
    assert parsed.declarations == ()
    assert len(parsed.errors) == 1


@pytest.mark.parametrize(
    "bad, code, col",
    [
        ("postulate b$ : Type", "IllegalCharacter", 12),
        ("postulate _b : Type", "IllegalCharacter", 11),
        ('import "b.tel', "ParseError", 8),
        ("fail TypeMismatch check b : $", "IllegalCharacter", 29),
        ("check \u00b2 : Nat", "IllegalCharacter", 7),
    ],
    ids=["illegal", "underscore", "unterminated-string", "inside-fail", "superscript-digit"],
)
def test_lexical_error_spoils_only_its_declaration(bad, code, col):
    text = f"postulate a : Type\n{bad}\npostulate c : Type\n"
    parsed = parse_file(text, "lex.tel")
    assert [d.name for d in parsed.declarations] == ["a", "c"]
    (err,) = parsed.errors
    assert err.code == code
    assert (err.span.line, err.span.col) == (2, col)
    # direct callers of the lexer still get the exception
    with pytest.raises(type(err)):
        tokenize(text)


def test_only_ascii_digits_make_numerals():
    # Other Unicode digits (Arabic-Indic one here) are not numerals.
    assert kinds("0123456789") == ["NAT"]
    with pytest.raises(IllegalCharacter) as err:
        parse_expr("\u0661 + 2")
    assert err.value.message == "illegal character '\u0661'"


def test_lexical_error_after_a_complete_declaration_spoils_it():
    parsed = parse_file("postulate a : Type $\npostulate b : Type\n", "lex.tel")
    assert [d.name for d in parsed.declarations] == ["b"]
    assert [(e.code, e.span.line, e.span.col) for e in parsed.errors] == [
        ("IllegalCharacter", 1, 20)
    ]
