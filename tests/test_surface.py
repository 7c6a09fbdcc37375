"""Lexing and parsing: token shapes, sugar, spans, and error recovery."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from telic.corpus import corpus_dir
from telic.errors import IllegalCharacter, ParseError
from telic.prelude import prelude_path
from telic.surface import (
    Declaration,
    DDef,
    DFail,
    DImport,
    DNorm,
    DRewrite,
    SApp,
    SExpr,
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
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (1, 4)
    assert (toks[2].line, toks[2].col) == (2, 3)


# input -> [(kind, text, line, col)], EOF included. A lexical error stands
# as an ERROR token holding the offending text.
LEXER_TABLE = [
    ("a\tb\r\nc", [("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3), ("IDENT", "c", 2, 1), ("EOF", "", 2, 2)]),
    ("a --> b\nc", [("IDENT", "a", 1, 1), ("IDENT", "c", 2, 1), ("EOF", "", 2, 2)]),
    ("A -> B => C", [
        ("IDENT", "A", 1, 1), ("ARROW", "->", 1, 3), ("IDENT", "B", 1, 6),
        ("DARROW", "=>", 1, 8), ("IDENT", "C", 1, 11), ("EOF", "", 1, 12),
    ]),
    ("(+) ( + )", [
        ("OPLUS", "(+)", 1, 1), ("LPAREN", "(", 1, 5), ("PLUS", "+", 1, 7),
        ("RPAREN", ")", 1, 9), ("EOF", "", 1, 10),
    ]),
    # After a trailing comment, EOF sits at the comment's `--`.
    ("a -- note", [("IDENT", "a", 1, 1), ("EOF", "", 1, 3)]),
    ('import "half', [("IMPORT", "import", 1, 1), ("ERROR", '"half', 1, 8), ("EOF", "", 1, 13)]),
    ('import "half\nb', [
        ("IMPORT", "import", 1, 1), ("ERROR", '"half', 1, 8), ("IDENT", "b", 2, 1), ("EOF", "", 2, 2),
    ]),
    ("_x _ x_y'", [
        ("ERROR", "_", 1, 1), ("IDENT", "x", 1, 2), ("HOLE", "_", 1, 4),
        ("IDENT", "x_y'", 1, 6), ("EOF", "", 1, 10),
    ]),
    ("x\u00b2", [("IDENT", "x", 1, 1), ("ERROR", "\u00b2", 1, 2), ("EOF", "", 1, 3)]),
    ("caf\u00e9", [("IDENT", "caf", 1, 1), ("ERROR", "\u00e9", 1, 4), ("EOF", "", 1, 5)]),
    # A character outside the BMP is one column wide.
    ("a \U0001d400 b", [
        ("IDENT", "a", 1, 1), ("ERROR", "\U0001d400", 1, 3), ("IDENT", "b", 1, 5), ("EOF", "", 1, 6),
    ]),
    ("\u03a3 Sigma", [("SIGMA", "\u03a3", 1, 1), ("SIGMA", "Sigma", 1, 3), ("EOF", "", 1, 8)]),
    ("Type1 Type", [("TYPE1", "Type1", 1, 1), ("TYPE", "Type", 1, 7), ("EOF", "", 1, 11)]),
]


@pytest.mark.parametrize("text, expected", LEXER_TABLE, ids=[repr(t) for t, _ in LEXER_TABLE])
def test_lexer_table(text, expected):
    tokens = tokenize(text, "<t>", {})
    assert [(t.kind, t.text, t.line, t.col) for t in tokens] == expected


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


def test_node_equality_ignores_spans_and_never_crosses_classes():
    a, b = parse_expr("f (x, _)"), parse_expr("\n  f   ( x ,_ )")
    assert a.span != b.span
    assert a == b and not a != b and hash(a) == hash(b)
    sp = a.span
    # same fields, different classes
    assert SName(sp, "fst") != SProj(sp, "fst")
    assert SUniverse(sp, 0) != SNat(sp, 0)
    assert SName(sp, "x") != (sp, "x") and (sp, "x") != SName(sp, "x")
    assert len({SName(sp, "x"), SProj(sp, "x"), SName(b.span, "x")}) == 2


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


@pytest.mark.parametrize(
    "text, found",
    [('Nat "abc"', "'\"abc\"'"), ("Nat )", "')'"), ('Nat "" x', "'\"\"'")],
    ids=["string", "punctuation", "empty-string"],
)
def test_parse_expr_shows_the_trailing_token_as_written(text, found):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.message == f"expected the end of the expression, found {found}"
    assert err.value.span.col == 5


def test_expression_spans_are_positioned():
    e = parse_expr("plus 1 2")
    assert (e.span.line, e.span.col) == (1, 1)


# --- declarations -----------------------------------------------------------------


def split(text, filename):
    """The declarations and the parse errors of ``text``, each in order."""
    items = parse_file(text, filename)
    return (
        tuple(i for i in items if isinstance(i, Declaration)),
        tuple(i for i in items if isinstance(i, ParseError)),
    )



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
    decls, errors = split(text, "decls.tel")
    assert errors == ()
    shapes = [type(d) for d in decls]
    assert shapes == [
        DDef, DDef, DDef, DRewrite, DDef, DNorm, DFail, DDef, DImport,
    ]
    assert [d.kind for d in decls] == [
        "postulate", "primitive", "def", "rewrite", "check", "norm", "fail", "entail", "import",
    ]
    assert [d.name for d in decls] == ["A", "N", "idA", None, None, None, None, "e", "other.tel"]
    # a postulate or primitive is a def without a body
    assert decls[0] == DDef(None, "postulate", "A", SUniverse(None, 0), None)
    assert decls[1].body is None
    # a check is a def without a name: `check idA : A -> A`
    arrow = SPi(None, None, False, SName(None, "A"), SName(None, "A"))
    assert decls[4] == DDef(None, "check", None, arrow, SName(None, "idA"))
    fail = decls[6]
    assert fail.code == "TypeMismatch"
    assert fail.inner == DDef(None, "check", None, SName(None, "A"), SName(None, "A"))
    assert decls[7].type == arrow


def test_rewrite_colon_is_optional():
    (d1,) = parse_file("rewrite (x : A) : f x = x", "a.tel")
    (d2,) = parse_file("rewrite (x : A) f x = x", "b.tel")
    assert isinstance(d1, DRewrite) and isinstance(d2, DRewrite)
    assert d1.lhs == d2.lhs and d1.rhs == d2.rhs


def test_rewrite_pattern_variables_are_parenthesised():
    text = "postulate A : Type\npostulate f : A -> A\nrewrite {x : A} : f x = x\n"
    *decls, err = parse_file(text, "braced.tel")
    assert [d.name for d in decls] == ["A", "f"]
    assert isinstance(err, ParseError)
    assert err.message == "pattern variables are written in parentheses"
    assert (err.span.line, err.span.col) == (3, 9)  # the brace


def test_fail_requires_known_error_code():
    (err,) = split("fail NoSuchCode check A : Type", "x.tel")[1]
    assert "NoSuchCode" in err.message


def test_parser_recovers_at_next_declaration():
    text = """
postulate A : Type
check : :
postulate B : Type
"""
    a, err, b = parse_file(text, "rec.tel")
    assert isinstance(err, ParseError)
    assert [a.name, b.name] == ["A", "B"]


@pytest.mark.parametrize(
    "text, found",
    [
        ('check "" : Nat\npostulate q : Nat\n', "'\"\"'"),
        ('check "a b" : Nat\n', "'\"a b\"'"),
        ("check ) : Nat\n", "')'"),
        ("check", "end of file"),
    ],
    ids=["empty-string", "string", "punctuation", "eof"],
)
def test_parse_errors_show_the_token_as_written(text, found):
    (err,) = split(text, "m.tel")[1]
    assert err.message == f"expected an expression, found {found}"


def test_declaration_spans_point_at_source():
    d1, d2 = parse_file("postulate A : Type\npostulate B : Type", "sp.tel")
    assert (d1.span.line, d2.span.line) == (1, 2)
    assert d1.span.file == "sp.tel"


# Every bundled source file, and the test lexicon of equalities.
SOURCES = [
    prelude_path(),
    *sorted(corpus_dir().glob("*.tel")),
    Path(__file__).resolve().parent / "data" / "equalities.tel",
]

# The operators that desugar to applications of these primitives.
OPERATORS = {"plus": ("+",), "oplus": ("(+)", "\u2295")}


def nodes(root):
    """Every declaration and expression under ``root``, iteratively."""
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, (Declaration, SExpr)):
            yield x
            stack.extend(getattr(x, name) for name in x._fields)
        elif isinstance(x, tuple):
            stack.extend(x)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_spans_point_at_their_source_text(path):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    checked = 0
    for node in nodes(parse_file(text, path.name)):
        assert node.span.file == path.name
        at = lines[node.span.line - 1][node.span.col - 1:]
        if isinstance(node, Declaration):
            assert at.startswith(node.kind), node
        elif isinstance(node, SNat):
            assert int(re.match(r"[0-9]+", at).group()) == node.value, node
        elif isinstance(node, SName):
            word = re.match(r"[A-Za-z][A-Za-z0-9_']*", at)
            if not (word and word.group() == node.name):
                assert at.startswith(OPERATORS.get(node.name, ())), node
        else:
            continue
        checked += 1
    assert checked > 0


def test_tokenize_failure_becomes_parse_error_report():
    (err,) = parse_file("postulate A : Type\n@", "bad.tel")
    assert isinstance(err, ParseError)


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
    a, err, c = parse_file(text, "lex.tel")
    assert [a.name, c.name] == ["a", "c"]
    assert err.code == code
    assert (err.span.line, err.span.col) == (2, col)
    # direct callers of the lexer still get the exception
    with pytest.raises(type(err)):
        tokenize(text)


def test_numerals_of_any_length_parse():
    # longer than the 4,300 digits CPython converts in one go
    digits = "9" * 5000
    (decl,) = parse_file(f"check {digits} : Nat\n", "big.tel")
    assert decl.body.value == 10**5000 - 1
    assert parse_expr("0" * 300 + "12").value == 12


def test_only_ascii_digits_make_numerals():
    # Other Unicode digits (Arabic-Indic one here) are not numerals.
    assert kinds("0123456789") == ["NAT"]
    with pytest.raises(IllegalCharacter) as err:
        parse_expr("\u0661 + 2")
    assert err.value.message == "illegal character '\u0661'"


def test_lexical_error_after_a_complete_declaration_spoils_it():
    err, b = parse_file("postulate a : Type $\npostulate b : Type\n", "lex.tel")
    assert b.name == "b"
    assert (err.code, err.span.line, err.span.col) == ("IllegalCharacter", 1, 20)
