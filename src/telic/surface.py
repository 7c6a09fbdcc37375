"""Surface language: lexer and parser.

The surface syntax covers declarations (postulate, primitive, def, rewrite,
check, fail, norm, entail, import) and a small expression language with
lambda, dependent function and pair types, implicit binders in braces,
application by juxtaposition, numeric literals, `+` and the `(+)`/`⊕` sum
of noun phrases, holes, and right-nested tuples.

Lexing is one regular expression of token classes, scanned left to right.
A token is a plain tuple ``(kind, text, line, col)``: the line and column
where it starts. Spans (the file, line and column that reports print) are
built only where they are kept: on expressions, declarations and errors.
An expression or declaration starts where its first token does.

Parsing is recursive descent with token-position backtracking only for the
binder-group lookahead. A parse error inside one declaration is recorded and
parsing resumes at the next declaration keyword, so one bad declaration does
not hide the rest of the file. A lexical error (an illegal character, an
unterminated string) is the parse error of the declaration it falls in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ERROR_CODES, IllegalCharacter, ParseError, Span

# --- tokens ------------------------------------------------------------------

DECL_KEYWORDS = frozenset(
    {"postulate", "primitive", "def", "rewrite", "check", "fail", "norm", "entail", "import"}
)

_KEYWORDS = DECL_KEYWORDS | {"Type", "Type1", "fst", "snd", "Sigma"}

# one-character tokens
_PUNCTUATION = {
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    ":": "COLON",
    ",": "COMMA",
    ".": "DOT",
    "=": "EQUALS",
    "+": "PLUS",
    "\\": "LAMBDA",
    "λ": "LAMBDA",
    "Σ": "SIGMA",
    "⊕": "OPLUS",
    "_": "HOLE",
}

# token kinds the parser resumes at after an error
_RESUME_KINDS = frozenset({k.upper() for k in DECL_KEYWORDS} | {"EOF"})


class Token(NamedTuple):
    """A token: its kind, its text, and the 1-based line and column where it
    starts. The parser turns the position into a ``Span`` only where a node
    or an error keeps it."""

    kind: str
    text: str
    line: int
    col: int


# The token classes, tried in order at each position; the first that matches
# wins. Every position matches some class, so the scan covers the whole text.
_TOKEN_CLASSES = (
    ("NEWLINE", r"\n"),
    ("SPACE", r"[ \t\r]+"),
    ("COMMENT", r"--[^\n]*"),
    ("ARROW", r"->"),
    ("DARROW", r"=>"),
    ("OPLUS", r"\(\+\)"),
    ("UNDERSCORE", r"_(?=[A-Za-z0-9_'])"),
    ("PUNCTUATION", "[" + re.escape("".join(_PUNCTUATION)) + "]"),
    ("STRING", r'"[^"\n]*"'),
    ("UNTERMINATED", r'"[^"\n]*'),
    ("NAT", r"[0-9]+"),
    ("WORD", r"[A-Za-z][A-Za-z0-9_']*"),
    ("ILLEGAL", r"."),
)
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_CLASSES))

_LEXICAL_ERRORS = {
    "UNDERSCORE": lambda text: IllegalCharacter("names may not start with an underscore"),
    "UNTERMINATED": lambda text: ParseError("unterminated string"),
    "ILLEGAL": lambda text: IllegalCharacter(f"illegal character {text!r}"),
}


def tokenize(
    text: str, filename: str = "<input>", errors: dict[int, ParseError] | None = None
) -> list[Token]:
    """The tokens of ``text``, ending in EOF, each at the line and column
    where it starts.

    A lexical error is raised, unless ``errors`` is given: then it is stored
    there, keyed by the index of an ERROR token standing in for the
    offending text, and lexing goes on after it.
    """
    tokens: list[Token] = []
    push = tokens.append
    new = tuple.__new__
    line = 1
    line_start = 0  # offset of the current line's first character
    end = 0  # where the EOF token goes: a trailing comment's `--` keeps it
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        end = m.end()
        if kind == "SPACE":
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = end
            continue
        if kind == "COMMENT":
            end = m.start()
            continue
        word = m.group()
        col = m.start() - line_start + 1
        if kind == "WORD":
            kind = word.upper() if word in _KEYWORDS else "IDENT"
        elif kind == "PUNCTUATION":
            kind = _PUNCTUATION[word]
        elif kind == "STRING":
            word = word[1:-1]
        elif kind in _LEXICAL_ERRORS:
            err = _LEXICAL_ERRORS[kind](word).with_span(Span(filename, line, col))
            if errors is None:
                raise err
            errors[len(tokens)] = err
            kind = "ERROR"
        push(new(Token, (kind, word, line, col)))
    push(new(Token, ("EOF", "", line, end - line_start + 1)))
    return tokens


# --- surface expressions -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class SExpr:
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class SName(SExpr):
    name: str


@dataclass(frozen=True, slots=True)
class SUniverse(SExpr):
    level: int


@dataclass(frozen=True, slots=True)
class SNat(SExpr):
    value: int


@dataclass(frozen=True, slots=True)
class SHole(SExpr):
    pass


@dataclass(frozen=True, slots=True)
class SProj(SExpr):
    which: str  # "fst" | "snd"


@dataclass(frozen=True, slots=True)
class SLambda(SExpr):
    binder: str
    body: SExpr


@dataclass(frozen=True, slots=True)
class SPi(SExpr):
    binder: str | None  # None for a plain arrow
    implicit: bool
    domain: SExpr
    codomain: SExpr


@dataclass(frozen=True, slots=True)
class SSigma(SExpr):
    binder: str
    first: SExpr
    second: SExpr


@dataclass(frozen=True, slots=True)
class SApp(SExpr):
    fn: SExpr
    arg: SExpr
    implicit: bool


@dataclass(frozen=True, slots=True)
class SPair(SExpr):
    first: SExpr
    second: SExpr


# --- declarations ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Declaration:
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class DAxiom(Declaration):
    name: str
    type: SExpr
    primitive: bool


@dataclass(frozen=True, slots=True)
class DDef(Declaration):
    name: str
    type: SExpr
    body: SExpr


@dataclass(frozen=True, slots=True)
class DRewrite(Declaration):
    telescope: tuple[tuple[str, SExpr], ...]
    lhs: SExpr
    rhs: SExpr


@dataclass(frozen=True, slots=True)
class DCheck(Declaration):
    term: SExpr
    type: SExpr


@dataclass(frozen=True, slots=True)
class DFail(Declaration):
    code: str
    inner: Declaration


@dataclass(frozen=True, slots=True)
class DNorm(Declaration):
    lhs: SExpr
    rhs: SExpr


@dataclass(frozen=True, slots=True)
class DEntail(Declaration):
    name: str
    hypothesis: SExpr
    conclusion: SExpr
    witness: SExpr


@dataclass(frozen=True, slots=True)
class DImport(Declaration):
    path: str


@dataclass(frozen=True, slots=True)
class ParsedFile:
    filename: str
    declarations: tuple[Declaration, ...]
    errors: tuple[ParseError, ...]


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(
        self, tokens: list[Token], filename: str, lex_errors: dict[int, ParseError] | None = None
    ):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.lex_errors = lex_errors or {}

    def span(self, t: Token) -> Span:
        return Span(self.filename, t.line, t.col)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        """Consume and return the current token; EOF, the last, stays."""
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {what}, found {t.text!r}" if t.text else f"expected {what}, found end of file",
                span=self.span(t),
            )
        return self.next()

    # - declarations -

    def parse_file(self) -> ParsedFile:
        decls: list[Declaration] = []
        errors: list[ParseError] = []
        while not self.at("EOF"):
            start = self.pos
            decl: Declaration | None = None
            try:
                decl = self.declaration()
            except ParseError as e:
                error = e
            except RecursionError:
                error = ParseError(
                    "declaration nests too deeply to parse", span=self.span(self.tokens[start])
                )
            if self.lex_errors:
                lexical = self.lexical_error(start)
                if lexical is not None:
                    decl, error = None, lexical
            if decl is None:
                errors.append(error)
                self.recover()
            else:
                decls.append(decl)
        return ParsedFile(self.filename, tuple(decls), tuple(errors))

    def lexical_error(self, start: int) -> ParseError | None:
        """The first lexical error from token ``start`` up to the next
        declaration keyword. It spoils the declaration begun at ``start``,
        whether or not the parser got as far as the bad token."""
        end = self.pos
        while self.tokens[end].kind not in _RESUME_KINDS:
            end += 1
        return next((e for k, e in self.lex_errors.items() if start <= k < end), None)

    def recover(self) -> None:
        while self.peek().kind not in _RESUME_KINDS:
            self.next()

    def declaration(self) -> Declaration:
        t = self.peek()
        match t.kind:
            case "POSTULATE" | "PRIMITIVE":
                return self.axiom_decl(primitive=t.kind == "PRIMITIVE")
            case "DEF":
                return self.def_decl()
            case "REWRITE":
                return self.rewrite_decl()
            case "CHECK":
                start = self.span(self.next())
                term = self.expr()
                self.expect("COLON", "':'")
                ty = self.expr()
                return DCheck(start, term, ty)
            case "FAIL":
                start = self.span(self.next())
                code = self.expect("IDENT", "an error code")
                if code.text not in ERROR_CODES:
                    raise ParseError(
                        f"unknown error code `{code.text}`", span=self.span(code)
                    )
                inner = self.declaration()
                return DFail(start, code.text, inner)
            case "NORM":
                start = self.span(self.next())
                lhs = self.expr()
                self.expect("EQUALS", "'='")
                rhs = self.expr()
                return DNorm(start, lhs, rhs)
            case "ENTAIL":
                start = self.span(self.next())
                name = self.expect("IDENT", "a name")
                self.expect("COLON", "':'")
                hyp = self.expr()
                self.expect("DARROW", "'=>'")
                concl = self.expr()
                self.expect("EQUALS", "'='")
                wit = self.expr()
                return DEntail(start, name.text, hyp, concl, wit)
            case "IMPORT":
                start = self.span(self.next())
                path = self.expect("STRING", "a quoted file path")
                return DImport(start, path.text)
            case _:
                raise ParseError(
                    f"expected a declaration, found {t.text!r}"
                    if t.text
                    else "expected a declaration, found end of file",
                    span=self.span(t),
                )

    def axiom_decl(self, primitive: bool) -> Declaration:
        start = self.span(self.next())
        name = self.expect("IDENT", "a name")
        self.expect("COLON", "':'")
        ty = self.expr()
        return DAxiom(start, name.text, ty, primitive)

    def def_decl(self) -> Declaration:
        start = self.span(self.next())
        name = self.expect("IDENT", "a name")
        self.expect("COLON", "':'")
        ty = self.expr()
        self.expect("EQUALS", "'='")
        body = self.expr()
        return DDef(start, name.text, ty, body)

    def rewrite_decl(self) -> Declaration:
        start = self.span(self.next())
        telescope: list[tuple[str, SExpr]] = []
        while self.at("LPAREN") and self.looks_like_group():
            self.next()
            names = [self.expect("IDENT", "a pattern variable").text]
            while self.at("IDENT"):
                names.append(self.next().text)
            self.expect("COLON", "':'")
            ty = self.expr()
            self.expect("RPAREN", "')'")
            telescope += [(nm, ty) for nm in names]
        if self.at("COLON"):
            self.next()
        lhs = self.expr()
        self.expect("EQUALS", "'='")
        rhs = self.expr()
        return DRewrite(start, tuple(telescope), lhs, rhs)

    # - expressions -

    def expr(self) -> SExpr:
        t = self.peek()
        if t.kind == "LAMBDA":
            self.next()
            binders = [self.expect("IDENT", "a binder")]
            while self.at("IDENT"):
                binders.append(self.next())
            self.expect("DOT", "'.'")
            out = self.expr()
            sp = self.span(t)
            for b in reversed(binders):
                out = SLambda(sp, b.text, out)
            return out
        if t.kind == "SIGMA":
            self.next()
            self.expect("LPAREN", "'('")
            binder = self.expect("IDENT", "a binder")
            self.expect("COLON", "':'")
            first = self.expr()
            self.expect("RPAREN", "')'")
            self.expect("DOT", "'.'")
            second = self.expr()
            return SSigma(self.span(t), binder.text, first, second)
        groups = self.binder_groups()
        if groups:
            self.expect("ARROW", "'->'")
            out = self.expr()
            for names, ty, implicit, gspan in reversed(groups):
                for nm in reversed(names):
                    out = SPi(gspan, nm, implicit, ty, out)
            return out
        left = self.sum_expr()
        if self.at("ARROW"):
            self.next()
            right = self.expr()
            return SPi(left.span, None, False, left, right)
        return left

    def binder_groups(self) -> list[tuple[list[str], SExpr, bool, Span]]:
        groups: list[tuple[list[str], SExpr, bool, Span]] = []
        while True:
            t = self.peek()
            if t.kind not in ("LPAREN", "LBRACE") or not self.looks_like_group():
                break
            close = "RPAREN" if t.kind == "LPAREN" else "RBRACE"
            implicit = t.kind == "LBRACE"
            self.next()
            names = [self.expect("IDENT", "a binder").text]
            while self.at("IDENT"):
                names.append(self.next().text)
            self.expect("COLON", "':'")
            ty = self.expr()
            self.expect(close, "')'" if close == "RPAREN" else "'}'")
            groups.append((names, ty, implicit, self.span(t)))
        return groups

    def looks_like_group(self) -> bool:
        k = self.pos + 1
        saw_ident = False
        while self.tokens[k].kind == "IDENT":
            saw_ident = True
            k += 1
        return saw_ident and self.tokens[k].kind == "COLON"

    def sum_expr(self) -> SExpr:
        left = self.app_expr()
        while self.peek().kind in ("PLUS", "OPLUS"):
            op = self.next()
            right = self.app_expr()
            name = "plus" if op.kind == "PLUS" else "oplus"
            sp = left.span
            left = SApp(sp, SApp(sp, SName(self.span(op), name), left, False), right, False)
        return left

    _ATOM_STARTS = frozenset(
        {"IDENT", "NAT", "HOLE", "TYPE", "TYPE1", "FST", "SND", "LPAREN"}
    )

    def app_expr(self) -> SExpr:
        head = self.atom()
        while True:
            t = self.peek()
            if t.kind in self._ATOM_STARTS:
                arg = self.atom()
                head = SApp(head.span, head, arg, False)
            elif t.kind == "LBRACE":
                self.next()
                arg = self.expr()
                self.expect("RBRACE", "'}'")
                head = SApp(head.span, head, arg, True)
            else:
                return head

    def atom(self) -> SExpr:
        t = self.next()
        match t.kind:
            case "IDENT":
                return SName(self.span(t), t.text)
            case "NAT":
                return SNat(self.span(t), int(t.text))
            case "HOLE":
                return SHole(self.span(t))
            case "TYPE":
                return SUniverse(self.span(t), 0)
            case "TYPE1":
                return SUniverse(self.span(t), 1)
            case "FST":
                return SProj(self.span(t), "fst")
            case "SND":
                return SProj(self.span(t), "snd")
            case "LPAREN":
                parts = [self.expr()]
                while self.at("COMMA"):
                    self.next()
                    parts.append(self.expr())
                self.expect("RPAREN", "')'")
                out = parts[-1]
                if len(parts) > 1:
                    sp = self.span(t)
                    for p in reversed(parts[:-1]):
                        out = SPair(sp, p, out)
                return out
            case _:
                raise ParseError(
                    f"expected an expression, found {t.text!r}"
                    if t.text
                    else "expected an expression, found end of file",
                    span=self.span(t),
                )


def parse_file(text: str, filename: str = "<input>") -> ParsedFile:
    lex_errors: dict[int, ParseError] = {}
    tokens = tokenize(text, filename, lex_errors)
    return _Parser(tokens, filename, lex_errors).parse_file()


def parse_expr(text: str, filename: str = "<expr>") -> SExpr:
    tokens = tokenize(text, filename)
    parser = _Parser(tokens, filename)
    try:
        out = parser.expr()
    except RecursionError:
        raise ParseError("expression nests too deeply to parse", span=parser.span(tokens[0])) from None
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError(
            f"unexpected {trailing.text!r} after expression", span=parser.span(trailing)
        )
    return out
