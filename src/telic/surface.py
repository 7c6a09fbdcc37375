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

Expressions and declarations are named tuples whose first field is their
span. ``==`` and ``hash`` leave the span out, so equal parses at different
places are equal, and nodes of different classes are never equal.

A declaration keeps its keyword as its kind, and the name it declares or
imports; a `fail` takes its inner declaration's name. Every typing claim
is a `DDef`: a `postulate` or `primitive` has no body, `check t : T` no
name, and `entail n : H => C = w` is `def n : H -> C = w`; only the kind
tells a primitive from a postulate and an entail from a def.

Parsing is recursive descent with token-position backtracking only for the
binder-group lookahead. A parse error inside one declaration takes that
declaration's place in the file's source-ordered result, and parsing
resumes at the next declaration keyword, so one bad declaration does not
hide the rest of the file. A lexical error (an illegal character, an
unterminated string) is the parse error of the declaration it falls in.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import NamedTuple

from .errors import ERROR_CODES, IllegalCharacter, ParseError, Span
from .terms import nat_of_digits

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

# token kinds that start a declaration, and those the parser resumes at
# after an error
_DECL_KINDS = frozenset(k.upper() for k in DECL_KEYWORDS)
_RESUME_KINDS = _DECL_KINDS | {"EOF"}


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


# --- surface nodes -----------------------------------------------------------

class _Node(tuple):
    """A surface node: a named tuple whose first field is its span.

    The span is left out of ``==`` and ``hash``, so two parses of the same
    expression at different places are equal, and nodes of different
    classes never are."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self[1:] == other[1:]

    def __ne__(self, other: object) -> bool:  # tuple's own `!=` counts the span
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), self[1:]))


class SExpr(_Node):
    """Base of the expression nodes."""

    __slots__ = ()


class Declaration(_Node):
    """Base of the declaration nodes. Each starts with ``span``, ``kind``,
    the keyword as written (which is the kind of its report), and ``name``,
    what it declares or imports (None for the rest)."""

    __slots__ = ()


def _node(base: type, name: str, fields: str) -> type:
    """The node class ``name`` under ``base``: a named tuple of ``fields``."""
    return type(name, (base, namedtuple(name, fields)), {"__slots__": ()})


SName = _node(SExpr, "SName", "span name")
SUniverse = _node(SExpr, "SUniverse", "span level")
SNat = _node(SExpr, "SNat", "span value")
SHole = _node(SExpr, "SHole", "span")
SProj = _node(SExpr, "SProj", "span which")  # which: "fst" | "snd"
SLambda = _node(SExpr, "SLambda", "span binder body")
# binder: None for a plain arrow; implicit: the binder is in braces
SPi = _node(SExpr, "SPi", "span binder implicit domain codomain")
SSigma = _node(SExpr, "SSigma", "span binder first second")
SApp = _node(SExpr, "SApp", "span fn arg implicit")  # implicit: the argument is in braces
SPair = _node(SExpr, "SPair", "span first second")

# body: None for a postulate or primitive; name: None for a check
DDef = _node(Declaration, "DDef", "span kind name type body")
# telescope: (name, type) pairs, outermost first
DRewrite = _node(Declaration, "DRewrite", "span kind name telescope lhs rhs")
DFail = _node(Declaration, "DFail", "span kind name code inner")  # name: the inner one's
DNorm = _node(Declaration, "DNorm", "span kind name lhs rhs")
DImport = _node(Declaration, "DImport", "span kind name")  # name: the path as written


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

    def expected(self, what: str, t: Token) -> ParseError:
        """The error for finding ``t`` where ``what`` should be: the token
        as written, or the end of the file."""
        if t.kind == "EOF":
            found = "end of file"
        else:
            found = repr(f'"{t.text}"' if t.kind == "STRING" else t.text)
        return ParseError(f"expected {what}, found {found}", span=self.span(t))

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise self.expected(what, t)
        return self.next()

    # - declarations -

    def parse_file(self) -> tuple[Declaration | ParseError, ...]:
        items: list[Declaration | ParseError] = []
        while not self.at("EOF"):
            start = self.pos
            try:
                item = self.declaration()
            except ParseError as e:
                item = e
            except RecursionError:
                item = ParseError(
                    "declaration nests too deeply to parse", span=self.span(self.tokens[start])
                )
            if self.lex_errors:
                item = self.lexical_error(start) or item
            if isinstance(item, ParseError):
                self.recover()
            items.append(item)
        return tuple(items)

    def lexical_error(self, start: int) -> ParseError | None:
        """The first lexical error from token ``start`` up to the next
        declaration keyword. It spoils the declaration begun at ``start``,
        whether or not the parser got as far as the bad token."""
        end = self.pos
        while self.tokens[end].kind not in _RESUME_KINDS:
            end += 1
        return next((self.lex_errors[k] for k in range(start, end) if k in self.lex_errors), None)

    def recover(self) -> None:
        while self.peek().kind not in _RESUME_KINDS:
            self.next()

    def declaration(self) -> Declaration:
        t = self.peek()
        if t.kind not in _DECL_KINDS:
            raise self.expected("a declaration", t)
        start, kind = self.span(self.next()), t.text
        match kind:
            case "postulate" | "primitive" | "def" | "entail":
                name = self.expect("IDENT", "a name").text
                self.expect("COLON", "':'")
                ty = self.expr()
                if kind == "entail":
                    # `entail n : H => C = w` is `def n : H -> C = w`
                    self.expect("DARROW", "'=>'")
                    ty = SPi(ty.span, None, False, ty, self.expr())
                if kind in ("postulate", "primitive"):
                    return DDef(start, kind, name, ty, None)
                self.expect("EQUALS", "'='")
                return DDef(start, kind, name, ty, self.expr())
            case "rewrite":
                return self.rewrite_decl(start)
            case "check":
                term = self.expr()
                self.expect("COLON", "':'")
                return DDef(start, kind, None, self.expr(), term)
            case "fail":
                code = self.expect("IDENT", "an error code")
                if code.text not in ERROR_CODES:
                    raise ParseError(
                        f"unknown error code `{code.text}`", span=self.span(code)
                    )
                inner = self.declaration()
                return DFail(start, kind, inner.name, code.text, inner)
            case "norm":
                lhs = self.expr()
                self.expect("EQUALS", "'='")
                return DNorm(start, kind, None, lhs, self.expr())
            case _:  # import
                return DImport(start, kind, self.expect("STRING", "a quoted file path").text)

    def rewrite_decl(self, start: Span) -> Declaration:
        telescope: list[tuple[str, SExpr]] = []
        for names, ty, implicit, gspan in self.binder_groups():
            if implicit:
                raise ParseError("pattern variables are written in parentheses", span=gspan)
            telescope += [(nm, ty) for nm in names]
        if self.at("COLON"):
            self.next()
        lhs = self.expr()
        self.expect("EQUALS", "'='")
        rhs = self.expr()
        return DRewrite(start, "rewrite", None, tuple(telescope), lhs, rhs)

    # - expressions -

    def expr(self) -> SExpr:
        t = self.peek()
        if t.kind == "LAMBDA":
            self.next()
            names = self.names()
            self.expect("DOT", "'.'")
            out = self.expr()
            sp = self.span(t)
            for nm in reversed(names):
                out = SLambda(sp, nm, out)
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
            names = self.names()
            self.expect("COLON", "':'")
            ty = self.expr()
            self.expect(close, "')'" if close == "RPAREN" else "'}'")
            groups.append((names, ty, implicit, self.span(t)))
        return groups

    def names(self) -> list[str]:
        """The one or more names a lambda or a binder group binds."""
        names = [self.expect("IDENT", "a binder").text]
        while self.at("IDENT"):
            names.append(self.next().text)
        return names

    def looks_like_group(self) -> bool:
        k = self.pos + 1
        while self.tokens[k].kind == "IDENT":
            k += 1
        return k > self.pos + 1 and self.tokens[k].kind == "COLON"

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
                return SNat(self.span(t), nat_of_digits(t.text))
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
                raise self.expected("an expression", t)


def parse_file(text: str, filename: str = "<input>") -> tuple[Declaration | ParseError, ...]:
    """The declarations of ``text`` in source order, each replaced by its
    parse error where it has one."""
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
        raise parser.expected("the end of the expression", trailing)
    return out
