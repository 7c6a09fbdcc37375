"""The scanner and parser as they were before the one-match-per-token
scanner, kept as an oracle: ``tests/test_parser_oracle.py`` checks that
``telic.surface`` gives the same tokens, lexical errors and parse trees,
spans included.

The code below is that scanner (``_scan``, ``tokenize``), its keyword and
punctuation tables, and that parser (``_Parser``, ``parse_expr``), as they
were. It takes the node and token classes from ``telic.surface``;
``parse_file`` is ``telic.surface.parse_file`` over these.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import chain

from telic.errors import ERROR_CODES, IllegalCharacter, ParseError, Span
from telic.surface import (
    DECL_KEYWORDS,
    DDef,
    DFail,
    DImport,
    DNorm,
    DRewrite,
    Declaration,
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
    Token,
)
from telic.terms import nat_of_digits

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

_DECL_KINDS = frozenset(k.upper() for k in DECL_KEYWORDS)
_RESUME_KINDS = _DECL_KINDS | {"EOF"}

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


def _scan(
    text: str, filename: str, errors: dict[int, ParseError] | None
) -> Iterator[list[Token]]:
    """The tokens of ``text``, lazily, in chunks; the last chunk ends in EOF.

    A chunk ends before each declaration keyword, but not before one that
    a ``fail CODE`` in front of it nests, so a chunk holds whole
    declarations and only its first token may be a top-level keyword.

    A lexical error is raised, unless ``errors`` is given: then it is stored
    there, keyed by the stream index of an ERROR token standing in for the
    offending text, and lexing goes on after it.
    """
    tokens: list[Token] = []
    push = tokens.append
    new = tuple.__new__
    done = 0  # the tokens of the chunks already yielded
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
            if word not in _KEYWORDS:
                kind = "IDENT"
            else:
                kind = word.upper()
                if kind in _DECL_KINDS and tokens:
                    nested = len(tokens) > 1 and tokens[-2].kind == "FAIL" and tokens[-1].kind == "IDENT"
                    if not nested:
                        yield tokens
                        done += len(tokens)
                        tokens = []
                        push = tokens.append
        elif kind == "PUNCTUATION":
            kind = _PUNCTUATION[word]
        elif kind == "STRING":
            word = word[1:-1]
        elif kind in _LEXICAL_ERRORS:
            err = _LEXICAL_ERRORS[kind](word).with_span(Span(filename, line, col))
            if errors is None:
                raise err
            errors[done + len(tokens)] = err
            kind = "ERROR"
        push(new(Token, (kind, word, line, col)))
    push(new(Token, ("EOF", "", line, end - line_start + 1)))
    yield tokens


def tokenize(
    text: str, filename: str = "<input>", errors: dict[int, ParseError] | None = None
) -> list[Token]:
    """The tokens of ``text``, ending in EOF, each at the line and column
    where it starts: the scanner's chunks in one list (see ``_scan`` for
    ``errors``)."""
    return list(chain.from_iterable(_scan(text, filename, errors)))


class _Parser:
    """Recursive descent over a buffer of tokens that ``refill`` extends
    by one scanner chunk at a time.

    ``declarations`` trims the buffer at each top-level declaration and,
    while the parser is still shallow, reads chunks until the buffer holds
    the declaration's own chunk and the first token of the next one. Since
    a chunk holds whole declarations, and ``atom`` consumes no declaration
    keyword or EOF, neither parsing one nor ``resume`` reads further."""

    def __init__(
        self,
        chunks: Iterator[list[Token]],
        filename: str,
        lex_errors: dict[int, ParseError] | None = None,
    ):
        self.chunks = chunks
        self.tokens: list[Token] = []
        self.pos = 0
        self.base = 0  # the stream index of tokens[0]
        self.last = 0  # where the last chunk read starts in tokens
        self.filename = filename
        self.lex_errors = {} if lex_errors is None else lex_errors

    def refill(self) -> bool:
        """Append the scanner's next chunk; False when there is none."""
        chunk = next(self.chunks, None)
        if chunk is None:
            return False
        self.last = len(self.tokens)
        self.tokens += chunk
        return True

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

    def declarations(self) -> Iterator[Declaration | ParseError]:
        """Each declaration in source order, or the parse error that took
        its place, as the scanner reaches it."""
        while True:
            del self.tokens[: self.pos]
            self.base += self.pos
            self.last -= self.pos
            self.pos = 0
            while self.last <= 0 and self.refill():  # its chunk and the next one
                pass
            if self.at("EOF"):
                return
            try:
                item = self.declaration()
            except ParseError as e:
                item = e
            except RecursionError:
                item = ParseError(
                    "declaration nests too deeply to parse", span=self.span(self.tokens[0])
                )
            if self.lex_errors:
                item = self.lexical_error() or item
            if isinstance(item, ParseError):
                self.pos = self.resume()
            yield item

    def lexical_error(self) -> ParseError | None:
        """The first lexical error from the buffer's start, where this
        declaration begins, up to the next declaration keyword. It spoils
        the declaration, whether or not the parser got as far as the bad
        token. The errors found are dropped from ``lex_errors``, which
        then holds only errors after them."""
        end = self.base + self.resume()
        found = [self.lex_errors.pop(k) for k in [k for k in self.lex_errors if k < end]]
        return found[0] if found else None

    def resume(self) -> int:
        """Where parsing resumes: the index of the first declaration
        keyword or EOF at or after the current token, read into the buffer
        if it is not there yet."""
        k = self.pos
        while True:
            try:
                while self.tokens[k].kind not in _RESUME_KINDS:
                    k += 1
                return k
            except IndexError:
                self.refill()

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
        if self.peek().kind in _RESUME_KINDS:
            raise self.expected("an expression", self.peek())
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
    lex_errors: dict[int, ParseError] = {}
    return tuple(_Parser(_scan(text, filename, lex_errors), filename, lex_errors).declarations())


def parse_expr(text: str, filename: str = "<expr>") -> SExpr:
    tokens = tokenize(text, filename)
    parser = _Parser(iter((tokens,)), filename)
    parser.refill()
    try:
        out = parser.expr()
    except RecursionError:
        raise ParseError("expression nests too deeply to parse", span=parser.span(tokens[0])) from None
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise parser.expected("the end of the expression", trailing)
    return out
