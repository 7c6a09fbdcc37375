"""Surface language: lexer and parser.

The surface syntax covers declarations (postulate, primitive, def, rewrite,
check, fail, norm, entail, import) and a small expression language with
lambda, dependent function and pair types, implicit binders in braces,
application by juxtaposition, numeric literals, `+` and the `(+)`/`⊕` sum
of noun phrases, holes, and right-nested tuples.

Lexing is one match of one regular expression per token, scanned left to
right: the match skips the blanks before the token, so blanks are never a
match of their own. A word or punctuation token gets its kind from one
dict keyed by its text (a word not in it is an IDENT, digits are a NAT);
only comments, newlines, strings and characters that start no token take
a slower branch. A token is a plain tuple ``(kind, text, line, col)``: the
line and column where it starts. Spans (the file, line and column that
reports print) are built only where they are kept: on expressions,
declarations and errors. An expression or declaration starts where its
first token does.

Expressions and declarations are named tuples whose first field is their
span. ``==`` and ``hash`` leave the span out, so equal parses at different
places are equal, and nodes of different classes are never equal.

A declaration keeps its keyword as its kind, and the name it declares or
imports; a `fail` takes its inner declaration's name. Every typing claim
is a `DDef`: a `postulate` or `primitive` has no body, `check t : T` no
name, and `entail n : H => C = w` is `def n : H -> C = w`; only the kind
tells a primitive from a postulate and an entail from a def.

Parsing is recursive descent with token-position backtracking only for the
binder-group lookahead. Its hot methods read the current token from the
chunk and compare its kind inline, and build nodes and spans with
``tuple.__new__``. A parse error inside one declaration takes that
declaration's place in the file's source-ordered result, and parsing
resumes at the next declaration keyword, so one bad declaration does not
hide the rest of the file.

The scanner never fails: text that starts no token (an illegal character,
an underscore before a name, an unterminated string) becomes an ERROR token
holding it. The parser alone reports it, as the parse error of the
declaration it falls in, rebuilt from the token by ``_lexical_error``.

Both are lazy, one declaration at a time. The scanner yields its tokens in
chunks, one per top-level declaration, each ending with the keyword that
starts the next chunk, or with EOF. The parser never consumes that last
token while it parses the chunk: a rejected token stays where it is, so a
declaration that stops short cannot swallow the next one's keyword.
``parse_stream`` yields each declaration as soon as its chunk is parsed,
holding only that chunk. ``tokenize`` and ``parse_file`` materialize the
same stream in one list and one tuple.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .errors import ERROR_CODES, IllegalCharacter, ParseError, Span
from .terms import nat_of_digits

# --- tokens ------------------------------------------------------------------

DECL_KEYWORDS = frozenset(
    {"postulate", "primitive", "def", "rewrite", "check", "fail", "norm", "entail", "import"}
)

# The kind of every token whose text fixes it: the punctuation, the arrows
# and the keywords. A word not here is an IDENT.
_KINDS = {
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
    "(+)": "OPLUS",
    "->": "ARROW",
    "=>": "DARROW",
    **{
        word: word.upper()
        for word in sorted(DECL_KEYWORDS | {"Type", "Type1", "fst", "snd", "Sigma"})
    },
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


# One match per token, with the blanks before it. Group 1 is a token whose
# kind ``_KINDS`` gives, or a word or numeral; group 2 is the rest, which the
# scanner looks at: a comment, a newline, a string, or a character that
# starts no token (an underscore before a name is one). The third branch
# takes the blanks at the end of a text that does not end in a newline.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"([A-Za-z][A-Za-z0-9_']*|[0-9]+|[-=]>|\(\+\)|_(?![A-Za-z0-9_'])|[(){}:,.=+\\λΣ⊕])"
    r'|(--[^\n]*|\n|"[^"\n]*"?|[^ \t\r])'
    r")|[ \t\r]+\Z"
)


def _scan(text: str) -> Iterator[list[Token]]:
    """The tokens of ``text``, lazily, in chunks; the last chunk ends in EOF.

    A chunk ends with each declaration keyword, but not with one that a
    ``fail CODE`` in front of it nests, and the next chunk starts with the
    same token. So a chunk holds whole declarations and the token after
    them, and a top-level keyword only at its two ends.

    Text that starts no token becomes an ERROR token holding it, and lexing
    goes on after it: the scanner raises nothing.
    """
    tokens: list[Token] = []
    push = tokens.append
    new = tuple.__new__
    kinds = _KINDS.get
    line = 1
    line_start = 0  # offset of the current line's first character
    end = len(text)  # where the EOF token goes: a last-line comment's `--` keeps it
    for m in _TOKEN.finditer(text):
        word = m[1]
        if word is not None:
            kind = kinds(word)
            if kind is None:  # a word starts with a letter, a numeral with a digit
                kind = "IDENT" if word[0] > "9" else "NAT"
            elif kind in _DECL_KINDS and tokens:
                nested = len(tokens) > 1 and tokens[-2][0] == "FAIL" and tokens[-1][0] == "IDENT"
                if not nested:  # the keyword ends this chunk and starts the next
                    push(t := new(Token, (kind, word, line, m.start(1) - line_start + 1)))
                    yield tokens
                    tokens = [t]
                    push = tokens.append
                    continue
            push(new(Token, (kind, word, line, m.start(1) - line_start + 1)))
            continue
        word = m[2]
        if word is None:  # blanks at the end of the text
            continue
        if word == "\n":
            line += 1
            line_start = m.end()
            continue
        if word[:2] == "--":
            if m.end() == end:
                end = m.start(2)
            continue
        col = m.start(2) - line_start + 1
        if len(word) > 1 and word[0] == '"' == word[-1]:
            push(new(Token, ("STRING", word[1:-1], line, col)))
        else:
            push(new(Token, ("ERROR", word, line, col)))
    push(new(Token, ("EOF", "", line, end - line_start + 1)))
    yield tokens


def _lexical_error(t: Token, filename: str) -> ParseError:
    """The error an ERROR token stands for, where its text starts."""
    span = Span(filename, t.line, t.col)
    if t.text[0] == '"':
        return ParseError("unterminated string", span=span)
    if t.text == "_":
        return IllegalCharacter("names may not start with an underscore", span=span)
    return IllegalCharacter(f"illegal character {t.text!r}", span=span)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """The tokens of ``text``, ending in EOF, each at the line and column
    where it starts: the scanner's chunks in one list, each token once.
    The first ERROR token's error is raised."""
    tokens: list[Token] = []
    for chunk in _scan(text):
        tokens[-1:] = chunk  # it starts with the token that ended the one before
    for t in tokens:
        if t[0] == "ERROR":
            raise _lexical_error(t, filename)
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

# The parser builds nodes and spans without their classes' keyword-taking
# constructors: ``_new(SName, (span, name))``.
_new = tuple.__new__


class _Parser:
    """Recursive descent over one chunk of tokens.

    Every method reads the current token as ``self.tokens[self.pos]`` and
    advances ``pos`` itself. No method consumes a token it rejects, and only
    ``declaration`` consumes a declaration keyword, so ``pos`` never passes
    a chunk's last token: the next chunk's keyword, or EOF. ``expr`` tries
    binder groups only at ``(`` or ``{``.

    ``declarations`` parses each chunk on its own, one declaration after
    another, until ``pos`` reaches its last token. A parse error resumes at
    the next declaration keyword, which may be in the middle of a chunk
    after a ``fail CODE``.

    The parser owns lexical errors: the first ERROR token from a
    declaration's start up to the next declaration keyword spoils it,
    whether or not parsing got as far as that token."""

    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.start = 0  # where the current declaration starts
        self.filename = filename

    def span(self, t: Token) -> Span:
        return Span(self.filename, t.line, t.col)

    def expected(self, what: str, t: Token) -> ParseError:
        """The error for finding ``t`` where ``what`` should be: the token
        as written, or the end of the file."""
        if t.kind == "EOF":
            found = "end of file"
        else:
            found = repr(f'"{t.text}"' if t.kind == "STRING" else t.text)
        return ParseError(f"expected {what}, found {found}", span=self.span(t))

    def expect(self, kind: str, what: str) -> Token:
        t = self.tokens[self.pos]
        if t[0] != kind:
            raise self.expected(what, t)
        self.pos += 1  # never EOF or a declaration keyword, which no caller expects
        return t

    def guarded(self, parse: Callable[[], _Node], what: str) -> _Node:
        """``parse()`` from the current declaration's first token, ending in
        a ``ParseError`` there if Python's recursion runs out."""
        try:
            return parse()
        except RecursionError:
            raise ParseError(f"{what} nests too deeply to parse", span=self.span(self.tokens[self.start])) from None

    # - declarations -

    def declarations(self, chunks: Iterator[list[Token]]) -> Iterator[Declaration | ParseError]:
        """Each declaration of ``chunks`` in source order, or the parse
        error that took its place, as the scanner reaches it."""
        for tokens in chunks:
            self.tokens = tokens
            self.pos = 0
            last = len(tokens) - 1
            while self.pos < last:
                start = self.start = self.pos  # where its lexical errors are looked for
                try:
                    item = self.guarded(self.declaration, "declaration")
                    start = self.pos  # a declaration that parsed holds no ERROR token
                except ParseError as e:
                    item = e
                end = self.resume()
                for k in range(start, end):
                    if tokens[k][0] == "ERROR":
                        item = _lexical_error(tokens[k], self.filename)
                        break
                if isinstance(item, ParseError):
                    self.pos = end
                yield item

    def resume(self) -> int:
        """Where parsing resumes: the index of the first declaration
        keyword or EOF at or after the current token."""
        k = self.pos
        while self.tokens[k].kind not in _RESUME_KINDS:
            k += 1
        return k

    def declaration(self) -> Declaration:
        t = self.tokens[self.pos]
        if t.kind not in _DECL_KINDS:
            raise self.expected("a declaration", t)
        self.pos += 1
        start, kind = self.span(t), t.text
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
        if self.tokens[self.pos].kind == "COLON":
            self.pos += 1
        lhs = self.expr()
        self.expect("EQUALS", "'='")
        rhs = self.expr()
        return DRewrite(start, "rewrite", None, tuple(telescope), lhs, rhs)

    # - expressions -

    def expr(self) -> SExpr:
        t = self.tokens[self.pos]
        kind = t[0]
        if kind == "LAMBDA":
            self.pos += 1
            names = self.names()
            self.expect("DOT", "'.'")
            out = self.expr()
            sp = self.span(t)
            for nm in reversed(names):
                out = SLambda(sp, nm, out)
            return out
        if kind == "SIGMA":
            self.pos += 1
            self.expect("LPAREN", "'('")
            binder = self.expect("IDENT", "a binder")
            self.expect("COLON", "':'")
            first = self.expr()
            self.expect("RPAREN", "')'")
            self.expect("DOT", "'.'")
            second = self.expr()
            return SSigma(self.span(t), binder.text, first, second)
        if kind == "LPAREN" or kind == "LBRACE":
            groups = self.binder_groups()
            if groups:
                self.expect("ARROW", "'->'")
                out = self.expr()
                for names, ty, implicit, gspan in reversed(groups):
                    for nm in reversed(names):
                        out = SPi(gspan, nm, implicit, ty, out)
                return out
        left = self.sum_expr()
        if self.tokens[self.pos][0] == "ARROW":
            self.pos += 1
            return _new(SPi, (left[0], None, False, left, self.expr()))
        return left

    def binder_groups(self) -> list[tuple[list[str], SExpr, bool, Span]]:
        groups: list[tuple[list[str], SExpr, bool, Span]] = []
        while True:
            t = self.tokens[self.pos]
            if t.kind not in ("LPAREN", "LBRACE") or not self.looks_like_group():
                break
            close = "RPAREN" if t.kind == "LPAREN" else "RBRACE"
            implicit = t.kind == "LBRACE"
            self.pos += 1
            names = self.names()
            self.expect("COLON", "':'")
            ty = self.expr()
            self.expect(close, "')'" if close == "RPAREN" else "'}'")
            groups.append((names, ty, implicit, self.span(t)))
        return groups

    def names(self) -> list[str]:
        """The one or more names a lambda or a binder group binds."""
        names = [self.expect("IDENT", "a binder").text]
        while (t := self.tokens[self.pos]).kind == "IDENT":
            names.append(t.text)
            self.pos += 1
        return names

    def looks_like_group(self) -> bool:
        k = self.pos + 1
        while self.tokens[k].kind == "IDENT":
            k += 1
        return k > self.pos + 1 and self.tokens[k].kind == "COLON"

    def sum_expr(self) -> SExpr:
        left = self.app_expr()
        tokens = self.tokens
        while True:
            op = tokens[self.pos]
            if op[0] == "PLUS":
                name = "plus"
            elif op[0] == "OPLUS":
                name = "oplus"
            else:
                return left
            self.pos += 1
            right = self.app_expr()
            sp = left[0]
            fn = _new(SName, (_new(Span, (self.filename, op[2], op[3])), name))
            left = _new(SApp, (sp, _new(SApp, (sp, fn, left, False)), right, False))

    _ATOM_STARTS = frozenset(
        {"IDENT", "NAT", "HOLE", "TYPE", "TYPE1", "FST", "SND", "LPAREN"}
    )

    def app_expr(self) -> SExpr:
        head = self.atom()
        tokens = self.tokens
        starts = self._ATOM_STARTS
        while True:
            kind = tokens[self.pos][0]
            if kind in starts:
                head = _new(SApp, (head[0], head, self.atom(), False))
            elif kind == "LBRACE":
                self.pos += 1
                arg = self.expr()
                self.expect("RBRACE", "'}'")
                head = _new(SApp, (head[0], head, arg, True))
            else:
                return head

    def atom(self) -> SExpr:
        t = self.tokens[self.pos]
        kind = t[0]
        self.pos += 1
        sp = _new(Span, (self.filename, t[2], t[3]))
        if kind == "IDENT":
            return _new(SName, (sp, t[1]))
        if kind == "NAT":
            return _new(SNat, (sp, nat_of_digits(t[1])))
        if kind == "LPAREN":
            parts = [self.expr()]
            while self.tokens[self.pos][0] == "COMMA":
                self.pos += 1
                parts.append(self.expr())
            self.expect("RPAREN", "')'")
            out = parts[-1]
            for p in reversed(parts[:-1]):
                out = _new(SPair, (sp, p, out))
            return out
        if kind == "HOLE":
            return _new(SHole, (sp,))
        if kind == "TYPE":
            return _new(SUniverse, (sp, 0))
        if kind == "TYPE1":
            return _new(SUniverse, (sp, 1))
        if kind == "FST":
            return _new(SProj, (sp, "fst"))
        if kind == "SND":
            return _new(SProj, (sp, "snd"))
        self.pos -= 1  # a rejected token stays: it may be the next keyword, or EOF
        raise self.expected("an expression", t)


def parse_stream(text: str, filename: str = "<input>") -> Iterator[Declaration | ParseError]:
    """The declarations of ``text`` in source order, each replaced by its
    parse error where it has one, tokenized and parsed one at a time as
    they are asked for."""
    return _Parser([], filename).declarations(_scan(text))


def parse_file(text: str, filename: str = "<input>") -> tuple[Declaration | ParseError, ...]:
    """``parse_stream`` in one tuple."""
    return tuple(parse_stream(text, filename))


def parse_expr(text: str, filename: str = "<expr>") -> SExpr:
    parser = _Parser(tokenize(text, filename), filename)
    out = parser.guarded(parser.expr, "expression")
    trailing = parser.tokens[parser.pos]
    if trailing.kind != "EOF":
        raise parser.expected("the end of the expression", trailing)
    return out
