"""Surface language: lexer and parser.

The surface syntax covers declarations (postulate, primitive, def, rewrite,
check, fail, norm, entail, import) and a small expression language with
lambda, dependent function and pair types, implicit binders in braces,
application by juxtaposition, numeric literals, `+` and the `(+)`/`⊕` sum
of noun phrases, holes, and right-nested tuples.

Parsing is recursive descent with token-position backtracking only for the
binder-group lookahead. A parse error inside one declaration is recorded and
parsing resumes at the next declaration keyword, so one bad declaration does
not hide the rest of the file. A lexical error (an illegal character, an
unterminated string) is the parse error of the declaration it falls in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ERROR_CODES, IllegalCharacter, ParseError, Span

# --- tokens ------------------------------------------------------------------

_KEYWORDS = frozenset(
    {
        "postulate",
        "primitive",
        "def",
        "rewrite",
        "check",
        "fail",
        "norm",
        "entail",
        "import",
        "Type",
        "Type1",
        "fst",
        "snd",
        "Sigma",
    }
)

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

DECL_KEYWORDS = frozenset(
    {"postulate", "primitive", "def", "rewrite", "check", "fail", "norm", "entail", "import"}
)

# token kinds the parser resumes at after an error
_RESUME_KINDS = frozenset({k.upper() for k in DECL_KEYWORDS} | {"EOF"})


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    span: Span


def _is_ident_start(c: str) -> bool:
    return c.isascii() and c.isalpha()


def _is_ident_char(c: str) -> bool:
    return c.isascii() and (c.isalnum() or c in "_'")


def tokenize(
    text: str, filename: str = "<input>", errors: dict[int, ParseError] | None = None
) -> list[Token]:
    """The tokens of ``text``, ending in EOF.

    A lexical error is raised, unless ``errors`` is given: then it is stored
    there, keyed by the index of an ERROR token standing in for the
    offending text, and lexing goes on after it.
    """
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)

    def span(width: int, l: int | None = None, c: int | None = None) -> Span:
        sl = line if l is None else l
        sc = col if c is None else c
        return Span(filename, sl, sc, sl, sc + width)

    def push(kind: str, text_: str, sp: Span) -> None:
        tokens.append(Token(kind, text_, sp))

    def bad(err: ParseError, width: int) -> None:
        if errors is None:
            raise err
        errors[len(tokens)] = err
        push("ERROR", text[i : i + width], err.span)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            push("ARROW", "->", span(2))
            i += 2
            col += 2
            continue
        if c == "=" and i + 1 < n and text[i + 1] == ">":
            push("DARROW", "=>", span(2))
            i += 2
            col += 2
            continue
        if c == "(" and i + 2 < n and text[i + 1] == "+" and text[i + 2] == ")":
            push("OPLUS", "(+)", span(3))
            i += 3
            col += 3
            continue
        if c in _PUNCTUATION:
            if c == "_" and i + 1 < n and _is_ident_char(text[i + 1]):
                bad(IllegalCharacter("names may not start with an underscore", span=span(1)), 1)
            else:
                push(_PUNCTUATION[c], c, span(1))
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] == "\n":
                bad(ParseError("unterminated string", span=span(j - i)), j - i)
                col += j - i
                i = j
                continue
            push("STRING", text[i + 1 : j], span(j - i + 1))
            col += j - i + 1
            i = j + 1
            continue
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            push("NAT", text[i:j], span(j - i))
            col += j - i
            i = j
            continue
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word == "Sigma":
                push("SIGMA", word, span(j - i))
            elif word in _KEYWORDS:
                push(word.upper(), word, span(j - i))
            else:
                push("IDENT", word, span(j - i))
            col += j - i
            i = j
            continue
        bad(IllegalCharacter(f"illegal character {c!r}", span=span(1)), 1)
        i += 1
        col += 1
    tokens.append(Token("EOF", "", Span(filename, line, col, line, col)))
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
    name_span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class DDef(Declaration):
    name: str
    type: SExpr
    body: SExpr
    name_span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class DRewrite(Declaration):
    telescope: tuple[tuple[str, SExpr, Span], ...]
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
    name_span: Span = field(compare=False)


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

    def peek(self, offset: int = 0) -> Token:
        k = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[k]

    def next(self) -> Token:
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
                span=t.span,
            )
        return self.next()

    def join(self, start: Span, end: Span) -> Span:
        return Span(start.file, start.line, start.col, end.end_line, end.end_col)

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
                    "declaration nests too deeply to parse", span=self.tokens[start].span
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
                start = self.next().span
                term = self.expr()
                self.expect("COLON", "':'")
                ty = self.expr()
                return DCheck(self.join(start, ty.span), term, ty)
            case "FAIL":
                start = self.next().span
                code = self.expect("IDENT", "an error code")
                if code.text not in ERROR_CODES:
                    raise ParseError(
                        f"unknown error code `{code.text}`", span=code.span
                    )
                inner = self.declaration()
                return DFail(self.join(start, inner.span), code.text, inner)
            case "NORM":
                start = self.next().span
                lhs = self.expr()
                self.expect("EQUALS", "'='")
                rhs = self.expr()
                return DNorm(self.join(start, rhs.span), lhs, rhs)
            case "ENTAIL":
                start = self.next().span
                name = self.expect("IDENT", "a name")
                self.expect("COLON", "':'")
                hyp = self.expr()
                self.expect("DARROW", "'=>'")
                concl = self.expr()
                self.expect("EQUALS", "'='")
                wit = self.expr()
                return DEntail(
                    self.join(start, wit.span), name.text, hyp, concl, wit, name.span
                )
            case "IMPORT":
                start = self.next().span
                path = self.expect("STRING", "a quoted file path")
                return DImport(self.join(start, path.span), path.text)
            case _:
                raise ParseError(
                    f"expected a declaration, found {t.text!r}"
                    if t.text
                    else "expected a declaration, found end of file",
                    span=t.span,
                )

    def axiom_decl(self, primitive: bool) -> Declaration:
        start = self.next().span
        name = self.expect("IDENT", "a name")
        self.expect("COLON", "':'")
        ty = self.expr()
        return DAxiom(self.join(start, ty.span), name.text, ty, primitive, name.span)

    def def_decl(self) -> Declaration:
        start = self.next().span
        name = self.expect("IDENT", "a name")
        self.expect("COLON", "':'")
        ty = self.expr()
        self.expect("EQUALS", "'='")
        body = self.expr()
        return DDef(self.join(start, body.span), name.text, ty, body, name.span)

    def rewrite_decl(self) -> Declaration:
        start = self.next().span
        telescope: list[tuple[str, SExpr, Span]] = []
        while self.at("LPAREN") and self.looks_like_group():
            self.next()
            names: list[Token] = [self.expect("IDENT", "a pattern variable")]
            while self.at("IDENT"):
                names.append(self.next())
            self.expect("COLON", "':'")
            ty = self.expr()
            self.expect("RPAREN", "')'")
            for nm in names:
                telescope.append((nm.text, ty, nm.span))
        if self.at("COLON"):
            self.next()
        lhs = self.expr()
        self.expect("EQUALS", "'='")
        rhs = self.expr()
        return DRewrite(self.join(start, rhs.span), tuple(telescope), lhs, rhs)

    # - expressions -

    def expr(self) -> SExpr:
        t = self.peek()
        if t.kind == "LAMBDA":
            self.next()
            binders = [self.expect("IDENT", "a binder")]
            while self.at("IDENT"):
                binders.append(self.next())
            self.expect("DOT", "'.'")
            body = self.expr()
            out = body
            for b in reversed(binders):
                out = SLambda(self.join(t.span, body.span), b.text, out)
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
            return SSigma(self.join(t.span, second.span), binder.text, first, second)
        groups = self.binder_groups()
        if groups:
            self.expect("ARROW", "'->'")
            body = self.expr()
            out = body
            for names, ty, implicit, gspan in reversed(groups):
                for nm in reversed(names):
                    out = SPi(self.join(gspan, body.span), nm, implicit, ty, out)
            return out
        left = self.sum_expr()
        if self.at("ARROW"):
            self.next()
            right = self.expr()
            return SPi(self.join(left.span, right.span), None, False, left, right)
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
            end = self.expect(close, "')'" if close == "RPAREN" else "'}'")
            groups.append((names, ty, implicit, self.join(t.span, end.span)))
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
            sp = self.join(left.span, right.span)
            left = SApp(sp, SApp(sp, SName(op.span, name), left, False), right, False)
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
                head = SApp(self.join(head.span, arg.span), head, arg, False)
            elif t.kind == "LBRACE":
                self.next()
                arg = self.expr()
                end = self.expect("RBRACE", "'}'")
                head = SApp(self.join(head.span, end.span), head, arg, True)
            else:
                return head

    def atom(self) -> SExpr:
        t = self.next()
        match t.kind:
            case "IDENT":
                return SName(t.span, t.text)
            case "NAT":
                return SNat(t.span, int(t.text))
            case "HOLE":
                return SHole(t.span)
            case "TYPE":
                return SUniverse(t.span, 0)
            case "TYPE1":
                return SUniverse(t.span, 1)
            case "FST":
                return SProj(t.span, "fst")
            case "SND":
                return SProj(t.span, "snd")
            case "LPAREN":
                parts = [self.expr()]
                while self.at("COMMA"):
                    self.next()
                    parts.append(self.expr())
                end = self.expect("RPAREN", "')'")
                out = parts[-1]
                for p in reversed(parts[:-1]):
                    out = SPair(self.join(t.span, end.span), p, out)
                return out
            case _:
                raise ParseError(
                    f"expected an expression, found {t.text!r}"
                    if t.text
                    else "expected an expression, found end of file",
                    span=t.span,
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
        raise ParseError("expression nests too deeply to parse", span=tokens[0].span) from None
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError(
            f"unexpected {trailing.text!r} after expression", span=trailing.span
        )
    return out
