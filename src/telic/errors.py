"""Error hierarchy, and the source positions errors and reports carry.

Every user-visible failure carries a stable ``code`` string; the surface
language's ``fail`` declarations match on these codes, so the set below is a
closed enumeration as far as `.tel` files are concerned. A ``Span`` is a
named tuple ``(file, line, col)``.
"""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """Where a token, expression or declaration starts: the position that
    reports print as ``file:line:col``."""

    file: str
    line: int  # 1-based
    col: int  # 1-based, counted in characters

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class TelicError(Exception):
    """Base for all checker errors; ``code`` is the fail-class name."""

    code = "Error"

    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def with_span(self, span: Span | None) -> "TelicError":
        if self.span is None and span is not None:
            self.span = span
        return self


class ParseError(TelicError):
    code = "ParseError"


class IllegalCharacter(ParseError):
    code = "IllegalCharacter"


class UnboundVariable(TelicError):
    code = "UnboundVariable"


class UnknownConstant(TelicError):
    code = "UnknownConstant"


class NotAFunction(TelicError):
    code = "NotAFunction"


class NotAPair(TelicError):
    code = "NotAPair"


class UniverseMismatch(TelicError):
    code = "UniverseMismatch"


class UnsolvedMeta(TelicError):
    code = "UnsolvedMeta"


class TypeMismatch(TelicError):
    code = "TypeMismatch"


class CannotInfer(TelicError):
    code = "CannotInfer"


class FuelExhausted(TelicError):
    code = "FuelExhausted"


class DuplicateName(TelicError):
    code = "DuplicateName"


class RewriteHeadIsDefinition(TelicError):
    code = "RewriteHeadIsDefinition"


class NonlinearPattern(TelicError):
    code = "NonlinearPattern"


class RewriteTypeMismatch(TelicError):
    code = "RewriteTypeMismatch"


class InvalidRewrite(TelicError):
    code = "InvalidRewrite"


class DepthExceeded(TelicError):
    """A term nests deeper than the checker's recursion can follow."""

    code = "DepthExceeded"


# the codes above, in definition order
ERROR_CODES: tuple[str, ...] = tuple(
    c.code
    for c in globals().values()
    if isinstance(c, type) and issubclass(c, TelicError) and c is not TelicError
)
