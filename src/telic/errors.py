"""Error hierarchy.

Every user-visible failure carries a stable ``code`` string; the surface
language's ``fail`` declarations match on these codes, so the set below is a
closed enumeration as far as `.tel` files are concerned.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
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


class KernelError(TelicError):
    pass


class UnboundVariable(KernelError):
    code = "UnboundVariable"


class UnknownConstant(KernelError):
    code = "UnknownConstant"


class NotAFunction(KernelError):
    code = "NotAFunction"


class NotAPair(KernelError):
    code = "NotAPair"


class UniverseMismatch(KernelError):
    code = "UniverseMismatch"


class UnsolvedMeta(KernelError):
    code = "UnsolvedMeta"


class TypeMismatch(KernelError):
    code = "TypeMismatch"


class CannotInfer(KernelError):
    code = "CannotInfer"


class FuelExhausted(KernelError):
    code = "FuelExhausted"


class DuplicateName(KernelError):
    code = "DuplicateName"


class RewriteHeadIsDefinition(KernelError):
    code = "RewriteHeadIsDefinition"


class NonlinearPattern(KernelError):
    code = "NonlinearPattern"


class RewriteTypeMismatch(KernelError):
    code = "RewriteTypeMismatch"


class InvalidRewrite(KernelError):
    code = "InvalidRewrite"


class DepthExceeded(KernelError):
    """A term nests deeper than the checker's recursion can follow."""

    code = "DepthExceeded"


ERROR_CODES: tuple[str, ...] = (
    "ParseError",
    "IllegalCharacter",
    "UnboundVariable",
    "UnknownConstant",
    "NotAFunction",
    "NotAPair",
    "UniverseMismatch",
    "UnsolvedMeta",
    "TypeMismatch",
    "CannotInfer",
    "FuelExhausted",
    "DuplicateName",
    "RewriteHeadIsDefinition",
    "NonlinearPattern",
    "RewriteTypeMismatch",
    "InvalidRewrite",
    "DepthExceeded",
)
