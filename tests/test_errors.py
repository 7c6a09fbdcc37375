"""The error codes: each written once, on its class, and listed in
``ERROR_CODES`` in the order the classes are defined."""

from __future__ import annotations

import ast
import inspect

from telic import errors
from telic.errors import ERROR_CODES, TelicError


def test_error_codes_are_the_codes_each_class_sets_itself_in_order():
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, TelicError) and c is not TelicError
    ]
    assert all("code" in c.__dict__ for c in classes)
    written = [
        stmt.value.value
        for node in ast.parse(inspect.getsource(errors)).body
        if isinstance(node, ast.ClassDef) and node.name != "TelicError"
        for stmt in node.body
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["code"]
    ]
    assert isinstance(ERROR_CODES, tuple)
    assert list(ERROR_CODES) == [c.code for c in classes] == written
    assert len(set(ERROR_CODES)) == len(ERROR_CODES)


def test_error_codes_keep_their_order():
    assert ERROR_CODES == (
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
