"""The constructor contract of the twelve term classes.

Each class is a frozen slotted class that ``terms._term_classes`` builds
from its constructor signature. These tests pin what callers rely on: the
field order and defaults, argument errors, immutability, hint-insensitive
equality and hashing, copying and pickling, and ``match`` class patterns.
The ``dataclasses`` API does not apply to terms: fields are read by name or
through ``__match_args__``, and a term with a field replaced is built anew.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from telic import terms
from telic.terms import (
    App,
    Const,
    Fst,
    Lambda,
    Meta,
    NatLit,
    Pair,
    Pi,
    Sigma,
    Snd,
    Term,
    Universe,
    Var,
)

_MISSING = object()
A, B = Const("a"), Const("b", (NatLit(1),))

# class -> ((field, example value, default or _MISSING), ...) in field order
CONTRACT = {
    Var: (("index", 3, _MISSING),),
    Const: (("name", "k", _MISSING), ("args", (A, B), ())),
    Universe: (("level", 1, _MISSING),),
    Pi: (("domain", A, _MISSING), ("codomain", B, _MISSING), ("hint", "x", None)),
    Lambda: (("body", B, _MISSING), ("hint", "y", None)),
    App: (("fn", A, _MISSING), ("arg", B, _MISSING)),
    Sigma: (("first", A, _MISSING), ("second", B, _MISSING), ("hint", "p", None)),
    Pair: (("first", A, _MISSING), ("second", B, _MISSING)),
    Fst: (("pair", A, _MISSING),),
    Snd: (("pair", B, _MISSING),),
    NatLit: (("value", 7, _MISSING),),
    Meta: (("id", 2, _MISSING), ("spine", (Var(0), Var(1)), ())),
}
CLASSES = list(CONTRACT)


def example(cls):
    return [value for _, value, _ in CONTRACT[cls]]


def required(cls):
    return [value for _, value, default in CONTRACT[cls] if default is _MISSING]


def replace(t, **changes):
    """``t`` with the fields named in ``changes`` replaced."""
    return type(t)(**{name: changes.get(name, getattr(t, name)) for name in t.__match_args__})


def different(value):
    """A value of the same kind that is not equal to ``value``."""
    if isinstance(value, (int, str)):
        return value + (1 if isinstance(value, int) else "2")
    if isinstance(value, tuple):
        return value[:-1]
    return Const("c") if value != Const("c") else Const("d")


def test_every_term_class_is_covered():
    defined = {v for v in vars(terms).values() if isinstance(v, type) and issubclass(v, Term)}
    assert defined - {Term} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_signature_follows_the_dataclass_fields(cls):
    names = [name for name, _, _ in CONTRACT[cls]]
    assert cls.__match_args__ == tuple(names)
    assert cls.__slots__ == tuple(names)
    assert not hasattr(cls(*example(cls)), "__dict__")
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == names
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    for p, (_, _, default) in zip(params, CONTRACT[cls]):
        assert p.default == (inspect.Parameter.empty if default is _MISSING else default)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_keyword_and_default_construction(cls):
    spec = CONTRACT[cls]
    positional = cls(*example(cls))
    keyword = cls(**{name: value for name, value, _ in spec})
    for t in (positional, keyword):
        assert [getattr(t, name) for name, _, _ in spec] == example(cls)
    fields = ", ".join(f"{name}={value!r}" for name, value, _ in spec)
    assert repr(positional) == repr(keyword) == f"{cls.__name__}({fields})"
    defaulted = cls(*required(cls))
    for name, value, default in spec:
        assert getattr(defaulted, name) == (value if default is _MISSING else default)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_argument_errors(cls):
    needed = required(cls)
    with pytest.raises(TypeError):
        cls(*needed[:-1])  # missing
    with pytest.raises(TypeError):
        cls(*example(cls), A)  # extra
    with pytest.raises(TypeError):
        cls(*needed, bogus=A)  # unknown
    first = CONTRACT[cls][0][0]
    with pytest.raises(TypeError):
        cls(*needed, **{first: needed[0]})  # given twice


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    t = cls(*example(cls))
    for name in [*cls.__match_args__, "bogus"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(t, name, A)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(t, name)
    assert [getattr(t, name) for name, _, _ in CONTRACT[cls]] == example(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_ignore_hints(cls):
    t, same = cls(*example(cls)), cls(*example(cls))
    assert t == same and hash(t) == hash(same)
    for i, (name, value, _) in enumerate(CONTRACT[cls]):
        values = example(cls)
        values[i] = different(value)
        changed = cls(*values)
        if name == "hint":
            assert changed == t and hash(changed) == hash(t)
            assert repr(changed) != repr(t)
        else:
            assert changed != t


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_replace_copy_and_pickle_round_trip(cls):
    t = cls(*example(cls))
    for twin in (
        replace(t),
        copy.copy(t),
        copy.deepcopy(t),
        pickle.loads(pickle.dumps(t)),
    ):
        assert type(twin) is cls and twin == t and repr(twin) == repr(t)
    for name, value, _ in CONTRACT[cls]:
        changed = replace(t, **{name: different(value)})
        assert getattr(changed, name) == different(value)
        assert getattr(t, name) == value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_match_class_patterns(cls):
    t = cls(*example(cls))
    n = len(CONTRACT[cls])
    match t:
        case cls(a) if n == 1:
            got = [a]
        case cls(a, b) if n == 2:
            got = [a, b]
        case cls(a, b, c) if n == 3:
            got = [a, b, c]
        case _:
            got = None
    assert got == example(cls)
    other = next(c for c in CLASSES if c is not cls)
    match t:
        case other():
            raise AssertionError(f"{t!r} matched {other.__name__}")
