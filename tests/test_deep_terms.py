"""Walks over deep terms return instead of exhausting Python's stack."""

from __future__ import annotations

import pytest

from telic.errors import UnsolvedMeta
from telic.kernel import Kernel
from telic.terms import Const, Lambda, Meta, Pi, Var, free_meta_ids, scope_ok

DEPTH = 5000


def deep_chain(leaf=Var(0)):
    """``leaf`` under DEPTH binders, alternating Lambda and Pi."""
    t = leaf
    for i in range(DEPTH):
        t = Lambda(t) if i % 2 else Pi(Const("Nat"), t)
    return t


def test_walks_return_on_deep_terms():
    closed = deep_chain()
    assert scope_ok(closed)
    assert not scope_ok(deep_chain(Var(DEPTH)))
    assert free_meta_ids(closed) == set()
    assert Kernel().assert_closed(closed) is closed


def test_assert_closed_finds_a_deep_hole():
    with pytest.raises(UnsolvedMeta):
        Kernel().assert_closed(deep_chain(Meta(7)))
