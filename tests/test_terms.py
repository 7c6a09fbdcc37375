"""De Bruijn operations: hand-computed oracles plus algebraic laws."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from telic.terms import (
    App,
    Const,
    ContextEntry,
    Fst,
    Lambda,
    Meta,
    NatLit,
    Pair,
    Pi,
    Sigma,
    Snd,
    Universe,
    Var,
    ctx_extend,
    ctx_lookup,
    free_meta_ids,
    nat_digits,
    nat_of_digits,
    scope_ok,
    shift,
    subst,
    subst_many,
)


def _under(k: int, t):
    """``t`` under ``k`` lambdas, whose variables are its indices below ``k``."""
    for _ in range(k):
        t = Lambda(t)
    return t


# --- hand-computed oracles ----------------------------------------------------


def test_shift_leaves_bound_variables_alone():
    t = Lambda(App(Var(0), Var(1)))
    assert shift(t, 2) == Lambda(App(Var(0), Var(3)))


def test_shift_respects_cutoff():
    # under two binders, Var(0) and Var(1) are bound
    t = _under(2, App(Var(0), App(Var(1), Var(2))))
    assert shift(t, 5) == _under(2, App(Var(0), App(Var(1), Var(7))))


def test_shift_by_zero_is_identity_object():
    t = Pi(Universe(0), Var(0))
    assert shift(t, 0) is t


def test_subst_at_zero():
    t = App(Var(0), Const("k"))
    assert subst(t, NatLit(7)) == App(NatLit(7), Const("k"))


def test_subst_renumbers_higher_variables():
    t = Lambda(App(Var(0), App(Var(1), Var(2))))
    assert subst(t, Const("a")) == Lambda(App(Var(0), App(Const("a"), Var(1))))


def test_subst_shifts_replacement_under_binder():
    # The replacement mentions an ambient variable; entering the lambda
    # must bump it past the binder rather than capture it.
    t = Lambda(Var(1))
    assert subst(t, Var(0)) == Lambda(Var(1))
    t2 = Lambda(App(Var(0), Var(1)))
    assert subst(t2, Var(3)) == Lambda(App(Var(0), Var(4)))


def test_subst_many_block():
    t = App(Var(0), App(Var(1), Var(2)))
    out = subst_many(t, (Const("a"), Const("b")))
    assert out == App(Const("a"), App(Const("b"), Var(0)))


def test_subst_many_below_depth_untouched():
    t = Lambda(App(Var(0), Var(1)))
    out = subst_many(t, (Const("a"),))
    assert out == Lambda(App(Var(0), Const("a")))


def test_ctx_lookup_shifts_into_full_context():
    ctx = ctx_extend((), "A", Universe(0))
    ctx = ctx_extend(ctx, "x", Var(0))
    # The type of Var(0) ("x") must point at "A" across its own binder.
    assert ctx_lookup(ctx, 0) == Var(1)
    assert ctx_lookup(ctx, 1) == Universe(0)


def test_equality_ignores_hints():
    assert Pi(Universe(0), Var(0), "x") == Pi(Universe(0), Var(0), "y")
    assert Lambda(Var(0), "a") == Lambda(Var(0), "b")
    assert Sigma(Universe(0), Var(0), "p") == Sigma(Universe(0), Var(0), None)
    assert Lambda(Var(0)) != Lambda(Var(1))


def test_scope_ok():
    assert scope_ok(Lambda(Var(0)))
    assert not scope_ok(Lambda(Var(1)))
    assert scope_ok(Lambda(Var(1)), 1)
    assert scope_ok(Pi(Universe(0), Var(0)))
    assert not scope_ok(Pi(Var(0), Var(0)))


def test_free_meta_ids():
    t = App(Meta(3, (Var(0),)), Const("f", (Const("g"), Meta(5))))
    assert free_meta_ids(t) == {3, 5}


def test_context_entry_fields():
    e = ContextEntry("x", Universe(0))
    assert e.hint == "x" and e.type == Universe(0)


# --- randomized laws ----------------------------------------------------------


def _terms(max_free: int = 3) -> st.SearchStrategy:
    base = st.one_of(
        st.integers(min_value=0, max_value=max_free - 1).map(Var),
        st.sampled_from([Universe(0), Universe(1)]),
        st.integers(min_value=0, max_value=9).map(NatLit),
        st.sampled_from(["c0", "c1"]).map(lambda n: Const(n)),
    )

    def compound(sub: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(
            st.tuples(sub, sub).map(lambda p: App(p[0], p[1])),
            st.tuples(sub, sub).map(lambda p: Pi(p[0], p[1])),
            sub.map(Lambda),
            st.tuples(sub, sub).map(lambda p: Sigma(p[0], p[1])),
            st.tuples(sub, sub).map(lambda p: Pair(p[0], p[1])),
            sub.map(Fst),
            sub.map(Snd),
            st.lists(sub, max_size=3).map(lambda a: Const("f", tuple(a))),
            st.lists(sub, max_size=2).map(lambda a: Meta(0, tuple(a))),
        )

    return st.recursive(base, compound, max_leaves=25)


@settings(max_examples=300)
@given(t=_terms(), u=_terms(), k=st.integers(min_value=0, max_value=3))
def test_subst_cancels_shift(t, u, k):
    # under k binders both skip the bound variables; the substitution
    # takes the first free one, which the shift left unused
    t = _under(k, t)
    assert subst(shift(t, 1), u) == t


@settings(max_examples=300)
@given(
    t=_terms(),
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
    c=st.integers(min_value=0, max_value=2),
)
def test_shift_composes(t, a, b, c):
    t = _under(c, t)
    assert shift(shift(t, a), b) == shift(t, a + b)


@settings(max_examples=300)
@given(t=_terms(), n=st.integers(min_value=0, max_value=4))
def test_shift_preserves_scope(t, n):
    depth = 10
    assert scope_ok(t, depth)
    assert scope_ok(shift(t, n), depth + n)


@settings(max_examples=300)
@given(t=_terms(), u=_terms(max_free=1))
def test_subst_consumes_one_binder(t, u):
    # t lives at depth 10, u at depth 9; substituting for Var(0) must
    # land back at depth 9 with nothing dangling.
    assert scope_ok(subst(t, u), 9)


@settings(max_examples=300)
@given(t=_terms())
def test_subst_many_agrees_with_iterated_subst(t):
    env = (Const("a"), Const("b"))
    # Simultaneous substitution of a closed block equals substituting
    # one variable at a time, Var(0) first.
    assert subst_many(t, env) == subst(subst(t, Const("a")), Const("b"))


def _horner(digits: str) -> int:
    """The value of ``digits`` one digit at a time, under CPython's limit
    on converting long text to int."""
    value = 0
    for c in digits:
        value = value * 10 + ord(c) - ord("0")
    return value


# 256 digits convert in one call, longer numerals in blocks; CPython
# converts at most 4,300 digits to or from text at once
@pytest.mark.parametrize("n", [1, 255, 256, 257, 512, 513, 4300, 4301, 9000])
def test_numerals_round_trip_at_the_chunk_boundaries(n):
    rng = random.Random(n)
    random_digits = rng.choice("123456789") + "".join(rng.choice("0123456789") for _ in range(n - 1))
    for digits in ("9" * n, "1" + "0" * (n - 1), random_digits):
        value = _horner(digits)
        assert nat_of_digits(digits) == value
        assert nat_digits(value) == digits
        assert nat_of_digits("0" * n + digits) == value  # leading zeros


def test_all_zero_numerals_read_as_zero():
    for n in (1, 256, 257, 4301):
        assert nat_of_digits("0" * n) == 0
    assert nat_of_digits("0" * 4300 + "7") == 7
    assert nat_digits(0) == "0"
