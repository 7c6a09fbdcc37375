"""Hole solving and conversion paths the corpus and the other tests never
reach: a hole applied to arguments on the right of a conversion, one hole
met twice, application against application, holes under ``infer`` and
``check``, and a neutral application under ``normalize``.

Each test builds a scratch signature with ``Nat``, ``plus`` and
``f : Nat -> Nat`` and talks to the kernel directly, except the last, which
reaches the hole paths that lexicon text can reach through a processor.
"""

from __future__ import annotations

import pytest

from telic.elaborate import Processor
from telic.errors import CannotInfer, TypeMismatch, UnsolvedMeta
from telic.kernel import Kernel
from telic.terms import (
    App,
    Const,
    EMPTY_CONTEXT,
    Fst,
    Lambda,
    Meta,
    NatLit,
    Pair,
    Pi,
    Universe,
    Var,
)

NAT = Const("Nat")


@pytest.fixture
def k() -> Kernel:
    kernel = Kernel()
    kernel.declare_axiom("Nat", Universe(0))
    kernel.declare_axiom("plus", Pi(NAT, Pi(NAT, NAT)))
    kernel.declare_axiom("f", Pi(NAT, NAT))
    return kernel


def f(arg):
    return Const("f", (arg,))


def plus(a, b):
    return Const("plus", (a, b))


# --- a hole applied to arguments, on the right ----------------------------------


def test_applied_hole_on_the_right_solves_as_a_function(k):
    m = k.hole(0)
    assert k.convertible(f(Var(0)), App(m, Var(0)))
    assert k.metas[m.id].solution == Lambda(f(Var(0)), None)
    assert k.whnf(App(m, Var(0))) == f(Var(0))


def test_applied_hole_on_the_right_needs_variable_arguments(k):
    m = k.hole(0)
    assert not k.convertible(f(NatLit(1)), App(m, NatLit(1)))
    assert k.metas[m.id].solution is None


# --- one hole met twice -----------------------------------------------------------


def test_one_hole_with_different_spines_is_not_first_order(k):
    m = k.hole(2)
    assert m.spine == (Var(1), Var(0))
    with pytest.raises(
        UnsolvedMeta,
        match=r"^cannot reconcile two uses of hole \?0; the solution is not first-order$",
    ):
        k.convertible(m, Meta(m.id, (Var(0), Var(1))))


def test_one_hole_with_convertible_spines_is_convertible(k):
    m = k.hole(2)
    assert k.convertible(m, Meta(m.id, (Var(1), Fst(Pair(Var(0), NatLit(0))))))
    assert k.metas[m.id].solution is None


# --- application against application ------------------------------------------------


def test_neutral_applications_compare_function_and_argument(k):
    assert k.convertible(App(Var(0), plus(NatLit(1), NatLit(1))), App(Var(0), NatLit(2)))
    assert not k.convertible(App(Var(0), NatLit(1)), App(Var(1), NatLit(1)))


# --- holes under infer and check -------------------------------------------------------


def test_checked_hole_remembers_its_type(k):
    m = k.hole(0)
    k.check(EMPTY_CONTEXT, m, NAT)
    assert k.infer(EMPTY_CONTEXT, m) == NAT
    with pytest.raises(
        TypeMismatch, match=r"^hole expects type `Nat` but `Type` is required$"
    ):
        k.check(EMPTY_CONTEXT, m, Universe(0))


def test_unconstrained_hole_cannot_be_inferred(k):
    with pytest.raises(CannotInfer, match="unconstrained hole"):
        k.infer(EMPTY_CONTEXT, k.hole(0))


def test_solved_hole_checks_as_its_solution(k):
    m = k.hole(0)
    assert k.convertible(m, NatLit(3))
    k.check(EMPTY_CONTEXT, m, NAT)
    with pytest.raises(
        TypeMismatch, match=r"^term has type `Nat` but `Type` was expected$"
    ):
        k.check(EMPTY_CONTEXT, m, Universe(0))


# --- normalize under a neutral application ---------------------------------------------


def test_normalize_reduces_the_argument_of_a_neutral_application(k):
    t = Lambda(App(Var(0), plus(NatLit(1), NatLit(1))), "x")
    assert k.normalize(t) == Lambda(App(Var(0), NatLit(2)), "x")


# --- the same paths from lexicon text ----------------------------------------------

LEXICON = """postulate A : Type
postulate a : A
postulate P : A -> Type
postulate p : P a
postulate g : A -> A -> A
postulate h : A -> A
postulate k : (x : A) -> P x -> A -> A
postulate id : {T : Type} -> T -> T
"""


@pytest.mark.parametrize(
    "decl, code, message",
    [
        # the hole of `id`'s type argument is all there is to check against
        (
            "check id (\\x. x) : A",
            "UnsolvedMeta",
            "checking a function against an unsolved hole; annotate the type",
        ),
        (
            "check id (a , a) : A",
            "UnsolvedMeta",
            "checking a pair against an unsolved hole; annotate the type",
        ),
        # beta copies the hole, so the second copy is checked against the
        # type the first gave it, and nothing solves it
        ("check (\\x. g x x) (h _) : A", "UnsolvedMeta", "1 unsolved hole(s) remain; first is ?0 : A"),
        # `p` solves the hole before the copy in `(\y. y) x` is inferred
        ("check (\\x. k x p ((\\y. y) x)) _ : A", None, None),
        # `T`'s type is a hole standing for a type, so the hole is itself a
        # `Type`; using `T` as a type would need it to be `Type`, which is
        # a `Type1`, so nothing solves it
        (
            "postulate f : (T : _) -> T -> T",
            "UniverseMismatch",
            "expected a type, found a term of type `?0 : Type`",
        ),
    ],
)
def test_hole_paths_from_lexicon_text(decl, code, message):
    proc = Processor()
    reports = proc.process_text(LEXICON + decl)
    assert all(r.ok for r in reports[:-1])
    assert (reports[-1].code, reports[-1].message) == (code, message)


# --- a hole's solution has the hole's type ------------------------------------------

SMALL = """primitive Nat : Type
postulate id : (A : Type) -> A -> A
"""

TYPE1_IS_NOT_TYPE = "term has type `Type1` but `Type` was expected"


@pytest.mark.parametrize(
    "decl, twin, code, message",
    [
        # the hole has `id`'s domain, `Type`, as its type, so `Type` cannot
        # solve it, just as it cannot be written there
        (
            "check id _ : Type -> Type",
            "check id Type : Type -> Type",
            "TypeMismatch",
            TYPE1_IS_NOT_TYPE,
        ),
        # the binder's domain is a hole of type `Type`, which no universe
        # solves, so `T` is no type; written out, the domain makes the
        # whole a `Type1`
        (
            "check ((T : _) -> T -> T) : Type",
            "check ((T : Type) -> T -> T) : Type",
            "UniverseMismatch",
            "expected a type, found a term of type `?0 : Type`",
        ),
        (
            "def Poly : Type = (T : _) -> T -> T",
            "def Poly : Type = (T : Type) -> T -> T",
            "UniverseMismatch",
            "expected a type, found a term of type `?0 : Type`",
        ),
    ],
)
def test_a_hole_cannot_let_type1_pass_as_type(decl, twin, code, message):
    *ok, hole = Processor().process_text(SMALL + decl)
    *twin_ok, annotated = Processor().process_text(SMALL + twin)
    assert all(r.ok for r in ok + twin_ok)
    assert (hole.code, hole.message) == (code, message)
    assert (annotated.code, annotated.message) == ("TypeMismatch", TYPE1_IS_NOT_TYPE)


def test_a_hole_takes_a_solution_of_its_type():
    *_, report = Processor().process_text(SMALL + "postulate n : Nat\ncheck id _ n : Nat")
    assert report.ok
