"""``map_term`` and the operations built on it share what they leave unchanged."""

from __future__ import annotations

from telic.kernel import Kernel
from telic.terms import App, Const, Lambda, Meta, Pair, Pi, Sigma, Var, map_term, shift, subst_many


def test_shift_of_a_closed_prelude_type_is_the_same_object(loaded_processor):
    for name in ("SigmaNP", "SigmaEvt", "oplus", "CulOrAtel", "Cul"):
        ty = loaded_processor.kernel.sig.entries[name].type
        assert shift(ty, 1) is ty, name


def test_subst_many_of_a_closed_term_is_the_same_object(loaded_processor):
    body = loaded_processor.kernel.sig.entries["Cul"].body
    assert subst_many(body, [Const("B"), Var(3)]) is body
    t = Lambda(Pi(Var(0), Sigma(Var(1), Var(2))))
    assert subst_many(t, (Var(7),)) is t


def test_zonk_of_a_meta_free_term_is_the_same_object(loaded_processor):
    k = loaded_processor.kernel
    ty = k.sig.entries["SigmaEvt"].type
    assert k.zonk(ty) is ty
    open_term = App(Var(2), Pair(Var(0), Const("B")))
    assert k.zonk(open_term) is open_term


def test_unsolved_metas_survive_zonk_unrebuilt():
    k = Kernel()
    hole = k.hole(2)
    t = Pi(hole, App(Var(0), Const("B")))
    assert k.zonk(t) is t


def test_map_term_keeps_a_variable_when_the_callback_returns_none():
    t = Pi(Var(0), Lambda(App(Var(1), Const("f", (Var(3), Meta(1, (Var(0),)))))))
    assert map_term(t, lambda i, d: None) is t
    assert map_term(t, lambda i, d: None, meta=lambda m, sp: None) is t


def test_only_the_path_to_a_changed_variable_is_rebuilt():
    left = Sigma(Const("A"), Pair(Var(0), Const("a0")), "x")
    right = Lambda(App(Var(0), Const("a1")), "y")
    t = Pair(left, App(right, Var(0)))
    out = shift(t, 1)
    assert out == Pair(left, App(right, Var(1)))
    assert out is not t
    assert out.first is left  # no free variable
    assert out.second.fn is right  # its variables are bound
    # a binder whose body changes keeps its untouched sibling
    pi = Pi(Const("Nat", ()), App(Var(3), Const("k")), "n")
    moved = subst_many(Lambda(Lambda(pi)), (Const("c"),)).body.body
    assert moved == Pi(Const("Nat"), App(Const("c"), Const("k")))
    assert moved.domain is pi.domain
    assert moved.codomain.arg is pi.codomain.arg
