"""Kernel behavior: reduction, conversion, typing, rewrite rules, and holes.

Every test builds its own scratch signature through the kernel API (or, for
the typing of rewrite rules, a bare Processor), except the two that reduce
the eliminators whose computation rules the prelude declares.
"""

from __future__ import annotations

import pytest

from telic.errors import (
    CannotInfer,
    DuplicateName,
    FuelExhausted,
    InvalidRewrite,
    NotAFunction,
    NotAPair,
    RewriteHeadIsDefinition,
    RewriteTypeMismatch,
    Span,
    TypeMismatch,
    UnboundVariable,
    UniverseMismatch,
    UnknownConstant,
    UnsolvedMeta,
)
from telic import kernel as kernel_module
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
    Sigma,
    Snd,
    Universe,
    Var,
    ctx_extend,
    subterms,
)

NAT = Const("Nat")


def nat_kernel() -> Kernel:
    """A kernel that can talk about natural numbers and a few helpers."""
    k = Kernel()
    k.declare_axiom("Nat", Universe(0))
    k.declare_axiom("plus", Pi(NAT, Pi(NAT, NAT)))
    k.declare_axiom("g", Pi(NAT, NAT))
    k.declare_axiom("k0", NAT)
    k.declare_axiom("sp", Sigma(NAT, NAT))
    return k


# --- weak head reduction --------------------------------------------------------


def test_whnf_beta():
    k = Kernel()
    assert k.whnf(App(Lambda(Var(0)), NatLit(2))) == NatLit(2)


def test_whnf_projections():
    k = Kernel()
    p = Pair(NatLit(1), NatLit(2))
    assert k.whnf(Fst(p)) == NatLit(1)
    assert k.whnf(Snd(p)) == NatLit(2)


def test_whnf_collects_apps_onto_constants():
    k = nat_kernel()
    t = App(App(Const("plus"), NatLit(1)), Const("k0"))
    assert k.whnf(t) == Const("plus", (NatLit(1), Const("k0")))


def test_whnf_primitive_addition():
    k = Kernel()
    assert k.whnf(Const("plus", (NatLit(2), NatLit(3)))) == NatLit(5)
    nested = Const("plus", (Const("plus", (NatLit(1), NatLit(1))), NatLit(2)))
    assert k.whnf(nested) == NatLit(4)


def test_whnf_addition_stuck_on_neutral():
    k = nat_kernel()
    t = Const("plus", (Const("k0"), NatLit(1)))
    out = k.whnf(t)
    assert isinstance(out, Const) and out.name == "plus"


def test_whnf_boundedness_eliminator(loaded_processor):
    k = loaded_processor.kernel
    c, cb, cu = Const("C"), Const("cb"), Const("cu")
    assert k.whnf(Const("BdElim", (c, cb, cu, Const("B")))) == cb
    assert k.whnf(Const("BdElim", (c, cb, cu, Const("U")))) == cu
    applied = Const("BdElim", (c, cb, cu, Const("B"), NatLit(9)))
    assert k.whnf(applied) == Const("cb", (NatLit(9),))


def test_whnf_identity_eliminator(loaded_processor):
    k = loaded_processor.kernel
    args = (Const("A"), Const("a"), Const("motive"), Const("base"), Const("a"),
            Const("refl", (Const("A"), Const("a"))))
    assert k.whnf(Const("J", args)) == Const("base")


def test_eliminators_of_a_bare_signature_stay_neutral(bare_processor):
    # Only `plus` computes by its name: constants that merely share the
    # prelude eliminators' names reduce by no rule of their own.
    text = (
        "primitive Nat : Type\n"
        "postulate refl : Nat\n"
        "postulate J : Nat -> Nat -> Nat -> Nat -> Nat -> Nat -> Nat\n"
        "norm J 1 2 3 4 5 refl = J 1 2 3 4 5 refl\n"
        "postulate Bd : Type\n"
        "postulate B : Bd\n"
        "postulate BdElim : Nat -> Type -> Nat -> Bd -> Nat\n"
        "norm BdElim 0 Nat 0 B = BdElim 0 Nat 0 B\n"
    )
    reports = bare_processor.process_text(text, "bare.tel")
    assert [r.render() for r in reports if not r.ok] == []
    assert len(reports) == 8


def test_whnf_unfolds_definitions_only_when_asked():
    k = nat_kernel()
    k.declare_definition("three", NAT, NatLit(3))
    assert k.whnf(Const("three")) == NatLit(3)
    assert k.whnf(Const("three"), unfold=False) == Const("three")


def test_normalize_keeps_definitions_folded_under_neutral_heads():
    k = nat_kernel()
    k.declare_definition("three", NAT, NatLit(3))
    assert k.normalize(Const("three")) == NatLit(3)
    # Below a stuck head the folded name is the better display form.
    assert k.normalize(Const("g", (Const("three"),))) == Const("g", (Const("three"),))


def test_fuel_exhaustion():
    k = Kernel(fuel=40)
    k.declare_axiom("Nat", Universe(0))
    k.declare_axiom("loop", Pi(NAT, NAT))
    k.declare_rewrite((("n", NAT),), Const("loop", (Var(0),)), Const("loop", (Var(0),)))
    k.begin()
    with pytest.raises(FuelExhausted):
        k.whnf(Const("loop", (NatLit(0),)))
    assert k._steps == 41


def test_a_growing_loop_exhausts_its_fuel():
    # `grow n = grow (succ n)`: each firing's target is one `succ` deeper.
    # Comparing a firing with its target by identity stays cheap; `==`
    # would recurse through the chain and end in a depth error.
    k = Kernel(fuel=5000)
    k.declare_axiom("Nat", Universe(0))
    k.declare_axiom("succ", Pi(NAT, NAT))
    k.declare_axiom("grow", Pi(NAT, NAT))
    k.declare_rewrite(
        (("n", NAT),),
        Const("grow", (Var(0),)),
        Const("grow", (Const("succ", (Var(0),)),)),
    )
    k.begin()
    with pytest.raises(FuelExhausted):
        k.whnf(Const("grow", (NatLit(0),)))
    assert k._steps == 5001


def test_a_type_whose_normal_form_runs_out_of_fuel_is_shown_as_it_stands(bare_processor):
    # The terms match no rule and are not equal, so the mismatch is found
    # at once; only the message's normal form of `F (loop 0)` never ends.
    text = (
        "primitive Nat : Type\npostulate A : Type\npostulate a : A\n"
        "postulate F : Nat -> Type\npostulate loop : Nat -> Nat\n"
        "rewrite (n : Nat) : loop n = loop n\ncheck a : F (loop 0)\n"
    )
    report = bare_processor.process_text(text)[-1]
    assert (report.code, report.message) == (
        "TypeMismatch",
        "term has type `A` but `F (loop 0)` was expected",
    )


# --- rewrite rules ---------------------------------------------------------------


def test_rewrite_fires_and_substitutes():
    k = nat_kernel()
    k.declare_axiom("f", Pi(NAT, NAT))
    k.declare_rewrite(
        (("n", NAT),),
        Const("f", (Var(0),)),
        Const("plus", (Var(0), NatLit(1))),
    )
    assert k.whnf(Const("f", (NatLit(4),))) == NatLit(5)


def test_rewrite_earlier_rule_wins():
    k = nat_kernel()
    k.declare_axiom("f", Pi(NAT, NAT))
    k.declare_rewrite((("n", NAT),), Const("f", (Var(0),)), NatLit(1))
    k.declare_rewrite((("n", NAT),), Const("f", (Var(0),)), NatLit(2))
    assert k.whnf(Const("f", (NatLit(0),))) == NatLit(1)


def test_rewrite_literal_pattern():
    k = nat_kernel()
    k.declare_axiom("f", Pi(NAT, NAT))
    k.declare_rewrite((), Const("f", (NatLit(0),)), NatLit(9))
    assert k.whnf(Const("f", (NatLit(0),))) == NatLit(9)
    out = k.whnf(Const("f", (NatLit(1),)))
    assert out == Const("f", (NatLit(1),))


def test_rewrite_pair_pattern_matches_literal_pairs_only():
    k = nat_kernel()
    k.declare_axiom("f", Pi(Sigma(NAT, NAT), NAT))
    k.declare_rewrite(
        (("a", NAT), ("b", NAT)),
        Const("f", (Pair(Var(1), Var(0)),)),
        Const("plus", (Var(1), Var(0))),
    )
    assert k.whnf(Const("f", (Pair(NatLit(2), NatLit(3)),))) == NatLit(5)
    stuck = k.whnf(Const("f", (Const("sp"),)))
    assert stuck == Const("f", (Const("sp"),))


def test_rewrite_repeated_variable_compiles_to_forced_match():
    # The surface language rejects nonlinear rules; at the kernel level a
    # repeat is a forced position that matches anything.
    k = nat_kernel()
    k.declare_axiom("f", Pi(NAT, Pi(NAT, NAT)))
    k.declare_rewrite(
        (("n", NAT),),
        Const("f", (Var(0), Var(0))),
        Var(0),
    )
    assert k.whnf(Const("f", (NatLit(1), NatLit(2)))) == NatLit(1)


def test_rewrite_rigid_subpattern():
    k = nat_kernel()
    k.declare_axiom("wrap", Pi(NAT, NAT))
    k.declare_axiom("f", Pi(NAT, NAT))
    k.declare_rewrite(
        (("n", NAT),),
        Const("f", (Const("wrap", (Var(0),)),)),
        Var(0),
    )
    assert k.whnf(Const("f", (Const("wrap", (NatLit(7),)),))) == NatLit(7)
    # The argument is reduced before matching against a rigid pattern.
    redex = App(Lambda(Const("wrap", (Var(0),))), NatLit(8))
    assert k.whnf(Const("f", (redex,))) == NatLit(8)


def test_rewrite_unbound_slot_rejected():
    k = nat_kernel()
    k.declare_axiom("f", Pi(NAT, NAT))
    with pytest.raises(InvalidRewrite):
        k.declare_rewrite(
            (("n", NAT), ("m", NAT)),
            Const("f", (Var(0),)),
            Var(0),
        )


def test_rewrite_head_must_be_constant_application():
    k = nat_kernel()
    with pytest.raises(InvalidRewrite):
        k.declare_rewrite((("n", NAT),), Var(0), Var(0))
    with pytest.raises(InvalidRewrite):
        k.declare_rewrite((), Const("g"), NatLit(0))


def test_rewrite_head_must_exist():
    k = nat_kernel()
    with pytest.raises(UnknownConstant):
        k.declare_rewrite((), Const("nope", (NatLit(0),)), NatLit(0))


def test_rewrite_head_cannot_be_definition():
    k = nat_kernel()
    k.declare_definition("d", Pi(NAT, NAT), Lambda(Var(0)))
    with pytest.raises(RewriteHeadIsDefinition):
        k.declare_rewrite((("n", NAT),), Const("d", (Var(0),)), Var(0))


def test_rewrite_rhs_must_preserve_type(bare_processor):
    # `declare_rewrite` stores an already-checked rule; the typing of its
    # sides happens where the processor elaborates them.
    text = "primitive Nat : Type\npostulate f : Nat -> Nat\nrewrite (n : Nat) : f n = Type\n"
    reports = bare_processor.process_text(text, "rewrite.tel")
    assert [r.status for r in reports] == ["ok", "ok", "error"]
    assert reports[-1].code == RewriteTypeMismatch.code


def test_rewrite_mentioning_a_definition_is_rejected(bare_processor):
    # Matching unfolds `d` in every target, so `f d` could never match.
    text = (
        "postulate T : Type\npostulate c : T\ndef d : T = c\n"
        "primitive Nat : Type\npostulate f : T -> Nat\n"
        "fail InvalidRewrite rewrite : f d = 1\n"
    )
    reports = bare_processor.process_text(text, "dead.tel")
    assert [r.render() for r in reports if not r.ok] == []
    k = bare_processor.kernel
    with pytest.raises(InvalidRewrite) as info:
        k.declare_rewrite((), Const("f", (Const("d"),)), NatLit(1))
    assert info.value.message == (
        "left-hand side mentions the definition `d`, which matching unfolds, "
        "so the rule could never fire"
    )


def test_rewrite_lambda_pattern_rejected():
    k = nat_kernel()
    k.declare_axiom("f", Pi(Pi(NAT, NAT), NAT))
    with pytest.raises(InvalidRewrite):
        k.declare_rewrite((), Const("f", (Lambda(Var(0)),)), NatLit(0))


def matching_kernel() -> Kernel:
    """``wrap, loop : Nat -> Nat`` and ``f, g : Nat -> Nat -> Nat``, with the
    diverging rule ``loop n = loop n`` and a budget of 1000 steps."""
    k = Kernel(fuel=1000)
    k.declare_axiom("Nat", Universe(0))
    for name in ("wrap", "loop"):
        k.declare_axiom(name, Pi(NAT, NAT))
    for name in ("f", "g"):
        k.declare_axiom(name, Pi(NAT, Pi(NAT, NAT)))
    k.declare_rewrite((("n", NAT),), Const("loop", (Var(0),)), Const("loop", (Var(0),)))
    return k


def test_repeated_variable_after_its_binding_is_not_reduced():
    # f (wrap n) n = n: the second `n` is forced, so `loop 0` is never
    # touched; one step each for the term, `wrap 7` and the literal.
    k = matching_kernel()
    wrapped = Const("wrap", (Var(0),))
    k.declare_rewrite((("n", NAT),), Const("f", (wrapped, Var(0))), Var(0))
    k.begin()
    term = Const("f", (Const("wrap", (NatLit(7),)), Const("loop", (NatLit(0),))))
    assert k.whnf(term) == NatLit(7)
    assert k._steps == 3


def test_binding_variable_is_not_reduced():
    # g n (wrap n) = 0: the first `n` binds `loop 0` without reducing it.
    k = matching_kernel()
    wrapped = Const("wrap", (Var(0),))
    k.declare_rewrite((("n", NAT),), Const("g", (Var(0), wrapped)), NatLit(0))
    k.begin()
    term = Const("g", (Const("loop", (NatLit(0),)), Const("wrap", (NatLit(5),))))
    assert k.whnf(term) == NatLit(0)
    assert k._steps == 3


ONLY_PATTERNS = (
    "left-hand side patterns may only contain constants, pattern variables, "
    "pairs, and numeric literals"
)
FOREIGN = "left-hand side mentions a foreign variable"
N, M = ("n", NAT), ("m", NAT)


@pytest.mark.parametrize(
    "telescope, args, message",
    [
        ((N,), (Lambda(Var(0)), Var(5)), ONLY_PATTERNS),
        ((N,), (Var(5), Lambda(Var(0))), FOREIGN),
        ((N, M), (Var(0), NatLit(1)), "pattern variable(s) n never occur on the left-hand side"),
        ((N,), (App(Var(0), Var(0)), NatLit(1)), ONLY_PATTERNS),
        ((N,), (Universe(0), Var(0)), ONLY_PATTERNS),
        ((N,), (Pair(Var(0), Var(3)), NatLit(1)), FOREIGN),
    ],
    ids=["lambda", "foreign-first", "unbound", "application", "universe", "foreign-in-pair"],
)
def test_rewrite_left_hand_side_rejections(telescope, args, message):
    k = matching_kernel()
    with pytest.raises(InvalidRewrite) as info:
        k.declare_rewrite(telescope, Const("f", args), NatLit(0))
    assert info.value.message == message


UNBOUND = "internal: unbound variable escaped elaboration"


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda k: ((("n", NAT),), Var(7)), UnboundVariable, UNBOUND),
        (lambda k: ((("n", NAT),), k.hole(0)), UnsolvedMeta, "internal: holes [0] escaped solving"),
        (lambda k: ((("n", k.hole(0)),), Var(0)), UnsolvedMeta, "internal: holes [0] escaped solving"),
        (lambda k: ((("n", Var(0)),), Var(0)), UnboundVariable, UNBOUND),
    ],
    ids=["rhs-foreign-variable", "rhs-hole", "telescope-hole", "telescope-foreign-variable"],
)
def test_rewrite_telescope_and_rhs_must_be_closed(make, error, message):
    k = nat_kernel()
    telescope, rhs = make(k)
    with pytest.raises(error) as info:
        k.declare_rewrite(telescope, Const("g", (Var(0),)), rhs)
    assert info.value.message == message
    assert "g" not in k.sig.rules_by_head


# --- eta and conversion ----------------------------------------------------------


def test_eta_for_functions():
    k = nat_kernel()
    expanded = Lambda(Const("g", (Var(0),)))
    assert k.convertible(Const("g"), expanded)
    assert k.convertible(expanded, Const("g"))
    constant_body = Lambda(Const("g", (NatLit(0),)))
    assert not k.convertible(Const("g"), constant_body)


def test_eta_for_pairs():
    k = nat_kernel()
    split = Pair(Fst(Const("sp")), Snd(Const("sp")))
    assert k.convertible(Const("sp"), split)
    assert k.convertible(split, Const("sp"))
    assert not k.convertible(Const("sp"), Pair(Fst(Const("sp")), NatLit(0)))


def test_conversion_through_reduction():
    k = nat_kernel()
    assert k.convertible(
        Const("plus", (NatLit(2), NatLit(2))),
        App(Lambda(Var(0)), NatLit(4)),
    )
    assert not k.convertible(NatLit(4), NatLit(5))


# --- universes --------------------------------------------------------------------


def test_universe_ordering():
    k = Kernel()
    assert k.infer(EMPTY_CONTEXT, Universe(0)) == Universe(1)
    with pytest.raises(UniverseMismatch):
        k.infer(EMPTY_CONTEXT, Universe(1))


def test_function_space_levels():
    k = nat_kernel()
    assert k.check_is_type(EMPTY_CONTEXT, Pi(NAT, NAT)) == 0
    assert k.check_is_type(EMPTY_CONTEXT, Pi(Universe(0), Var(0))) == 1
    assert k.check_is_type(EMPTY_CONTEXT, Sigma(Universe(0), Universe(0))) == 1


def test_no_cumulativity():
    k = nat_kernel()
    with pytest.raises(TypeMismatch):
        k.check(EMPTY_CONTEXT, NAT, Universe(1))


# --- inference and checking --------------------------------------------------------


def test_infer_constant_application():
    k = nat_kernel()
    assert k.infer(EMPTY_CONTEXT, Const("g", (NatLit(1),))) == NAT
    with pytest.raises(NotAFunction):
        k.infer(EMPTY_CONTEXT, Const("k0", (NatLit(1),)))


def test_constant_application_costs_one_step_per_pi():
    k = nat_kernel()
    k.declare_axiom("f3", Pi(NAT, Pi(NAT, Pi(NAT, NAT))))
    k.declare_definition("F", Universe(0), Pi(NAT, Pi(NAT, NAT)))
    k.declare_axiom("h", Pi(NAT, Const("F")))
    k.begin()
    assert k.infer(EMPTY_CONTEXT, Const("f3", (NatLit(0),) * 3)) == NAT
    assert k._steps == 3
    # the codomain `F` costs its unfolding as well as its Pi
    k.begin()
    assert k.infer(EMPTY_CONTEXT, Const("h", (NatLit(0),) * 3)) == NAT
    assert k._steps == 4
    k.begin()
    with pytest.raises(NotAFunction, match="`h` is over-applied: `Nat`"):
        k.infer(EMPTY_CONTEXT, Const("h", (NatLit(0),) * 4))
    k.fuel_limit = 3
    k.begin()
    with pytest.raises(FuelExhausted):
        k.infer(EMPTY_CONTEXT, Const("h", (NatLit(0),) * 3))


def test_spine_typing_substitutes_linearly(bare_processor, monkeypatch):
    """Typing `f 0 … 0` instantiates f's type once, not once per argument."""
    n = 200
    arrows = " -> ".join(["Nat"] * (n + 1))
    setup = bare_processor.process_text(f"primitive Nat : Type\npostulate f : {arrows}\n", "<sig>")
    assert all(r.ok for r in setup)
    walked = [0]

    def counting(fn):
        def run(t, *rest):
            walked[0] += sum(1 for _ in subterms(t))
            return fn(t, *rest)
        return run

    monkeypatch.setattr(kernel_module, "subst", counting(kernel_module.subst))
    monkeypatch.setattr(kernel_module, "subst_many", counting(kernel_module.subst_many))
    (report,) = bare_processor.process_text(f"check f{' 0' * n} : Nat\n", "<app>")
    assert report.ok, report.render()
    assert 0 < walked[0] <= 4 * n


def test_infer_reduces_redex_heads():
    k = nat_kernel()
    assert k.infer(EMPTY_CONTEXT, App(Lambda(Var(0)), NatLit(2))) == NAT
    assert k.infer(EMPTY_CONTEXT, Fst(Pair(NatLit(1), Const("k0")))) == NAT
    assert k.infer(EMPTY_CONTEXT, Snd(Pair(Const("k0"), NatLit(1)))) == NAT


def test_infer_projections_of_neutral_pairs():
    k = nat_kernel()
    assert k.infer(EMPTY_CONTEXT, Fst(Const("sp"))) == NAT
    assert k.infer(EMPTY_CONTEXT, Snd(Const("sp"))) == NAT
    with pytest.raises(NotAPair):
        k.infer(EMPTY_CONTEXT, Fst(Const("k0")))


def test_bare_binders_cannot_be_inferred():
    k = nat_kernel()
    with pytest.raises(CannotInfer):
        k.infer(EMPTY_CONTEXT, Lambda(Var(0)))
    with pytest.raises(CannotInfer):
        k.infer(EMPTY_CONTEXT, Pair(NatLit(1), NatLit(2)))


def test_a_variable_beyond_the_context_is_unbound():
    # The elaborator makes only bound variables; a caller of the kernel may not.
    k = nat_kernel()
    ctx = ctx_extend(EMPTY_CONTEXT, "n", NAT)
    assert k.infer(ctx, Var(0)) == NAT
    for i in (1, -1):
        with pytest.raises(UnboundVariable, match=f"^variable index {i} exceeds context depth 1$"):
            k.infer(ctx, Var(i))


def test_check_lambda_and_pair():
    k = nat_kernel()
    k.check(EMPTY_CONTEXT, Lambda(Var(0)), Pi(NAT, NAT))
    k.check(EMPTY_CONTEXT, Pair(NatLit(1), NatLit(2)), Sigma(NAT, NAT))
    with pytest.raises(TypeMismatch):
        k.check(EMPTY_CONTEXT, Lambda(Var(0)), NAT)
    with pytest.raises(TypeMismatch):
        k.check(EMPTY_CONTEXT, Pair(NatLit(1), NatLit(2)), NAT)


def test_literals_require_a_nat_entry():
    k = Kernel()
    with pytest.raises(UnknownConstant):
        k.infer(EMPTY_CONTEXT, NatLit(3))
    with pytest.raises(UnknownConstant):
        k.infer(EMPTY_CONTEXT, Const("nowhere"))


def test_subject_reduction_sample():
    k = nat_kernel()
    t = App(Lambda(Const("g", (Var(0),))), NatLit(3))
    assert k.convertible(k.infer(EMPTY_CONTEXT, t), k.infer(EMPTY_CONTEXT, k.whnf(t)))


def test_duplicate_names_rejected():
    k = nat_kernel()
    with pytest.raises(DuplicateName):
        k.declare_axiom("g", NAT)


def test_assert_closed():
    k = Kernel()
    with pytest.raises(UnsolvedMeta):
        k.assert_closed(k.hole(0))
    with pytest.raises(UnboundVariable):
        k.assert_closed(Var(0))
    assert k.assert_closed(NatLit(1)) == NatLit(1)
    assert k.assert_closed(Lambda(Var(1)), 1) == Lambda(Var(1))
    with pytest.raises(UnboundVariable):
        k.assert_closed(Lambda(Var(1)))
    # a term with both: the holes are reported, not the variable
    with pytest.raises(UnsolvedMeta, match=r"holes \[3, 5\] escaped"):
        k.assert_closed(Const("f", (Var(0), Meta(5), Lambda(Meta(3)))))


# --- metavariables ------------------------------------------------------------------


def test_meta_solves_by_unification():
    k = nat_kernel()
    m = k.hole(0)
    assert k._unify(m, NatLit(3))
    assert k.zonk(m) == NatLit(3)
    # closing returns the terms it is given, holes filled in, and no more
    assert k.close(None) == []
    filled = [Pi(NatLit(3), Const("g", (NatLit(3),))), NAT]
    assert k.close(None, Pi(m, Const("g", (m,))), NAT) == filled


def test_meta_occurs_check():
    k = nat_kernel()
    m = k.hole(0)
    with pytest.raises(UnsolvedMeta):
        k._unify(m, Const("g", (m,)))


def test_meta_scope_check():
    k = nat_kernel()
    m = k.hole(0)
    with pytest.raises(UnsolvedMeta):
        k._unify(m, Var(0))


def test_meta_spine_inversion():
    k = nat_kernel()
    m = k.hole(2)
    assert m == Meta(0, (Var(1), Var(0)))
    assert k._unify(m, Const("pairup", (Var(0), Var(1))))
    out = k.zonk(Meta(0, (NatLit(1), NatLit(2))))
    assert out == Const("pairup", (NatLit(2), NatLit(1)))


def test_meta_repeated_spine_rejected():
    k = nat_kernel()
    k.hole(2)
    bad = Meta(0, (Var(0), Var(0)))
    with pytest.raises(UnsolvedMeta):
        k._unify(bad, NatLit(1))


def test_meta_applied_to_variable_solves_as_function():
    k = nat_kernel()
    m = k.hole(0)
    assert k._unify(App(m, Var(0)), Const("g", (Var(0),)))
    applied = k.whnf(k.zonk(App(m, NatLit(7))))
    assert applied == Const("g", (NatLit(7),))


def test_meta_applied_to_non_variable_does_not_solve():
    k = nat_kernel()
    m = k.hole(0)
    assert not k._unify(App(m, NatLit(1)), Const("g", (NatLit(1),)))


def test_close_reports_the_first_pending_hole():
    k = nat_kernel()
    given, own = Span("a.tel", 1, 1), Span("a.tel", 2, 5)
    first = k.hole(0)
    k.check(EMPTY_CONTEXT, k.hole(0, own), NAT)
    # the first pending hole has no span, so the error takes the given one
    with pytest.raises(UnsolvedMeta, match=r"^2 unsolved hole\(s\) remain; first is \?0$") as info:
        k.close(given, NAT)
    assert info.value.span == given
    assert k._unify(first, NatLit(1))
    with pytest.raises(
        UnsolvedMeta, match=r"^1 unsolved hole\(s\) remain; first is \?1 : Nat$"
    ) as info:
        k.close(given)
    assert info.value.span == own


def test_closing_a_declaration_without_holes_returns_its_terms_themselves():
    k = nat_kernel()
    t = Pi(NAT, Const("g", (Var(0),)))
    k.begin()
    (out,) = k.close(None, t)
    assert out is t
    # one with a solved hole still comes back with the solution filled in
    k.begin()
    m = k.hole(0)
    assert k._unify(m, NatLit(3))
    (out,) = k.close(None, Const("g", (m,)))
    assert out == Const("g", (NatLit(3),))


def test_a_literal_has_the_kernels_one_nat():
    k = nat_kernel()
    assert k.infer(EMPTY_CONTEXT, NatLit(1)) is k.consts["Nat"]
    assert k.infer(EMPTY_CONTEXT, NatLit(2)) is k.consts["Nat"]


# --- one table over the twelve term classes ---------------------------------------

N_CTX = ctx_extend(EMPTY_CONTEXT, "n", NAT)

# (term, its inferred type or the error inferring it raises, a type it checks
# against or None, its normal form), in the context `n : Nat`; hole ?0 is
# fresh and its type is not yet known
EACH_CLASS = {
    "Var": (Var(0), NAT, NAT, Var(0)),
    "Const": (Const("g", (Var(0),)), NAT, NAT, Const("g", (Var(0),))),
    "Universe": (Universe(0), Universe(1), Universe(1), Universe(0)),
    "Universe1": (Universe(1), (UniverseMismatch, "^Type1 itself has no type$"), None, Universe(1)),
    "Pi": (Pi(NAT, NAT), Universe(0), Universe(0), Pi(NAT, NAT)),
    "Lambda": (
        Lambda(Const("g", (Var(0),))),
        (CannotInfer, "^cannot infer the type of an unannotated function$"),
        Pi(NAT, NAT),
        Lambda(Const("g", (Var(0),))),
    ),
    "App": (App(Lambda(Var(0)), Var(0)), NAT, NAT, Var(0)),
    "Sigma": (Sigma(NAT, NAT), Universe(0), Universe(0), Sigma(NAT, NAT)),
    "Pair": (
        Pair(NatLit(1), Var(0)),
        (CannotInfer, "^cannot infer the type of a bare pair$"),
        Sigma(NAT, NAT),
        Pair(NatLit(1), Var(0)),
    ),
    "Fst": (Fst(Const("sp")), NAT, NAT, Fst(Const("sp"))),
    "Snd": (Snd(Pair(NatLit(1), Var(0))), NAT, NAT, Var(0)),
    "NatLit": (NatLit(5), NAT, NAT, NatLit(5)),
    "Meta": (
        Meta(0, (Var(0),)),
        (CannotInfer, "^cannot infer the type of an unconstrained hole$"),
        NAT,
        Meta(0, (Var(0),)),
    ),
}


@pytest.mark.parametrize("name", EACH_CLASS)
def test_each_term_class_infers_checks_and_normalizes(name):
    term, inferred, expected, normal = EACH_CLASS[name]
    k = nat_kernel()
    k.hole(1)
    if isinstance(inferred, tuple):
        error, message = inferred
        with pytest.raises(error, match=message):
            k.infer(N_CTX, term)
    else:
        assert k.infer(N_CTX, term) == inferred
    if expected is not None:
        k.check(N_CTX, term, expected)
    assert k.normalize(term) == normal


# what checking each class against `Nat` or a universe it does not have raises
CHECK_ERRORS = {
    "Lambda": (Lambda(Var(0)), NAT, TypeMismatch, "^a function cannot have type `Nat`$"),
    "Pair": (Pair(NatLit(1), NatLit(2)), NAT, TypeMismatch, "^a pair cannot have type `Nat`$"),
    "Const": (
        Const("k0"), Universe(0), TypeMismatch, "^term has type `Nat` but `Type` was expected$"
    ),
    "Universe": (
        Universe(0), Universe(0), TypeMismatch, "^term has type `Type1` but `Type` was expected$"
    ),
    "Meta": (Meta(0), Universe(0), TypeMismatch, "^hole expects type `Nat` but `Type` is required$"),
}


@pytest.mark.parametrize("name", CHECK_ERRORS)
def test_each_term_class_reports_its_own_check_error(name):
    term, expected, error, message = CHECK_ERRORS[name]
    k = nat_kernel()
    k.check(EMPTY_CONTEXT, k.hole(0), NAT)
    with pytest.raises(error, match=message):
        k.check(EMPTY_CONTEXT, term, expected)
