"""The two term traversals: binder depths, callbacks and visiting order."""

from __future__ import annotations

from telic.terms import App, Const, Lambda, Meta, NatLit, Pi, Sigma, Var, map_term, subterms


def test_map_term_passes_binder_depth_to_var():
    t = Pi(Var(0), Lambda(App(Var(1), Var(3))))
    seen = []

    def record(i, d):
        seen.append((i, d))
        return Var(i)

    # under two lambdas, every depth starts at 2
    assert map_term(Lambda(Lambda(t)), record) == Lambda(Lambda(t))
    assert seen == [(0, 2), (1, 4), (3, 4)]


def test_map_term_rebuilds_metas_through_the_callback():
    t = Sigma(Meta(4, (Var(0),)), Meta(5, (Var(0), Var(1))))
    out = map_term(t, lambda i, d: Var(i + 10), meta=lambda m, sp: Const(f"m{m}", sp))
    assert out == Sigma(Const("m4", (Var(10),)), Const("m5", (Var(10), Var(11))))


def test_subterms_yields_every_node_with_its_depth():
    t = App(Lambda(Var(0)), Const("f", (NatLit(1),)))
    assert list(subterms(t, 1)) == [
        (t, 1),
        (Lambda(Var(0)), 1),
        (Var(0), 2),
        (Const("f", (NatLit(1),)), 1),
        (NatLit(1), 1),
    ]
