"""Signature rollback, and restricted types written before they are checked."""

from __future__ import annotations

import pytest

from telic.kernel import Kernel, PRIMITIVE
from telic.terms import Const, NatLit, Pi, Universe

NAT = Const("Nat")


def test_restore_drops_exactly_what_followed_the_snapshot():
    k = Kernel()
    k.declare_axiom("Nat", Universe(0), kind=PRIMITIVE)
    k.declare_axiom("f", Pi(NAT, NAT))
    k.declare_axiom("a", NAT)
    k.declare_rewrite((), Const("f", (NatLit(0),)), NatLit(1))
    entries = list(k.sig.entries.items())
    rules = {head: list(rs) for head, rs in k.sig.rules_by_head.items()}
    snap = k.sig.snapshot()
    k.declare_axiom("g", Pi(NAT, NAT))
    k.declare_axiom("b", NAT)
    k.declare_rewrite((), Const("f", (NatLit(1),)), NatLit(2))
    k.declare_rewrite((), Const("g", (NatLit(0),)), NatLit(0))
    k.sig.restore(snap)
    assert list(k.sig.entries.items()) == entries
    assert k.sig.rules_by_head == rules


@pytest.mark.parametrize(
    "text",
    [
        """
postulate cat : NP U
postulate P : El_NP cat -> Prop
postulate Q : El_NP (SigmaNP cat P) -> Prop
""",
        """
postulate e : Evt U act_star und_star
postulate R : El_Evt e -> Prop
postulate S : El_Evt (SigmaEvt e R) -> Prop
""",
    ],
    ids=["SigmaNP", "SigmaEvt"],
)
def test_restriction_written_as_a_type_solves_its_implicits(loaded_processor, text):
    reports = loaded_processor.process_text(text, "<restriction>")
    assert [r.render() for r in reports if not r.ok] == []
