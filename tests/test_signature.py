"""Signature rollback and forks, and restricted types written before they are checked."""

from __future__ import annotations

import pytest

from telic.elaborate import Processor
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


# --- forks -------------------------------------------------------------------

_BASE = "primitive Nat : Type\npostulate f : Nat -> Nat\nrewrite (n : Nat) : f n = n\n"


def _state(proc):
    sig = proc.kernel.sig
    return (
        list(sig.entries),
        {head: list(rs) for head, rs in sig.rules_by_head.items()},
        set(proc._loaded),
    )


def test_fork_is_isolated_from_its_base_and_its_siblings(tmp_path):
    (tmp_path / "lib.tel").write_text("postulate fromLib : Nat\n")
    (tmp_path / "base.tel").write_text(_BASE)
    base = Processor(Kernel(fuel=1234))
    assert all(r.ok for r in base.process_path(tmp_path / "base.tel"))
    before = _state(base)
    a, b = base.fork(), base.fork()
    assert _state(a) == _state(b) == before
    assert a.kernel.fuel_limit == b.kernel.fuel_limit == 1234

    text = (
        'postulate g : Nat -> Nat\n'
        'rewrite (n : Nat) : f (g n) = n\n'
        'rewrite (n : Nat) : g n = n\n'
        'import "lib.tel"\n'
    )
    assert all(r.ok for r in a.process_text(text, "<fork>", base=tmp_path))
    entries, rules, loaded = _state(a)
    assert entries == before[0] + ["g", "fromLib"]
    assert [len(rules["f"]), len(rules["g"])] == [2, 1]
    assert str((tmp_path / "lib.tel").resolve()) in loaded
    assert _state(base) == _state(b) == before
    # The sibling can add the same names without a clash.
    assert all(r.ok for r in b.process_text(text, "<sibling>", base=tmp_path))
    assert _state(base) == before

