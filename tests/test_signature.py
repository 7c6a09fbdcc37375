"""Signature and processor rollback, and restricted types written before they are checked."""

from __future__ import annotations

import pytest

from telic.elaborate import Processor
from telic.kernel import Kernel
from telic.terms import Const, NatLit, Pi, Universe

NAT = Const("Nat")


def test_restore_drops_exactly_what_followed_the_snapshot():
    k = Kernel()
    k.declare_axiom("Nat", Universe(0))
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


# --- processor rollback ----------------------------------------------------

_BASE = "primitive Nat : Type\npostulate f : Nat -> Nat\nrewrite (n : Nat) : f n = n\n"

_TEXT = (
    'postulate g : Nat -> Nat\n'
    'rewrite (n : Nat) : f (g n) = n\n'
    'rewrite (n : Nat) : g n = n\n'
    'import "lib.tel"\n'
)


def _state(proc):
    sig = proc.kernel.sig
    return (
        list(sig.entries),
        {head: list(rs) for head, rs in sig.rules_by_head.items()},
        set(proc._loaded),
    )


def _base(tmp_path):
    (tmp_path / "lib.tel").write_text("postulate fromLib : Nat\n")
    (tmp_path / "base.tel").write_text(_BASE)
    base = Processor(Kernel(fuel=1234))
    assert all(r.ok for r in base.process_path(tmp_path / "base.tel"))
    return base


def test_rollback_discards_declarations_rules_and_imports(tmp_path):
    base = _base(tmp_path)
    before = _state(base)
    with base.rollback():
        assert all(r.ok for r in base.process_text(_TEXT, "<trial>", base=tmp_path))
        entries, rules, loaded = _state(base)
        assert entries == before[0] + ["g", "fromLib"]
        assert [len(rules["f"]), len(rules["g"])] == [2, 1]
        assert str((tmp_path / "lib.tel").resolve()) in loaded
    assert _state(base) == before
    assert base.kernel.fuel_limit == 1234


def test_successive_rollbacks_each_start_from_the_base(tmp_path):
    base = _base(tmp_path)
    before = _state(base)
    for label in ("<first>", "<second>"):
        # The same names and the same import go through again without a clash.
        with base.rollback():
            reports = base.process_text(_TEXT, label, base=tmp_path)
        assert [r.render() for r in reports if not r.ok] == []
        assert [r.kind for r in reports] == ["postulate", "rewrite", "rewrite", "postulate", "import"]
        assert _state(base) == before


def test_rollback_restores_when_the_body_raises(tmp_path):
    base = _base(tmp_path)
    before = _state(base)
    with pytest.raises(RuntimeError):
        with base.rollback():
            base.process_text(_TEXT, "<trial>", base=tmp_path)
            raise RuntimeError("body failed")
    assert _state(base) == before
