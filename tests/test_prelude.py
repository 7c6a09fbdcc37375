"""The built-in signature: catalog integrity and the self-check audit."""

from __future__ import annotations

from telic.elaborate import Processor
from telic.prelude import load_prelude, prelude_path, prelude_self_check
from telic.terms import Const, NatLit, Universe, Var

# The full catalog, frozen. Adding, removing, or renaming an entry is a
# deliberate act and must update this list.
CATALOG = (
    "Act", "AmountOf", "Atel", "AtelFull", "Atel_A", "Atel_Und", "B", "Bd",
    "BdElim", "Cul", "CulFull", "CulOrAtel", "Cul_A", "Cul_Und", "Degree",
    "El_Evt", "El_EvtA", "El_EvtUnd", "El_IA", "El_NP", "El_NPfull",
    "El_State", "El_isA", "Entity", "Evt", "EvtAmtIsNP", "EvtEntIsNP",
    "EvtFull", "Evt_A", "Evt_Und", "IANPIsNP", "IARespectsIsA", "Id",
    "IntAdj", "J", "Lift_NP", "NP", "NPIsOneNP", "NPfull", "Nat", "Occ",
    "OneNPIsNP", "Prf", "Prop", "Result", "SigmaEvt", "SigmaIsCount",
    "SigmaNP", "State", "Tel", "TelFull", "Tel_A", "Tel_Und", "U", "Und",
    "UndFull", "Units", "act_Entity", "act_NP", "act_star", "funext", "irr",
    "isA", "isArefl", "isAtrans", "isCount", "isCul", "nu", "oplus",
    "oplusPreservesIA", "plus", "quantity", "refl", "several", "und_Entity",
    "und_NP", "und_star",
)

RULE_HEADS = {"J": 1, "BdElim": 2, "El_NP": 2, "Prf": 1, "El_Evt": 1, "CulOrAtel": 2}


def test_prelude_loads_cleanly():
    proc, reports = load_prelude()
    assert all(r.ok for r in reports), [r.render() for r in reports if not r.ok]
    assert len(reports) == 86


def test_catalog_is_exactly_as_frozen(loaded_processor):
    assert tuple(sorted(loaded_processor.kernel.sig.entries)) == CATALOG


def test_rewrite_rules_by_head(loaded_processor):
    rules = loaded_processor.kernel.sig.rules_by_head
    assert {h: len(rs) for h, rs in rules.items()} == RULE_HEADS


def test_entry_kind_counts():
    _, reports = load_prelude()
    kinds = [r.kind for r in reports]
    assert kinds.count("primitive") == 9
    assert kinds.count("postulate") == 45
    assert kinds.count("def") == 23


def test_self_check_audits_every_entry_and_rule():
    results = prelude_self_check(load_prelude())
    assert len(results) == len(CATALOG) + sum(RULE_HEADS.values())
    bad = [c.render() for c in results if not c.ok]
    assert not bad, bad


def test_self_check_catches_an_ill_typed_stored_definition():
    # `declare_definition` stores what it is given; the audit re-checks it.
    proc, reports = load_prelude()
    proc.kernel.declare_definition("bad", Const("Nat"), Universe(0))
    failed = [c.render() for c in prelude_self_check((proc, reports)) if not c.ok]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL entry bad: [TypeMismatch]")


def test_self_check_catches_an_ill_formed_rule_telescope(bare_processor):
    # A rule over a telescope slot whose type is not a type still fires and
    # converts; only the audit's check of the telescope rejects it.
    reports = bare_processor.process_text("primitive Nat : Type\npostulate f : Nat -> Nat\n")
    bare_processor.kernel.declare_rewrite(
        (("n", NatLit(5)),), Const("f", (Var(0),)), Var(0)
    )
    failed = [c.render() for c in prelude_self_check((bare_processor, reports)) if not c.ok]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL rule f #0: [UniverseMismatch]")


def test_self_check_catches_a_rule_that_never_fires_and_one_that_is_shadowed(bare_processor):
    # Matching reduces `g x` to `c` before it compares it with `f (g x)`'s
    # pattern, and `h`'s first rule always fires before its second.
    text = (
        "postulate A : Type\npostulate c : A\npostulate d : A\n"
        "postulate f : A -> A\npostulate g : A -> A\npostulate h : A -> A\n"
        "rewrite (x : A) : g x = c\nrewrite (x : A) : f (g x) = d\n"
        "rewrite (x : A) : h x = c\nrewrite (x : A) : h x = d\n"
    )
    reports = bare_processor.process_text(text)
    assert all(r.ok for r in reports)
    failed = [c.render() for c in prelude_self_check((bare_processor, reports)) if not c.ok]
    assert failed == [
        "FAIL rule f #0: rule does not fire on a fresh instance",
        "FAIL rule h #1: fired instance differs from right-hand side",
    ]


def test_loading_twice_is_deterministic():
    _, first = load_prelude()
    _, second = load_prelude()
    assert [r.render() for r in first] == [r.render() for r in second]


def test_prelude_path_override(tmp_path, monkeypatch):
    alt = tmp_path / "tiny.tel"
    alt.write_text("primitive Nat : Type\n")
    monkeypatch.setenv("TELIC_PRELUDE", str(alt))
    assert prelude_path() == alt
    proc, reports = load_prelude()
    assert [r.ok for r in reports] == [True]
    assert set(proc.kernel.sig.entries) == {"Nat"}


def test_prelude_loads_into_supplied_processor():
    proc = Processor()
    out, reports = load_prelude(proc)
    assert out is proc
    assert all(r.ok for r in reports)
    assert "oplus" in proc.kernel.sig.entries
