"""Compiled rule right-hand sides build exactly what substitution builds.

A rewrite rule's ``instantiate`` is compiled once from its right-hand side;
firing the rule calls it on the match environment instead of substituting.
These tests hold it to ``subst_many`` on every rule of the prelude and the
corpus, with open terms in the environment so that slots under a binder
(the ``Sigma`` of the ``El_NP``/``El_Evt`` rules) are shifted for real.
"""

from __future__ import annotations

import random

import pytest

from proputil import TermGen
from telic.corpus import CASES, corpus_dir
from telic.prelude import load_prelude
from telic.terms import (
    App,
    Const,
    Fst,
    Lambda,
    Meta,
    NatLit,
    Pair,
    Pi,
    Sigma,
    Snd,
    Var,
    compile_subst,
    scope_ok,
    subst_many,
)


# Right-hand sides that put a slot under a lambda and under each
# projection, which no prelude or corpus rule does; each norm fires one.
BUILDERS = r"""
postulate A : Type
postulate a : A
postulate b : A
postulate k : A -> A -> A -> A
postulate s : (Sigma (x : A). A) -> A
postulate t : (Sigma (x : A). A) -> A
rewrite (x y : A) : k x y = \z. y
rewrite (p : Sigma (x : A). A) : s p = fst p
rewrite (p : Sigma (x : A). A) : t p = snd p
norm k a b = \z. b
norm s (a , b) = a
norm t (a , b) = b
"""


def _rules_of(proc):
    return [r for rules in proc.kernel.sig.rules_by_head.values() for r in rules]


@pytest.fixture(scope="module")
def all_rules():
    """Every rule of the prelude, of each corpus case and of ``BUILDERS``,
    each file loaded on the prelude inside a rollback of its own."""
    proc, reports = load_prelude()
    assert all(r.ok for r in reports)
    seen = {id(r): r for r in _rules_of(proc)}
    for case in CASES:
        with proc.rollback():
            proc.process_path(corpus_dir() / case.entry)
            seen.update((id(r), r) for r in _rules_of(proc))
    with proc.rollback():
        reports = proc.process_text(BUILDERS)
        assert all(r.ok for r in reports), [r.render() for r in reports if not r.ok]
        seen.update((id(r), r) for r in _rules_of(proc))
    return list(seen.values())


def _children(t):
    """The direct subterms of ``t``, each with the binders it sits under."""
    cls = type(t)
    if cls is Const:
        return [(a, 0) for a in t.args]
    if cls is Meta:
        return [(s, 0) for s in t.spine]
    if cls is App:
        return [(t.fn, 0), (t.arg, 0)]
    if cls is Pi:
        return [(t.domain, 0), (t.codomain, 1)]
    if cls is Lambda:
        return [(t.body, 1)]
    if cls is Sigma or cls is Pair:
        return [(t.first, 0), (t.second, 1 if cls is Sigma else 0)]
    if cls is Fst or cls is Snd:
        return [(t.pair, 0)]
    return []


def _slot_under_binder(t, d=0):
    """True when a slot variable occurs below at least one binder."""
    if type(t) is Var:
        return d > 0 and t.index >= d
    return any(_slot_under_binder(c, d + k) for c, k in _children(t))


def _slot_free_pairs(rhs, inst, d=0):
    """Walk ``rhs`` and its instance side by side and yield each pair of
    nodes where the rhs node mentions no slot. Slots are not entered: the
    instance holds the environment's term there."""
    if scope_ok(rhs, d):
        yield rhs, inst
        return
    if type(rhs) is Var:
        return
    assert type(inst) is type(rhs)
    for (c, k), (ic, _) in zip(_children(rhs), _children(inst)):
        yield from _slot_free_pairs(c, ic, d + k)


def test_rule_set_covers_the_binder_and_corpus_rules(all_rules):
    heads = {r.lhs.name for r in all_rules}
    assert {"El_NP", "El_Evt", "CulOrAtel", "Prf", "Result", "loop"} <= heads
    assert any(_slot_under_binder(r.rhs) for r in all_rules if r.lhs.name == "El_NP")
    assert any(_slot_under_binder(r.rhs) for r in all_rules if r.lhs.name == "El_Evt")
    assert {Lambda, Fst, Snd} <= {type(r.rhs) for r in all_rules}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_instantiate_equals_subst_many(all_rules, seed):
    rng = random.Random(seed)
    open_gen = TermGen(rng, open_vars=True)
    closed_gen = TermGen(rng, open_vars=False)
    for rule in all_rules:
        for _ in range(25):
            gen = open_gen if rng.random() < 0.7 else closed_gen
            env = [gen.any_term(gen.depth()) for _ in range(len(rule.telescope))]
            got = rule.instantiate(env)
            want = subst_many(rule.rhs, env)
            assert got == want, f"rule {rule.lhs.name}: {got!r} != {want!r}"
            # hints are not part of ==; the instance keeps them too
            assert repr(got) == repr(want)


def test_instance_shares_slot_free_subterms(all_rules):
    env_gen = TermGen(random.Random(7), open_vars=True)
    shared = []
    for rule in all_rules:
        env = [env_gen.any_term(2) for _ in range(len(rule.telescope))]
        for node, inst in _slot_free_pairs(rule.rhs, rule.instantiate(env)):
            assert inst is node, f"rule {rule.lhs.name}: {node!r} was rebuilt"
            shared.append(node)
    assert Const("Nat") in shared  # `several`'s `Sigma (n : Nat). ...`


def test_compiled_slots_shift_under_binders_and_lower_free_variables():
    # Two slots: Var(0) and Var(1) at the top, Var(1) and Var(2) under the
    # Pi. Var(3) under the Pi lies above the block and drops by two, as in
    # subst_many; the slot-free literal is shared.
    closed = Const("k", (NatLit(1),))
    t = Pi(Var(1), App(Var(1), Pair(Var(3), closed)), "x")
    inst = compile_subst(t, 2)
    env = [Var(0), Var(5)]
    want = Pi(Var(5), App(Var(1), Pair(Var(1), closed)))
    assert inst(env) == subst_many(t, env) == want
    assert inst(env).codomain.arg.second is closed
