"""Compiled rule matchers agree with the matcher they replaced.

Each rewrite rule compiles its left-hand side into ``rule.fire``. This file
keeps the interpreted matcher it replaced as the reference and runs both on
seeded rules and targets: left-hand sides that mix variables, forced
repeats and nested constant, pair and literal patterns, and targets that
reach their shape only through definitions, primitives or projections, or
that have too few or extra arguments. Both must give the same term (or
``None``), call ``whnf`` on the same targets in the same order, and leave
the same step count, also when the fuel runs out part way.
"""

from __future__ import annotations

import random

import pytest

from telic.errors import FuelExhausted
from telic.kernel import Kernel, _apply_args
from telic.terms import App, Const, Fst, Lambda, NatLit, Pair, Universe, Var

NAT = Const("Nat")
# constructor name -> arity
CONSTRUCTORS = {"c0": 0, "c1": 1, "c2": 2}
LITERALS = range(3)


# --- the reference: the interpreted matcher ---------------------------------------

def reference_fire(rule, args, whnf):
    """The instance of ``rule`` for ``args``, or ``None``, by interpreting
    its left-hand side."""
    pats = rule.lhs.args
    n = len(pats)
    if len(args) < n:
        return None
    # indexed like the telescope's variables: Var(0)'s value first
    bind = [None] * len(rule.telescope)
    for p, a in zip(pats, args):
        if not reference_match(p, a, bind, whnf):
            return None
    out = rule.instantiate(bind)
    return _apply_args(out, args[n:]) if len(args) > n else out


def reference_match(pat, target, bind, whnf):
    """A variable binds at its first occurrence; a repeat is forced by
    elaboration and matches anything. Neither reduces its target."""
    cls = type(pat)
    if cls is Var:
        if bind[pat.index] is None:
            bind[pat.index] = target
        return True
    w = whnf(target)
    if cls is Const:
        if type(w) is not Const or w.name != pat.name or len(w.args) != len(pat.args):
            return False
        for p, a in zip(pat.args, w.args):
            if not reference_match(p, a, bind, whnf):
                return False
        return True
    if cls is Pair:
        return (
            type(w) is Pair
            and reference_match(pat.first, w.first, bind, whnf)
            and reference_match(pat.second, w.second, bind, whnf)
        )
    if cls is NatLit:
        return type(w) is NatLit and w.value == pat.value
    raise AssertionError(f"unhandled pattern {pat!r}")


# --- seeded rules and targets -------------------------------------------------------

def matching_kernel(fuel: int) -> Kernel:
    """Constructors, the heads the rules are on, and definitions that
    unfold to each kind of pattern."""
    k = Kernel(fuel=fuel)
    k.declare_axiom("Nat", Universe(0))
    for name in ("f", "r", "other", *CONSTRUCTORS):
        k.declare_axiom(name, NAT)
    for v in LITERALS:
        k.declare_definition(f"lit{v}", NAT, NatLit(v))
    k.declare_definition("wrap0", NAT, Const("c0"))
    # wrap1 x = c1 x, wrap2 x y = c2 x y, pair x y = (x , y)
    k.declare_definition("wrap1", NAT, Lambda(Const("c1", (Var(0),))))
    k.declare_definition("wrap2", NAT, Lambda(Lambda(Const("c2", (Var(1), Var(0))))))
    k.declare_definition("pair", NAT, Lambda(Lambda(Pair(Var(1), Var(0)))))
    return k


def random_pattern(rng: random.Random, depth: int) -> object:
    """A pattern over variables 0..2, so repeats are common."""
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return Var(rng.randrange(3))
    if roll < 0.55:
        return NatLit(rng.choice(LITERALS))
    if roll < 0.75:
        return Pair(random_pattern(rng, depth - 1), random_pattern(rng, depth - 1))
    name = rng.choice(list(CONSTRUCTORS))
    return Const(name, tuple(random_pattern(rng, depth - 1) for _ in range(CONSTRUCTORS[name])))


def variables_in_order(t) -> list[int]:
    """Variable indices, left to right and depth first, first occurrences only."""
    out: list[int] = []

    def walk(t):
        if type(t) is Var:
            if t.index not in out:
                out.append(t.index)
        elif type(t) is Const:
            for a in t.args:
                walk(a)
        elif type(t) is Pair:
            walk(t.first)
            walk(t.second)

    walk(t)
    return out


def renumber(t, slot: dict[int, int]):
    if type(t) is Var:
        return Var(slot[t.index])
    if type(t) is Const:
        return Const(t.name, tuple(renumber(a, slot) for a in t.args))
    if type(t) is Pair:
        return Pair(renumber(t.first, slot), renumber(t.second, slot))
    return t


def random_rule(rng: random.Random, k: Kernel):
    """A rule on ``f`` whose telescope holds exactly the variables its
    patterns use, numbered in a shuffled order; its right-hand side keeps
    every slot apart, so a wrong binding shows in the instance."""
    pats = Const("f", tuple(random_pattern(rng, 3) for _ in range(rng.randint(1, 4))))
    used = variables_in_order(pats)
    rng.shuffle(used)
    slot = {v: i for i, v in enumerate(used)}
    lhs = renumber(pats, slot)
    telescope = tuple((f"x{i}", NAT) for i in range(len(used)))
    rhs = Const("r", tuple(Var(i) for i in range(len(used))))
    return k.declare_rewrite(telescope, lhs, rhs)


def closed_term(rng: random.Random) -> object:
    return rng.choice([Const("c0"), NatLit(rng.choice(LITERALS)), Const("other"), Const("lit1")])


def random_target(rng: random.Random, pat) -> object:
    """A target that matches ``pat`` most of the time, often only after
    reduction, and sometimes fails at one position."""
    cls = type(pat)
    if cls is Var:
        return closed_term(rng)
    roll = rng.random()
    if roll < 0.1:
        return closed_term(rng)  # most likely a mismatch
    if roll < 0.2:
        # a projection that reduces to the real target
        return Fst(Pair(random_target(rng, pat), Const("other")))
    if cls is NatLit:
        v = pat.value
        return rng.choice(
            [NatLit(v), Const(f"lit{v}"), Const("plus", (NatLit(0), NatLit(v))), NatLit(v + 1)]
        )
    if cls is Pair:
        parts = (random_target(rng, pat.first), random_target(rng, pat.second))
        return Pair(*parts) if rng.random() < 0.5 else Const("pair", parts)
    args = tuple(random_target(rng, a) for a in pat.args)
    roll = rng.random()
    if roll < 0.1:
        return Const(pat.name, args + (Const("c0"),))  # wrong arity
    if roll < 0.5:
        return Const(pat.name.replace("c", "wrap"), args)  # unfolds to pat's head
    if roll < 0.6 and args:
        return App(Const(pat.name, args[:-1]), args[-1])  # curried
    return Const(pat.name, args)


def random_args(rng: random.Random, rule) -> tuple:
    args = tuple(random_target(rng, p) for p in rule.lhs.args)
    roll = rng.random()
    if roll < 0.15:
        return args[:-1]  # too few arguments
    if roll < 0.35:
        return args + tuple(closed_term(rng) for _ in range(rng.randint(1, 2)))  # extra
    return args


def outcome(k: Kernel, fire, rule, args, fuel: int):
    """What ``fire`` gives, the targets it asks ``whnf`` for, in order,
    and the steps it leaves."""
    k.begin()
    k.fuel_limit = fuel
    asked = []

    def whnf(t):
        asked.append(t)
        return k.whnf(t)

    try:
        result = fire(rule, args, whnf)
    except FuelExhausted:
        result = FuelExhausted
    return result, asked, k._steps


def compiled_fire(rule, args, whnf):
    return rule.fire(args, whnf)


@pytest.mark.parametrize("seed", range(8))
def test_compiled_matcher_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    k = matching_kernel(fuel=1000)
    fired = exhausted = 0
    for _ in range(40):
        rule = random_rule(rng, k)
        for _ in range(15):
            args = random_args(rng, rule)
            fuel = rng.choice([1000, 1000, rng.randint(1, 6)])
            want = outcome(k, reference_fire, rule, args, fuel)
            got = outcome(k, compiled_fire, rule, args, fuel)
            assert got == want, f"{rule.lhs!r} on {args!r} at fuel {fuel}"
            fired += want[0] is not None and want[0] is not FuelExhausted
            exhausted += want[0] is FuelExhausted
    # the seeded inputs reach every outcome
    assert fired and exhausted


def test_generated_rules_have_every_kind_of_pattern():
    rng = random.Random(0)
    k = matching_kernel(fuel=1000)
    seen: set[str] = set()
    for _ in range(200):
        lhs = random_rule(rng, k).lhs
        occurrences = []
        stack = list(lhs.args)
        while stack:
            p = stack.pop()
            seen.add(type(p).__name__)
            if type(p) is Var:
                occurrences.append(p.index)
            elif type(p) is Const:
                stack.extend(p.args)
            elif type(p) is Pair:
                stack.extend((p.first, p.second))
        if len(occurrences) > len(set(occurrences)):
            seen.add("repeat")
    assert seen == {"Var", "Const", "Pair", "NatLit", "repeat"}


def test_matching_order_is_visible():
    """The reference asks ``whnf`` left to right and depth first; the
    comparison above depends on the order being observable."""
    k = matching_kernel(fuel=1000)
    rule = k.declare_rewrite(
        (("x", NAT),),
        Const("f", (Const("c1", (NatLit(1),)), Var(0), Pair(NatLit(2), Var(0)))),
        Var(0),
    )
    args = (Const("wrap1", (Const("lit1"),)), Const("c0"), Const("pair", (NatLit(2), NatLit(0))))
    result, asked, _ = outcome(k, compiled_fire, rule, args, 1000)
    assert result == Const("c0")
    assert asked == [args[0], Const("lit1"), args[2], NatLit(2)]
