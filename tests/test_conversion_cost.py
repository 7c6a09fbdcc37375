"""What conversion and rewriting cost, in whnf steps.

Conversion compares two terms before reducing them, so a restriction
stacked on a restriction costs a constant number of extra steps per
adjective instead of doubling them. Each rule firing costs one step, and
rules on one head fire in declaration order. A firing that rebuilds its own
target spends the rest of the budget at once, as firing it again and again
would.
"""

from __future__ import annotations

import pytest

from telic.errors import FuelExhausted
from telic.kernel import DEFAULT_FUEL, Kernel
from telic.terms import Const, NatLit, Pi, Universe, Var

NAT = Const("Nat")
ADJECTIVES = 14


def test_stacked_restrictions_cost_constant_steps_per_adjective(loaded_processor):
    proc = loaded_processor
    assert proc.kernel.fuel_limit == DEFAULT_FUEL
    sig = "postulate r0 : NP U\n" + "".join(
        f"postulate adj{k} : IntAdj\n" for k in range(1, ADJECTIVES + 1)
    )
    assert all(r.ok for r in proc.process_text(sig, "<sig>"))
    steps = []
    for k in range(1, ADJECTIVES + 1):
        # the shape of the paper's stacked intersective adjectives
        text = f"def r{k} : NP U = SigmaNP r{k - 1} (\\p. El_IA adj{k} ((U , r{k - 1}) , p))\n"
        (report,) = proc.process_text(text, "<stack>")
        assert report.ok, report.render()
        steps.append(proc.kernel._steps)
    # from r2 on, each restriction stacks on a definition, not the postulate
    added = [b - a for a, b in zip(steps[1:], steps[2:])]
    assert len(set(added)) == 1, added
    assert 0 < added[0] <= 32


def _kernel_with(rules, fuel: int = DEFAULT_FUEL) -> Kernel:
    k = Kernel(fuel=fuel)
    k.declare_axiom("Nat", Universe(0))
    k.declare_axiom("f", Pi(NAT, Pi(NAT, NAT)))
    k.declare_axiom("g", Pi(NAT, NAT))
    for name in ("loop", "ping", "pong"):
        k.declare_axiom(name, Pi(NAT, NAT))
    for telescope, lhs, rhs in rules:
        k.declare_rewrite(telescope, lhs, rhs)
    return k


def _unary_rule(lhs_head: str, rhs) -> tuple:
    """``lhs_head n = rhs``, with ``n`` the rule's one pattern variable."""
    return ((("n", NAT),), Const(lhs_head, (Var(0),)), rhs)


LOOP = _unary_rule("loop", Const("loop", (Var(0),)))
# a cycle of two rules: no firing rebuilds its own target
PING_PONG = [
    _unary_rule("ping", Const("pong", (Var(0),))),
    _unary_rule("pong", Const("ping", (Var(0),))),
]


@pytest.mark.parametrize(
    "rules, head, fuel",
    [pytest.param([LOOP], "loop", fuel, id=str(fuel)) for fuel in (1, 2, 1000)]
    + [pytest.param(PING_PONG, "ping", fuel, id=f"ping-pong-{fuel}") for fuel in (1, 2, 1000)],
)
def test_each_firing_costs_one_step(rules, head, fuel):
    # the step that goes over the limit is counted, then raises; the
    # self-loop spends its budget at once, the cycle one step at a time
    k = _kernel_with(rules, fuel=fuel)
    k.begin()
    with pytest.raises(FuelExhausted):
        k.whnf(Const(head, (NatLit(0),)))
    assert k._steps == fuel + 1


def test_a_firing_that_rebuilds_its_target_spends_the_budget_at_once():
    fuel = 10**6
    k = _kernel_with([LOOP], fuel=fuel)
    (rule,) = k.sig.rules_by_head["loop"]
    fires = [0]
    fire = rule.fire

    def counted(args, whnf):
        fires[0] += 1
        return fire(args, whnf)

    object.__setattr__(rule, "fire", counted)
    k.begin()
    with pytest.raises(FuelExhausted, match=f"step budget of {fuel} exhausted"):
        k.whnf(Const("loop", (NatLit(0),)))
    assert k._steps == fuel + 1
    assert fires[0] <= 2


# `f 0 n` and `f m 1` overlap on `f 0 1`.
ZERO_LEFT = ((("n", NAT),), Const("f", (NatLit(0), Var(0))), NatLit(10))
ONE_RIGHT = ((("m", NAT),), Const("f", (Var(0), NatLit(1))), NatLit(20))


@pytest.mark.parametrize(
    "rules, expected",
    [
        ([ZERO_LEFT, ONE_RIGHT], {(0, 1): 10, (0, 2): 10, (3, 1): 20}),
        ([ONE_RIGHT, ZERO_LEFT], {(0, 1): 20, (0, 2): 10, (3, 1): 20}),
    ],
    ids=["zero-left-first", "one-right-first"],
)
def test_overlapping_rules_fire_in_declaration_order(rules, expected):
    k = _kernel_with(rules)
    for (a, b), value in expected.items():
        assert k.whnf(Const("f", (NatLit(a), NatLit(b)))) == NatLit(value)
    # neither rule matches: the partial match of the first binds nothing
    # the second sees, and the term stays put
    stuck = Const("f", (NatLit(3), NatLit(2)))
    assert k.whnf(stuck) == stuck


def test_arguments_beyond_the_patterns_are_kept():
    k = _kernel_with([((), Const("f", (NatLit(0),)), Const("g"))])
    assert k.whnf(Const("f", (NatLit(0), NatLit(5)))) == Const("g", (NatLit(5),))
