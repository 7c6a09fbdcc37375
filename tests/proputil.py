"""Seeded generation of well-typed terms and the kernel law checkers.

The generators draw terms over a small scratch signature (naturals, an
opaque type with two inhabitants, a function in each direction, one pair).
Every produced term is well-typed by construction, with redex wrappers
mixed in so the laws are exercised on reducible as well as neutral terms.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from telic.elaborate import Processor
from telic.prelude import load_prelude
from telic.terms import (
    App,
    Const,
    Fst,
    Lambda,
    NatLit,
    Pair,
    Snd,
    Term,
    Var,
    shift,
    subst,
)

SCRATCH = """
primitive Nat : Type
primitive plus : Nat -> Nat -> Nat
postulate A : Type
postulate a0 : A
postulate a1 : A
postulate g : Nat -> A
postulate h : A -> Nat
postulate k0 : Nat
postulate sp : Sigma (x : Nat). Nat
"""

# Free variables available to open terms: Var(0) : Nat, Var(1) : A,
# Var(2) : Sigma (x : Nat). Nat. Only the de Bruijn structure matters to
# the syntactic laws, so the context itself is never materialized.
OPEN_DEPTH = 3


def scratch_processor() -> Processor:
    proc = Processor()
    reports = proc.process_text(SCRATCH, "<scratch>")
    bad = [r for r in reports if not r.ok]
    if bad:
        raise RuntimeError(f"scratch signature failed to load: {bad[0].render()}")
    return proc


class TermGen:
    """Produces well-typed terms of four kinds over the scratch signature.

    ``nat`` yields Nat, ``a`` yields A, ``fn`` yields Nat -> A and ``pair``
    yields Sigma (x : Nat). Nat. With ``open_vars`` the leaves may also use
    the three free variables described by OPEN_DEPTH.
    """

    def __init__(self, rng: random.Random, open_vars: bool = False):
        self.rng = rng
        self.open_vars = open_vars

    def nat(self, depth: int) -> Term:
        picks = ["lit", "k0", "fst_sp", "snd_sp"]
        if self.open_vars:
            picks += ["v0", "fst_v2"]
        if depth > 0:
            picks += ["plus", "beta", "compose", "proj1", "proj2", "h"]
        match self.rng.choice(picks):
            case "lit":
                return NatLit(self.rng.randrange(10))
            case "k0":
                return Const("k0")
            case "fst_sp":
                return Fst(Const("sp"))
            case "snd_sp":
                return Snd(Const("sp"))
            case "v0":
                return Var(0)
            case "fst_v2":
                return Fst(Var(2))
            case "plus":
                return Const("plus", (self.nat(depth - 1), self.nat(depth - 1)))
            case "beta":
                return App(Lambda(Var(0), hint="x"), self.nat(depth - 1))
            case "compose":
                body = Const("h", (Const("g", (Var(0),)),))
                return App(Lambda(body, hint="x"), self.nat(depth - 1))
            case "proj1":
                return Fst(Pair(self.nat(depth - 1), self.a(depth - 1)))
            case "proj2":
                return Snd(Pair(self.a(depth - 1), self.nat(depth - 1)))
            case "h":
                return Const("h", (self.a(depth - 1),))
        raise AssertionError("unreachable")

    def a(self, depth: int) -> Term:
        picks = ["a0", "a1"]
        if self.open_vars:
            picks += ["v1"]
        if depth > 0:
            picks += ["g", "beta", "proj1", "proj2", "apply"]
        match self.rng.choice(picks):
            case "a0":
                return Const("a0")
            case "a1":
                return Const("a1")
            case "v1":
                return Var(1)
            case "g":
                return Const("g", (self.nat(depth - 1),))
            case "beta":
                return App(Lambda(Var(0), hint="y"), self.a(depth - 1))
            case "proj1":
                return Fst(Pair(self.a(depth - 1), self.nat(depth - 1)))
            case "proj2":
                return Snd(Pair(self.nat(depth - 1), self.a(depth - 1)))
            case "apply":
                return App(self.fn(depth - 1), self.nat(depth - 1))
        raise AssertionError("unreachable")

    def fn(self, depth: int) -> Term:
        picks = ["g", "eta_g"]
        if depth > 0:
            picks += ["beta", "const_body", "proj"]
        match self.rng.choice(picks):
            case "g":
                return Const("g")
            case "eta_g":
                return Lambda(Const("g", (Var(0),)), hint="n")
            case "beta":
                return App(Lambda(Var(0), hint="f"), self.fn(depth - 1))
            case "const_body":
                return Lambda(shift(self.a(depth - 1), 1), hint="n")
            case "proj":
                return Fst(Pair(self.fn(depth - 1), self.nat(depth - 1)))
        raise AssertionError("unreachable")

    def pair(self, depth: int) -> Term:
        picks = ["sp"]
        if self.open_vars:
            picks += ["v2"]
        if depth > 0:
            picks += ["literal", "beta", "proj"]
        match self.rng.choice(picks):
            case "sp":
                return Const("sp")
            case "v2":
                return Var(2)
            case "literal":
                return Pair(self.nat(depth - 1), self.nat(depth - 1))
            case "beta":
                return App(Lambda(Var(0), hint="p"), self.pair(depth - 1))
            case "proj":
                return Fst(Pair(self.pair(depth - 1), self.nat(depth - 1)))
        raise AssertionError("unreachable")

    def any_term(self, depth: int) -> Term:
        kind = self.rng.choice(["nat", "a", "fn", "pair"])
        return getattr(self, kind)(depth)

    def inferable(self, depth: int) -> Term:
        """A term whose type is synthesizable in the empty context.

        Bare binders and bare pairs only check against a given type, so
        this pool sticks to the kinds whose heads always synthesize.
        """
        kind = self.rng.choice(["nat", "a"])
        return getattr(self, kind)(depth)

    def wrap(self, t: Term) -> Term:
        """One reduction step away from ``t``."""
        match self.rng.choice(["beta", "proj1", "proj2"]):
            case "beta":
                return App(Lambda(Var(0), hint="w"), t)
            case "proj1":
                return Fst(Pair(t, NatLit(0)))
            case "proj2":
                return Snd(Pair(NatLit(0), t))
        raise AssertionError("unreachable")

    def depth(self) -> int:
        return self.rng.randrange(1, 5)


@dataclass(frozen=True)
class PropertyReport:
    name: str
    checked: int
    seconds: float


def check_normalize_idempotent(kernel, gen: TermGen, count: int) -> int:
    for _ in range(count):
        kernel.begin()
        t = gen.any_term(gen.depth())
        once = kernel.normalize(t)
        twice = kernel.normalize(once)
        assert twice == once, f"normalize not idempotent on {t!r}"
    return count


def check_shift_subst_cancel(gen: TermGen, closed: TermGen, count: int) -> int:
    for _ in range(count):
        t = gen.any_term(gen.depth())
        u = closed.any_term(closed.depth())
        assert subst(shift(t, 1), u) == t, f"shift/subst failed on {t!r}"
    return count


def check_convertible_equivalence(kernel, gen: TermGen, count: int) -> int:
    for _ in range(count):
        kernel.begin()
        t = gen.any_term(gen.depth())
        one = gen.wrap(t)
        two = gen.wrap(one)
        assert kernel.convertible(t, t), f"not reflexive on {t!r}"
        assert kernel.convertible(t, one), f"wrap broke conversion on {t!r}"
        assert kernel.convertible(one, t), f"not symmetric on {t!r}"
        assert kernel.convertible(one, two), f"wrap broke conversion on {one!r}"
        assert kernel.convertible(t, two), f"not transitive on {t!r}"
    return count


def check_subject_reduction(kernel, gen: TermGen, count: int) -> int:
    for _ in range(count):
        kernel.begin()
        t = gen.inferable(gen.depth())
        before = kernel.infer((), t)
        after = kernel.infer((), kernel.whnf(t))
        assert kernel.convertible(before, after), f"type changed under whnf on {t!r}"
    return count


def check_eta_laws(kernel, gen: TermGen, count: int) -> int:
    for _ in range(count):
        kernel.begin()
        f = gen.fn(gen.depth())
        expanded = Lambda(App(shift(f, 1), Var(0)), hint="n")
        assert kernel.convertible(expanded, f), f"eta failed on {f!r}"
        assert kernel.convertible(f, expanded), f"eta failed on {f!r}"
        p = gen.pair(gen.depth())
        repacked = Pair(Fst(p), Snd(p))
        assert kernel.convertible(repacked, p), f"surjective pairing failed on {p!r}"
        assert kernel.convertible(p, repacked), f"surjective pairing failed on {p!r}"
    return count


OPLUS_LEXICON = """
postulate gnp : NP U
postulate gd : Degree
postulate gu : Units gd
postulate gw : (k : Nat) -> El_NP (AmountOf gnp gd gu k)
"""


def check_oplus_index_arithmetic(limit: int = 20) -> int:
    """Exhaustively checks that merging amounts adds the measure indices."""
    proc, reports = load_prelude()
    bad = [r for r in reports if not r.ok]
    if bad:
        raise RuntimeError(f"prelude failed to load: {bad[0].render()}")
    extra = proc.process_text(OPLUS_LEXICON, "<oplus>")
    bad = [r for r in extra if not r.ok]
    if bad:
        raise RuntimeError(f"oplus lexicon failed to load: {bad[0].render()}")
    kernel = proc.kernel
    checked = 0
    for m in range(limit + 1):
        for n in range(limit + 1):
            kernel.begin()
            term = Const(
                "oplus",
                (
                    Const("gnp"),
                    Const("gd"),
                    Const("gu"),
                    NatLit(m),
                    NatLit(n),
                    Const("gw", (NatLit(m),)),
                    Const("gw", (NatLit(n),)),
                ),
            )
            ty = kernel.normalize(kernel.infer((), term))
            expected = Const(
                "El_NP",
                (
                    Const("B"),
                    Const(
                        "AmountOf",
                        (Const("gnp"), Const("gd"), Const("gu"), NatLit(m + n)),
                    ),
                ),
            )
            assert ty == expected, f"oplus index wrong for {m}+{n}: {ty!r}"
            checked += 1
    return checked


def run_properties(count: int = 1000, seed: int = 1789) -> tuple[PropertyReport, ...]:
    """Runs every law and reports how many instances each one checked."""
    kernel = scratch_processor().kernel
    results = []

    def run(name, fn):
        start = time.perf_counter()
        checked = fn()
        results.append(PropertyReport(name, checked, time.perf_counter() - start))

    mixed = TermGen(random.Random(seed), open_vars=True)
    closed = TermGen(random.Random(seed + 1), open_vars=False)
    run(
        "normalize idempotent",
        lambda: check_normalize_idempotent(kernel, mixed, count),
    )
    run(
        "shift/subst cancellation",
        lambda: check_shift_subst_cancel(mixed, closed, count),
    )
    run(
        "convertible is an equivalence",
        lambda: check_convertible_equivalence(kernel, mixed, count),
    )
    run(
        "subject reduction",
        lambda: check_subject_reduction(kernel, closed, count),
    )
    run(
        "eta for functions and pairs",
        lambda: check_eta_laws(kernel, closed, count),
    )
    run(
        "oplus index arithmetic",
        lambda: check_oplus_index_arithmetic(),
    )
    return tuple(results)
