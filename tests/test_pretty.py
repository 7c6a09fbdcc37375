"""The printer's round trip: printed terms re-parse to the same term."""

from __future__ import annotations

import random

from proputil import TermGen, scratch_processor
from telic.elaborate import Elaborator
from telic.kernel import Kernel
from telic.pretty import pretty
from telic.surface import parse_expr
from telic.terms import App, Const, Fst, Lambda, NatLit, Pair, Snd, Term, Var

# Names for TermGen's three free variables, outermost (Var(2)) first.
OPEN_NAMES = ["s", "y", "n"]


def round_trip(kernel: Kernel, t: Term, names: list[str]) -> Term:
    """Print ``t``, parse it back, elaborate it and zonk the result."""
    kernel.begin()
    text = pretty(t, kernel.sig, names)
    return kernel.zonk(Elaborator(kernel).elab(parse_expr(text), names))


def head_spine(t: Term) -> Term:
    """Fold ``App(Const ...)`` into ``Const`` arguments, as elaboration does.

    Covers the constructors TermGen produces.
    """
    match t:
        case App(fn=f, arg=a):
            f, a = head_spine(f), head_spine(a)
            return Const(f.name, f.args + (a,)) if isinstance(f, Const) else App(f, a)
        case Const(name=n, args=args):
            return Const(n, tuple(map(head_spine, args)))
        case Lambda(body=b, hint=h):
            return Lambda(head_spine(b), h)
        case Pair(first=a, second=b):
            return Pair(head_spine(a), head_spine(b))
        case Fst(pair=p):
            return Fst(head_spine(p))
        case Snd(pair=p):
            return Snd(head_spine(p))
    return t


def test_prelude_terms_round_trip(loaded_processor):
    kernel = loaded_processor.kernel
    terms = [
        t
        for entry in list(kernel.sig.entries.values())
        for t in (entry.type, entry.body)
        if t is not None
    ]
    assert len(terms) >= 100
    mismatches = [pretty(t, kernel.sig) for t in terms if round_trip(kernel, t, []) != t]
    assert mismatches == []


def test_generated_terms_round_trip():
    kernel = scratch_processor().kernel
    for open_vars, names in ((False, []), (True, OPEN_NAMES)):
        gen = TermGen(random.Random(2027), open_vars=open_vars)
        for _ in range(2000):
            t = gen.any_term(gen.depth())
            assert round_trip(kernel, t, names) == head_spine(t), pretty(t, kernel.sig, names)


def test_long_numerals_round_trip():
    # CPython converts at most 4,300 digits to or from text at once
    kernel = scratch_processor().kernel
    for value in (10**10_000 - 1, 10**9_999, 7 * 10**5_000 + 3):
        assert parse_expr(pretty(NatLit(value))).value == value
        t = Const("plus", (NatLit(value), NatLit(1)))
        assert round_trip(kernel, t, []) == t


def test_without_a_signature_no_argument_is_braced_and_a_free_variable_shows_its_index():
    # What a caller of the API may print; the checker's own messages always
    # pass the signature and name every binder.
    assert pretty(App(Var(1), Const("f", (Var(0), NatLit(2)))), names=["x"]) == "#1 (f x 2)"
