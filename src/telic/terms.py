"""Core term language: de Bruijn terms and the basic syntactic operations.

Terms are immutable. Binders (Pi, Lambda, Sigma) bind exactly one variable in
their last term field and carry an optional name hint that is ignored by
equality, so ``==`` on terms is alpha-equivalence. Constants are kept in
head-spine form: ``Const(name, args)`` rather than nested App nodes, which
makes rewrite matching a first-order walk over ``(name, args)``. App nodes
only ever have a non-constant head once a term has been through whnf.

``map_term`` (rebuild) and ``subterms`` (walk) are the only structural
recursions over Term. Shifting, substitution, scope and occurrence checks,
the kernel's zonking and renaming, and the printer's binder test are
callbacks to the first or comprehensions over the second; only reduction,
conversion, typing, the compiling of rule left-hand sides into matchers,
printing and ``compile_subst`` inspect terms by hand. ``map_term`` shares
every node it leaves unchanged, and a callback result of ``None`` means
"unchanged", so a shift or substitution allocates only along the paths to
the variables it changes. ``compile_subst`` turns a rewrite rule's
right-hand side into closures that build its instances.

Both recurse through a module-level function (``_map``, ``_compile``),
passing down what they use, rather than through a nested function that
calls itself. Such a function refers to itself through its own closure: a
reference cycle, holding the callbacks and all they close over, that only
CPython's cyclic collector frees. One per substitution kept that collector
busy for a sizeable share of the checking time. So no closure on a hot path
may refer to itself, and what ``map_term`` builds is freed by reference
counting as soon as it is dropped.

The twelve term classes are frozen slotted classes that ``_term_classes``
builds from their constructor signatures, compiling one source string for
all of them. Each gets the methods that run at every reduction step:
``__init__``, which stores each field through its slot descriptor,
``__eq__``, which compares the tuples of the fields other than ``hint``
of two terms of the same class, and ``__hash__``, which hashes that tuple.
``Term`` holds the rest, written once: ``repr`` (``NatLit`` has its own,
which writes a literal of any length), the refusal to assign or delete a
field, and ``__reduce__`` for copying and pickling. ``__match_args__``
lists the fields in order, so ``match`` class patterns work.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from operator import is_, itemgetter
from typing import NamedTuple


class Term:
    """The base of the term classes, with the methods they share."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a frozen __setattr__ blocks the default restore of slots
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _term_classes(*signatures: str) -> list[type[Term]]:
    """One subclass of ``Term`` per constructor signature, such as
    ``"Pi(domain, codomain, hint=None)"``, in the order given."""
    namespace: dict = {"Term": Term, "__name__": __name__}
    source, names = [], []
    for signature in signatures:
        name, _, params = signature[:-1].partition("(")
        fields = [param.partition("=")[0].strip() for param in params.split(",")]
        mine = "".join(f"self.{f}, " for f in fields if f != "hint")
        theirs = "".join(f"other.{f}, " for f in fields if f != "hint")
        stores = "".join(f"\n        _set_{name}_{f}(self, {f})" for f in fields)
        source.append(
            f"class {name}(Term):\n"
            f"    __slots__ = __match_args__ = {tuple(fields)!r}\n"
            f"    def __init__(self, {params}):{stores}\n"
            f"    def __eq__(self, other):\n"
            f"        if other.__class__ is self.__class__:\n"
            f"            return ({mine}) == ({theirs})\n"
            f"        return NotImplemented\n"
            f"    def __hash__(self):\n"
            f"        return hash(({mine}))\n"
        )
        names.append(name)
    exec("".join(source), namespace)
    classes = [namespace[name] for name in names]
    for cls in classes:
        for f in cls.__slots__:
            namespace[f"_set_{cls.__name__}_{f}"] = cls.__dict__[f].__set__
    return classes


# Binders bind one variable in their last term field: Pi's codomain,
# Lambda's body (whose domain comes from the checking type) and Sigma's
# second. Universe levels are 0 and 1: Universe(0) : Universe(1), with no
# cumulativity. A Meta is a metavariable occurrence: its spine lists the
# ambient variables the hole may mention, outermost first, and a stored
# solution is a term over that telescope.
Var, Const, Universe, Pi, Lambda, App, Sigma, Pair, Fst, Snd, NatLit, Meta = _term_classes(
    "Var(index)",
    "Const(name, args=())",
    "Universe(level)",
    "Pi(domain, codomain, hint=None)",
    "Lambda(body, hint=None)",
    "App(fn, arg)",
    "Sigma(first, second, hint=None)",
    "Pair(first, second)",
    "Fst(pair)",
    "Snd(pair)",
    "NatLit(value)",
    "Meta(id, spine=())",
)


def _nat_lit_repr(self: NatLit) -> str:
    return f"NatLit(value={nat_digits(self.value)})"


NatLit.__repr__ = _nat_lit_repr


# CPython refuses to convert an int of more than 4,300 decimal digits to or
# from text (``sys.set_int_max_str_digits``, a setting of the whole process),
# and before 3.12 it converts in time quadratic in the number of digits. So a
# literal of more than 256 digits is converted by divide and conquer: split
# off a low block, convert both parts, and join them with a power of the
# base, each power computed once per conversion. Reading splits the digits
# in blocks of 256 * 2**j and joins with powers of ten; printing splits the
# bits in blocks of 512 * 2**j and joins with powers of two. The parser reads
# with the first function and the printer writes with the second.
_CHUNK_DIGITS = 256
_CHUNK_BASE = 10**_CHUNK_DIGITS
_CHUNK_BITS = 512


def _block(size: int, chunk: int) -> int:
    """The largest block ``chunk * 2**j`` less than ``size``, which must be
    more than ``chunk``: between half of ``size`` and all of it."""
    k = chunk
    while 2 * k < size:
        k *= 2
    return k


def _power(powers: dict, base, k: int, chunk: int):
    """``base ** k`` for a block ``k = chunk * 2**j``: the square of the
    block below, each kept in ``powers``."""
    p = powers.get(k)
    if p is None:
        p = powers[k] = base**k if k == chunk else _power(powers, base, k // 2, chunk) ** 2
    return p


def nat_of_digits(digits: str) -> int:
    """The value of a string of decimal digits, of any length."""
    return _int_of(digits, {})


def _int_of(digits: str, powers: dict[int, int]) -> int:
    n = len(digits)
    if n <= _CHUNK_DIGITS:
        return int(digits)
    k = _block(n, _CHUNK_DIGITS)
    high, low = _int_of(digits[:-k], powers), _int_of(digits[-k:], powers)
    return high * _power(powers, 10, k, _CHUNK_DIGITS) + low


def nat_digits(value: int) -> str:
    """The decimal digits of a natural number, of any size.

    A number of more than 256 digits is built up as a ``decimal.Decimal``,
    whose arithmetic is exact at full precision and which prints in linear
    time: dividing by powers of ten instead would take quadratic time in
    ``int`` division before CPython 3.12."""
    if value < _CHUNK_BASE:
        return str(value)
    import decimal  # only here, so that importing telic does not pay for it

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(_decimal_of(value, value.bit_length(), decimal.Decimal, {}))


def _decimal_of(value: int, bits: int, dec, powers: dict):
    """``value``, of at most ``bits`` bits, as a ``dec``."""
    if bits <= _CHUNK_BITS:
        return dec(value)
    k = _block(bits, _CHUNK_BITS)
    high = value >> k
    low = value - (high << k)
    scale = _power(powers, dec(2), k, _CHUNK_BITS)
    return _decimal_of(high, bits - k, dec, powers) * scale + _decimal_of(low, k, dec, powers)


# --- contexts ---------------------------------------------------------------

class ContextEntry(NamedTuple):
    hint: str
    type: Term


Context = tuple[ContextEntry, ...]

EMPTY_CONTEXT: Context = ()


def ctx_extend(ctx: Context, hint: str, ty: Term) -> Context:
    return ctx + (ContextEntry(hint, ty),)


def ctx_lookup(ctx: Context, index: int) -> Term:
    """Type of Var(index), shifted into the full context."""
    entry = ctx[len(ctx) - 1 - index]
    return shift(entry.type, index + 1)


# --- traversals -------------------------------------------------------------

def map_term(
    t: Term,
    var: Callable[[int, int], Term | None],
    meta: Callable[[int, tuple[Term, ...]], Term | None] | None = None,
) -> Term:
    """Rebuild ``t`` bottom-up, sharing every node it leaves unchanged.

    Every ``Var(i)`` becomes ``var(i, d)``, where ``d`` is the number of
    binders passed on the way down. With ``meta`` given, every ``Meta``
    becomes ``meta(id, spine)`` once its spine has been mapped. A callback
    that returns ``None`` keeps the node (a ``Meta`` with its mapped spine).
    A node whose children all come back as the same objects is returned
    itself, so only the paths to changed variables are rebuilt.

    The recursion is the module-level ``_map``, one Python frame per level
    of nesting: a nested walker would refer to itself and leave a reference
    cycle per call for the cyclic collector.
    """

    return _map(t, var, 0, meta)


# Dispatch on the exact class: on this hot path it is markedly cheaper than
# `match` class patterns, which test isinstance case by case.
def _map(t: Term, var, d: int, meta) -> Term:
    cls = type(t)
    if cls is Var:
        out = var(t.index, d)
        return t if out is None else out
    if cls is Const:
        args = t.args
        if not args:
            return t
        new = [_map(a, var, d, meta) for a in args]
        return t if all(map(is_, new, args)) else Const(t.name, tuple(new))
    if cls is App:
        f, a = _map(t.fn, var, d, meta), _map(t.arg, var, d, meta)
        return t if f is t.fn and a is t.arg else App(f, a)
    if cls is Pi:
        a, b = _map(t.domain, var, d, meta), _map(t.codomain, var, d + 1, meta)
        return t if a is t.domain and b is t.codomain else Pi(a, b, t.hint)
    if cls is Lambda:
        b = _map(t.body, var, d + 1, meta)
        return t if b is t.body else Lambda(b, t.hint)
    if cls is Sigma:
        a, b = _map(t.first, var, d, meta), _map(t.second, var, d + 1, meta)
        return t if a is t.first and b is t.second else Sigma(a, b, t.hint)
    if cls is Pair:
        a, b = _map(t.first, var, d, meta), _map(t.second, var, d, meta)
        return t if a is t.first and b is t.second else Pair(a, b)
    if cls is Fst:
        p = _map(t.pair, var, d, meta)
        return t if p is t.pair else Fst(p)
    if cls is Snd:
        p = _map(t.pair, var, d, meta)
        return t if p is t.pair else Snd(p)
    if cls is Meta:
        spine = t.spine
        new = [_map(s, var, d, meta) for s in spine]
        if not all(map(is_, new, spine)):
            spine = tuple(new)
        out = None if meta is None else meta(t.id, spine)
        if out is not None:
            return out
        return t if spine is t.spine else Meta(t.id, spine)
    if cls is Universe or cls is NatLit:
        return t
    raise AssertionError(f"map_term: unhandled term {t!r}")


def subterms(t: Term, depth: int = 0) -> Iterator[tuple[Term, int]]:
    """Yield every node of ``t``, ``t`` first, with ``depth`` plus the number
    of binders above it. Iterative, so any nesting depth is fine."""
    stack = [(t, depth)]
    push = stack.append
    while stack:
        node = stack.pop()
        yield node
        t, d = node
        cls = type(t)
        if cls is Const or cls is Meta:
            for a in reversed(t.args if cls is Const else t.spine):
                push((a, d))
        elif cls is App:
            push((t.arg, d))
            push((t.fn, d))
        elif cls is Pi:
            push((t.codomain, d + 1))
            push((t.domain, d))
        elif cls is Lambda:
            push((t.body, d + 1))
        elif cls is Sigma:
            push((t.second, d + 1))
            push((t.first, d))
        elif cls is Pair:
            push((t.second, d))
            push((t.first, d))
        elif cls is Fst or cls is Snd:
            push((t.pair, d))


# --- de Bruijn operations ----------------------------------------------------

def shift(t: Term, by: int) -> Term:
    """Add ``by`` to the index of every free variable."""
    if by == 0:
        return t
    return map_term(t, lambda i, d: Var(i + by) if i >= d else None)


def subst(t: Term, replacement: Term) -> Term:
    """Substitute ``replacement`` for Var(0); higher indices drop by one."""
    return subst_many(t, (replacement,))


def subst_many(t: Term, env: list[Term] | tuple[Term, ...]) -> Term:
    """Simultaneously substitute env[j] for Var(j).

    Variables above the substituted block drop by len(env). Used for beta,
    codomain instantiation and metavariable solutions, whose free variables
    are exactly 0..len(env)-1.
    """
    n = len(env)
    if n == 0:
        return t

    def var(i: int, d: int) -> Term | None:
        if i < d:
            return None
        if i < d + n:
            return env[i] if d == 0 else shift(env[i - d], d)
        return Var(i - n)

    return map_term(t, var)


def compile_subst(t: Term, n: int) -> Callable[[Sequence[Term]], Term]:
    """``subst_many(t, env)`` for every ``env`` of length ``n``, compiled once.

    The result is a tree of closures, one per node of ``t`` that mentions a
    substituted or higher variable; a subterm that mentions neither is
    returned as it is. Used for rewrite right-hand sides, which are built
    from the environment of a match at every firing; like them, ``t`` holds
    no hole.
    """
    return _compile(t, 0, n)


def _compile(t: Term, d: int, n: int) -> Callable[[Sequence[Term]], Term]:
    if scope_ok(t, d):
        return lambda env: t
    cls = type(t)
    if cls is Var:
        j = t.index - d
        if j >= n:
            lowered = Var(t.index - n)
            return lambda env: lowered
        if d == 0:
            return itemgetter(j)
        return lambda env: shift(env[j], d)
    if cls is Const:
        name = t.name
        args = [_compile(a, d, n) for a in t.args]
        if len(args) == 1:
            (a,) = args
            return lambda env: Const(name, (a(env),))
        if len(args) == 2:
            a, b = args
            return lambda env: Const(name, (a(env), b(env)))
        return lambda env: Const(name, tuple([a(env) for a in args]))
    if cls is App:
        f, a = _compile(t.fn, d, n), _compile(t.arg, d, n)
        return lambda env: App(f(env), a(env))
    if cls is Pi:
        a, b, hint = _compile(t.domain, d, n), _compile(t.codomain, d + 1, n), t.hint
        return lambda env: Pi(a(env), b(env), hint)
    if cls is Lambda:
        b, hint = _compile(t.body, d + 1, n), t.hint
        return lambda env: Lambda(b(env), hint)
    if cls is Sigma:
        a, b, hint = _compile(t.first, d, n), _compile(t.second, d + 1, n), t.hint
        return lambda env: Sigma(a(env), b(env), hint)
    if cls is Pair:
        a, b = _compile(t.first, d, n), _compile(t.second, d, n)
        return lambda env: Pair(a(env), b(env))
    if cls is Fst:
        p = _compile(t.pair, d, n)
        return lambda env: Fst(p(env))
    if cls is Snd:
        p = _compile(t.pair, d, n)
        return lambda env: Snd(p(env))
    raise AssertionError(f"compile_subst: unhandled term {t!r}")


def scope_ok(t: Term, depth: int = 0) -> bool:
    """True when every free variable index is below ``depth``."""
    return all(s.index < d for s, d in subterms(t, depth) if isinstance(s, Var))


def free_meta_ids(t: Term) -> set[int]:
    """Collect ids of metavariable occurrences."""
    return {s.id for s, _ in subterms(t) if isinstance(s, Meta)}
