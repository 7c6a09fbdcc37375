"""Type-checking kernel.

Bidirectional checker over two predicative universes (Type : Type1, no
cumulativity) with Pi, Sigma, built-in Nat literals, and definitional
equality generated by beta, projections, eta (for Pi and Sigma), definition
unfolding, and user-declared rewrite rules. Conversion compares two terms
before reducing them: equal terms are convertible without unfolding either
side, which keeps nested definitions (a restriction of a restriction) from
doubling the work at each level.

Rewrite rules are directed, type-checked equations. A rule matches the
arguments of its elaborated left-hand side, a constant applied to
first-order patterns (constants, telescope variables, pairs and literals):
the first occurrence of each variable binds, later (elaboration-forced)
occurrences match anything. Matching weak-head-normalizes exactly the
subterms it needs to inspect, so rules fire through definitions. Rules for
one head are tried in declaration order. Each firing costs one step of
fuel; the reductions matching needs cost their own. Both sides of a rule
are compiled once, when it is declared. The left-hand side becomes a
matcher (``RewriteRule.fire``) that checks its constant, pair and literal
patterns in order and takes the variables' values from their first
occurrences; a rule whose patterns are all variables selects its
environment from the arguments directly. The right-hand side becomes a
builder that makes each instance from that environment
(``terms.compile_subst``) instead of substituting into it; subterms that
mention no pattern variable are shared, not rebuilt.

Primitive computation (Bd elimination on B/U, J on refl, literal addition) is
built into whnf by head name rather than stored as rules, so a signature
entry is only a type, a body when it is a definition, and an implicit mask:
a primitive is stored like any postulate.

Metavariables: holes inserted by the elaborator, solved by first-order
pattern unification only; anything harder raises UnsolvedMeta.
``Kernel.begin`` starts each declaration with a fresh MetaStore and a full
fuel budget, and every meta must be solved before the declaration's results
are stored, so the signature never contains metas.

``declare_*`` store what the elaborating ``Processor`` has already checked,
enforcing only closed terms, fresh names and the shape of rule left-hand
sides; ``prelude_self_check`` re-verifies a stored signature independently.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import (
    CannotInfer,
    DuplicateName,
    FuelExhausted,
    InvalidRewrite,
    NotAFunction,
    NotAPair,
    RewriteHeadIsDefinition,
    Span,
    TypeMismatch,
    UnboundVariable,
    UniverseMismatch,
    UnknownConstant,
    UnsolvedMeta,
)
from .pretty import pretty
from .terms import (
    App,
    Const,
    Context,
    Fst,
    Lambda,
    Meta,
    NatLit,
    Pair,
    Pi,
    Sigma,
    Snd,
    Term,
    Universe,
    Var,
    compile_subst,
    ctx_extend,
    ctx_lookup,
    free_meta_ids,
    map_term,
    scope_ok,
    shift,
    subst,
    subst_many,
    subterms,
)

DEFAULT_FUEL = 100_000

# heads the kernel computes directly
_PRIM_HEADS = frozenset({"plus", "BdElim", "J"})


# --- signature ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SignatureEntry:
    type: Term  # closed, checks against a universe
    body: Term | None = None  # a definition's; an axiom has none
    implicit_mask: tuple[bool, ...] = ()


# --- rewrite rules -----------------------------------------------------------

def _compile_patterns(
    pats: Sequence[Term], seen: set[int]
) -> Callable[[Sequence[Term], list, Callable[[Term], Term]], bool]:
    """A matcher for a sequence of patterns: it matches them against a
    sequence of targets of the same length, storing the values of the
    variables they bind in the environment.

    Constant, pair and literal patterns are checked in order, each
    weak-head-normalizing its target, and the first mismatch ends the match.
    A variable binds at its first occurrence, left to right and depth first
    (``seen`` holds the slots bound so far); a repeat is forced by
    elaboration and matches anything, so it is dropped here. Binding
    reduces nothing, so the bindings are stored after the checks."""
    checks = []
    binds = []
    for i, p in enumerate(pats):
        if type(p) is Var:
            if p.index not in seen:
                seen.add(p.index)
                binds.append((i, p.index))
        else:
            checks.append((i, _compile_check(p, seen)))

    def match_all(targets, env, whnf):
        for i, check in checks:
            if not check(targets[i], env, whnf):
                return False
        for i, slot in binds:
            env[slot] = targets[i]
        return True

    return match_all


def _compile_check(
    pat: Term, seen: set[int]
) -> Callable[[Term, list, Callable[[Term], Term]], bool]:
    """A matcher for one constant, pair or literal pattern: it
    weak-head-normalizes its target, compares the head, then matches the
    subpatterns."""
    cls = type(pat)
    if cls is NatLit:
        value = pat.value
        return lambda target, env, whnf: type(w := whnf(target)) is NatLit and w.value == value
    if cls is Const:
        name, arity = pat.name, len(pat.args)
        match_args = _compile_patterns(pat.args, seen)

        def check_const(target, env, whnf):
            w = whnf(target)
            return (
                type(w) is Const
                and w.name == name
                and len(w.args) == arity
                and match_args(w.args, env, whnf)
            )

        return check_const
    if cls is Pair:
        match_parts = _compile_patterns((pat.first, pat.second), seen)

        def check_pair(target, env, whnf):
            w = whnf(target)
            return type(w) is Pair and match_parts((w.first, w.second), env, whnf)

        return check_pair
    raise AssertionError(f"unhandled pattern {pat!r}")


def _compile_fire(
    pats: tuple[Term, ...], n_slots: int, instantiate: Callable[[Sequence[Term]], Term]
) -> Callable[[tuple[Term, ...], Callable[[Term], Term]], Term | None]:
    """``fire(args, whnf)``: the instance of a rule for the arguments of its
    head, with any arguments beyond the patterns applied to it, or ``None``
    when the patterns do not match (``_compile_patterns``)."""
    n = len(pats)
    if all(type(p) is Var for p in pats):
        # The environment, Var(0)'s value first, is a selection of the
        # arguments; no pattern reduces anything.
        first: dict[int, int] = {}
        for i, p in enumerate(pats):
            first.setdefault(p.index, i)
        positions = [first[slot] for slot in range(n_slots)]
        if n_slots == 1:
            # one item would come back bare, not as a sequence
            env_of = itemgetter(slice(positions[0], positions[0] + 1))
        else:
            env_of = itemgetter(*positions)

        def fire_variables(args, whnf):
            if len(args) == n:
                return instantiate(env_of(args))
            if len(args) < n:
                return None
            return _apply_args(instantiate(env_of(args)), args[n:])

        return fire_variables

    match_args = _compile_patterns(pats, set())

    def fire(args, whnf):
        if len(args) < n:
            return None
        env: list[Term | None] = [None] * n_slots
        if not match_args(args, env, whnf):
            return None
        out = instantiate(env)
        return out if len(args) == n else _apply_args(out, args[n:])

    return fire


@dataclass(frozen=True, slots=True)
class RewriteRule:
    head: str
    lhs: Const  # over the telescope; its arguments are the patterns
    rhs: Term  # over the telescope: Var(0) is the innermost slot
    telescope: tuple[tuple[str, Term], ...]  # (hint, type), outermost first
    # the instance of ``rhs`` for a match environment, Var(0)'s value first
    instantiate: Callable[[Sequence[Term]], Term] = field(init=False, repr=False, compare=False)
    # the instance for the arguments of ``head``, or None (``_compile_fire``)
    fire: Callable[[tuple[Term, ...], Callable[[Term], Term]], Term | None] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n_slots = len(self.telescope)
        instantiate = compile_subst(self.rhs, n_slots)
        object.__setattr__(self, "instantiate", instantiate)
        object.__setattr__(self, "fire", _compile_fire(self.lhs.args, n_slots, instantiate))


class Signature:
    def __init__(self) -> None:
        self.entries: dict[str, SignatureEntry] = {}
        self.rules_by_head: dict[str, list[RewriteRule]] = {}

    def snapshot(self):
        """Sizes to roll back to. Entries and rules are only ever appended,
        so the sizes identify what was added since."""
        return len(self.entries), {head: len(rs) for head, rs in self.rules_by_head.items()}

    def restore(self, snap) -> None:
        n_entries, rule_lens = snap
        while len(self.entries) > n_entries:
            self.entries.popitem()
        for head in list(self.rules_by_head):
            n = rule_lens.get(head, 0)
            if n == 0:
                del self.rules_by_head[head]
            else:
                del self.rules_by_head[head][n:]


# --- metavariables -----------------------------------------------------------

@dataclass
class MetaEntry:
    id: int
    span: Span | None = None
    type: Term | None = None  # in creation-context coordinates
    ctx: Context | None = None
    solution: Term | None = None  # over the creation context


class MetaStore:
    def __init__(self) -> None:
        self._entries: list[MetaEntry] = []

    def fresh(self, depth: int, span: Span | None = None) -> Meta:
        mid = len(self._entries)
        self._entries.append(MetaEntry(mid, span))
        return Meta(mid, tuple(Var(depth - 1 - k) for k in range(depth)))

    def entry(self, mid: int) -> MetaEntry:
        return self._entries[mid]

    def unsolved(self) -> list[MetaEntry]:
        return [e for e in self._entries if e.solution is None]


def _inst_solution(sol: Term, spine: tuple[Term, ...]) -> Term:
    n = len(spine)
    return subst_many(sol, [spine[n - 1 - j] for j in range(n)])


def _rename_into(t: Term, rename: dict[int, int], hole_id: int) -> Term:
    """Transport a candidate solution from the ambient context into the hole's
    creation context, inverting the spine. Ambient variables outside the spine
    have no preimage and abort the solve."""

    def var(i: int, d: int) -> Term | None:
        if i < d:
            return None
        if i - d not in rename:
            raise UnsolvedMeta(
                f"solution for hole ?{hole_id} mentions a variable the hole "
                f"cannot see"
            )
        j = d + rename[i - d]
        return None if j == i else Var(j)

    return map_term(t, var)


def _apply_args(t: Term, args) -> Term:
    for a in args:
        if isinstance(t, Const):
            t = Const(t.name, t.args + (a,))
        else:
            t = App(t, a)
    return t


def _app_spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Unwind application nodes: ``f a b`` becomes ``(f, (a, b))``."""
    extras: list[Term] = []
    while isinstance(t, App):
        extras.append(t.arg)
        t = t.fn
    return t, tuple(reversed(extras))


# --- the kernel --------------------------------------------------------------

class Kernel:
    def __init__(self, fuel: int = DEFAULT_FUEL):
        self.sig = Signature()
        self.fuel_limit = fuel
        self.begin()

    # - per-declaration state -

    def begin(self) -> None:
        """Start a declaration: no holes yet, and the full fuel budget."""
        self.metas = MetaStore()
        self._steps = 0

    def _tick(self) -> None:
        """Count one step; the only place that raises ``FuelExhausted``."""
        self._steps += 1
        if self._steps > self.fuel_limit:
            raise FuelExhausted(
                f"step budget of {self.fuel_limit} exhausted; a rewrite rule may "
                f"not terminate (raise --fuel to override)"
            )

    # - reduction -

    def whnf(self, t: Term, unfold: bool = True) -> Term:
        """Reduce until the head is rigid.

        Performs beta, projections of pairs, primitive computation, rewrite
        firing, and (when ``unfold``) unfolding of head definitions. Matching
        always unfolds, regardless of ``unfold``.
        """
        entries = self.sig.entries
        rules = self.sig.rules_by_head
        limit = self.fuel_limit
        while True:
            # `_tick`, inlined but for the step that exhausts the budget
            if self._steps < limit:
                self._steps += 1
            else:
                self._tick()
            cls = type(t)
            if cls is Const:
                n = t.name
                if n in _PRIM_HEADS:
                    stepped = self._prim_step(n, t.args)
                    if stepped is not None:
                        t = stepped
                        continue
                head_rules = rules.get(n)
                if head_rules:
                    # `self.whnf`, not the function: a wrapper installed on
                    # the class or the object sees the matcher's calls too
                    for rule in head_rules:
                        fired = rule.fire(t.args, self.whnf)
                        if fired is not None:
                            break
                    if fired is not None:
                        t = fired
                        continue
                if unfold:
                    entry = entries.get(n)
                    if entry is not None and entry.body is not None:
                        t = _apply_args(entry.body, t.args)
                        continue
                return t
            if cls is App:
                a = t.arg
                f = self.whnf(t.fn, unfold)
                if type(f) is Lambda:
                    t = subst(f.body, a)
                    continue
                if type(f) is Const:
                    t = Const(f.name, f.args + (a,))
                    continue
                return t if f is t.fn else App(f, a)
            if cls is Fst or cls is Snd:
                p = self.whnf(t.pair, unfold)
                if type(p) is Pair:
                    t = p.first if cls is Fst else p.second
                    continue
                return t if p is t.pair else cls(p)
            if cls is Meta:
                sol = self.metas.entry(t.id).solution
                if sol is None:
                    return t
                t = _inst_solution(sol, t.spine)
                continue
            return t

    def _prim_step(self, name: str, args: tuple[Term, ...]) -> Term | None:
        if name == "plus" and len(args) >= 2:
            a = self.whnf(args[0])
            b = self.whnf(args[1])
            if isinstance(a, NatLit) and isinstance(b, NatLit):
                return _apply_args(NatLit(a.value + b.value), args[2:])
        elif name == "BdElim" and len(args) >= 4:
            scrutinee = self.whnf(args[3])
            if isinstance(scrutinee, Const) and not scrutinee.args:
                if scrutinee.name == "B":
                    return _apply_args(args[1], args[4:])
                if scrutinee.name == "U":
                    return _apply_args(args[2], args[4:])
        elif name == "J" and len(args) >= 6:
            scrutinee = self.whnf(args[5])
            if isinstance(scrutinee, Const) and scrutinee.name == "refl":
                return _apply_args(args[3], args[6:])
        return None

    def normalize(self, t: Term) -> Term:
        """Full normal form: no beta redex, pair projection, or rule lhs remains.

        Definition heads unfold down to the first argument of a neutral spine
        and stay folded below that point; rewrite matching sees through them
        either way. This keeps normal forms and error messages close to what
        the user wrote.
        """
        return self._nf(t, structural=True)

    def _nf(self, t: Term, structural: bool) -> Term:
        h = self.whnf(t, unfold=structural)
        match h:
            case Const(name=n, args=args):
                return Const(n, tuple(self._nf(a, False) for a in args))
            case Pi(domain=d, codomain=c, hint=hint):
                return Pi(self._nf(d, structural), self._nf(c, structural), hint)
            case Sigma(first=a, second=b, hint=hint):
                return Sigma(self._nf(a, structural), self._nf(b, structural), hint)
            case Lambda(body=b, hint=hint):
                return Lambda(self._nf(b, structural), hint)
            case Pair(first=a, second=b):
                return Pair(self._nf(a, structural), self._nf(b, structural))
            case App(fn=f, arg=a):
                return App(self._nf(f, False), self._nf(a, False))
            case Fst(pair=p):
                return Fst(self._nf(p, False))
            case Snd(pair=p):
                return Snd(self._nf(p, False))
            case Meta(id=m, spine=sp):
                return Meta(m, tuple(self._nf(s, False) for s in sp))
            case _:
                return h

    # - conversion / unification -

    def convertible(self, t1: Term, t2: Term) -> bool:
        """Definitional equality, with eta for Pi and Sigma checked structurally."""
        return self._unify(t1, t2)

    def _unify(self, t1: Term, t2: Term) -> bool:
        # Equal terms (`==` is alpha-equivalence) are convertible and solve
        # no hole, so compare before reducing: unfolding both sides first
        # doubles the work with each nested definition.
        if t1 is t2 or t1 == t2:
            return True
        w1 = self.whnf(t1)
        w2 = self.whnf(t2)
        c1, c2 = type(w1), type(w2)
        if c1 is Meta and c2 is Meta and w1.id == w2.id:
            if len(w1.spine) == len(w2.spine) and all(
                self._unify(a, b) for a, b in zip(w1.spine, w2.spine)
            ):
                return True
            raise UnsolvedMeta(
                f"cannot reconcile two uses of hole ?{w1.id}; the solution is "
                f"not first-order"
            )
        if c1 is Meta:
            z2 = self.zonk(t2)
            return self._solve(w1, (), w2, z2 if type(z2) is Const else None)
        if c2 is Meta:
            z1 = self.zonk(t1)
            return self._solve(w2, (), w1, z1 if type(z1) is Const else None)
        if c1 is App:
            h1, extras1 = _app_spine(w1)
            if type(h1) is Meta:
                try:
                    return self._solve(h1, extras1, w2)
                except UnsolvedMeta:
                    pass
        if c2 is App:
            h2, extras2 = _app_spine(w2)
            if type(h2) is Meta:
                try:
                    return self._solve(h2, extras2, w1)
                except UnsolvedMeta:
                    pass
        unify = self._unify
        if c1 is c2:
            if c1 is Const:
                a1, a2 = w1.args, w2.args
                return (
                    w1.name == w2.name
                    and len(a1) == len(a2)
                    and all(unify(x, y) for x, y in zip(a1, a2))
                )
            if c1 is Var:
                return w1.index == w2.index
            if c1 is Pi:
                return unify(w1.domain, w2.domain) and unify(w1.codomain, w2.codomain)
            if c1 is Sigma or c1 is Pair:
                return unify(w1.first, w2.first) and unify(w1.second, w2.second)
            if c1 is Lambda:
                return unify(w1.body, w2.body)
            if c1 is App:
                return unify(w1.fn, w2.fn) and unify(w1.arg, w2.arg)
            if c1 is Fst or c1 is Snd:
                return unify(w1.pair, w2.pair)
            if c1 is Universe:
                return w1.level == w2.level
            if c1 is NatLit:
                return w1.value == w2.value
        # eta for Pi, then for Sigma, on whichever side is the introduction
        if c1 is Lambda:
            return unify(w1.body, App(shift(w2, 1), Var(0)))
        if c2 is Lambda:
            return unify(App(shift(w1, 1), Var(0)), w2.body)
        if c1 is Pair:
            return unify(w1.first, Fst(w2)) and unify(w1.second, Snd(w2))
        if c2 is Pair:
            return unify(Fst(w1), w2.first) and unify(Snd(w1), w2.second)
        return False

    def _invert_spine(self, hole: Meta, offset: int) -> dict[int, int]:
        """Map each ambient variable of the hole's spine to its index in the
        hole's creation context, shifted up by ``offset``."""
        length = len(hole.spine)
        rename: dict[int, int] = {}
        for j, s in enumerate(hole.spine):
            sw = self.whnf(s)
            if not isinstance(sw, Var) or sw.index in rename:
                raise UnsolvedMeta(
                    f"hole ?{hole.id} is applied to a non-variable spine; the "
                    f"solution is not first-order"
                )
            rename[sw.index] = offset + (length - 1 - j)
        return rename

    def _solution(self, hole: Meta, candidate: Term, rename: dict[int, int]) -> Term:
        """Zonk ``candidate``, occurs-check it and rename it into the hole's
        creation context; UnsolvedMeta when it cannot be the solution."""
        candidate = self.zonk(candidate)
        if hole.id in free_meta_ids(candidate):
            raise UnsolvedMeta(f"hole ?{hole.id} occurs in its own candidate solution")
        return _rename_into(candidate, rename, hole.id)

    def _solve(
        self, hole: Meta, extras: tuple[Term, ...], rhs: Term, preferred: Term | None = None
    ) -> bool:
        """Solve ``hole e1 .. ek = rhs`` by storing a ``k``-fold lambda.

        ``extras`` are the application arguments left of ``rhs``; together
        with the hole's own spine they must form distinct variables for the
        solution to be unique. ``preferred`` is ``rhs`` before head
        reduction, supplied only when it is a constant application; it is
        tried first so that solutions keep the folded, user-facing spelling
        when both spellings are in scope of the hole.
        """
        k = len(extras)
        rename = self._invert_spine(hole, k)
        for i, e in enumerate(extras):
            ew = self.whnf(e)
            if not isinstance(ew, Var) or ew.index in rename:
                raise UnsolvedMeta(
                    f"hole ?{hole.id} is applied to repeated or non-variable "
                    f"arguments; the solution is not unique"
                )
            rename[ew.index] = k - 1 - i
        sol = None
        if preferred is not None:
            try:
                sol = self._solution(hole, preferred, rename)
            except UnsolvedMeta:
                pass
        if sol is None:
            sol = self._solution(hole, rhs, rename)
        for _ in range(k):
            sol = Lambda(sol, None)
        self.metas.entry(hole.id).solution = sol
        return True

    def zonk(self, t: Term) -> Term:
        """Replace solved metavariables by their solutions, recursively."""

        def meta(m: int, spine: tuple[Term, ...]) -> Term | None:
            sol = self.metas.entry(m).solution
            return None if sol is None else self.zonk(_inst_solution(sol, spine))

        return map_term(t, lambda i, d: None, meta=meta)

    def require_solved(self, span: Span | None = None) -> None:
        pending = self.metas.unsolved()
        if pending:
            e = pending[0]
            what = f"?{e.id}"
            if e.type is not None:
                names = [c.hint for c in (e.ctx or ())]
                what += f" : {pretty(self.zonk(e.type), self.sig, names)}"
            raise UnsolvedMeta(
                f"{len(pending)} unsolved hole(s) remain; first is {what}",
                span=e.span or span,
            )

    # - typing -

    def infer(self, ctx: Context, t: Term) -> Term:
        match t:
            case Var(index=i):
                if i < 0 or i >= len(ctx):
                    raise UnboundVariable(f"variable index {i} exceeds context depth {len(ctx)}")
                return ctx_lookup(ctx, i)
            case Const(name=n, args=args):
                entry = self.sig.entries.get(n)
                if entry is None:
                    raise UnknownConstant(f"unknown constant `{n}`")
                # Instantiate the type once: while it is syntactically a Pi,
                # the arguments wait in `env` (last first) and only each
                # domain is substituted. The tick is the one step `whnf`
                # takes on a Pi, so the steps counted are those of reducing
                # the type after each argument.
                ty: Term = entry.type
                env: list[Term] = []
                for a in args:
                    if type(ty) is Pi:
                        self._tick()
                    else:
                        ty = self.whnf(subst_many(ty, env) if env else ty)
                        env = []
                        if not isinstance(ty, Pi):
                            raise NotAFunction(
                                f"`{n}` is over-applied: `{self._show(ctx, ty)}` is not a function type"
                            )
                    self.check(ctx, a, subst_many(ty.domain, env) if env else ty.domain)
                    env.insert(0, a)
                    ty = ty.codomain
                return subst_many(ty, env) if env else ty
            case Universe(level=0):
                return Universe(1)
            case Universe():
                raise UniverseMismatch("Type1 itself has no type")
            case Pi(domain=d, codomain=c, hint=h):
                l1 = self.check_is_type(ctx, d)
                l2 = self.check_is_type(ctx_extend(ctx, h or "x", d), c)
                return Universe(max(l1, l2))
            case Sigma(first=a, second=b, hint=h):
                l1 = self.check_is_type(ctx, a)
                l2 = self.check_is_type(ctx_extend(ctx, h or "p", a), b)
                return Universe(max(l1, l2))
            case Lambda():
                raise CannotInfer("cannot infer the type of an unannotated function")
            case App(fn=f, arg=a):
                # Reducible heads appear when a rewrite right-hand side or an
                # unfolded definition lands inside a type, so step them first.
                fw = self.whnf(f)
                if isinstance(fw, Lambda):
                    return self.infer(ctx, subst(fw.body, a))
                if isinstance(fw, Const):
                    return self.infer(ctx, Const(fw.name, fw.args + (a,)))
                tf = self.whnf(self.infer(ctx, fw))
                if not isinstance(tf, Pi):
                    raise NotAFunction(
                        f"applied term has non-function type `{self._show(ctx, tf)}`"
                    )
                self.check(ctx, a, tf.domain)
                return subst(tf.codomain, a)
            case Pair():
                raise CannotInfer("cannot infer the type of a bare pair")
            case Fst(pair=p):
                pw = self.whnf(p)
                if isinstance(pw, Pair):
                    return self.infer(ctx, pw.first)
                tp = self.whnf(self.infer(ctx, pw))
                if not isinstance(tp, Sigma):
                    raise NotAPair(
                        f"fst applied to a term of non-pair type `{self._show(ctx, tp)}`"
                    )
                return tp.first
            case Snd(pair=p):
                pw = self.whnf(p)
                if isinstance(pw, Pair):
                    return self.infer(ctx, pw.second)
                tp = self.whnf(self.infer(ctx, pw))
                if not isinstance(tp, Sigma):
                    raise NotAPair(
                        f"snd applied to a term of non-pair type `{self._show(ctx, tp)}`"
                    )
                return subst(tp.second, Fst(pw))
            case NatLit():
                if "Nat" not in self.sig.entries:
                    raise UnknownConstant("numeric literals need `Nat` declared")
                return Const("Nat")
            case Meta(id=m, spine=sp):
                entry = self.metas.entry(m)
                if entry.solution is not None:
                    return self.infer(ctx, _inst_solution(entry.solution, sp))
                if entry.type is not None:
                    return _inst_solution(entry.type, sp)
                raise CannotInfer("cannot infer the type of an unconstrained hole")
        raise AssertionError(f"infer: unhandled term {t!r}")

    def check(self, ctx: Context, t: Term, expected: Term) -> None:
        match t:
            case Lambda(body=b, hint=h):
                ew = self.whnf(expected)
                if isinstance(ew, Pi):
                    inner = ctx_extend(ctx, h or ew.hint or "x", ew.domain)
                    self.check(inner, b, ew.codomain)
                    return
                if isinstance(ew, Meta):
                    raise UnsolvedMeta(
                        "checking a function against an unsolved hole; annotate the type"
                    )
                raise TypeMismatch(
                    f"a function cannot have type `{self._show(ctx, ew)}`"
                )
            case Pair(first=a, second=b):
                ew = self.whnf(expected)
                if isinstance(ew, Sigma):
                    self.check(ctx, a, ew.first)
                    self.check(ctx, b, subst(ew.second, a))
                    return
                if isinstance(ew, Meta):
                    raise UnsolvedMeta(
                        "checking a pair against an unsolved hole; annotate the type"
                    )
                raise TypeMismatch(f"a pair cannot have type `{self._show(ctx, ew)}`")
            case Meta(id=m, spine=sp):
                entry = self.metas.entry(m)
                if entry.solution is not None:
                    self.check(ctx, _inst_solution(entry.solution, sp), expected)
                    return
                if entry.type is None:
                    entry.type = expected
                    entry.ctx = ctx
                    return
                if not self._unify(_inst_solution(entry.type, sp), expected):
                    raise TypeMismatch(
                        f"hole expects type `{self._show(ctx, entry.type)}` but "
                        f"`{self._show(ctx, expected)}` is required"
                    )
                return
            case _:
                actual = self.infer(ctx, t)
                if not self._unify(actual, expected):
                    raise TypeMismatch(
                        f"term has type `{self._show(ctx, actual)}` but "
                        f"`{self._show(ctx, expected)}` was expected"
                    )

    def check_is_type(self, ctx: Context, t: Term) -> int:
        """The universe level of ``t``, which must be a type."""
        tw = self.whnf(t)
        if isinstance(tw, Meta) and self.metas.entry(tw.id).type is None:
            # a hole standing where a type is needed defaults to Type
            self.check(ctx, tw, Universe(0))
            return 0
        # Infer from `t`, not `tw`: head reduction can fire a rule that drops
        # forced arguments (SigmaNP's `{b}`), leaving their holes unconstrained.
        ty = self.whnf(self.infer(ctx, t))
        if isinstance(ty, Universe):
            return ty.level
        if isinstance(ty, Meta) and self._unify(ty, Universe(0)):
            return 0
        raise UniverseMismatch(
            f"expected a type, found a term of type `{self._show(ctx, ty)}`"
        )

    def _show(self, ctx: Context, t: Term) -> str:
        names = [e.hint for e in ctx]
        try:
            return pretty(self.normalize(self.zonk(t)), self.sig, names)
        except FuelExhausted:
            return pretty(self.zonk(t), self.sig, names)

    # - declarations -

    def _require_fresh(self, name: str) -> None:
        if name in self.sig.entries:
            raise DuplicateName(f"`{name}` is already declared")

    def declare_axiom(self, name: str, ty: Term, mask: tuple[bool, ...] = ()) -> None:
        """Store an already-checked axiom; ``ty`` must be closed."""
        self.assert_closed(ty)
        self._require_fresh(name)
        self.sig.entries[name] = SignatureEntry(ty, None, mask)

    def declare_definition(
        self,
        name: str,
        ty: Term,
        body: Term,
        mask: tuple[bool, ...] = (),
    ) -> None:
        """Store an already-checked definition; both terms must be closed."""
        self.assert_closed(ty)
        self.assert_closed(body)
        self._require_fresh(name)
        self.sig.entries[name] = SignatureEntry(ty, body, mask)

    def declare_rewrite(
        self,
        telescope: tuple[tuple[str, Term], ...],
        lhs: Term,
        rhs: Term,
    ) -> RewriteRule:
        """Store an already-checked directed equation. The caller has
        elaborated both sides under the telescope, checked that the
        right-hand side has the left-hand side's type, and checked surface
        linearity; this checks the shape of the left-hand side, whose
        arguments are matched as they are."""
        if not isinstance(lhs, Const) or not lhs.args:
            raise InvalidRewrite(
                "rewrite left-hand side must be a constant applied to patterns"
            )
        entry = self.sig.entries.get(lhs.name)
        if entry is None:
            raise UnknownConstant(f"unknown constant `{lhs.name}`")
        if entry.body is not None:
            raise RewriteHeadIsDefinition(
                f"rewrite head `{lhs.name}` is a definition; unfold it instead"
            )
        n_slots = len(telescope)
        bound: set[int] = set()
        for t, _ in subterms(lhs):
            cls = type(t)
            if cls is Var:
                if not 0 <= t.index < n_slots:
                    raise InvalidRewrite("left-hand side mentions a foreign variable")
                bound.add(t.index)
            elif cls is not Const and cls is not Pair and cls is not NatLit:
                raise InvalidRewrite(
                    "left-hand side patterns may only contain constants, pattern "
                    "variables, pairs, and numeric literals"
                )
        missing = [hint for i, (hint, _) in enumerate(telescope) if n_slots - 1 - i not in bound]
        if missing:
            raise InvalidRewrite(
                f"pattern variable(s) {', '.join(missing)} never occur on the "
                f"left-hand side"
            )
        rule = RewriteRule(lhs.name, lhs, rhs, telescope)
        self.sig.rules_by_head.setdefault(lhs.name, []).append(rule)
        return rule

    def assert_closed(self, t: Term) -> Term:
        metas = free_meta_ids(t)
        if metas:
            raise UnsolvedMeta(f"internal: holes {sorted(metas)} escaped solving")
        if not scope_ok(t, 0):
            raise UnboundVariable("internal: unbound variable escaped elaboration")
        return t
