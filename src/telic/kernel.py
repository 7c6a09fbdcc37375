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
occurrences. Compiling the left-hand side is also the rule's shape check:
it refuses a variable outside the telescope, a definition (matching unfolds
it, so the rule could never fire), any other node that is no pattern, and a
telescope slot that never occurs. The right-hand side becomes a builder
that makes each instance from that environment (``terms.compile_subst``)
instead of substituting into it; subterms that mention no pattern variable
are shared, not rebuilt. Both compilers recurse through module-level
functions, not nested ones that call themselves or each other: such a
closure would be a reference cycle, and the left-hand side's would keep the
signature it reads alive until the cyclic collector ran.

The one computation built into whnf is literal addition: ``plus`` on two
numerals is their sum. Every other computation is a rewrite rule of the
signature (the prelude declares those of ``BdElim`` and ``J``), so a
signature entry is only a type, a body when it is a definition, and an
implicit mask: a primitive is stored like any postulate. ``plus`` and
``Nat``, the type of numerals, are the only constants the kernel names.

Metavariables: holes inserted by the elaborator, solved by first-order
pattern unification only; anything harder raises UnsolvedMeta. Every hole is
solved in one place, ``Kernel._solve``: a bare hole against a term, and a
hole applied to arguments (``_solve_applied``, tried on the left side of a
conversion, then on the right). A hole whose type is known takes only a
solution of that type. ``Kernel.begin`` starts each declaration with no
holes and a full fuel budget; ``Kernel.hole`` makes each hole, and
``Kernel.close`` ends the declaration: it requires every hole solved and
fills them in, so the signature never contains holes. A declaration that
made no hole is returned as it stands, without the zonk, which would give
back the very same terms.

``infer``, ``check`` and ``_nf`` run once per node, so, like
``terms._map``, they dispatch on the exact class of a term with ``is``,
``Const`` first, instead of ``match`` class patterns, which test
``isinstance`` case by case. The kernel keeps one ``Const`` per nullary
name (``Kernel.consts``): the elaborator takes a bare name from it, and
``infer`` gives a literal its ``Nat``. So equal constants are mostly one
object, and conversion's ``is`` test settles them without calling
``==``. A ``Const`` is only a name, so the table needs no rollback.

Records are plain: a ``SignatureEntry`` is a named tuple, and a
``RewriteRule`` (its compiled matcher and builder beside its two sides) and
a ``MetaEntry`` (filled in as checking meets the hole) are slotted classes.

``declare_*`` store what the elaborating ``Processor`` has already checked,
enforcing only closed terms (a rule's telescope and right-hand side closed
over its slots), fresh names and, by compiling them, the shape of rule
left-hand sides; ``prelude_self_check`` re-verifies a stored signature
independently.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import is_
from typing import NamedTuple

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
    shift,
    subst,
    subst_many,
    subterms,
)

DEFAULT_FUEL = 100_000


# --- signature ---------------------------------------------------------------

class SignatureEntry(NamedTuple):
    type: Term  # closed, checks against a universe
    body: Term | None = None  # a definition's; an axiom has none
    implicit_mask: tuple[bool, ...] = ()


# --- rewrite rules -----------------------------------------------------------

# Module functions, not closures inside ``_compile_fire`` that call each
# other, so that compiling a rule leaves no reference cycle holding
# ``entries`` (see the module docstring).
def _patterns(seq: Sequence[Term], n_slots: int, seen: set[int], entries: dict[str, SignatureEntry]):
    """A matcher for a sequence of patterns against as many targets,
    storing the values of the variables they bind in the environment."""
    checks = []
    binds = []
    for i, p in enumerate(seq):
        if type(p) is Var:
            if not 0 <= p.index < n_slots:
                raise InvalidRewrite("left-hand side mentions a foreign variable")
            if p.index not in seen:
                seen.add(p.index)
                binds.append((i, p.index))
        else:
            checks.append((i, _pattern(p, n_slots, seen, entries)))

    def match_all(targets, env, whnf):
        for i, check in checks:
            if not check(targets[i], env, whnf):
                return False
        for i, slot in binds:
            env[slot] = targets[i]
        return True

    return match_all


def _pattern(pat: Term, n_slots: int, seen: set[int], entries: dict[str, SignatureEntry]):
    """A matcher for one constant, pair or literal pattern: it
    weak-head-normalizes its target, compares the head, then matches the
    subpatterns."""
    cls = type(pat)
    if cls is NatLit:
        value = pat.value
        return lambda target, env, whnf: type(w := whnf(target)) is NatLit and w.value == value
    if cls is Const:
        name, arity = pat.name, len(pat.args)
        entry = entries.get(name)
        if entry is not None and entry.body is not None:
            raise InvalidRewrite(
                f"left-hand side mentions the definition `{name}`, which "
                f"matching unfolds, so the rule could never fire"
            )
        match_args = _patterns(pat.args, n_slots, seen, entries)

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
        match_parts = _patterns((pat.first, pat.second), n_slots, seen, entries)

        def check_pair(target, env, whnf):
            w = whnf(target)
            return type(w) is Pair and match_parts((w.first, w.second), env, whnf)

        return check_pair
    raise InvalidRewrite(
        "left-hand side patterns may only contain constants, pattern "
        "variables, pairs, and numeric literals"
    )


def _compile_fire(
    pats: tuple[Term, ...],
    telescope: tuple[tuple[str, Term], ...],
    instantiate: Callable[[Sequence[Term]], Term],
    entries: dict[str, SignatureEntry],
) -> Callable[[tuple[Term, ...], Callable[[Term], Term]], Term | None]:
    """``fire(args, whnf)``: the instance of a rule for the arguments of its
    head, with any arguments beyond the patterns applied to it, or ``None``
    when the patterns do not match. Compiling is the rule's shape check: it
    reads the patterns in preorder and raises ``InvalidRewrite`` at the
    first one that is not a slot, literal, pair or constant without a body
    in ``entries``, then at any slot that never occurs.

    Constant, pair and literal patterns are checked in order, each
    weak-head-normalizing its target, and the first mismatch ends the match.
    A variable binds at its first occurrence, left to right and depth first
    (``seen`` holds the slots bound so far); a repeat is forced by
    elaboration and matches anything, so it is dropped here. Binding
    reduces nothing, so the bindings are stored after the checks."""
    n_slots = len(telescope)
    seen: set[int] = set()
    n = len(pats)
    match_args = _patterns(pats, n_slots, seen, entries)
    missing = [hint for i, (hint, _) in enumerate(telescope) if n_slots - 1 - i not in seen]
    if missing:
        raise InvalidRewrite(
            f"pattern variable(s) {', '.join(missing)} never occur on the "
            f"left-hand side"
        )

    def fire(args, whnf):
        if len(args) < n:
            return None
        env: list[Term | None] = [None] * n_slots
        if not match_args(args, env, whnf):
            return None
        out = instantiate(env)
        return out if len(args) == n else _apply_args(out, args[n:])

    return fire


class RewriteRule:
    """A stored rewrite rule, its two sides compiled once."""

    __slots__ = ("lhs", "rhs", "telescope", "instantiate", "fire")

    def __init__(
        self,
        lhs: Const,
        rhs: Term,
        telescope: tuple[tuple[str, Term], ...],
        entries: dict[str, SignatureEntry],
    ) -> None:
        self.lhs = lhs  # over the telescope; its arguments are the patterns
        self.rhs = rhs  # over the telescope: Var(0) is the innermost slot
        self.telescope = telescope  # (hint, type), outermost first
        # the instance of ``rhs`` for a match environment, Var(0)'s value first
        self.instantiate = compile_subst(rhs, len(telescope))
        # the instance for the arguments of ``lhs.name``, or None; compiling
        # it is the shape check of ``lhs`` (``_compile_fire``)
        self.fire = _compile_fire(lhs.args, telescope, self.instantiate, entries)


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

class MetaEntry:
    """A hole of the current declaration. Checking fills in its type and
    context when it first meets the hole, and its solution when it finds
    one."""

    __slots__ = ("id", "span", "type", "ctx", "solution")

    def __init__(self, id: int, span: Span | None = None) -> None:
        self.id = id
        self.span = span
        self.type: Term | None = None  # in creation-context coordinates
        self.ctx: Context | None = None
        self.solution: Term | None = None  # over the creation context


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
        # the one term of each nullary constant (see the module docstring)
        self.consts: dict[str, Const] = {"Nat": Const("Nat", ())}
        self.begin()

    # - per-declaration state -

    def begin(self) -> None:
        """Start a declaration: no holes yet, and the full fuel budget."""
        self.metas: list[MetaEntry] = []  # the declaration's holes, by id
        self._steps = 0

    def hole(self, depth: int, span: Span | None = None) -> Meta:
        """A fresh hole under ``depth`` binders, applied to each of them,
        outermost first."""
        mid = len(self.metas)
        self.metas.append(MetaEntry(mid, span))
        return Meta(mid, tuple(Var(depth - 1 - k) for k in range(depth)))

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

        Performs beta, projections of pairs, literal addition, rewrite
        firing, and (when ``unfold``) unfolding of head definitions. Matching
        always unfolds, regardless of ``unfold``.

        A firing that rebuilds its own target (the target's head applied to
        the very same argument objects, as ``loop n = loop n`` does) can
        never make progress: reduction is deterministic, so the same rule
        would fire on the same term until the budget ran out. Such a firing
        spends the whole budget at once and raises ``FuelExhausted`` with the
        message and step count that spending it step by step gives. The test
        is by identity, not ``==``: it costs O(arity), and structural
        equality would recurse through a growing term such as
        ``grow n = grow (succ n)``. Longer cycles (``ping n = pong n``,
        ``pong n = ping n``) still spend the budget one step at a time.
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
                if n == "plus" and len(t.args) >= 2:
                    a = self.whnf(t.args[0])
                    b = self.whnf(t.args[1])
                    if type(a) is NatLit and type(b) is NatLit:
                        t = _apply_args(NatLit(a.value + b.value), t.args[2:])
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
                        if (
                            type(fired) is Const
                            and fired.name == n
                            and len(fired.args) == len(t.args)
                            and all(map(is_, fired.args, t.args))
                        ):
                            # the firing rebuilt its own target: every later
                            # round repeats this one, so spend the budget now
                            self._steps = limit
                            self._tick()
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
                sol = self.metas[t.id].solution
                if sol is None:
                    return t
                t = _inst_solution(sol, t.spine)
                continue
            return t

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
        cls = type(h)
        if cls is Const:
            args = h.args
            return Const(h.name, tuple([self._nf(a, False) for a in args])) if args else h
        if cls is Pi:
            return Pi(self._nf(h.domain, structural), self._nf(h.codomain, structural), h.hint)
        if cls is App:
            return App(self._nf(h.fn, False), self._nf(h.arg, False))
        if cls is Sigma:
            return Sigma(self._nf(h.first, structural), self._nf(h.second, structural), h.hint)
        if cls is Lambda:
            return Lambda(self._nf(h.body, structural), h.hint)
        if cls is Pair:
            return Pair(self._nf(h.first, structural), self._nf(h.second, structural))
        if cls is Fst or cls is Snd:
            return cls(self._nf(h.pair, False))
        if cls is Meta:
            return Meta(h.id, tuple([self._nf(s, False) for s in h.spine]))
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
            return self._solve(w1, (), w2, self.zonk(t2))
        if c2 is Meta:
            return self._solve(w2, (), w1, self.zonk(t1))
        if (c1 is App or c2 is App) and self._solve_applied(w1, w2):
            return True
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

    def _solve_applied(self, w1: Term, w2: Term) -> bool:
        """Try ``?m e1 .. ek = other`` with the applied hole on the left,
        then on the right. A hole whose arguments are not distinct
        variables, or whose solution fails, leaves the terms to be compared
        structurally, so False means only that no hole was solved."""
        for applied, other in ((w1, w2), (w2, w1)):
            if type(applied) is App:
                head, extras = _app_spine(applied)
                if type(head) is Meta:
                    try:
                        return self._solve(head, extras, other)
                    except UnsolvedMeta:
                        pass
        return False

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

        The hole's spine followed by ``extras``, the application arguments
        left of ``rhs``, must be distinct variables for the solution to be
        unique: the ``j``-th of the ``n`` maps to the solution's variable
        ``n - 1 - j``. ``preferred`` is ``rhs`` before head reduction; when
        it is a constant application it is tried first, so that solutions
        keep the folded, user-facing spelling when both spellings are in
        scope of the hole.
        """
        args = hole.spine + extras
        n = len(args)
        rename: dict[int, int] = {}
        for j, a in enumerate(args):
            aw = self.whnf(a)
            if type(aw) is not Var or aw.index in rename:
                raise UnsolvedMeta(
                    f"hole ?{hole.id} is applied to a non-variable spine; the "
                    f"solution is not first-order"
                )
            rename[aw.index] = n - 1 - j
        sol = None
        if type(preferred) is Const:
            try:
                sol = self._solution(hole, preferred, rename)
            except UnsolvedMeta:
                pass
        if sol is None:
            sol = self._solution(hole, rhs, rename)
        for _ in extras:
            sol = Lambda(sol, None)
        entry = self.metas[hole.id]
        if entry.type is not None:
            self.check(entry.ctx, sol, entry.type)
        entry.solution = sol
        return True

    def zonk(self, t: Term) -> Term:
        """Replace solved metavariables by their solutions, recursively."""

        def meta(m: int, spine: tuple[Term, ...]) -> Term | None:
            sol = self.metas[m].solution
            return None if sol is None else self.zonk(_inst_solution(sol, spine))

        return map_term(t, lambda i, d: None, meta=meta)

    def close(self, *terms: Term) -> list[Term]:
        """End the declaration: ``terms`` with their holes filled in. Raises
        ``UnsolvedMeta`` at the first pending hole's span unless every hole
        is solved; a hole without one is positioned by the caller
        (``Processor.checked``)."""
        pending = [e for e in self.metas if e.solution is None]
        if pending:
            e = pending[0]
            raise UnsolvedMeta(
                f"{len(pending)} unsolved hole(s) remain; first is {self._show_hole(e)}",
                span=e.span,
            )
        if not self.metas:  # nothing to fill in: the zonk would return each term itself
            return list(terms)
        return [self.zonk(t) for t in terms]

    def _show_hole(self, e: MetaEntry) -> str:
        """``?n``, followed by `` : T`` once checking has given the hole a type."""
        if e.type is None:
            return f"?{e.id}"
        names = [c.hint for c in (e.ctx or ())]
        return f"?{e.id} : {pretty(self.zonk(e.type), self.sig, names)}"

    # - typing -

    def infer(self, ctx: Context, t: Term) -> Term:
        cls = type(t)
        if cls is Const:
            n = t.name
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
            for a in t.args:
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
        if cls is Var:
            i = t.index
            if i < 0 or i >= len(ctx):
                raise UnboundVariable(f"variable index {i} exceeds context depth {len(ctx)}")
            return ctx_lookup(ctx, i)
        if cls is App:
            # Reducible heads appear when a rewrite right-hand side or an
            # unfolded definition lands inside a type, so step them first.
            a = t.arg
            fw = self.whnf(t.fn)
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
        if cls is Pi:
            d = t.domain
            l1 = self.check_is_type(ctx, d)
            l2 = self.check_is_type(ctx_extend(ctx, t.hint or "x", d), t.codomain)
            return Universe(max(l1, l2))
        if cls is Sigma:
            a = t.first
            l1 = self.check_is_type(ctx, a)
            l2 = self.check_is_type(ctx_extend(ctx, t.hint or "p", a), t.second)
            return Universe(max(l1, l2))
        if cls is Universe:
            if t.level == 0:
                return Universe(1)
            raise UniverseMismatch("Type1 itself has no type")
        if cls is NatLit:
            if "Nat" not in self.sig.entries:
                raise UnknownConstant("numeric literals need `Nat` declared")
            return self.consts["Nat"]
        if cls is Fst or cls is Snd:
            first = cls is Fst
            pw = self.whnf(t.pair)
            if isinstance(pw, Pair):
                return self.infer(ctx, pw.first if first else pw.second)
            tp = self.whnf(self.infer(ctx, pw))
            if not isinstance(tp, Sigma):
                raise NotAPair(
                    f"{'fst' if first else 'snd'} applied to a term of non-pair "
                    f"type `{self._show(ctx, tp)}`"
                )
            return tp.first if first else subst(tp.second, Fst(pw))
        if cls is Meta:
            entry = self.metas[t.id]
            if entry.solution is not None:
                return self.infer(ctx, _inst_solution(entry.solution, t.spine))
            if entry.type is not None:
                return _inst_solution(entry.type, t.spine)
            raise CannotInfer("cannot infer the type of an unconstrained hole")
        if cls is Lambda:
            raise CannotInfer("cannot infer the type of an unannotated function")
        if cls is Pair:
            raise CannotInfer("cannot infer the type of a bare pair")
        raise AssertionError(f"infer: unhandled term {t!r}")

    def check(self, ctx: Context, t: Term, expected: Term) -> None:
        cls = type(t)
        if cls is Lambda:
            ew = self.whnf(expected)
            if isinstance(ew, Pi):
                inner = ctx_extend(ctx, t.hint or ew.hint or "x", ew.domain)
                self.check(inner, t.body, ew.codomain)
                return
            if isinstance(ew, Meta):
                raise UnsolvedMeta(
                    "checking a function against an unsolved hole; annotate the type"
                )
            raise TypeMismatch(
                f"a function cannot have type `{self._show(ctx, ew)}`"
            )
        if cls is Pair:
            ew = self.whnf(expected)
            if isinstance(ew, Sigma):
                a = t.first
                self.check(ctx, a, ew.first)
                self.check(ctx, t.second, subst(ew.second, a))
                return
            if isinstance(ew, Meta):
                raise UnsolvedMeta(
                    "checking a pair against an unsolved hole; annotate the type"
                )
            raise TypeMismatch(f"a pair cannot have type `{self._show(ctx, ew)}`")
        if cls is Meta:
            entry = self.metas[t.id]
            if entry.solution is not None:
                self.check(ctx, _inst_solution(entry.solution, t.spine), expected)
                return
            if entry.type is None:
                entry.type = expected
                entry.ctx = ctx
                return
            if not self._unify(_inst_solution(entry.type, t.spine), expected):
                raise TypeMismatch(
                    f"hole expects type `{self._show(ctx, entry.type)}` but "
                    f"`{self._show(ctx, expected)}` is required"
                )
            return
        actual = self.infer(ctx, t)
        if not self._unify(actual, expected):
            raise TypeMismatch(
                f"term has type `{self._show(ctx, actual)}` but "
                f"`{self._show(ctx, expected)}` was expected"
            )

    def check_is_type(self, ctx: Context, t: Term) -> int:
        """The universe level of ``t``, which must be a type."""
        tw = self.whnf(t)
        if isinstance(tw, Meta) and self.metas[tw.id].type is None:
            # a hole standing where a type is needed defaults to Type
            self.check(ctx, tw, Universe(0))
            return 0
        # Infer from `t`, not `tw`: head reduction can fire a rule that drops
        # forced arguments (SigmaNP's `{b}`), leaving their holes unconstrained.
        ty = self.whnf(self.infer(ctx, t))
        if isinstance(ty, Universe):
            return ty.level
        # an unsolved hole's own type says why no universe solves it
        shown = self._show_hole(self.metas[ty.id]) if type(ty) is Meta else self._show(ctx, ty)
        raise UniverseMismatch(f"expected a type, found a term of type `{shown}`")

    def _show(self, ctx: Context, t: Term) -> str:
        names = [e.hint for e in ctx]
        try:
            return pretty(self.normalize(self.zonk(t)), self.sig, names)
        except FuelExhausted:
            return pretty(self.zonk(t), self.sig, names)

    # - declarations -

    def declare_axiom(self, name: str, ty: Term, mask: tuple[bool, ...] = ()) -> None:
        """Store an already-checked axiom; ``ty`` must be closed."""
        self._store(name, SignatureEntry(ty, None, mask))

    def declare_definition(
        self,
        name: str,
        ty: Term,
        body: Term,
        mask: tuple[bool, ...] = (),
    ) -> None:
        """Store an already-checked definition; both terms must be closed."""
        self._store(name, SignatureEntry(ty, body, mask))

    def _store(self, name: str, entry: SignatureEntry) -> None:
        """Store ``entry`` under ``name``, which must be fresh, once its
        terms are found closed."""
        self.assert_closed(entry.type)
        if entry.body is not None:
            self.assert_closed(entry.body)
        if name in self.sig.entries:
            raise DuplicateName(f"`{name}` is already declared")
        self.sig.entries[name] = entry

    def declare_rewrite(
        self,
        telescope: tuple[tuple[str, Term], ...],
        lhs: Term,
        rhs: Term,
    ) -> RewriteRule:
        """Store an already-checked directed equation. The caller has
        elaborated both sides under the telescope, checked that the
        right-hand side has the left-hand side's type, and checked
        linearity; compiling the rule checks the shape of the left-hand
        side, whose arguments are matched as they are (``_compile_fire``).
        Each telescope type must be closed over the slots before it, and
        the right-hand side over all of them."""
        for i, (_, ty) in enumerate(telescope):
            self.assert_closed(ty, i)
        self.assert_closed(rhs, len(telescope))
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
        rule = RewriteRule(lhs, rhs, telescope, self.sig.entries)
        self.sig.rules_by_head.setdefault(lhs.name, []).append(rule)
        return rule

    def assert_closed(self, t: Term, depth: int = 0) -> Term:
        """``t``, which must hold no hole and no variable beyond the
        ``depth`` innermost binders around it. One walk finds both; holes
        are reported first."""
        metas: set[int] = set()
        unbound = False
        for s, d in subterms(t, depth):
            cls = type(s)
            if cls is Meta:
                metas.add(s.id)
            elif cls is Var and s.index >= d:
                unbound = True
        if metas:
            raise UnsolvedMeta(f"internal: holes {sorted(metas)} escaped solving")
        if unbound:
            raise UnboundVariable("internal: unbound variable escaped elaboration")
        return t
