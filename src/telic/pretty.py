"""Term printer producing surface syntax.

Output re-parses to an alpha-equivalent term: binder names are freshened
against both enclosing binders and signature constants (so a hint can never
capture a constant), and implicit constant arguments are printed in braces so
re-elaboration consumes them positionally instead of re-solving.
"""

from __future__ import annotations

from .terms import (
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
    Term,
    Universe,
    Var,
    nat_digits,
    subterms,
)

# precedence levels, loosest first
_ARROW = 0
_SUM = 1
_APP = 2
_ATOM = 3


def pretty(t: Term, sig=None, names: list[str] | None = None) -> str:
    """Render ``t``; ``names`` lists enclosing binders, outermost first."""
    printer = _Printer(sig)
    return printer.show(t, list(names or []), _ARROW)


class _Printer:
    def __init__(self, sig):
        # binder names must not shadow a constant, and a constant's mask
        # braces its implicit arguments; only read, so no copy
        self.entries = sig.entries if sig is not None else {}

    def fresh(self, hint: str | None, env: list[str]) -> str:
        base = hint or "x"
        name = base
        while name in self.entries or name in env:
            name += "'"
        return name

    def mask(self, name: str) -> tuple[bool, ...]:
        entry = self.entries.get(name)
        return () if entry is None else entry.implicit_mask

    def show(self, t: Term, env: list[str], prec: int) -> str:
        match t:
            case Var(index=i):
                if 0 <= i < len(env):
                    return env[len(env) - 1 - i]
                return f"#{i}"
            case Const(name=n, args=()):
                return n
            case Const(name="plus", args=(a, b)) if not any(self.mask("plus")[:2]):
                s = f"{self.show(a, env, _SUM)} + {self.show(b, env, _APP)}"
                return _wrap(s, prec, _SUM)
            case Const(name=n, args=args):
                mask = self.mask(n)
                parts = [n]
                for k, a in enumerate(args):
                    if k < len(mask) and mask[k]:
                        parts.append("{" + self.show(a, env, _ARROW) + "}")
                    else:
                        parts.append(self.show(a, env, _ATOM))
                return _wrap(" ".join(parts), prec, _APP)
            case Universe(level=0):
                return "Type"
            case Universe():
                return "Type1"
            case NatLit(value=v):
                return nat_digits(v)
            case Pi(domain=d, codomain=c, hint=h):
                if _uses_var0(c):
                    x = self.fresh(h, env)
                    s = (
                        f"({x} : {self.show(d, env, _ARROW)}) -> "
                        f"{self.show(c, env + [x], _ARROW)}"
                    )
                else:
                    s = (
                        f"{self.show(d, env, _SUM)} -> "
                        f"{self.show(c, env + ['_'], _ARROW)}"
                    )
                return _wrap(s, prec, _ARROW)
            case Lambda(body=b, hint=h):
                x = self.fresh(h, env)
                s = f"\\{x}. {self.show(b, env + [x], _ARROW)}"
                return _wrap(s, prec, _ARROW)
            case App(fn=f, arg=a):
                s = f"{self.show(f, env, _APP)} {self.show(a, env, _ATOM)}"
                return _wrap(s, prec, _APP)
            case Sigma(first=a, second=b, hint=h):
                x = self.fresh(h or "p", env)
                s = (
                    f"Σ ({x} : {self.show(a, env, _ARROW)}). "
                    f"{self.show(b, env + [x], _ARROW)}"
                )
                return _wrap(s, prec, _ARROW)
            case Pair():
                items = []
                cur: Term = t
                while isinstance(cur, Pair):
                    items.append(self.show(cur.first, env, _ARROW))
                    cur = cur.second
                items.append(self.show(cur, env, _ARROW))
                return "(" + " , ".join(items) + ")"
            case Fst(pair=p):
                return _wrap(f"fst {self.show(p, env, _ATOM)}", prec, _APP)
            case Snd(pair=p):
                return _wrap(f"snd {self.show(p, env, _ATOM)}", prec, _APP)
            case Meta(id=m):
                return f"?{m}"
        raise AssertionError(f"pretty: unhandled term {t!r}")


def _wrap(s: str, required: int, actual: int) -> str:
    return f"({s})" if actual < required else s


def _uses_var0(t: Term) -> bool:
    return any(isinstance(s, Var) and s.index == d for s, d in subterms(t))
