"""Elaboration and declaration processing.

Elaboration turns surface expressions into kernel terms: it resolves names
against local binders and the signature, inserts a fresh hole for every
implicit argument the user did not supply in braces, and desugars bare
`fst`/`snd` into functions. The kernel then solves the holes while checking.

Implicitness is a surface convention, not a kernel feature: every constant
remembers which of its leading arguments were declared in braces, and those
positions are filled with holes (or with braced arguments) at use sites.

Declaration processing turns each declaration into a Report: the span it
is about, what was declared, and an error code when it failed. A file is
parsed lazily, one declaration at a time, and each declaration is checked
as it arrives, so only the current one's tokens and nodes are held. A
file's reports come in source order, a parse error's where it stands.
Failed bindings (postulate, primitive, def, entail, import) stop the rest of the
file's declarations, since everything after them is likely poisoned, but
its parse errors are still reported; failed queries (check, norm, fail,
rewrite) are reported and processing continues. A report takes its kind
and name from the declaration's. Every typing claim arrives as a `DDef`:
a postulate (no body) is stored as an axiom, a def or entail as a
definition, and a check (no name) is only checked. ``Processor.checked``
runs each, and reports nesting too deep for Python as ``DepthExceeded``.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any, NamedTuple

from .errors import (
    DepthExceeded,
    NonlinearPattern,
    ParseError,
    RewriteTypeMismatch,
    Span,
    TelicError,
    TypeMismatch,
    UnboundVariable,
)
from .kernel import Kernel
from .pretty import pretty
from .surface import (
    DDef,
    DFail,
    DImport,
    DNorm,
    DRewrite,
    Declaration,
    SApp,
    SExpr,
    SHole,
    SLambda,
    SName,
    SNat,
    SPair,
    SPi,
    SProj,
    SSigma,
    SUniverse,
    parse_expr,
    parse_stream,
)
from .terms import (
    EMPTY_CONTEXT,
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
    ctx_extend,
    map_term,
    subterms,
)

# --- reports -------------------------------------------------------------------

class Report(NamedTuple):
    span: Span
    kind: str  # postulate | primitive | def | rewrite | check | fail | norm | entail | import | parse
    name: str | None
    code: str | None = None  # the error code; a report without one is ok
    message: str | None = None
    normal_form: str | None = None

    @property
    def ok(self) -> bool:
        return self.code is None

    @property
    def status(self) -> str:
        return "ok" if self.code is None else "error"

    def to_data(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "file": self.span.file,
            "line": self.span.line,
            "col": self.span.col,
            "kind": self.kind,
            "name": self.name,
            "status": self.status,
        }
        if self.code is not None:
            payload["code"] = self.code
        if self.message is not None:
            payload["message"] = self.message
        if self.normal_form is not None:
            payload["normal_form"] = self.normal_form
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_data(), ensure_ascii=False, sort_keys=True)

    def render(self) -> str:
        head = f"{self.span}: {self.status}: {self.kind}"
        if self.name:
            head += f" {self.name}"
        if self.code is not None:
            head += f" [{self.code}]"
        if self.message:
            head += f": {self.message}"
        if self.normal_form is not None:
            head += f" = {self.normal_form}"
        return head


# --- elaboration of expressions ------------------------------------------------

class Elaborator:
    """Surface expression to kernel term, inserting implicit-argument holes.

    ``elab`` runs once per surface node, so it dispatches on the node's
    class with ``is`` and reads its fields by index. It unwinds an
    application spine in place, down to its head. A name with neither
    arguments nor implicit ones becomes the kernel's one ``Const`` for it
    (``Kernel.consts``).

    ``used`` collects the name of every signature constant a surface name
    has resolved to; ``telic selftest`` reads it as the corpus's coverage.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.consts = kernel.consts
        self.used: set[str] = set()

    def elab(self, e: SExpr, env: list[str | None]) -> Term:
        cls = type(e)
        if cls is SName or cls is SApp:
            args: list[SApp] = []  # the spine down to its head
            while type(e) is SApp:
                args.append(e)
                e = e[1]
            args.reverse()  # first argument first
            if type(e) is not SName:
                return self._application(e, args, env)
            n = e[1]
            if n in env:  # the innermost binder of that name
                return self._apply_rest(Var(env[::-1].index(n)), args, env)
            entry = self.kernel.sig.entries.get(n)
            if entry is None:
                raise UnboundVariable(f"`{n}` is not in scope", span=e[0])
            self.used.add(n)
            mask = entry.implicit_mask
            if not args and not mask:
                c = self.consts.get(n)
                if c is None:
                    c = self.consts[n] = Const(n, ())
                return c
            return self._const_application(n, mask, args, env, e[0])
        if cls is SPi:
            return Pi(self.elab(e[3], env), self.elab(e[4], env + [e[1]]), e[1])
        if cls is SUniverse:
            return Universe(e[1])
        if cls is SHole:
            return self.kernel.hole(len(env), e[0])
        if cls is SNat:
            return NatLit(e[1])
        if cls is SLambda:
            return Lambda(self.elab(e[2], env + [e[1]]), e[1])
        if cls is SSigma:
            return Sigma(self.elab(e[2], env), self.elab(e[3], env + [e[1]]), e[1])
        if cls is SPair:
            return Pair(self.elab(e[1], env), self.elab(e[2], env))
        if cls is SProj:
            return self._application(e, [], env)
        raise AssertionError(f"elab: unhandled surface form {e!r}")

    def _application(self, head: SExpr, args: list[SApp], env: list[str | None]) -> Term:
        """``head`` applied to ``args``, for a head that is not a name."""
        if type(head) is SProj:
            w = head.which
            wrap = Fst if w == "fst" else Snd
            if not args:
                return Lambda(wrap(Var(0)), "p")
            if args[0].implicit:
                raise TypeMismatch(
                    f"`{w}` takes its argument explicitly", span=args[0].arg.span
                )
            return self._apply_rest(wrap(self.elab(args[0].arg, env)), args[1:], env)
        return self._apply_rest(self.elab(head, env), args, env)

    def _const_application(
        self,
        name: str,
        mask: tuple[bool, ...],
        args: list[SApp],
        env: list[str | None],
        span: Span,
    ) -> Term:
        out_args: list[Term] = []
        i = 0
        for implicit_pos in mask:
            if implicit_pos:
                if i < len(args) and args[i].implicit:
                    out_args.append(self.elab(args[i].arg, env))
                    i += 1
                else:
                    out_args.append(self.kernel.hole(len(env), span))
            else:
                if i >= len(args):
                    break
                if args[i].implicit:
                    raise TypeMismatch(
                        f"`{name}` expects an explicit argument here, not a "
                        f"braced one",
                        span=args[i].arg.span,
                    )
                out_args.append(self.elab(args[i].arg, env))
                i += 1
        for a in args[i:]:
            if a.implicit:
                raise TypeMismatch(
                    f"`{name}` has no implicit argument left to fill",
                    span=a.arg.span,
                )
            out_args.append(self.elab(a.arg, env))
        return Const(name, tuple(out_args))

    def _apply_rest(self, fn: Term, args: list[SApp], env: list[str | None]) -> Term:
        for a in args:
            if a.implicit:
                raise TypeMismatch(
                    "only declared constants take braced arguments", span=a.arg.span
                )
            fn = App(fn, self.elab(a.arg, env))
        return fn


def implicit_mask_of(ty: SExpr) -> tuple[bool, ...]:
    """Which leading function arguments of a declared type were written in
    braces. Only the outermost arrow spine counts."""
    mask: list[bool] = []
    while isinstance(ty, SPi):
        mask.append(ty.implicit)
        ty = ty.codomain
    return tuple(mask)


# --- declaration processing ------------------------------------------------------

class Processor:
    """Runs declarations against a kernel and collects reports."""

    def __init__(self, kernel: Kernel | None = None):
        self.kernel = kernel if kernel is not None else Kernel()
        self.elab = Elaborator(self.kernel)
        self._loaded: set[str] = set()

    @contextmanager
    def rollback(self) -> Iterator[None]:
        """Run the body, then discard what it declared and imported: the
        signature and the set of loaded files return to their state on
        entry, however the body ends."""
        snap = self.kernel.sig.snapshot()
        loaded = set(self._loaded)
        try:
            yield
        finally:
            self.kernel.sig.restore(snap)
            self._loaded = loaded

    # - entry points -

    def process_path(self, path: str | Path) -> list[Report]:
        reports: list[Report] = []
        try:
            self._load_file(Path(path), reports)
        except ParseError as e:
            reports.append(Report(Span(str(path), 1, 1), "import", str(path), e.code, e.message))
        return reports

    def process_text(
        self, text: str, filename: str = "<input>", base: str | Path | None = None
    ) -> list[Report]:
        reports: list[Report] = []
        self._run_parsed(parse_stream(text, filename), reports, Path(base or Path.cwd()))
        return reports

    def normalize_expression(self, text: str) -> tuple[str, str]:
        """Elaborate a closed expression and return it normalized with its type.

        Both halves come back pretty-printed; the type is shown as inferred
        rather than normalized, so signature heads stay folded. An error
        without a position of its own gets the expression's.
        """
        sexpr = parse_expr(text)
        try:
            return self.checked(sexpr.span, "expression", self._normalize, sexpr)
        except TelicError as e:
            e.with_span(sexpr.span)
            raise

    def _normalize(self, sexpr: SExpr) -> tuple[str, str]:
        t = self.elab.elab(sexpr, [])
        ty = self.kernel.infer(EMPTY_CONTEXT, t)
        t, ty = self.kernel.close(sexpr.span, t, ty)
        sig = self.kernel.sig
        return pretty(self.kernel.normalize(t), sig), pretty(ty, sig)

    def _load_file(self, path: Path, reports: list[Report]) -> None:
        """Parse and process one UTF-8 file, skipping a leading byte-order
        mark, unless it is loaded already; raises ``ParseError``, without a
        span, when it cannot be read."""
        try:
            resolved = path.resolve()
            text = resolved.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as e:
            raise ParseError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None
        if str(resolved) not in self._loaded:
            self._loaded.add(str(resolved))
            self._run_parsed(parse_stream(text, str(path)), reports, resolved.parent)

    def _run_parsed(
        self, items: Iterator[Declaration | ParseError], reports: list[Report], base: Path
    ) -> None:
        """Report each item of a file's parse stream as it arrives: a
        parse error where it stands, a declaration through
        ``run_declaration``. After a failed binding the declarations are
        skipped, but the parse errors are still reported."""
        halted = False
        for item in items:
            if isinstance(item, ParseError):
                reports.append(Report(item.span, "parse", None, item.code, item.message))
            elif not halted:
                report, halted = self.run_declaration(item, reports, base)
                reports.append(report)

    # - single declarations -

    @staticmethod
    def binds(decl: Declaration) -> bool:
        """Whether ``decl`` binds a name, so that its failure stops the rest
        of its file: an import, or a ``DDef`` other than a check."""
        return type(decl) is DImport or (type(decl) is DDef and decl.name is not None)

    def checked(self, span: Span | None, what: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` from no holes and the full fuel, ending in
        ``DepthExceeded`` at ``span`` if Python's recursion runs out."""
        self.kernel.begin()
        try:
            return fn(*args)
        except RecursionError:
            raise DepthExceeded(f"{what} nests too deeply to check", span=span) from None

    def run_declaration(
        self, decl: Declaration, reports: list[Report], base: Path
    ) -> tuple[Report, bool]:
        """Returns the report plus whether the rest of the file must stop."""
        try:
            report = self.checked(decl.span, "declaration", self._dispatch, decl, reports, base)
            return report, False
        except TelicError as e:
            e.with_span(decl.span)
            report = Report(e.span, decl.kind, decl.name, e.code, e.message)
            return report, self.binds(decl)

    def _dispatch(self, decl: Declaration, reports: list[Report], base: Path) -> Report:
        """Check and store ``decl``; an import fails with any of its reports."""
        sp, name = decl.span, decl.name
        match decl:
            case DDef(type=ty, body=body):
                mask = implicit_mask_of(ty)
                ty_t = self.elab.elab(ty, [])
                self.kernel.check_is_type(EMPTY_CONTEXT, ty_t)
                if body is not None:
                    body_t = self.elab.elab(body, [])
                    self.kernel.check(EMPTY_CONTEXT, body_t, ty_t)
                if name is None:  # a check stores nothing
                    self.kernel.close(sp)
                elif body is None:
                    self.kernel.declare_axiom(name, *self.kernel.close(sp, ty_t), mask)
                else:
                    self.kernel.declare_definition(name, *self.kernel.close(sp, ty_t, body_t), mask)
            case DNorm(lhs=lhs, rhs=rhs):
                got, want = self._run_norm(lhs, rhs, sp)
                if got != want:
                    raise TypeMismatch(
                        f"normal form is `{pretty(got, self.kernel.sig)}` but the "
                        f"declaration claims `{pretty(want, self.kernel.sig)}`",
                        span=sp,
                    )
                return Report(sp, decl.kind, name, normal_form=pretty(got, self.kernel.sig))
            case DRewrite(telescope=tele, lhs=lhs, rhs=rhs):
                self._run_rewrite(tele, lhs, rhs, sp)
            case DFail(code=code, inner=inner):
                return self._run_fail(code, inner, sp, base)
            case DImport():
                start = len(reports)
                self._load_file(base / name, reports)
                if not all(r.ok for r in reports[start:]):
                    raise ParseError(f"import of {name} failed", span=sp)
            case _:
                raise AssertionError(f"unhandled declaration {decl!r}")
        return Report(sp, decl.kind, name)

    def _run_norm(self, lhs: SExpr, rhs: SExpr, sp: Span) -> tuple[Term, Term]:
        lhs_t = self.elab.elab(lhs, [])
        lhs_ty = self.kernel.infer(EMPTY_CONTEXT, lhs_t)
        rhs_t = self.elab.elab(rhs, [])
        self.kernel.check(EMPTY_CONTEXT, rhs_t, lhs_ty)
        lhs_t, rhs_t = self.kernel.close(sp, lhs_t, rhs_t)
        return self.kernel.normalize(lhs_t), rhs_t

    def _run_rewrite(
        self,
        tele: tuple[tuple[str, SExpr], ...],
        lhs: SExpr,
        rhs: SExpr,
        sp: Span,
    ) -> None:
        env: list[str] = []
        tele_types: list[Term] = []
        ctx: Context = EMPTY_CONTEXT
        for nm, ty in tele:
            ty_t = self.elab.elab(ty, env)
            self.kernel.check_is_type(ctx, ty_t)
            tele_types.append(ty_t)
            ctx = ctx_extend(ctx, nm, ty_t)
            env.append(nm)
        lhs_t = self.elab.elab(lhs, env)
        # Linearity counts the slots the user wrote, by telescope position.
        # A hole's spine lists every slot, so each hole (an inserted
        # implicit argument is one) loses its spine first.
        masked = map_term(lhs_t, lambda i, d: None, meta=lambda m, spine: Meta(m))
        last = len(env) - 1
        uses = Counter(
            last - s.index + d for s, d in subterms(masked) if type(s) is Var and s.index >= d
        )
        for k, nm in enumerate(env):
            if uses[k] > 1:
                raise NonlinearPattern(
                    f"pattern variable `{nm}` occurs {uses[k]} times on the "
                    f"left-hand side; patterns must be linear",
                    span=lhs.span,
                )
        lhs_ty = self.kernel.infer(ctx, lhs_t)
        rhs_t = self.elab.elab(rhs, env)
        try:
            self.kernel.check(ctx, rhs_t, lhs_ty)
        except TypeMismatch as e:
            raise RewriteTypeMismatch(
                f"right-hand side does not preserve the left-hand side's type: "
                f"{e.message}",
                span=e.span,
            ) from None
        *tele_types, lhs_t, rhs_t = self.kernel.close(sp, *tele_types, lhs_t, rhs_t)
        self.kernel.declare_rewrite(tuple(zip(env, tele_types)), lhs_t, rhs_t)

    def _run_fail(
        self,
        code: str,
        inner: Declaration,
        sp: Span,
        base: Path,
    ) -> Report:
        label = inner.kind + (f" {inner.name}" if inner.name else "")
        try:
            with self.rollback():
                self.checked(inner.span, "declaration", self._dispatch, inner, [], base)
        except TelicError as e:
            if e.code == code:
                return Report(
                    sp, "fail", inner.name, message=f"{label} rejected with {code} as expected"
                )
            raise TypeMismatch(
                f"expected {code} but {label} was rejected with {e.code}: {e.message}",
                span=e.span or sp,
            ) from None
        raise TypeMismatch(
            f"expected {code} but {label} was accepted", span=sp
        )


def render_reports(reports: list[Report], fmt: str = "plain") -> str:
    if fmt == "structured":
        return "\n".join(r.to_json() for r in reports)
    return "\n".join(r.render() for r in reports)
