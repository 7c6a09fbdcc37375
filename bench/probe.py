"""Instruments telic from outside, by wrapping its public functions.

Two instruments, each installed for one pass and removed after it:

* ``OpTimer`` times every top-level declaration of the workload's own input
  (the operations). It is installed in every pass, traced or not.
* ``Tracer`` records spans at coarse boundaries (name, start, end, parent)
  and keeps them in memory, and only counts calls at the hot functions
  (``whnf``, conversion, ``subst``/``shift``), which run millions of times.

The kernel's and the elaborator's entry points recurse into themselves, so
they are wrapped on the object callers hold (``Processor.kernel`` and
``Processor.elab``), never on the class: recursion inside the kernel then
adds no wrapper frames and opens no spans. A target that no longer exists
is skipped, and the metrics fed only by it are reported as absent.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make) -> bool:
        """Replace ``owner.attr`` by ``make(original)``. False if it is gone."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def replace_function(self, module: str, name: str, make) -> bool:
        """Replace a module-level function in its module and in every telic
        module that imported it by name."""
        original = getattr(sys.modules.get(module), name, None)
        if original is None:
            return False
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "telic" or mod_name.startswith("telic.")) and getattr(mod, name, None) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapped)
        return True

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass
class Op:
    """One top-level declaration as the processor ran it."""

    file: str
    index: int  # position of its report in the file's report list
    start: float
    end: float
    report: object | None  # the Report, or None when an exception escaped

    @property
    def seconds(self) -> float:
        return self.end - self.start


class OpTimer:
    """Times each top-level declaration of files other than the prelude.

    A declaration nested under an ``import`` belongs to that ``import``, so
    only the outermost ``run_declaration`` counts."""

    def __init__(self, prelude_file: str):
        self.prelude_file = prelude_file
        self.ops: list[Op] = []
        self._depth = 0

    def install(self, patches: Patches, telic) -> None:
        patches.replace(telic.elaborate.Processor, "run_declaration", self._wrap)

    def _wrap(self, run_declaration):
        def timed(proc, decl, reports, base):
            top = self._depth == 0 and decl.span.file != self.prelude_file
            self._depth += 1
            start = perf_counter()
            try:
                report, halt = run_declaration(proc, decl, reports, base)
            except Exception:
                if top:
                    self.ops.append(Op(decl.span.file, len(reports), start, perf_counter(), None))
                raise
            finally:
                self._depth -= 1
            if top:
                self.ops.append(Op(decl.span.file, len(reports), start, perf_counter(), report))
            return report, halt

        return timed


class _View:
    """Stands in for an object, routing the named methods through wrappers
    and every other attribute, reads and writes alike, to the object."""

    def __init__(self, target: object, methods: dict) -> None:
        object.__setattr__(self, "_target", target)
        for name, wrap in methods.items():
            method = getattr(target, name, None)
            if method is not None:
                object.__setattr__(self, name, wrap(method))

    def __getattr__(self, name: str):
        return getattr(self._target, name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._target, name, value)


class Tracer:
    """Spans at layer boundaries plus call counts at the hot functions."""

    # Kernel methods that open a `kernel.check` span when called from outside
    # the kernel; they are wrapped per object (see _View), not per class.
    KERNEL_ENTRY = ("infer", "check", "check_is_type", "convertible")

    def __init__(self, prelude_file: str):
        self.prelude_file = prelude_file
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()  # span and count names that have a live source
        self._open: list[list] = []  # [span index, seconds covered by children]

    # - recording -

    def span(self, name: str, fn):
        spans, stack, self_s, counts = self.spans, self._open, self.self_s, self.counts
        self.installed.add(name)

        def spanned(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            counts[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, start, end, parent)

        return spanned

    def counter(self, name: str, fn):
        counts = self.counts
        self.installed.add(name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # - installation -

    def install(self, patches: Patches, telic) -> None:
        kernel_cls = telic.kernel.Kernel
        processor = telic.elaborate.Processor
        tracer = self

        # Every declaration, top-level or nested, and the fuel it used. An
        # `import` does not reset the fuel counter, which still holds the
        # steps of the imported file's last declaration, so it adds none.
        def declaration(run_declaration):
            spanned = tracer.span("elaborate.decl", run_declaration)
            steps_live = hasattr(kernel_cls(), "_steps")
            if steps_live:
                tracer.installed.add("kernel.whnf_steps")
            imports = getattr(telic.surface, "DImport", ())

            def run(proc, decl, reports, base):
                try:
                    return spanned(proc, decl, reports, base)
                finally:
                    if steps_live and not isinstance(decl, imports):
                        tracer.counts["kernel.whnf_steps"] += proc.kernel._steps

            return run

        patches.replace(processor, "run_declaration", declaration)

        # Files: the prelude is a load of its own, anything else is input.
        def file_span(process_path):
            load = self.span("prelude.load", process_path)
            other = self.span("elaborate.file", process_path)

            def run(proc, path):
                return (load if str(path) == tracer.prelude_file else other)(proc, path)

            return run

        patches.replace(processor, "process_path", file_span)

        # Entry points of the kernel and of elaboration, on the objects the
        # processor holds, so that their own recursion stays unwrapped.
        def views(init):
            check = lambda m: tracer.span("kernel.check", m)  # noqa: E731
            elab = lambda m: tracer.span("elaborate.elab", m)  # noqa: E731

            def init_with_views(proc, *args, **kwargs):
                init(proc, *args, **kwargs)
                proc.kernel = _View(proc.kernel, {name: check for name in Tracer.KERNEL_ENTRY})
                proc.elab = _View(proc.elab, {"elab": elab})

            return init_with_views

        if patches.replace(processor, "__init__", views):
            if any(hasattr(kernel_cls, name) for name in self.KERNEL_ENTRY):
                self.installed.add("kernel.check")
            if hasattr(telic.elaborate.Elaborator, "elab"):
                self.installed.add("elaborate.elab")

        for name in ("declare_axiom", "declare_definition", "declare_rewrite"):
            patches.replace(kernel_cls, name, lambda m: self.span("kernel.declare", m))
        patches.replace(kernel_cls, "normalize", lambda m: self.span("kernel.normalize", m))
        patches.replace(kernel_cls, "whnf", lambda m: self.counter("kernel.whnf_calls", m))
        # `convertible` is `_unify`'s public face; the checker calls `_unify` itself.
        patches.replace(kernel_cls, "_unify", lambda m: self.counter("kernel.convertible_calls", m))

        signature = telic.kernel.Signature
        patches.replace(signature, "snapshot", lambda m: self.span("kernel.sig_rollback", m))
        patches.replace(signature, "restore", lambda m: self.counter(
            "kernel.sig_rollbacks", self.span("kernel.sig_rollback", m)))

        # Hot de Bruijn operations, counted at every call including their own recursion.
        for name in ("subst", "subst_many"):
            patches.replace_function("telic.terms", name, lambda f: self.counter("terms.subst_calls", f))
        patches.replace_function("telic.terms", "shift", lambda f: self.counter("terms.shift_calls", f))

        def tokenize(fn):
            spanned = self.span("surface.tokenize", fn)
            self.installed.add("surface.tokens")

            def run(*args, **kwargs):
                tokens = spanned(*args, **kwargs)
                tracer.counts["surface.tokens"] += len(tokens)
                return tokens

            return run

        patches.replace_function("telic.surface", "tokenize", tokenize)
        for name in ("parse_file", "parse_expr"):
            patches.replace_function("telic.surface", name, lambda f: self.span("surface.parse", f))
        patches.replace_function("telic.pretty", "pretty", lambda f: self.span("pretty.pretty", f))
        patches.replace_function("telic.prelude", "prelude_self_check", lambda f: self.span("prelude.self_check", f))
        patches.replace_function("telic.corpus", "check_case", lambda f: self.span("corpus.golden_diff", f))
        patches.replace_function("telic.corpus", "uncovered_names", lambda f: self.span("corpus.coverage", f))


# Per-layer metrics: name -> (unit, the span or count names it is read from,
# how to read it from the totals of one pass). A metric whose sources were
# all missing when the tracer was installed is reported as absent.
def _self(*spans):
    return lambda self_s, counts: sum(self_s.get(s, 0.0) for s in spans)


def _count(*names):
    return lambda self_s, counts: sum(counts.get(n, 0) for n in names)


LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], object]] = {
    "prelude.loads": ("count", ("prelude.load",), _count("prelude.load")),
    "prelude.load_s": ("s", ("prelude.load",), _self("prelude.load")),
    "prelude.self_check_s": ("s", ("prelude.self_check",), _self("prelude.self_check")),
    "corpus.golden_diff_s": ("s", ("corpus.golden_diff",), _self("corpus.golden_diff")),
    "corpus.coverage_s": ("s", ("corpus.coverage",), _self("corpus.coverage")),
    "surface.tokenize_s": ("s", ("surface.tokenize",), _self("surface.tokenize")),
    "surface.parse_s": ("s", ("surface.parse",), _self("surface.parse")),
    "surface.tokens": ("count", ("surface.tokens",), _count("surface.tokens")),
    "surface.tokens_per_s": ("1/s", ("surface.tokens",),
                             lambda s, c: c.get("surface.tokens", 0) / max(s.get("surface.tokenize", 0.0), 1e-9)),
    "elaborate.elab_s": ("s", ("elaborate.elab",), _self("elaborate.elab")),
    "elaborate.decl_s": ("s", ("elaborate.decl",), _self("elaborate.decl", "elaborate.file")),
    "elaborate.decls": ("count", ("elaborate.decl",), _count("elaborate.decl")),
    "kernel.check_s": ("s", ("kernel.check",), _self("kernel.check")),
    "kernel.declare_s": ("s", ("kernel.declare",), _self("kernel.declare")),
    "kernel.sig_rollback_s": ("s", ("kernel.sig_rollback",), _self("kernel.sig_rollback")),
    "kernel.sig_rollbacks": ("count", ("kernel.sig_rollbacks",), _count("kernel.sig_rollbacks")),
    "kernel.normalize_s": ("s", ("kernel.normalize",), _self("kernel.normalize")),
    "kernel.whnf_calls": ("count", ("kernel.whnf_calls",), _count("kernel.whnf_calls")),
    "kernel.whnf_steps": ("count", ("kernel.whnf_steps",), _count("kernel.whnf_steps")),
    "kernel.convertible_calls": ("count", ("kernel.convertible_calls",), _count("kernel.convertible_calls")),
    "terms.subst_calls": ("count", ("terms.subst_calls",), _count("terms.subst_calls")),
    "terms.shift_calls": ("count", ("terms.shift_calls",), _count("terms.shift_calls")),
    "pretty.pretty_s": ("s", ("pretty.pretty",), _self("pretty.pretty")),
    "pretty.calls": ("count", ("pretty.pretty",), _count("pretty.pretty")),
}

# Counts that must repeat exactly for one input.
DETERMINISTIC = (
    "prelude.loads",
    "surface.tokens",
    "elaborate.decls",
    "kernel.whnf_calls",
    "kernel.whnf_steps",
    "kernel.convertible_calls",
    "kernel.sig_rollbacks",
    "terms.subst_calls",
    "terms.shift_calls",
    "pretty.calls",
)
