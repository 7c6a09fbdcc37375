"""Loading and auditing the built-in signature.

The distributed signature lives in ``data/prelude.tel`` and is processed
like any other source file; the command line stops on any failing report
of that load. ``prelude_self_check`` re-verifies a processor's signature
from the kernel side: every entry must still be well typed; every rewrite
rule's telescope must consist of types, and the rule must fire on a
synthetic instance of its left-hand side and produce something convertible
with its right-hand side. An entry or rule too deeply nested to check
fails its audit line with ``DepthExceeded``. ``Kernel.declare_*`` store
declarations without re-checking them, so this audit is the one check
independent of the elaborating ``Processor``; it applies to any signature.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from .elaborate import Processor, Report
from .errors import TelicError
from .kernel import Kernel, RewriteRule, SignatureEntry
from .terms import EMPTY_CONTEXT, Const, subst_many

ENV_PRELUDE = "TELIC_PRELUDE"


def prelude_path() -> Path:
    """The prelude file about to be loaded.

    Set the ``TELIC_PRELUDE`` environment variable to substitute a
    different signature (or an empty file for a bare kernel).
    """
    override = os.environ.get(ENV_PRELUDE)
    if override:
        return Path(override)
    return Path(__file__).parent / "data" / "prelude.tel"


def load_prelude(processor: Processor | None = None) -> tuple[Processor, list[Report]]:
    """Process the prelude into ``processor`` (a fresh one by default);
    return the processor and the load's reports. The prelude's own name
    lookups are then forgotten, so ``proc.elab.used`` starts empty."""
    proc = processor if processor is not None else Processor()
    reports = proc.process_path(str(prelude_path()))
    proc.elab.used.clear()
    return proc, reports


class CheckResult(NamedTuple):
    label: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"{mark:4} {self.label}{tail}"


def _audit(proc: Processor, label: str, probe: Callable[..., str | None], *args: object) -> CheckResult:
    """An audit line: the fault ``probe(*args)`` returns or raises, if any."""
    try:
        detail = proc.checked(None, label, probe, *args)
    except TelicError as err:
        detail = f"[{err.code}] {err.message}"
    return CheckResult(label, detail is None, detail or "")


def _check_entry(kernel: Kernel, entry: SignatureEntry) -> None:
    kernel.check_is_type(EMPTY_CONTEXT, entry.type)
    if entry.body is not None:
        kernel.check(EMPTY_CONTEXT, entry.body, entry.type)


def _check_rule(proc: Processor, rule: RewriteRule) -> str | None:
    kernel = proc.kernel
    with proc.rollback():
        # a scratch constant for each telescope slot, declared outermost
        # first; ``env`` holds them innermost first, as Var(0) is
        env: list[Const] = []
        for k, (hint, ty) in enumerate(rule.telescope):
            name = f"_probe_{hint}_{k}"
            probe_ty = subst_many(ty, env)
            kernel.check_is_type(EMPTY_CONTEXT, probe_ty)
            kernel.declare_axiom(name, probe_ty)
            env.insert(0, Const(name))
        lhs, rhs = subst_many(rule.lhs, env), subst_many(rule.rhs, env)
        if kernel.whnf(lhs) == lhs:
            return "rule does not fire on a fresh instance"
        if not kernel.convertible(lhs, rhs):
            return "fired instance differs from right-hand side"


def prelude_self_check(proc: Processor) -> list[CheckResult]:
    """Audit the signature of ``proc``, one result per entry and per
    rewrite rule.

    The audit leaves ``proc`` as it was: each rule probe declares its
    scratch constants inside a rollback. Always returns the full list; a
    broken entry is reported in place rather than aborting the audit.
    """
    kernel = proc.kernel
    results = [
        _audit(proc, f"entry {name}", _check_entry, kernel, entry)
        for name, entry in kernel.sig.entries.items()
    ]
    for rules in kernel.sig.rules_by_head.values():
        for i, rule in enumerate(rules):
            results.append(_audit(proc, f"rule {rule.lhs.name} #{i}", _check_rule, proc, rule))
    return results
