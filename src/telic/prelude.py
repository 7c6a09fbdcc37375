"""Loading and auditing the built-in signature.

The distributed signature lives in ``data/prelude.tel`` and is processed
like any other source file; the command line stops on any failing report
of that load. ``prelude_self_check`` re-verifies a processor's signature
from the kernel side: every entry must still be well typed; every rewrite
rule's telescope must consist of types, and the rule must fire on a
synthetic instance of its left-hand side and produce something convertible
with its right-hand side. ``Kernel.declare_*`` store declarations without
re-checking them, so this audit is the one check independent of the
elaborating ``Processor``; it applies to any signature.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .elaborate import Processor, Report
from .errors import TelicError
from .kernel import RewriteRule
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


def _check_rule(proc: Processor, rule: RewriteRule, index: int) -> CheckResult:
    label = f"rule {rule.lhs.name} #{index}"
    kernel = proc.kernel
    kernel.begin()
    try:
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
            fired = kernel.whnf(lhs)
            if fired == lhs:
                return CheckResult(label, False, "rule does not fire on a fresh instance")
            if not kernel.convertible(lhs, rhs):
                return CheckResult(label, False, "fired instance differs from right-hand side")
            return CheckResult(label, True)
    except TelicError as err:
        return CheckResult(label, False, f"[{err.code}] {err.message}")


def prelude_self_check(proc: Processor) -> list[CheckResult]:
    """Audit the signature of ``proc``, one result per entry and per
    rewrite rule.

    The audit leaves ``proc`` as it was: each rule probe declares its
    scratch constants inside a rollback. Always returns the full list; a
    broken entry is reported in place rather than aborting the audit.
    """
    results: list[CheckResult] = []
    kernel = proc.kernel
    for name, entry in kernel.sig.entries.items():
        kernel.begin()
        try:
            kernel.check_is_type(EMPTY_CONTEXT, entry.type)
            if entry.body is not None:
                kernel.check(EMPTY_CONTEXT, entry.body, entry.type)
            results.append(CheckResult(f"entry {name}", True))
        except TelicError as err:
            results.append(CheckResult(f"entry {name}", False, f"[{err.code}] {err.message}"))
    for head, rules in kernel.sig.rules_by_head.items():
        for i, rule in enumerate(rules):
            results.append(_check_rule(proc, rule, i))
    return results
