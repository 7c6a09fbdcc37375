"""Acceptance gate: seven criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

from proputil import run_properties
from telic.corpus import CASES, check_case, run_case
from telic.prelude import load_prelude, prelude_self_check
from telic.terms import Const

TESTS = Path(__file__).resolve().parent


def _criterion(num: int, label: str, checker) -> None:
    try:
        problems = checker()
    except Exception as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    ok = not problems
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {label}")
    if not ok:
        pytest.fail(f"acceptance {num} ({label}): " + "; ".join(problems))


def test_acceptance_1_prelude_integrity():
    def checker():
        problems = []
        start = time.perf_counter()
        prelude = load_prelude()
        elapsed = time.perf_counter() - start
        _, reports = prelude
        for r in reports:
            if not r.ok:
                problems.append(f"prelude entry failed: {r.render()}")
        audits = prelude_self_check(prelude)
        for a in audits:
            if not a.ok:
                problems.append(f"audit failed: {a.render()}")
        if elapsed >= 1.0:
            problems.append(f"prelude load took {elapsed:.2f}s")
        return problems

    _criterion(1, "prelude loads clean and audits pass in under a second", checker)


def test_acceptance_2_corpus_fidelity():
    def checker():
        problems = []
        by_name = {}
        prelude = load_prelude()
        for case in CASES:
            reports, mismatches = check_case(case, prelude)
            by_name[case.name] = reports
            problems.extend(f"{case.name}: {m}" for m in mismatches)

        def rejected(case_name, needle):
            hits = [
                r
                for r in by_name[case_name]
                if r.kind == "fail" and r.ok and needle in (r.message or "")
            ]
            if len(hits) != 1:
                problems.append(
                    f"{case_name}: expected one rejection mentioning "
                    f"{needle!r}, found {len(hits)}"
                )

        rejected("case02_subtyping", "TypeMismatch")
        rejected("case12_event_restriction_equiv", "entail")
        rejected("case13_telicity", "TypeMismatch")
        return problems

    _criterion(2, "all 19 corpus cases match their goldens, negatives included", checker)


GOLDEN_EXPRS = (
    ("sigma_np.txt", "El_NP (SigmaNP np0 P0)"),
    ("several.txt", "El_NP (several mass0 d0 u0)"),
    ("is_cul.txt", "Prf (isCul evt0)"),
    ("sigma_evt.txt", "El_Evt (SigmaEvt evt0 Q0)"),
)


def test_acceptance_3_golden_normal_forms():
    def checker():
        problems = []
        lexicon = TESTS / "data" / "equalities.tel"
        for golden_name, expr in GOLDEN_EXPRS:
            golden = (TESTS / "golden" / golden_name).read_bytes()
            proc = subprocess.run(
                [sys.executable, "-m", "telic.cli", "norm", str(lexicon), "-e", expr],
                capture_output=True,
            )
            if proc.returncode != 0:
                problems.append(f"{expr}: exit {proc.returncode}: {proc.stderr!r}")
            elif proc.stdout != golden:
                problems.append(
                    f"{expr}: got {proc.stdout!r}, want {golden!r}"
                )
        return problems

    _criterion(3, "the four framework rewrites match their byte goldens", checker)


WITNESSES = (
    ("case16_adverbs", ("quicklyIsEating",)),
    ("case14_culmination", ("occurrenceYieldsState",)),
    ("case12_event_restriction_equiv", ("packActor", "unpackActor")),
    ("case17_undergoer_entailments", ("eatAmountEatsBare", "eatThemEatsTwo")),
)


def test_acceptance_4_entailment_witnesses():
    def checker():
        problems = []
        prelude = load_prelude()
        for case_name, names in WITNESSES:
            case = next(c for c in CASES if c.name == case_name)
            reports = run_case(case, prelude)
            for name in names:
                hits = [r for r in reports if r.kind == "entail" and r.name == name]
                if not hits:
                    problems.append(f"{case_name}: no entailment named {name}")
                elif not all(r.ok for r in hits):
                    problems.append(f"{case_name}: {name} did not check")
        return problems

    _criterion(4, "the entailment witnesses all check", checker)


def test_acceptance_5_kernel_property_suite():
    def checker():
        problems = []
        reports = run_properties(count=1000)
        for report in reports:
            floor = 21 * 21 if report.name == "oplus index arithmetic" else 1000
            if report.checked < floor:
                problems.append(
                    f"{report.name}: only {report.checked} instances checked"
                )
        total = sum(r.seconds for r in reports)
        if total >= 30.0:
            problems.append(f"property suite took {total:.1f}s")
        return problems

    _criterion(5, "kernel laws hold on 1000+ generated terms per property", checker)


def test_acceptance_6_proofs_not_identified():
    def checker():
        problems = []
        proc, reports = load_prelude()
        if any(not r.ok for r in reports):
            return ["prelude failed to load"]
        text = (
            "postulate Pp : Prop\n"
            "postulate pw : Prf Pp\n"
            "postulate qw : Prf Pp\n"
            "check irr pw qw : Id (Prf Pp) pw qw\n"
        )
        for r in proc.process_text(text, "<acceptance6>"):
            if not r.ok:
                problems.append(f"declaration failed: {r.render()}")
        if proc.kernel.convertible(Const("pw"), Const("qw")):
            problems.append("distinct proofs of one proposition are convertible")
        return problems

    _criterion(6, "proof irrelevance is propositional, not definitional", checker)


def test_acceptance_7_selftest_determinism():
    def checker():
        problems = []
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "telic.cli", "selftest", "--format", "structured"],
                capture_output=True,
            )
            if proc.returncode != 0:
                problems.append(f"selftest exited {proc.returncode}")
            runs.append(proc.stdout)
        if not runs[0]:
            problems.append("selftest produced no output")
        if runs[0] != runs[1]:
            problems.append("two selftest runs differ")
        return problems

    _criterion(7, "structured selftest output is byte-identical across runs", checker)
