"""The bundled corpus: golden fidelity, coverage, and the negative claims."""

from __future__ import annotations

import json

import pytest

from telic.corpus import (
    CASES,
    case_mentions,
    check_case,
    corpus_dir,
    coverage_map,
    golden_path,
    portable,
    prelude_names,
    run_case,
    uncovered_names,
)
from telic.prelude import load_prelude, prelude_self_check


# The audit's expected failures per case, as (label, code): case19 declares
# `rewrite (n : Nat) : loop n = loop n` on purpose, and its probe never stops.
AUDIT_FAILURES = {"case19_rejections": [("rule loop #0", "FuelExhausted")]}


@pytest.fixture(scope="module")
def prelude():
    return load_prelude()


def find(reports, **fields):
    out = []
    for r in reports:
        if all(getattr(r, k) == v for k, v in fields.items()):
            out.append(r)
    return out


def test_case_table_is_well_formed():
    names = [c.name for c in CASES]
    assert len(names) == len(set(names)) == 19
    for case in CASES:
        assert case.entry == case.files[0]
        for fname in case.files:
            assert (corpus_dir() / fname).exists(), fname
        assert golden_path(case).exists(), case.name


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_case_matches_golden(case):
    reports, problems = check_case(case)
    assert not problems, "\n".join(problems)
    assert all(r.ok for r in reports), [r.render() for r in reports if not r.ok]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_signature_after_case_passes_the_audit(prelude, case):
    # Each declaration is checked once, before it is stored; the audit
    # re-checks every entry and rule of the signature a case leaves behind.
    proc = prelude[0].fork()
    reports = proc.process_path(corpus_dir() / case.entry)
    results = prelude_self_check((proc, reports))
    sig = proc.kernel.sig
    assert len(results) == len(sig.entries) + sum(map(len, sig.rules_by_head.values()))
    failed = [(c.label, c.detail[1 : c.detail.index("]")]) for c in results if not c.ok]
    assert failed == AUDIT_FAILURES.get(case.name, [])


def test_goldens_are_portable():
    for case in CASES:
        data = json.loads(golden_path(case).read_text())
        assert isinstance(data, list) and data
        for entry in data:
            assert "/" not in entry["file"]
            assert entry["status"] == "ok"


def test_every_prelude_entry_is_exercised():
    assert uncovered_names() == frozenset()
    cov = coverage_map()
    union = frozenset().union(*cov.values())
    assert union == prelude_names()


def test_coverage_counts_sugar_operators():
    by_name = {c.name: c for c in CASES}
    merge_case = by_name["case04_merge_units"]
    assert {"plus", "oplus"} <= case_mentions(merge_case)


def test_negative_claim_rejected_predication():
    # Applying a predicate of one noun class to an element of a
    # non-subsumed class must fail to check.
    case = next(c for c in CASES if c.name == "case02_subtyping")
    reports = run_case(case)
    fails = find(reports, kind="fail", status="ok")
    assert len(fails) == 1
    assert "TypeMismatch" in fails[0].message


def test_negative_claim_no_actor_generalization():
    # Repackaging an event over one actor as the same event family over a
    # different actor must not typecheck even with an identity witness.
    case = next(c for c in CASES if c.name == "case12_event_restriction_equiv")
    reports = run_case(case)
    fails = find(reports, kind="fail", status="ok")
    assert len(fails) == 1
    assert "entail" in fails[0].message


def test_negative_claim_unbounded_undergoer_is_not_telic():
    case = next(c for c in CASES if c.name == "case13_telicity")
    reports = run_case(case)
    fails = find(reports, kind="fail", status="ok")
    assert len(fails) == 1


def test_rejection_case_hits_many_error_codes():
    case = next(c for c in CASES if c.name == "case19_rejections")
    reports = run_case(case)
    codes = set()
    for r in find(reports, kind="fail", status="ok"):
        codes.add(r.message.split("rejected with ")[1].split(" ")[0])
    assert len(codes) >= 12


def test_import_case_reports_both_files():
    case = next(c for c in CASES if c.name == "case15_boundedness_dispatch")
    reports = run_case(case)
    files = {portable(r)["file"] for r in reports}
    assert files == {"case15_boundedness_dispatch.tel", "case15_pop_lexicon.tel"}
