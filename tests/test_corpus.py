"""The bundled corpus: golden fidelity, coverage, and the negative claims."""

from __future__ import annotations

import json
import shutil
from pathlib import PurePath

import pytest

from telic import corpus
from telic.cli import main
from telic.corpus import (
    CASES,
    CorpusCase,
    check_case,
    corpus_dir,
    golden_path,
    portable,
    run_case,
    uncovered_names,
)
from telic.prelude import load_prelude, prelude_self_check
from telic.surface import DDef, SPi, parse_file


# The audit's expected failures per case, as (label, code): case19 declares
# `rewrite (n : Nat) : loop n = loop n` on purpose, and its probe never stops.
AUDIT_FAILURES = {"case19_rejections": [("rule loop #0", "FuelExhausted")]}


@pytest.fixture(scope="module")
def prelude():
    return load_prelude()[0]


def find(reports, **fields):
    out = []
    for r in reports:
        if all(getattr(r, k) == v for k, v in fields.items()):
            out.append(r)
    return out


def report_files(reports):
    """The files ``reports`` are about, by basename, each once."""
    return list(dict.fromkeys(PurePath(r.span.file).name for r in reports))


def test_case_table_is_well_formed(prelude):
    # Every corpus file is a case's entry or a file a case imports.
    names = [c.name for c in CASES]
    assert len(names) == len(set(names)) == 19
    seen = set()
    for case in CASES:
        files = report_files(run_case(case, prelude))
        assert case.entry in files
        seen.update(files)
        assert golden_path(case).exists(), case.name
    assert seen == {p.name for p in corpus_dir().glob("*.tel")}


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_case_matches_golden(prelude, case):
    reports, problems = check_case(case, prelude)
    assert not problems, "\n".join(problems)
    assert all(r.ok for r in reports), [r.render() for r in reports if not r.ok]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_signature_after_case_passes_the_audit(prelude, case):
    # Each declaration is checked once, before it is stored; the audit
    # re-checks every entry and rule of the signature a case leaves behind.
    with prelude.rollback():
        prelude.process_path(corpus_dir() / case.entry)
        results = prelude_self_check(prelude)
        sig = prelude.kernel.sig
        assert len(results) == len(sig.entries) + sum(map(len, sig.rules_by_head.values()))
    failed = [(c.label, c.detail[1 : c.detail.index("]")]) for c in results if not c.ok]
    assert failed == AUDIT_FAILURES.get(case.name, [])


def test_entailment_is_a_def_of_its_arrow(prelude):
    # `entail n : H => C = w` parses to `def n : H -> C = w` under its own
    # keyword, and stores what a `def` of that arrow stores.
    checked = 0
    for case in CASES:
        with prelude.rollback():
            for file in report_files(prelude.process_path(corpus_dir() / case.entry)):
                text = (corpus_dir() / file).read_text(encoding="utf-8")
                for decl in parse_file(text, file):
                    if getattr(decl, "kind", None) != "entail":
                        continue
                    assert isinstance(decl, DDef), decl
                    arrow = decl.type
                    assert isinstance(arrow, SPi), arrow
                    assert (arrow.binder, arrow.implicit) == (None, False)
                    as_def = DDef(decl.span, "def", f"{decl.name}_as_def", arrow, decl.body)
                    report, _ = prelude.run_declaration(as_def, [], corpus_dir())
                    assert report.ok, report.render()
                    entries = prelude.kernel.sig.entries
                    entail, defined = entries[decl.name], entries[as_def.name]
                    assert (defined.type, defined.body, defined.implicit_mask) == (
                        entail.type, entail.body, entail.implicit_mask
                    ), decl.name
                    assert entail.implicit_mask == (False,)
                    checked += 1
    assert checked == 11


def test_goldens_are_portable():
    for case in CASES:
        data = json.loads(golden_path(case).read_text())
        assert isinstance(data, list) and data
        for entry in data:
            assert "/" not in entry["file"]
            assert entry["status"] == "ok"


# Coverage tests load a prelude of their own: names that other tests
# resolved on a shared processor would count as covered.

def test_every_prelude_entry_is_exercised():
    proc = load_prelude()[0]
    # The prelude's own name lookups do not count.
    assert uncovered_names(proc) == frozenset(proc.kernel.sig.entries)
    for case in CASES:
        run_case(case, proc)
    assert uncovered_names(proc) == frozenset()


def test_coverage_counts_resolved_names_not_spelled_ones(tmp_path, monkeypatch):
    # `Nat` is only a local binder here; the `plus` that `+` elaborates to
    # counts although its declaration is rolled back.
    (tmp_path / "x.tel").write_text(
        "postulate f : (Nat : Type) -> Nat\nfail TypeMismatch check 1 + 2 : Type\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(corpus, "corpus_dir", lambda: tmp_path)
    monkeypatch.setattr(corpus, "CASES", (CorpusCase("x", "", "x.tel"),))
    proc = load_prelude()[0]
    for case in corpus.CASES:
        assert [r.ok for r in run_case(case, proc)] == [True, True]
    uncovered = uncovered_names(proc)
    assert "Nat" in uncovered
    assert "plus" not in uncovered


def test_coverage_counts_sugar_operators():
    # `+` elaborates to `plus`; `\u2295` and `(+)` elaborate to `oplus`.
    setup = "postulate h : NP U\npostulate a : El_NP (AmountOf h quantity nu 1)\n"
    merged = "El_NP (AmountOf h quantity nu 2)"
    for text, name in [
        ("check 1 + 2 : Nat", "plus"),
        (f"check a \u2295 a : {merged}", "oplus"),
        (f"check a (+) a : {merged}", "oplus"),
    ]:
        proc = load_prelude()[0]
        reports = proc.process_text(setup + text + "\n")
        assert all(r.ok for r in reports), [r.render() for r in reports]
        assert proc.elab.used & {"plus", "oplus"} == {name}, text


@pytest.mark.parametrize(
    "text, why",
    [("not json\n", "Expecting value: line 1 column 1 (char 0)"), ("5\n", "not a JSON list")],
    ids=["not-json", "not-a-list"],
)
def test_an_unreadable_golden_is_a_problem_of_its_case(prelude, text, why, tmp_path, monkeypatch):
    (tmp_path / "x.tel").write_text("check Nat : Type\n", encoding="utf-8")
    (tmp_path / "golden").mkdir()
    (tmp_path / "golden" / "x.json").write_text(text, encoding="utf-8")
    monkeypatch.setattr(corpus, "corpus_dir", lambda: tmp_path)
    reports, problems = check_case(CorpusCase("x", "", "x.tel"), prelude)
    assert [r.ok for r in reports] == [True]
    assert problems == [f"x: golden file unreadable: x.json: {why}"]


def test_negative_claim_rejected_predication(prelude):
    # Applying a predicate of one noun class to an element of a
    # non-subsumed class must fail to check.
    case = next(c for c in CASES if c.name == "case02_subtyping")
    reports = run_case(case, prelude)
    fails = find(reports, kind="fail", status="ok")
    assert len(fails) == 1
    assert "TypeMismatch" in fails[0].message


def test_negative_claim_no_actor_generalization(prelude):
    # Repackaging an event over one actor as the same event family over a
    # different actor must not typecheck even with an identity witness.
    case = next(c for c in CASES if c.name == "case12_event_restriction_equiv")
    reports = run_case(case, prelude)
    fails = find(reports, kind="fail", status="ok")
    assert len(fails) == 1
    assert "entail" in fails[0].message


def test_negative_claim_unbounded_undergoer_is_not_telic(prelude):
    case = next(c for c in CASES if c.name == "case13_telicity")
    reports = run_case(case, prelude)
    fails = find(reports, kind="fail", status="ok")
    assert len(fails) == 1


def test_rejection_case_hits_many_error_codes(prelude):
    case = next(c for c in CASES if c.name == "case19_rejections")
    reports = run_case(case, prelude)
    codes = set()
    for r in find(reports, kind="fail", status="ok"):
        codes.add(r.message.split("rejected with ")[1].split(" ")[0])
    assert len(codes) >= 12


def test_import_case_reports_both_files(prelude):
    case = next(c for c in CASES if c.name == "case15_boundedness_dispatch")
    reports = run_case(case, prelude)
    files = {portable(r)["file"] for r in reports}
    assert files == {"case15_boundedness_dispatch.tel", "case15_pop_lexicon.tel"}


CASE16 = next(c for c in CASES if c.name == "case16_adverbs")


@pytest.fixture
def corpus_copy(tmp_path, monkeypatch):
    """A copy of the corpus, goldens included, that the corpus functions read."""
    copy = tmp_path / "corpus"
    shutil.copytree(corpus_dir(), copy)
    monkeypatch.setattr(corpus, "corpus_dir", lambda: copy)
    return copy


def test_drift_shows_a_surplus_report(corpus_copy, capsys):
    # The report that makes the count differ is shown, plain and structured.
    with (corpus_copy / CASE16.entry).open("a", encoding="utf-8") as f:
        f.write("check $ : Nat\n")
    n = len(json.loads(golden_path(CASE16).read_text()))
    assert main(["selftest"]) == 1
    plain = capsys.readouterr().out
    assert main(["selftest", "--format", "structured"]) == 1
    structured = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (data,) = [d for d in structured if d.get("case") == CASE16.name]
    count, surplus = data["problems"]
    assert count == f"{CASE16.name}: {n + 1} reports, golden has {n}"
    assert surplus.startswith(f"{CASE16.name}[{n}]: + {{")
    assert '"code": "IllegalCharacter"' in surplus
    for line in data["problems"]:
        assert f"     {line}\n" in plain
    assert [d["case"] for d in structured if d.get("problems")] == [CASE16.name]


def test_drift_shows_a_dropped_report(corpus_copy, prelude):
    # Only the dropped report is shown, not every report after it.
    path = golden_path(CASE16)
    want = json.loads(path.read_text())
    dropped = dict(want[3], name="gone")
    path.write_text(json.dumps(want[:4] + [dropped] + want[4:]))
    _, problems = check_case(CASE16, prelude)
    assert problems == [
        f"{CASE16.name}: {len(want)} reports, golden has {len(want) + 1}",
        f"{CASE16.name}[4]: - {json.dumps(dropped, sort_keys=True)}",
    ]


def test_drift_shows_a_changed_message_cut_short(corpus_copy, prelude):
    case = next(c for c in CASES if c.name == "case02_subtyping")
    path = golden_path(case)
    want = json.loads(path.read_text())
    k = next(i for i, w in enumerate(want) if "message" in w)
    changed = dict(want[k], message="x" * 1000)
    path.write_text(json.dumps(want[:k] + [changed] + want[k + 1 :]))
    _, problems = check_case(case, prelude)
    cut = json.dumps(changed, sort_keys=True)[: corpus.SHOWN_CHARS - 3] + "..."
    assert problems == [
        f"{case.name}[{k}]: - {cut}",
        f"{case.name}[{k}]: + {json.dumps(want[k], sort_keys=True)}",
    ]


def test_a_golden_that_cannot_be_read_fails_its_case(corpus_copy, capsys):
    path = golden_path(CASE16)
    path.unlink()
    path.mkdir()
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {CASE16.name}: " in out
    assert f"     {CASE16.name}: golden file unreadable: {path.name}: Is a directory\n" in out
    assert out.count("FAIL") == 1


def test_a_golden_that_cannot_be_written_does_not_stop_the_others(corpus_copy, capsys):
    before = {c.name: golden_path(c).read_bytes() for c in CASES}
    for case in CASES:
        golden_path(case).unlink()
    golden_path(CASE16).mkdir()
    assert main(["selftest", "--regen-golden"]) == 1
    out, err = capsys.readouterr()
    assert err == f"{CASE16.name}: golden file unwritable: {CASE16.name}.json: Is a directory\n"
    others = [c for c in CASES if c != CASE16]
    assert out.splitlines() == [f"wrote {c.name}.json" for c in others]
    assert {c.name: golden_path(c).read_bytes() for c in others} == {
        c.name: before[c.name] for c in others
    }
