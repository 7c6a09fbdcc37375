"""The bundled regression corpus and its golden expectations.

Each case is a lexicon file processed on top of the standard prelude.
The resulting report stream is compared against a golden JSON file, so
any drift in checking, normalization, error wording, or report order
shows up as a diff. Coverage scanning cross-references the identifiers
each case mentions against the prelude signature; together the cases
exercise every prelude entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path, PurePath

from .elaborate import Report
from .prelude import LoadedPrelude
from .surface import tokenize


@dataclass(frozen=True, slots=True)
class CorpusCase:
    """One corpus entry.

    ``files`` lists the case's source files relative to the corpus
    directory. Only ``files[0]`` is processed directly; any others are
    pulled in by ``import`` declarations and listed here so coverage
    scanning sees them.
    """

    name: str
    title: str
    files: tuple[str, ...]

    @property
    def entry(self) -> str:
        return self.files[0]


def _case(title: str, *files: str) -> CorpusCase:
    return CorpusCase(PurePath(files[0]).stem, title, files)


CASES: tuple[CorpusCase, ...] = (
    _case("nouns, packaging, literals, and identity proofs", "case01_nouns_and_identity.tel"),
    _case("noun subtyping with reflexivity and transitivity", "case02_subtyping.tel"),
    _case("measured amounts form bounded noun phrases", "case03_amounts.tel"),
    _case("counting units and merging two individuals", "case04_merge_units.tel"),
    _case("plurals with an unspecified amount", "case05_unspecified_amount.tel"),
    _case("restricting a noun with an intersective adjective", "case06_adjective_restriction.tel"),
    _case("stacked adjectives chain restrictions", "case07_nested_adjectives.tel"),
    _case("counting adjective-restricted nouns", "case08_counted_restriction.tel"),
    _case("adjective properties survive merging", "case09_adjective_over_merge.tel"),
    _case("events over actors and undergoers", "case10_events.tel"),
    _case("packaged event families", "case11_event_families.tel"),
    _case("restriction equivalences between event packagings", "case12_event_restriction_equiv.tel"),
    _case("telic and atelic event types", "case13_telicity.tel"),
    _case("culminating events and result states", "case14_culmination.tel"),
    _case(
        "dispatching a lexical entry on undergoer boundedness",
        "case15_boundedness_dispatch.tel",
        "case15_pop_lexicon.tel",
    ),
    _case("adverbs restrict event types", "case16_adverbs.tel"),
    _case("undergoer entailments for amount arguments", "case17_undergoer_entailments.tel"),
    _case("lexical entries that guarantee culmination", "case18_perfective.tel"),
    _case("rejected declarations across the error codes", "case19_rejections.tel"),
)


def corpus_dir() -> Path:
    return Path(str(resources.files("telic").joinpath("data/corpus")))


def golden_path(case: CorpusCase) -> Path:
    return corpus_dir() / "golden" / f"{case.name}.json"


def run_case(case: CorpusCase, prelude: LoadedPrelude) -> list[Report]:
    """Process one case on the processor of ``prelude``, a
    ``load_prelude()`` result, inside a rollback: the processor is left as
    it was, so every case starts from the prelude alone."""
    proc, prelude_reports = prelude
    broken = [r for r in prelude_reports if not r.ok]
    if broken:
        raise RuntimeError(f"prelude failed to load: {broken[0].render()}")
    with proc.rollback():
        return proc.process_path(corpus_dir() / case.entry)


def portable(report: Report) -> dict[str, object]:
    """A report as JSON data with the file path reduced to its basename."""
    data = report.to_data()
    data["file"] = PurePath(str(data["file"])).name
    return data


def check_case(case: CorpusCase, prelude: LoadedPrelude) -> tuple[list[Report], list[str]]:
    """Run a case (see ``run_case``) and diff it against its golden file.

    Returns the reports and a list of human-readable mismatch lines,
    empty when the case matches its golden exactly.
    """
    reports = run_case(case, prelude)
    got = [portable(r) for r in reports]
    path = golden_path(case)
    if not path.exists():
        return reports, [f"{case.name}: golden file missing: {path.name}"]
    want = json.loads(path.read_text())
    problems: list[str] = []
    if len(got) != len(want):
        problems.append(f"{case.name}: {len(got)} reports, golden has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            problems.append(f"{case.name}[{i}]: got {json.dumps(g, sort_keys=True)}")
            problems.append(f"{case.name}[{i}]: want {json.dumps(w, sort_keys=True)}")
    return reports, problems


def write_golden(case: CorpusCase, prelude: LoadedPrelude) -> Path:
    reports = run_case(case, prelude)
    path = golden_path(case)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = [portable(r) for r in reports]
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def prelude_names(prelude: LoadedPrelude) -> frozenset[str]:
    """The names ``prelude``, a ``load_prelude()`` result, declares."""
    proc, _ = prelude
    return frozenset(proc.kernel.sig.entries)


def case_mentions(case: CorpusCase) -> frozenset[str]:
    """Identifiers a case's sources mention, as candidate signature names.

    The source text is tokenized rather than parsed so that names inside
    deliberately failing declarations still count. Sum and merge syntax
    desugar to applications of ``plus`` and ``oplus``, so those tokens
    count as mentions of the corresponding primitives.
    """
    names: set[str] = set()
    for fname in case.files:
        text = (corpus_dir() / fname).read_text()
        for tok in tokenize(text, fname):
            match tok.kind:
                case "IDENT":
                    names.add(tok.text)
                case "PLUS":
                    names.add("plus")
                case "OPLUS":
                    names.add("oplus")
    return frozenset(names)


def coverage_map(prelude: LoadedPrelude) -> dict[str, frozenset[str]]:
    """Per case, the prelude entries it mentions."""
    sig = prelude_names(prelude)
    return {case.name: case_mentions(case) & sig for case in CASES}


def uncovered_names(prelude: LoadedPrelude) -> frozenset[str]:
    """Prelude entries no corpus case mentions. Empty in a healthy tree."""
    return prelude_names(prelude).difference(*(case_mentions(c) for c in CASES))
