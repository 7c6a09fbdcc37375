"""The bundled regression corpus and its golden expectations.

Each case is a lexicon file processed on top of the standard prelude.
The resulting report stream is compared against a golden JSON file, so
any drift in checking, normalization, error wording, or report order
shows up as a diff. Coverage is the prelude entries that the cases'
names resolved to while they ran; together the cases use every prelude
entry.
"""

from __future__ import annotations

import json
from difflib import SequenceMatcher
from pathlib import Path, PurePath
from typing import NamedTuple

from .elaborate import Processor, Report


class CorpusCase(NamedTuple):
    """One corpus entry: ``entry`` is the file processed, relative to the
    corpus directory. Files it imports are not listed."""

    name: str
    title: str
    entry: str


def _case(title: str, entry: str) -> CorpusCase:
    return CorpusCase(PurePath(entry).stem, title, entry)


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
    _case("dispatching a lexical entry on undergoer boundedness", "case15_boundedness_dispatch.tel"),
    _case("adverbs restrict event types", "case16_adverbs.tel"),
    _case("undergoer entailments for amount arguments", "case17_undergoer_entailments.tel"),
    _case("lexical entries that guarantee culmination", "case18_perfective.tel"),
    _case("rejected declarations across the error codes", "case19_rejections.tel"),
)


def corpus_dir() -> Path:
    return Path(__file__).parent / "data" / "corpus"


def golden_path(case: CorpusCase) -> Path:
    return corpus_dir() / "golden" / f"{case.name}.json"


def run_case(case: CorpusCase, proc: Processor) -> list[Report]:
    """Process one case on ``proc``, a processor with the prelude loaded,
    inside a rollback: ``proc`` is left as it was, so every case starts
    from the prelude alone."""
    with proc.rollback():
        return proc.process_path(corpus_dir() / case.entry)


def portable(report: Report) -> dict[str, object]:
    """A report as JSON data with the file path reduced to its basename."""
    data = report.to_data()
    data["file"] = PurePath(str(data["file"])).name
    return data


SHOWN_CHARS = 300  # the longest drifted report check_case prints whole


def check_case(case: CorpusCase, proc: Processor) -> tuple[list[Report], list[str]]:
    """Run a case (see ``run_case``) and diff it against its golden file.

    Returns the reports and a list of human-readable mismatch lines,
    empty when the case matches its golden exactly. The two report lists
    are aligned as sorted-key JSON, and every report the run dropped or
    changed is shown as a ``-`` line from the golden, every report it
    added or changed as a ``+`` line from the run, each at its index in
    its own list and cut to ``SHOWN_CHARS`` characters.
    """
    reports = run_case(case, proc)
    got = [portable(r) for r in reports]
    path = golden_path(case)
    try:
        want = json.loads(path.read_text())
        if not isinstance(want, list):
            raise ValueError("not a JSON list")
    except FileNotFoundError:
        return reports, [f"{case.name}: golden file missing: {path.name}"]
    except (OSError, ValueError) as err:
        why = getattr(err, "strerror", None) or err  # an OSError's, without its path
        return reports, [f"{case.name}: golden file unreadable: {path.name}: {why}"]
    if got == want:
        return reports, []
    problems: list[str] = []
    if len(got) != len(want):
        problems.append(f"{case.name}: {len(got)} reports, golden has {len(want)}")
    want_json = [json.dumps(w, sort_keys=True) for w in want]
    got_json = [json.dumps(g, sort_keys=True) for g in got]
    matcher = SequenceMatcher(None, want_json, got_json, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op != "equal":
            problems += [f"{case.name}[{i}]: - {_shown(want_json[i])}" for i in range(i1, i2)]
            problems += [f"{case.name}[{j}]: + {_shown(got_json[j])}" for j in range(j1, j2)]
    return reports, problems


def _shown(line: str) -> str:
    """``line``, cut to ``SHOWN_CHARS`` characters with a closing ``...``."""
    return line if len(line) <= SHOWN_CHARS else line[: SHOWN_CHARS - 3] + "..."


def write_golden(case: CorpusCase, proc: Processor) -> Path:
    """Run a case and write its reports as its golden file; an ``OSError``
    from the writing propagates."""
    reports = run_case(case, proc)
    path = golden_path(case)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = [portable(r) for r in reports]
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def uncovered_names(proc: Processor) -> frozenset[str]:
    """Entries of ``proc``'s signature, the prelude's, that no name
    resolved to since the prelude loaded. Meaningful once every case has
    run on ``proc``, and then empty in a healthy tree."""
    return frozenset(proc.kernel.sig.entries).difference(proc.elab.used)
